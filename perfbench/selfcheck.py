"""Self-check: a tiny-size smoke of every workload, untraced and traced.

Asserts that each run exits 0, is correct, and emits exactly the metrics
``BENCHMARK.json`` names -- every end-to-end metric untraced, every
per-layer metric traced -- each with the unit ``BENCHMARK.json`` gives
it, that ``BENCHMARK.json`` and ``run.py`` list the same metrics, and
that every workload ``BENCHMARK.json`` lists is one ``run.py`` runs.
Takes well under a minute.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if wanted[0] != run.END_TO_END or wanted[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json and run.py list different metrics")
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(run.WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads run.py lacks: "
                        f"{sorted(set(listed) - set(run.WORKLOADS))}")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
                check=False,
            )
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n"
                                f"{done.stderr[-1500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result}")
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = set(wanted[trace]) - set(emitted)
                extra = set(emitted) - set(wanted[trace])
                units = {n for n in set(emitted) & set(wanted[trace])
                         if emitted[n] != wanted[trace][n]}
                problems.append(f"{where}: missing {sorted(missing)}, "
                                f"extra {sorted(extra)}, "
                                f"wrong units {sorted(units)}")
            print(f"{where}: {len(emitted)} metrics, "
                  f"{result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

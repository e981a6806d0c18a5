"""Steadiness check: run the benchmark on several seeds, report spreads.

For each workload and end-to-end metric, the spread is the distance
between the first and third quartiles of the per-run values (Python's
``statistics.quantiles(values, n=4)``) as a share of their median.  A
metric is steady when its spread is within its bound in
``BENCHMARK.json``; the benchmark aims for a third of the bound.  The
check is then repeated on held-out seeds, and the second median must not
be worse than the first by more than the bound.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --seed-base 100 \\
        --held-out-base 200 --json-out .perfbench_out/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def _worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--held-out-base", type=int, default=None,
                        help="repeat the check on seeds from this base")
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    bases = [args.seed_base]
    if args.held_out_base is not None:
        bases.append(args.held_out_base)

    results: dict = {}
    ok = True
    for workload in workloads:
        medians = []
        for base in bases:
            values: dict[str, list[float]] = {name: [] for name in metrics}
            for seed in range(base, base + args.runs):
                for name, value in _run(workload, seed,
                                        spec["run_seconds"]).items():
                    values[name].append(value)
            summary = {}
            for name, samples in values.items():
                mid, share = spread(samples)
                bound = metrics[name]["bound"]
                steady = share <= bound
                ok &= steady
                summary[name] = {"median": mid, "spread": share,
                                 "bound": bound, "values": samples}
                print(f"{workload:15s} seeds {base}+ {name:12s} "
                      f"median {mid:10.4f} spread {share:6.1%} "
                      f"(bound {bound:.0%}, target {bound / 3:.1%})"
                      f"{'' if steady else '  UNSTEADY'}", flush=True)
            medians.append(summary)
            results.setdefault(workload, []).append(
                {"seed_base": base, "metrics": summary}
            )
        if len(medians) == 2:
            for name, metric in metrics.items():
                worse = _worse(medians[0][name]["median"],
                               medians[1][name]["median"], metric["better"])
                held = worse <= metric["bound"]
                ok &= held
                print(f"{workload:15s} held-out     {name:12s} "
                      f"median moved {worse:+6.1%} worse"
                      f"{'' if held else '  BEYOND BOUND'}", flush=True)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(results, indent=1, sort_keys=True) + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

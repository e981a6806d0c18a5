"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-exhibits --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes a Chrome trace.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report, and the full
report (provenance, every named figure, failures) is written under
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    OUT,
    ROOT,
    SRC,
    Refusal,
    check_determinism,
    leaked_resources,
    provenance,
    require_aesni,
    shm_segments,
    source_digest,
)

#: every workload this command runs.  ``BENCHMARK.json`` lists all but
#: ``service-steady``, whose run-to-run spread exceeded the ``wall_s``
#: bound (see README.md); it stays runnable by hand.
WORKLOADS = ("paper-exhibits", "engine-replay", "service-steady")

#: end-to-end metrics (tracing off), the same three on every workload
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

_KERNELS = ("ctr.encrypt", "mac.tags", "ecc.flip_and_check",
            "counters.encode", "counters.decode")

#: per-layer metrics (traced run); a layer a workload does not reach
#: reports 0 there
PER_LAYER = {
    "workloads.trace_gen_s": "s",
    "harness.writeback_filter_s": "s",
    "harness.writebacks": "count",
    "memsim.cpu.run_self_s": "s",
    "memsim.cache.hierarchy_s": "s",
    "memsim.cache.accesses": "count",
    "memsim.cache.hit_ratio": "ratio",
    "memsim.dram.access_s": "s",
    "memsim.dram.accesses": "count",
    "memsim.dram.row_hit_ratio": "ratio",
    "core.engine.timing.backend_self_s": "s",
    "core.engine.timing.metadata_fetches": "count",
    "core.counters.on_write_s": "s",
    "core.counters.reencryptions": "count",
    "fast.write_many_s": "s",
    "fast.read_many_s": "s",
    **{f"fast.kernel.{k}_s": "s" for k in _KERNELS},
    **{f"fast.kernel.{k}_calls": "count" for k in _KERNELS},
    "fast.kernel.blocks_per_call": "blocks/call",
    "fast.serializations_per_write": "count/write",
    "fast.fallback.scalar": "count",
    "ecc.hamming_s": "s",
    "core.engine.tree.update_leaf_s": "s",
    "core.engine.tree.verify_leaf_s": "s",
    "faultfs.fsyncs_per_write": "count/write",
    "persist.journal.seals_per_write": "count/write",
    "persist.journal.bytes_per_write": "B/write",
    "service.handle_write_ms": "ms",
    "service.handle_read_ms": "ms",
    "service.engine_s": "s",
    "service.fsync_s": "s",
    "service.wire_ms": "ms",
    "service.client.retries": "count",
    "service.rejected": "count",
    "obs.trace_overhead": "ratio",
    "obs.span_coverage": "ratio",
}

#: top-level layer spans must cover this share of the traced wall time
MIN_SPAN_COVERAGE = 0.9


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-check")
    return parser.parse_args(argv)


def _workload(name: str):
    if name == "paper-exhibits":
        import exhibits
        return exhibits
    if name == "engine-replay":
        import engine
        return engine
    import service
    return service


def _print_report(workload: str, seed: int, report: dict, failures: list
                  ) -> None:
    print(f"perfbench {workload} seed={seed}")
    for name, value in report.items():
        if name in ("layers", "recorder"):
            continue
        print(f"  {name}: {json.dumps(value, sort_keys=True)}")
    for name, value in report.get("layers", {}).items():
        print(f"  layer {name}: {value:.6g} {PER_LAYER[name]}")
    for reason in failures:
        print(f"  FAILED: {reason}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source {SRC / 'repro'} not found",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    try:
        require_aesni()
        digest = source_digest()
        shm_before = shm_segments()
        outcome = _workload(args.workload).run(
            args.seed, args.seconds, trace, args.size
        )
        leaks = leaked_resources(shm_before)
        outcome.check(not leaks, "; ".join(leaks))
        check_determinism(
            outcome,
            f"{digest[:16]}-{args.workload}-{args.size}-seed{args.seed}",
        )
    except Refusal as refusal:
        print(f"perfbench: refused: {refusal}", file=sys.stderr)
        return 3

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    if trace:
        layers = outcome.report["layers"]
        for name in PER_LAYER:
            layers.setdefault(name, 0.0)
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {unknown}")
        outcome.check(
            layers["obs.span_coverage"] >= MIN_SPAN_COVERAGE,
            f"top-level spans cover {layers['obs.span_coverage']:.1%} "
            f"of the traced wall time",
        )
        recorder = outcome.report.pop("recorder")
        chrome = OUT / f"trace-{tag}.json"
        recorder.write_chrome(chrome, f"perfbench {args.workload}")
        outcome.report["chrome_trace"] = str(chrome)
        metrics = {name: (layers[name], PER_LAYER[name]) for name in PER_LAYER}
    else:
        metrics = outcome.metrics
        if set(metrics) != set(END_TO_END):
            raise RuntimeError(f"metrics {sorted(metrics)} != {END_TO_END}")

    outcome.report["error_rate"] = outcome.failed / outcome.attempted
    full = {
        "provenance": provenance(args.seed, digest),
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "report": outcome.report,
        "determinism": outcome.determinism,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{tag}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n"
    )
    _print_report(args.workload, args.seed, outcome.report, outcome.failures)
    print(json.dumps(full["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

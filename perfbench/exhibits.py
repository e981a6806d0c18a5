"""Workload ``paper-exhibits``: Figure 8 and Table 2 for canneal and facesim.

One pass runs ``PerformanceExperiment.run_app`` (plain DRAM plus the four
engine configurations) and ``ReencryptionExperiment.run_app`` (split,
7-bit delta and dual-length counters) for both applications at the
CLI's default regions (128 MiB for ``repro figure8``, 32 MiB for
``repro table2``).  Trace generation is inside the timed pass because
every ``repro figure8``/``table2`` invocation pays it.

This is the only workload where the workload generators, the LLC
write-back filter, the memsim CPU/cache/DRAM models and the timing
engine do the work; the functional crypto engine does none.  canneal
spends most of a pass generating its trace (the hot-set placement over
the whole region), facesim most of it in the simulator, so a fix to
either layer shows, and the traced run tells them apart.

The traced pass calls the same ``run_app`` entry points with span
wrappers installed on the classes they build (trace generation, the LLC
filter, the CPU model, the cache hierarchy, DRAM, both memory backends
and the counter schemes), so the traced and untraced passes run the
same code.

Table 2 runs at its own access count: at Figure 8's count no counter
overflows, and the re-encryption path Table 2 reports would not run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Any

from common import (
    ROOT,
    SRC,
    Outcome,
    pass_count,
    expect,
    median,
    peak_rss_mib,
)
from spans import SpanRecorder, installed

APPS = ("canneal", "facesim")
CORES = 4
MIB = 1024 * 1024
#: (Figure 8 region, Table 2 region, Figure 8 accesses per core, Table 2
#: accesses per core) per size.  The full regions are the ``repro
#: figure8`` / ``repro table2`` defaults.  Of the Table 2 counts tried
#: (10k, 40k, 150k, 300k), 300k is the first at which split counters
#: re-encrypt in both apps; the CLI default is 600k.  The tiny size
#: re-encrypts nothing.
SIZES = {
    "full": (128 * MIB, 32 * MIB, 10_000, 300_000),
    "tiny": (4 * MIB, 4 * MIB, 400, 2_000),
}
#: registry totals kept as simulated statistics
STAT_PREFIXES = ("cache.", "dram.", "engine.traffic.", "counters.")
SETUPS = 5
#: seconds one pass takes on the 2-CPU machine the benchmark was sized on
NOMINAL_PASS_S = 35.0


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI: the set-up a
    ``repro figure8`` user pays before the first trace record."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", "import repro.cli"], cwd=ROOT, env=env,
    )
    # A blocking wait: ``subprocess.run(timeout=...)`` polls in steps of
    # up to 50 ms, which would quantize the measured time.
    guard = threading.Timer(120, child.kill)
    guard.start()
    try:
        code = child.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing repro.cli exited {code}")
    return elapsed


def _stats(totals: dict[str, Any]) -> dict[str, Any]:
    return {
        name: value for name, value in sorted(totals.items())
        if name.startswith(STAT_PREFIXES)
    }


def _app_stats(app: str, plain_ipc: float, ipc: dict[str, float],
               raw_counts: dict[str, int], cycles: float) -> dict[str, Any]:
    return {
        "app": app,
        "plain_ipc": repr(plain_ipc),
        "normalized_ipc": {
            name: repr(value / plain_ipc) for name, value in sorted(ipc.items())
        },
        "table2_raw_counts": dict(sorted(raw_counts.items())),
        "table2_simulated_cycles": repr(cycles),
    }


def _check_app(outcome: Outcome, stats: dict[str, Any], size: str) -> None:
    """The conditions the headline-claims benchmark asserts, per app."""
    app = stats["app"]
    normalized = {k: float(v) for k, v in stats["normalized_ipc"].items()}
    outcome.check(
        normalized["combined"] > normalized["bmt_baseline"],
        f"{app}: combined does not gain over bmt_baseline",
    )
    outcome.check(
        normalized["mac_in_ecc"] > normalized["bmt_baseline"],
        f"{app}: mac_in_ecc does not gain over bmt_baseline",
    )
    outcome.check(
        all(0.0 < value <= 1.0 for value in normalized.values()),
        f"{app}: normalized IPC outside (0, 1]: {normalized}",
    )
    counts = stats["table2_raw_counts"]
    if size == "full":
        outcome.check(
            counts["split"] > 0,
            f"{app}: no split-counter re-encryption in Table 2: {counts}",
        )
    outcome.check(
        counts["split"] >= counts["delta7"],
        f"{app}: split re-encryptions below delta7: {counts}",
    )


def _untraced_pass(size: str, seed: int) -> tuple[float, dict[str, Any]]:
    """One timed pass through the public ``run_app`` entry points."""
    from repro.harness.runner import (
        PerformanceExperiment,
        ReencryptionExperiment,
    )
    from repro.obs.metrics import MetricRegistry

    fig8_region, table2_region, fig8_accesses, table2_accesses = SIZES[size]
    fig8_registry, table2_registry = MetricRegistry(), MetricRegistry()
    fig8 = PerformanceExperiment(
        region_bytes=fig8_region, accesses_per_core=fig8_accesses,
        cores=CORES, seed=seed, registry=fig8_registry,
    )
    table2 = ReencryptionExperiment(
        region_bytes=table2_region, accesses_per_core=table2_accesses,
        cores=CORES, seed=seed, registry=table2_registry,
    )
    for what, wanted, ran in (
        ("figure8 region", fig8_region, fig8.region_bytes),
        ("figure8 accesses", fig8_accesses, fig8.accesses_per_core),
        ("figure8 seed", seed, fig8.seed),
        ("table2 region", table2_region, table2.region_bytes),
        ("table2 accesses", table2_accesses, table2.accesses_per_core),
        ("table2 seed", seed, table2.seed),
    ):
        expect(what, wanted, ran)
    apps = {}
    start = time.perf_counter()
    for app in APPS:
        run = fig8.run_app(app)
        row = table2.run_app(app)
        apps[app] = (run, row)
    wall = time.perf_counter() - start
    stats = {
        "apps": [
            _app_stats(app, run.plain_ipc, run.ipc, row.raw_counts,
                       row.simulated_cycles)
            for app, (run, row) in apps.items()
        ],
        "figure8_totals": _stats(fig8_registry.snapshot().totals()),
        "table2_totals": _stats(table2_registry.snapshot().totals()),
    }
    for app, (run, _) in apps.items():
        expect(f"{app} configurations", set(fig8.configs), set(run.ipc))
    return wall, stats


def _patches(recorder: SpanRecorder, seen: dict[str, int]) -> list[tuple]:
    """Wrappers for the traced pass, on the classes ``run_app`` builds.

    ``seen`` collects what the wrappers count on the way: LLC-filter
    write-backs, hierarchy accesses and those that went to memory.
    """
    from repro.core.counters.base import CounterScheme
    from repro.core.engine.timing import EncryptionTimingBackend
    from repro.harness.runner import WritebackFilter
    from repro.memsim.cache.hierarchy import CacheHierarchy
    from repro.memsim.cpu.system import PlainMemoryBackend, TraceDrivenSystem
    from repro.memsim.dram.system import DramSystem
    from repro.workloads.parsec import ParsecProfile

    push, pop = recorder.push, recorder.pop

    def wrap(name: str) -> Any:
        return lambda original: recorder.wrap(name, original)

    def count_writebacks(original: Any) -> Any:
        traced = recorder.wrap("harness.writeback_filter", original)

        def filter_(self: Any, traces: list) -> Any:
            writebacks, instructions = traced(self, traces)
            seen["writebacks"] += len(writebacks)
            return writebacks, instructions

        return filter_

    def count_accesses(original: Any) -> Any:
        def access(self: Any, *args: Any, **kwargs: Any) -> Any:
            push("memsim.cache.access")
            try:
                result = original(self, *args, **kwargs)
            finally:
                pop()
            seen["cache_accesses"] += 1
            if result.level == "memory":
                seen["to_memory"] += 1
            return result

        return access

    return [
        (ParsecProfile, "traces", wrap("workloads.trace_gen")),
        (WritebackFilter, "filter", count_writebacks),
        (TraceDrivenSystem, "run", wrap("memsim.cpu.run")),
        (CacheHierarchy, "access", count_accesses),
        (CacheHierarchy, "drain", wrap("memsim.cache.drain")),
        (DramSystem, "access", wrap("memsim.dram.access")),
        (PlainMemoryBackend, "read_block", wrap("memsim.backend.read_block")),
        (PlainMemoryBackend, "write_block",
         wrap("memsim.backend.write_block")),
        (EncryptionTimingBackend, "read_block",
         wrap("core.engine.timing.read_block")),
        (EncryptionTimingBackend, "write_block",
         wrap("core.engine.timing.write_block")),
        (CounterScheme, "on_write", wrap("core.counters.on_write")),
    ]


def _traced_pass(size: str, seed: int,
                 recorder: SpanRecorder) -> tuple[float, dict[str, Any],
                                                  dict[str, float]]:
    """:func:`_untraced_pass` with span wrappers installed."""
    seen = {"writebacks": 0, "cache_accesses": 0, "to_memory": 0}
    with installed(_patches(recorder, seen)):
        wall, stats = _untraced_pass(size, seed)
    fig8_totals, table2_totals = stats["figure8_totals"], stats["table2_totals"]
    cache_accesses = seen["cache_accesses"]
    dram_accesses = fig8_totals.get("dram.read", 0) + fig8_totals.get(
        "dram.write", 0
    )
    reencryptions = sum(
        value for totals in (fig8_totals, table2_totals)
        for name, value in totals.items()
        if name.startswith("counters.") and name.endswith("reencrypt")
    )
    layers = {
        "workloads.trace_gen_s": recorder.inclusive.get(
            "workloads.trace_gen", 0.0),
        "harness.writeback_filter_s": recorder.inclusive.get(
            "harness.writeback_filter", 0.0),
        "harness.writebacks": seen["writebacks"],
        "memsim.cpu.run_self_s": recorder.self_time.get(
            "memsim.cpu.run", 0.0),
        "memsim.cache.hierarchy_s": recorder.inclusive.get(
            "memsim.cache.access", 0.0)
        + recorder.inclusive.get("memsim.cache.drain", 0.0),
        "memsim.cache.accesses": cache_accesses,
        "memsim.cache.hit_ratio": (cache_accesses - seen["to_memory"])
        / cache_accesses if cache_accesses else 0.0,
        "memsim.dram.access_s": recorder.inclusive.get(
            "memsim.dram.access", 0.0),
        "memsim.dram.accesses": recorder.calls.get("memsim.dram.access", 0),
        "memsim.dram.row_hit_ratio": fig8_totals.get("dram.row_hit", 0)
        / dram_accesses if dram_accesses else 0.0,
        "core.engine.timing.backend_self_s": recorder.self_seconds(
            "core.engine.timing"),
        "core.engine.timing.metadata_fetches": sum(
            fig8_totals.get(f"engine.traffic.{kind}_fetch", 0)
            for kind in ("counter", "tree", "mac")
        ),
        "core.counters.on_write_s": recorder.inclusive.get(
            "core.counters.on_write", 0.0),
        "core.counters.reencryptions": reencryptions,
    }
    return wall, stats, layers


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    outcome = Outcome()
    setups = [_import_seconds() for _ in range(SETUPS)]

    passes: list[float] = []
    stats: dict[str, Any] | None = None
    for _ in range(1 if trace else pass_count(seconds, NOMINAL_PASS_S)):
        wall, pass_stats = _untraced_pass(size, seed)
        passes.append(wall)
        if stats is None:
            stats = pass_stats
            for app_stats in stats["apps"]:
                _check_app(outcome, app_stats, size)
        else:
            outcome.check(pass_stats == stats,
                          "simulated statistics differ between passes")
    assert stats is not None
    outcome.attempted += 2 * len(APPS) * len(passes)

    outcome.report = {
        "setup_s": setups,
        "exhibit_wall_s": passes,
        "peak_rss_mb": peak_rss_mib(),
        "normalized_ipc": {
            s["app"]: s["normalized_ipc"] for s in stats["apps"]
        },
        "table2_raw_counts": {
            s["app"]: s["table2_raw_counts"] for s in stats["apps"]
        },
    }
    if trace:
        recorder = SpanRecorder()
        traced_wall, traced_stats, layers = _traced_pass(size, seed, recorder)
        outcome.check(traced_stats == stats,
                      "traced pass statistics differ from the untraced pass")
        layers["obs.trace_overhead"] = traced_wall / passes[0]
        layers["obs.span_coverage"] = recorder.top_level / traced_wall
        outcome.report["layers"] = layers
        outcome.report["recorder"] = recorder
    else:
        outcome.metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(passes), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    outcome.determinism = stats
    return outcome

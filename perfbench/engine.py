"""Workload ``engine-replay``: LLC write-back streams through the engine.

The write-back streams of ``canneal`` and ``stream`` (the same
``WritebackFilter`` streams that drive Table 2) are replayed through a
``SecureMemory`` wrapped in ``BatchSecureMemory`` (preset ``combined``,
keystream ``aesni``, kernel mode ``fast``, chunks of 256 writes, one
process); then every written block is read back in chunks of 256 and
compared.  Streams, block payloads and engines are built in set-up, so
the timed write and read phases hold only engine calls.

Why: it drives the engine's counter serialization, keystream, MAC,
Hamming-over-MAC and tree layers at large batch sizes with no
durability.  canneal scatters first-touch writes over many block groups;
stream rewrites sequential groups (delta resets, lagging-group
re-serialization).  Write and read phases are timed apart, so a
write-side gain that costs reads shows in the report and the trace.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from typing import Any

from common import Outcome, pass_count, expect, median, peak_rss_mib
from spans import SpanRecorder, installed

APPS = ("canneal", "stream")
PRESET = "combined"
KEYSTREAM = "aesni"
KERNEL_MODE = "fast"
CHUNK = 256
CORES = 4
#: (region MiB, accesses per core) per size; 8 MiB / 20k is the
#: ``repro bench`` default
SIZES = {"full": (8, 20_000), "tiny": (1, 1_500)}
SETUPS = 5
#: seconds one pass takes on the 2-CPU machine the benchmark was sized on
NOMINAL_PASS_S = 5.0
KERNELS = (
    "ctr.encrypt", "mac.tags", "ecc.flip_and_check",
    "counters.encode", "counters.decode",
)


def engine_patches(recorder: SpanRecorder,
                   kernel_blocks: dict[str, int]) -> list[tuple]:
    """Wrappers on the engine layers' public methods (traced run only)."""
    from repro.core.counters.base import CounterScheme
    from repro.core.engine.tree import BonsaiMerkleTree
    from repro.ecc.hamming import HammingSecDed
    from repro.fast.batch_memory import BatchSecureMemory
    from repro.fast.kernels import KernelTable

    push, pop = recorder.push, recorder.pop

    def kernel_run(original: Any) -> Any:
        def run(self: Any, name: str, *args: Any, blocks: int = 1) -> Any:
            kernel_blocks[name] = kernel_blocks.get(name, 0) + blocks
            push("fast.kernel." + name)
            try:
                return original(self, name, *args, blocks=blocks)
            finally:
                pop()
        return run

    def batch_flush(original: Any) -> Any:
        # A service write acknowledges through EngineStack.flush, which
        # flushes the batch queue: that flush is the write path.
        def flush(self: Any) -> Any:
            name = ("fast.write_many" if recorder.current == "service.engine"
                    else "fast.flush")
            push(name)
            try:
                return original(self)
            finally:
                pop()
        return flush

    def wrap(name: str) -> Any:
        return lambda original: recorder.wrap(name, original)

    return [
        (KernelTable, "run", kernel_run),
        (BatchSecureMemory, "write_many", wrap("fast.write_many")),
        (BatchSecureMemory, "read_many", wrap("fast.read_many")),
        (BatchSecureMemory, "flush", batch_flush),
        (BonsaiMerkleTree, "update_leaf",
         wrap("core.engine.tree.update_leaf")),
        (BonsaiMerkleTree, "verify_leaf",
         wrap("core.engine.tree.verify_leaf")),
        (CounterScheme, "on_write", wrap("core.counters.on_write")),
        (HammingSecDed, "encode", wrap("ecc.hamming.encode")),
        (HammingSecDed, "decode", wrap("ecc.hamming.decode")),
    ]


def engine_layers(recorder: SpanRecorder, kernel_blocks: dict[str, int],
                  writes: int, totals: list[dict[str, Any]]
                  ) -> dict[str, float]:
    """Per-layer figures of the engine layers from one traced run."""
    inclusive, calls = recorder.inclusive, recorder.calls
    layers: dict[str, float] = {
        "fast.write_many_s": inclusive.get("fast.write_many", 0.0),
        "fast.read_many_s": inclusive.get("fast.read_many", 0.0),
    }
    for kernel in KERNELS:
        span = "fast.kernel." + kernel
        layers[f"{span}_s"] = inclusive.get(span, 0.0)
        layers[f"{span}_calls"] = calls.get(span, 0)
    kernel_calls = sum(calls.get("fast.kernel." + k, 0) for k in kernel_blocks)
    layers["fast.kernel.blocks_per_call"] = (
        sum(kernel_blocks.values()) / kernel_calls if kernel_calls else 0.0
    )
    layers["fast.serializations_per_write"] = (
        calls.get("fast.kernel.counters.encode", 0) / writes if writes else 0.0
    )
    layers["fast.fallback.scalar"] = sum(
        t.get("fast.fallback.scalar", 0) for t in totals
    )
    layers["ecc.hamming_s"] = inclusive.get(
        "ecc.hamming.encode", 0.0) + inclusive.get("ecc.hamming.decode", 0.0)
    layers["core.engine.tree.update_leaf_s"] = inclusive.get(
        "core.engine.tree.update_leaf", 0.0)
    layers["core.engine.tree.verify_leaf_s"] = inclusive.get(
        "core.engine.tree.verify_leaf", 0.0)
    layers["core.counters.on_write_s"] = inclusive.get(
        "core.counters.on_write", 0.0)
    layers["core.counters.reencryptions"] = sum(
        value for t in totals for name, value in t.items()
        if name.startswith("counters.") and name.endswith("reencrypt")
    )
    return layers


class _Replay:
    """One application's inputs: its write-back stream and payloads."""

    def __init__(self, app: str, seed: int, size: str,
                 recorder: SpanRecorder | None) -> None:
        from repro.harness.runner import BLOCK_BYTES, WritebackFilter
        from repro.workloads.micro import MICRO_PROFILES, micro_profile
        from repro.workloads.parsec import profile

        region_mb, accesses = SIZES[size]
        self.app = app
        self.seed = seed
        self.region_bytes = region_mb * 1024 * 1024
        app_profile = (micro_profile(app) if app in MICRO_PROFILES
                       else profile(app))
        with _span(recorder, "workloads.trace_gen"):
            traces = app_profile.traces(
                accesses, self.region_bytes // BLOCK_BYTES, CORES, seed
            )
        with _span(recorder, "harness.writeback_filter"):
            blocks, _ = WritebackFilter().filter(traces)
        self.writes = [
            (block * BLOCK_BYTES,
             hashlib.sha512(f"{app}/{seed}/{block}/{i}".encode()).digest())
            for i, block in enumerate(blocks)
        ]
        self.expected = dict(self.writes)
        self.addresses = sorted(self.expected)

    def build(self) -> tuple[Any, Any, Any]:
        """A fresh engine, its batch facade and its metrics registry."""
        from repro.core.engine.config import preset
        from repro.core.engine.secure_memory import SecureMemory
        from repro.fast.batch_memory import BatchSecureMemory
        from repro.fast.backends import resolve_backend
        from repro.obs.metrics import MetricRegistry, use_registry

        registry = MetricRegistry()
        key = hashlib.sha384(
            f"perfbench/{self.app}/{self.seed}".encode()
        ).digest()
        config = preset(PRESET, protected_bytes=self.region_bytes,
                        keystream_mode=KEYSTREAM)
        with use_registry(registry):
            engine = SecureMemory(config, key, registry=registry)
            batch = BatchSecureMemory(engine, mode=KERNEL_MODE)
        expect("keystream backend", KEYSTREAM,
               resolve_backend(engine.config.keystream_mode).name)
        expect("kernel mode", KERNEL_MODE, batch.mode)
        expect("protected bytes", self.region_bytes,
               engine.config.protected_bytes)
        return engine, batch, registry


def _span(recorder: SpanRecorder | None, name: str) -> Any:
    """``recorder.span(name)`` when tracing, else nothing."""
    return recorder.span(name) if recorder is not None else nullcontext()


def _setup(seed: int, size: str, recorder: SpanRecorder | None = None
           ) -> tuple[float, list[_Replay], list[tuple]]:
    start = time.perf_counter()
    replays = [_Replay(app, seed, size, recorder) for app in APPS]
    with _span(recorder, "engine.build"):
        engines = [replay.build() for replay in replays]
    return time.perf_counter() - start, replays, engines


def _pass(replays: list[_Replay], engines: list[tuple]
          ) -> tuple[float, float, dict[str, Any], int]:
    """Write phase, then read phase, for every app on fresh engines."""
    from repro.harness.parallel import state_digest

    write_s = read_s = 0.0
    mismatches = 0
    stats: dict[str, Any] = {}
    for replay, (engine, batch, registry) in zip(replays, engines):
        writes = replay.writes
        start = time.perf_counter()
        for offset in range(0, len(writes), CHUNK):
            batch.write_many(writes[offset:offset + CHUNK])
        write_s += time.perf_counter() - start

        addresses = replay.addresses
        start = time.perf_counter()
        results = []
        for offset in range(0, len(addresses), CHUNK):
            results.extend(batch.read_many(addresses[offset:offset + CHUNK]))
        read_s += time.perf_counter() - start
        mismatches += sum(
            result.data != replay.expected[address]
            for address, result in zip(addresses, results)
        )
        totals = registry.snapshot().totals()
        stats[replay.app] = {
            "writes": len(writes),
            "unique_blocks": len(addresses),
            "state_digest": state_digest(engine),
            "metrics": {
                name: value for name, value in sorted(totals.items())
                if name.startswith(("counters.", "fast.", "engine."))
            },
        }
    return write_s, read_s, stats, mismatches


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    outcome = Outcome()
    setups = []
    replays: list[_Replay] = []
    engines: list[tuple] = []
    for _ in range(SETUPS):
        replays = engines = []  # drop the previous set-up before timing
        setup_s, replays, engines = _setup(seed, size)
        setups.append(setup_s)

    passes: list[float] = []
    write_times: list[float] = []
    read_times: list[float] = []
    stats: dict[str, Any] | None = None
    for _ in range(1 if trace else pass_count(seconds, NOMINAL_PASS_S)):
        if write_times:
            engines = [replay.build() for replay in replays]
        write_s, read_s, pass_stats, mismatches = _pass(replays, engines)
        write_times.append(write_s)
        read_times.append(read_s)
        passes.append(write_s + read_s)
        blocks = sum(len(r.writes) + len(r.addresses) for r in replays)
        outcome.attempted += blocks
        if mismatches:
            outcome.fail(f"{mismatches} read-back mismatches")
        if stats is None:
            stats = pass_stats
        else:
            outcome.check(pass_stats == stats,
                          "state digests differ between passes")
    assert stats is not None
    written = sum(len(r.writes) for r in replays)
    read = sum(len(r.addresses) for r in replays)
    outcome.report = {
        "setup_s": setups,
        "pass_s": passes,
        "engine_write_blocks_per_s": [written / w for w in write_times],
        "engine_read_blocks_per_s": [read / r for r in read_times],
        "peak_rss_mb": peak_rss_mib(),
        "state_digest": {app: s["state_digest"] for app, s in stats.items()},
    }
    if trace:
        recorder = SpanRecorder()
        kernel_blocks: dict[str, int] = {}
        traced_start = time.perf_counter()
        with installed(engine_patches(recorder, kernel_blocks)):
            _, traced_replays, traced_engines = _setup(seed, size, recorder)
            _, _, traced_stats, mismatches = _pass(
                traced_replays, traced_engines
            )
        traced_wall = time.perf_counter() - traced_start
        outcome.check(mismatches == 0 and traced_stats == stats,
                      "traced pass differs from the untraced pass")
        layers = {
            "workloads.trace_gen_s": recorder.inclusive.get(
                "workloads.trace_gen", 0.0),
            "harness.writeback_filter_s": recorder.inclusive.get(
                "harness.writeback_filter", 0.0),
            "harness.writebacks": written,
            **engine_layers(
                recorder, kernel_blocks, written,
                [e[2].snapshot().totals() for e in traced_engines],
            ),
            "obs.trace_overhead": traced_wall / (median(setups) + passes[0]),
        }
        # Set-up also builds payloads and the pass compares read-backs:
        # that is the benchmark's own work, so it is left uncovered.
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

"""Parallel benchmark runner: shard applications across worker processes.

``repro bench`` replays each application's DRAM write-back stream (the
same :class:`~repro.harness.runner.WritebackFilter` stream that drives
Table 2) through a functional :class:`SecureMemory` engine wrapped in the
:class:`~repro.fast.batch_memory.BatchSecureMemory` facade, then reads
every written block back and checks the payloads round-tripped.  Each
application runs under its own fresh :class:`MetricRegistry`; the
per-app registries are merged into one ``BENCH_*.json``-shaped payload.

The parent generates each app's write-back stream once, publishes the
block indices as an int64 array in a ``multiprocessing.shared_memory``
segment, and workers attach a numpy view: the block batch crosses the
process boundary zero-copy instead of being pickled through the pool
pipe.  The parent owns every segment and unlinks them all in a
``finally``, so worker crashes cannot leak ``/dev/shm`` entries.

Determinism contract (pinned by ``tests/fast/test_parallel_bench.py``):
the merged payload is **byte-identical** for any worker count on the
same seed.  Three rules keep it that way:

* apps are independent -- each app's whole world (traces, engine, key)
  is derived from ``(app, seed)`` alone, never from shared state;
* the payload carries no wall-clock, PID, hostname or worker count;
* every dict in the payload is emitted with sorted keys.

``workers=1`` runs inline (no pool), so single-process debugging hits
the exact same code path the pool workers execute -- including the
attach-to-segment path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import pathlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.fast.batch_memory import BatchSecureMemory
from repro.harness.runner import BLOCK_BYTES, WritebackFilter
from repro.obs.metrics import MetricRegistry, use_registry
from repro.workloads.micro import MICRO_PROFILES, micro_profile
from repro.workloads.parsec import profile

BENCH_SCHEMA = "repro.bench/1"

#: writes/reads per batch flush -- large enough to amortize the batched
#: kernels, small enough to keep peak memory flat.
FLUSH_CHUNK = 256

#: recognizable /dev/shm prefix so leak checks (and humans) can find
#: stray bench segments
SHM_PREFIX = "repro-bench-"

_SHM_SEQ = itertools.count()


@dataclass(frozen=True)
class BenchSpec:
    """Everything that determines one bench run's payload (and nothing
    that doesn't -- the worker count is deliberately absent)."""

    apps: tuple = ()
    mode: str = "fast"
    accesses: int = 20_000
    region_mb: int = 8
    cores: int = 4
    seed: int = 1
    preset: str = "combined"
    keystream: str = "splitmix"
    paranoid_sample: int = 0

    def config_dict(self) -> dict:
        return {
            "apps": sorted(self.apps),
            "mode": self.mode,
            "accesses": self.accesses,
            "region_mb": self.region_mb,
            "cores": self.cores,
            "seed": self.seed,
            "preset": self.preset,
            "keystream": self.keystream,
            "paranoid_sample": self.paranoid_sample,
        }


def _resolve_profile(name: str):
    if name in MICRO_PROFILES:
        return micro_profile(name)
    return profile(name)


def _app_key(app: str, seed: int) -> bytes:
    """48-byte engine key derived from (app, seed) alone."""
    return hashlib.sha384(f"repro.bench/{app}/{seed}".encode()).digest()


def _payload_for(app: str, seed: int, block: int, sequence: int) -> bytes:
    """Deterministic 64-byte block payload for one write-back."""
    return hashlib.sha512(
        f"{app}/{seed}/{block}/{sequence}".encode()
    ).digest()


def merge_totals(totals: list[dict[str, int]]) -> dict[str, int]:
    """Sum metric-total dicts into one, with deterministically sorted keys.

    The merge discipline every multi-worker payload in this repo uses:
    values summed per name, keys emitted sorted, so the merged dict is
    byte-identical for any worker count or arrival order.
    """
    merged: dict[str, int] = {}
    for part in totals:
        for name in part:
            merged[name] = merged.get(name, 0) + part[name]
    return {name: merged[name] for name in sorted(merged)}


def state_digest(engine: SecureMemory) -> str:
    """Hash of the engine's externally observable end state.

    Two runs that produce the same digest wrote bit-identical
    ciphertexts, counter metadata and tree root -- the strongest
    cross-worker / cross-mode equivalence signal one number can carry.
    """
    h = hashlib.sha256()
    for block in sorted(engine.ciphertexts):
        h.update(int(block).to_bytes(8, "little"))
        h.update(engine.ciphertexts[block])
    for group in sorted(engine.counter_storage):
        h.update(int(group).to_bytes(8, "little"))
        h.update(engine.counter_storage[group])
    h.update(engine.tree.root_digest().to_bytes(32, "little"))
    return h.hexdigest()


def _trace_writebacks(app: str, spec: BenchSpec) -> tuple[list, int]:
    """Generate one app's DRAM write-back stream (meters into the
    active registry: the LLC filter cache counts its lookups)."""
    app_profile = _resolve_profile(app)
    region_blocks = spec.region_mb * 1024 * 1024 // BLOCK_BYTES
    traces = app_profile.traces(
        spec.accesses, region_blocks, spec.cores, spec.seed
    )
    return WritebackFilter().filter(traces)


def prepare_app(app: str, spec: BenchSpec) -> tuple[np.ndarray, int, dict]:
    """Parent-side trace prep: the write-back stream a worker replays.

    Returns ``(block indices as int64 array, instruction count, metric
    totals from trace generation)``.  The totals travel with the task
    and merge into the app's own, so the payload counts trace
    generation wherever it ran.
    """
    registry = MetricRegistry()
    with use_registry(registry):
        writebacks, instructions = _trace_writebacks(app, spec)
    blocks = np.asarray(writebacks, dtype=np.int64)
    return blocks, instructions, registry.snapshot().totals()


def run_app(
    app: str,
    spec: BenchSpec,
    prepared: tuple[Sequence[int], int],
) -> tuple[dict, dict]:
    """Run one application; returns (app results, metric totals).

    ``prepared`` supplies ``(writebacks, instructions)`` from
    :func:`prepare_app`.
    """
    writebacks, instructions = prepared
    registry = MetricRegistry()
    with use_registry(registry):
        region_bytes = spec.region_mb * 1024 * 1024

        config = preset(
            spec.preset,
            protected_bytes=region_bytes,
            keystream_mode=spec.keystream,
        )
        engine = SecureMemory(config, _app_key(app, spec.seed))
        batch = BatchSecureMemory(
            engine, mode=spec.mode, paranoid_sample=spec.paranoid_sample
        )

        payloads: dict[int, bytes] = {}
        for start in range(0, len(writebacks), FLUSH_CHUNK):
            chunk = writebacks[start : start + FLUSH_CHUNK]
            writes = []
            for offset, block in enumerate(chunk):
                block = int(block)
                data = _payload_for(app, spec.seed, block, start + offset)
                payloads[block] = data
                writes.append((block * BLOCK_BYTES, data))
            batch.write_many(writes)

        mismatches = 0
        written = sorted(payloads)
        for start in range(0, len(written), FLUSH_CHUNK):
            chunk = written[start : start + FLUSH_CHUNK]
            results = batch.read_many(
                [block * BLOCK_BYTES for block in chunk]
            )
            for block, result in zip(chunk, results):
                if result.data != payloads[block]:
                    mismatches += 1

        app_results = {
            "instructions": instructions,
            "writebacks": len(writebacks),
            "unique_blocks": len(written),
            "readback_mismatches": mismatches,
            "state_digest": state_digest(engine),
        }
    return app_results, registry.snapshot().totals()


def _worker_shm(task: tuple) -> tuple:
    """Pool worker: attach the app's segment, view, run, close.

    The segment is attached read-only in spirit: the worker copies the
    block indices out of the numpy view and closes its mapping
    immediately, so the parent's ``unlink`` in ``run_bench`` is the only
    lifetime management the segment needs.
    """
    app, spec, shm_name, count, instructions, prep_totals = task
    segment = shared_memory.SharedMemory(name=shm_name)
    try:
        view = np.ndarray((count,), dtype=np.int64, buffer=segment.buf)
        writebacks = view.tolist()
    finally:
        segment.close()
    app_results, totals = run_app(
        app, spec, prepared=(writebacks, instructions)
    )
    return app, (app_results, merge_totals([prep_totals, totals]))


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _publish_segment(blocks: np.ndarray, app: str) -> shared_memory.SharedMemory:
    """Create one shm segment holding an app's block-index array."""
    name = f"{SHM_PREFIX}{os.getpid()}-{next(_SHM_SEQ)}-{app}"
    segment = shared_memory.SharedMemory(
        create=True, size=max(8, blocks.nbytes), name=name
    )
    view = np.ndarray(blocks.shape, dtype=np.int64, buffer=segment.buf)
    view[:] = blocks
    return segment


def run_bench(spec: BenchSpec, workers: int = 1) -> dict:
    """Run every app in ``spec`` and merge into one payload.

    ``workers`` only chooses *where* apps run (inline vs a process
    pool); it may never change the payload.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    segments: list[shared_memory.SharedMemory] = []
    try:
        tasks = []
        for app in sorted(spec.apps):
            blocks, instructions, prep_totals = prepare_app(app, spec)
            segment = _publish_segment(blocks, app)
            segments.append(segment)
            tasks.append(
                (app, spec, segment.name, len(blocks), instructions,
                 prep_totals)
            )
        if workers == 1:
            outcomes = [_worker_shm(task) for task in tasks]
        else:
            with _pool_context().Pool(min(workers, len(tasks) or 1)) as pool:
                outcomes = pool.map(_worker_shm, tasks)
    finally:
        # The parent owns segment lifetime unconditionally: close and
        # unlink everything even when a worker died mid-run, so crashes
        # cannot leak /dev/shm entries.
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - paranoia
                pass

    results = {}
    for app, (app_results, _) in sorted(outcomes):
        results[app] = app_results
    merged = merge_totals([totals for _, (_, totals) in sorted(outcomes)])
    return {
        "schema": BENCH_SCHEMA,
        "bench": "parallel",
        "config": spec.config_dict(),
        "results": results,
        "metrics": merged,
    }


def render_payload(payload: dict) -> str:
    """The canonical byte form every worker count must reproduce."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_payload(payload: dict, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(render_payload(payload))
    return path


__all__ = [
    "BENCH_SCHEMA",
    "BenchSpec",
    "SHM_PREFIX",
    "dump_payload",
    "merge_totals",
    "prepare_app",
    "render_payload",
    "run_app",
    "run_bench",
    "state_digest",
]

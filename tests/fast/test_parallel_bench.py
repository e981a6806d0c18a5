"""Deterministic-parallelism contract for ``repro bench``.

The merged ``BENCH_*.json`` payload must be **byte-identical** for any
worker count on the same seed: ``workers`` only chooses where apps run,
never what they compute.  These tests render the canonical payload for
N in {1, 2, 4} and compare the bytes, and pin the supporting
invariants (no wall-clock/PID leakage, sorted-key rendering, clean
read-backs, zero paranoid divergence).

The shared-memory transport adds a contract of its own: every shm
segment is unlinked by the end of the run -- including when a worker
crashes mid-task, so ``/dev/shm`` never accumulates leaked
``repro-bench-*`` entries.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fast.backends import resolve_backend
from repro.harness.parallel import (
    SHM_PREFIX,
    BenchSpec,
    render_payload,
    run_bench,
)

SPEC = BenchSpec(
    apps=("stream", "gups"),
    mode="fast",
    accesses=3000,
    region_mb=2,
    cores=2,
    seed=11,
    preset="combined",
    keystream="splitmix",
)


@pytest.fixture(scope="module")
def rendered_by_workers():
    return {
        workers: render_payload(run_bench(SPEC, workers=workers))
        for workers in (1, 2, 4)
    }


def test_bench_payload_byte_identical_across_worker_counts(
    rendered_by_workers,
):
    baseline = rendered_by_workers[1]
    assert rendered_by_workers[2] == baseline
    assert rendered_by_workers[4] == baseline


def test_bench_payload_carries_no_environment_state(rendered_by_workers):
    payload = json.loads(rendered_by_workers[1])
    # Worker count, timing and process identity must never leak into
    # the payload -- their presence would break byte-identity.
    assert "workers" not in payload["config"]
    text = rendered_by_workers[1]
    for forbidden in ("pid", "hostname", "elapsed", "wallclock"):
        assert forbidden not in text
    assert payload["schema"] == "repro.bench/1"
    assert sorted(payload["results"]) == ["gups", "stream"]


def test_bench_readbacks_clean_and_digests_stable(rendered_by_workers):
    payload = json.loads(rendered_by_workers[1])
    for app, results in payload["results"].items():
        assert results["readback_mismatches"] == 0, app
        assert results["writebacks"] > 0, app
        assert len(results["state_digest"]) == 64, app


def test_bench_rerun_same_seed_is_reproducible(rendered_by_workers):
    # A fresh run (new engines, new registries) reproduces the bytes.
    assert render_payload(run_bench(SPEC, workers=2)) == (
        rendered_by_workers[1]
    )


def test_bench_paranoid_mode_matches_fast_state():
    paranoid = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="paranoid",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
        ),
        workers=1,
    )
    fast = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="fast",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
        ),
        workers=1,
    )
    assert paranoid["metrics"].get("fast.paranoid.divergence", 0) == 0
    assert paranoid["metrics"].get("fast.paranoid.checks", 0) > 0
    assert (
        paranoid["results"]["stream"]["state_digest"]
        == fast["results"]["stream"]["state_digest"]
    )


def test_bench_rejects_invalid_worker_count():
    with pytest.raises(ValueError):
        run_bench(SPEC, workers=0)


# -- shared-memory transport contracts --------------------------------------

_DEV_SHM = pathlib.Path("/dev/shm")


def _leaked_segments():
    if not _DEV_SHM.is_dir():
        return []
    return sorted(p.name for p in _DEV_SHM.glob(f"{SHM_PREFIX}*"))


@pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="no /dev/shm on this platform"
)
@pytest.mark.parametrize("workers", [1, 2])
def test_shm_segments_unlinked_after_run(workers):
    before = _leaked_segments()
    run_bench(SPEC, workers=workers)
    assert _leaked_segments() == before


@pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="no /dev/shm on this platform"
)
def test_shm_segments_unlinked_on_worker_crash(monkeypatch):
    import repro.harness.parallel as parallel

    before = _leaked_segments()

    def crash(task):
        raise RuntimeError("injected worker crash")

    # The inline (workers=1) path calls the worker in-process, so the
    # patch is guaranteed to take effect regardless of start method.
    monkeypatch.setattr(parallel, "_worker_shm", crash)
    with pytest.raises(RuntimeError, match="injected worker crash"):
        run_bench(SPEC, workers=1)
    assert _leaked_segments() == before


def _crash_worker(task):
    # Module-level so Pool can pickle it by qualified name.
    raise RuntimeError("injected pool worker crash")


@pytest.mark.skipif(
    not _DEV_SHM.is_dir(), reason="no /dev/shm on this platform"
)
def test_shm_segments_unlinked_on_pool_worker_crash(monkeypatch):
    import repro.harness.parallel as parallel

    before = _leaked_segments()

    # The worker raises inside the pool; the parent's finally must
    # still unlink every segment.
    monkeypatch.setattr(parallel, "_worker_shm", _crash_worker)
    with pytest.raises(RuntimeError):
        run_bench(SPEC, workers=2)
    assert _leaked_segments() == before


# -- backend selection flows through the bench ------------------------------


def test_bench_aes_backends_agree_and_differ_from_splitmix():
    digests = {}
    for name in ("reference", "fast", "aesni"):
        if resolve_backend(name).availability_error() is not None:
            continue
        payload = run_bench(
            BenchSpec(
                apps=("stream",),
                mode="fast",
                accesses=2000,
                region_mb=2,
                cores=2,
                seed=11,
                keystream=name,
            ),
            workers=1,
        )
        digests[name] = payload["results"]["stream"]["state_digest"]
    assert "reference" in digests and "fast" in digests
    assert len(set(digests.values())) == 1, digests
    splitmix = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="fast",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
            keystream="splitmix",
        ),
        workers=1,
    )
    assert (
        splitmix["results"]["stream"]["state_digest"]
        != digests["fast"]
    )


def test_bench_sampled_paranoid_meters_and_stays_clean():
    payload = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="fast",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
            keystream="fast",
            paranoid_sample=4,
        ),
        workers=1,
    )
    metrics = payload["metrics"]
    assert metrics.get("fast.paranoid.sampled", 0) > 0
    assert metrics.get("fast.paranoid.skipped", 0) > 0
    assert metrics.get("fast.paranoid.divergence", 0) == 0
    assert (
        metrics["fast.paranoid.sampled"] + metrics["fast.paranoid.skipped"]
        == metrics["fast.kernel.calls"]
    )

"""Shared pieces of the benchmark: results, refusals, provenance, hygiene."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import uuid
from dataclasses import dataclass, field
from typing import Any

#: the checkout the benchmark runs in (the parent of ``perfbench/``)
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: benchmark outputs: reports, Chrome traces, determinism records,
#: temporary service roots (all removed or ignored by git)
OUT = pathlib.Path(".perfbench_out")

#: /dev/shm prefix of the parallel bench runner's segments
SHM_PREFIX = "repro-bench-"


class Refusal(RuntimeError):
    """The benchmark cannot run as configured; it exits without a result."""


@dataclass
class Outcome:
    """What one workload run hands back to run.py."""

    attempted: int = 0
    failed: int = 0
    #: contract metrics: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: everything else worth keeping: named figures, checks, stats
    report: dict[str, Any] = field(default_factory=dict)
    #: simulated statistics and digests that must repeat exactly
    determinism: dict[str, Any] = field(default_factory=dict)
    #: failure reasons, one line each
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        """Count one attempted check; record it as failed when not ok."""
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Passes that fill ``seconds`` at the nominal pass time.

    The work in a run is fixed by ``--seconds`` rather than by the
    clock, so a slow stretch of a shared machine makes a run longer but
    never changes what it measures (service passes get slower as the
    shard ages, so clock-bound runs would measure a speed-dependent mix).
    """
    return max(1, round(seconds / nominal_pass_s))


def peak_rss_mib() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a child process, in MiB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise Refusal(f"no VmHWM for pid {pid}")


def source_digest() -> str:
    """SHA-256 over every program source file, so results are tied to
    the code that produced them even where the checkout has no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def provenance(seed: int, digest: str) -> dict[str, Any]:
    import cryptography
    import numpy

    return {
        "git_commit": git_commit(),
        "source_digest": digest,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
    }


def require_aesni() -> None:
    """Refuse to run when the AES-NI keystream backend is unavailable."""
    from repro.fast.backends import resolve_backend

    backend = resolve_backend("aesni")
    if not backend.available:
        raise Refusal(
            f"keystream backend 'aesni' unavailable: "
            f"{backend.availability_error()}"
        )


def expect(what: str, wanted: Any, ran: Any) -> None:
    """Refuse when a configured setting differs from what actually ran."""
    if wanted != ran:
        raise Refusal(f"{what}: configured {wanted!r} but ran {ran!r}")


def fresh_dir(kind: str) -> pathlib.Path:
    """A new empty directory under the output dir, as a short relative
    path (service sockets live under it and AF_UNIX paths are short)."""
    path = OUT / "tmp" / f"{kind}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    return path


def remove_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=False)


def shm_segments() -> set[str]:
    """Names of the parallel bench runner's /dev/shm segments."""
    shm = pathlib.Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {e.name for e in shm.iterdir() if e.name.startswith(SHM_PREFIX)}


def leaked_resources(shm_before: set[str]) -> list[str]:
    """Child processes or bench shm segments this run left behind."""
    import multiprocessing

    multiprocessing.active_children()  # reaps children that have exited
    leaks = []
    me = str(os.getpid())
    for proc in pathlib.Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            status = (proc / "status").read_text()
        except OSError:
            continue
        fields = dict(
            line.split(":", 1) for line in status.splitlines() if ":" in line
        )
        if (fields.get("PPid", "").strip() == me
                and not fields.get("State", "").strip().startswith("Z")):
            leaks.append(f"child process {proc.name} still alive")
    leaks.extend(
        f"shared-memory segment {name} left in /dev/shm"
        for name in sorted(shm_segments() - shm_before)
    )
    return leaks


def check_determinism(outcome: Outcome, key: str) -> None:
    """Compare this run's simulated statistics with the first run of the
    same source, workload, size and seed; record them when first."""
    record = OUT / "determinism" / f"{key}.json"
    text = json.dumps(outcome.determinism, sort_keys=True, indent=1)
    if record.exists():
        outcome.check(
            record.read_text() == text + "\n",
            f"simulated statistics differ from the first run ({record})",
        )
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(text + "\n")

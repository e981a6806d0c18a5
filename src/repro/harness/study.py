"""Perf-study sweep: keystream x kernel-mode x workers x preset flavors.

``repro study`` answers "which configuration is fastest, and what does
each safety knob cost?" with one artifact.  It times the parallel bench
(:mod:`repro.harness.parallel`) once per *flavor* -- a point in the
``keystream backend x kernel mode x worker count x preset`` grid -- then
post-processes the raw timings into per-group comparisons (speedups
against the scalar ``reference`` backend, the ``aesni``-vs-``fast``
ratio the perf gate ratchets on, cross-backend state-digest agreement)
and emits everything as ``BENCH_study.json``.

Methodology (after the flavor-sweep study harnesses of perf-tools):

* **Timing runs are sequential.**  Flavors never race each other for
  cores, so the wall-clock numbers are comparable within one payload.
* **Post-processing is parallel.**  Summarizing a flavor (digest
  checks, metric extraction, ratio math) is independent per flavor, so
  it fans out over a process pool.
* **Correctness rides along.**  Every flavor's per-app state digests
  travel into the payload; AES-family backends (``reference`` /
  ``fast`` / ``aesni``) must agree bit-for-bit within a group, so a
  backend cannot "win" the sweep by computing the wrong ciphertext.

Mode tokens extend the kernel modes with sampled verification:
``"fast"``, ``"reference"``, ``"paranoid"`` run the kernel table as
named; ``"sampled:N"`` runs ``fast`` with ``paranoid_sample=N``.

Wall-clock numbers vary across hosts; like ``BENCH_perf.json``, the
committed ``BENCH_study.json`` is a recorded baseline, not a
byte-reproducible artifact.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import time
from dataclasses import dataclass, field

from repro.fast.backends import keystream_backends, resolve_backend
from repro.fast.kernels import MODES
from repro.harness.parallel import BenchSpec, run_bench

STUDY_SCHEMA = "repro.study/1"

#: default flavor grid: every backend, plain-fast plus sampled
#: verification, serial and sharded -- 16 flavors on one preset
DEFAULT_KEYSTREAMS = ("reference", "fast", "aesni", "splitmix")
DEFAULT_MODES = ("fast", "sampled:32")
DEFAULT_WORKERS = (1, 2)
DEFAULT_PRESETS = ("combined",)


def parse_mode_token(token: str) -> tuple[str, int]:
    """``"fast"|"reference"|"paranoid"|"sampled:N"`` -> (mode, sample)."""
    if token.startswith("sampled:"):
        sample = int(token.split(":", 1)[1])
        if sample < 1:
            raise ValueError(f"sampled:N needs N >= 1 (got {token!r})")
        return "fast", sample
    if token not in MODES:
        raise ValueError(
            f"unknown mode token {token!r} (choices: "
            f"{', '.join(MODES)}, sampled:N)"
        )
    return token, 0


@dataclass(frozen=True)
class Flavor:
    """One point in the sweep grid."""

    preset: str
    keystream: str
    mode_token: str
    workers: int

    @property
    def label(self) -> str:
        return (
            f"{self.preset}/{self.keystream}/{self.mode_token}"
            f"/w{self.workers}"
        )

    @property
    def group(self) -> str:
        """Comparison group: flavors differing only by keystream."""
        return f"{self.preset}/{self.mode_token}/w{self.workers}"

    def bench_spec(self, spec: "StudySpec") -> BenchSpec:
        mode, sample = parse_mode_token(self.mode_token)
        return BenchSpec(
            apps=spec.apps,
            mode=mode,
            accesses=spec.accesses,
            region_mb=spec.region_mb,
            cores=spec.cores,
            seed=spec.seed,
            preset=self.preset,
            keystream=self.keystream,
            paranoid_sample=sample,
        )


@dataclass(frozen=True)
class StudySpec:
    """The full sweep request."""

    apps: tuple = ("stream", "gups")
    accesses: int = 5_000
    region_mb: int = 4
    cores: int = 2
    seed: int = 1
    keystreams: tuple = DEFAULT_KEYSTREAMS
    modes: tuple = DEFAULT_MODES
    workers: tuple = DEFAULT_WORKERS
    presets: tuple = DEFAULT_PRESETS

    def config_dict(self) -> dict:
        return {
            "apps": sorted(self.apps),
            "accesses": self.accesses,
            "region_mb": self.region_mb,
            "cores": self.cores,
            "seed": self.seed,
            "keystreams": list(self.keystreams),
            "modes": list(self.modes),
            "workers": list(self.workers),
            "presets": list(self.presets),
        }

    def flavors(self) -> tuple[list[Flavor], dict[str, str]]:
        """Expand the grid; unavailable backends are skipped, with the
        reason recorded so the payload is honest about coverage."""
        skipped: dict[str, str] = {}
        out: list[Flavor] = []
        for name in self.keystreams:
            backend = resolve_backend(name)  # raises on unknown names
            error = backend.availability_error()
            if error is not None:
                skipped[name] = error
                continue
            for preset_name in self.presets:
                for token in self.modes:
                    parse_mode_token(token)  # validate before sweeping
                    for workers in self.workers:
                        out.append(
                            Flavor(
                                preset=preset_name,
                                keystream=name,
                                mode_token=token,
                                workers=workers,
                            )
                        )
        return out, skipped


def run_flavor(flavor: Flavor, spec: StudySpec) -> dict:
    """Time one flavor's bench run; returns the raw record."""
    bench_spec = flavor.bench_spec(spec)
    started = time.perf_counter()
    payload = run_bench(bench_spec, workers=flavor.workers)
    elapsed = time.perf_counter() - started
    return {
        "flavor": {
            "preset": flavor.preset,
            "keystream": flavor.keystream,
            "mode": flavor.mode_token,
            "workers": flavor.workers,
        },
        "label": flavor.label,
        "group": flavor.group,
        "family": resolve_backend(flavor.keystream).family,
        "elapsed_seconds": elapsed,
        "payload": payload,
    }


def summarize_flavor(raw: dict) -> dict:
    """Post-process one raw flavor record into its payload summary.

    Pure function of the record (no shared state), so ``run_study``
    fans these out over a process pool.
    """
    payload = raw["payload"]
    results = payload["results"]
    metrics = payload["metrics"]
    writebacks = sum(app["writebacks"] for app in results.values())
    mismatches = sum(app["readback_mismatches"] for app in results.values())
    elapsed = raw["elapsed_seconds"]
    return {
        **raw["flavor"],
        "family": raw["family"],
        "group": raw["group"],
        "elapsed_seconds": round(elapsed, 4),
        "writebacks": writebacks,
        "blocks_per_second": round(writebacks / elapsed, 1) if elapsed else 0.0,
        "readback_mismatches": mismatches,
        "state_digests": {
            app: results[app]["state_digest"] for app in sorted(results)
        },
        "paranoid": {
            name.rsplit(".", 1)[1]: metrics[name]
            for name in sorted(metrics)
            if name.startswith("fast.paranoid.")
        },
    }


def _compare_groups(flavors: dict[str, dict]) -> dict:
    """Per-group cross-backend comparison (speedups + digest agreement)."""
    groups: dict[str, dict[str, dict]] = {}
    for summary in flavors.values():
        groups.setdefault(summary["group"], {})[summary["keystream"]] = summary
    comparisons: dict[str, dict] = {}
    for group, by_keystream in sorted(groups.items()):
        entry: dict = {"keystreams": sorted(by_keystream)}
        reference = by_keystream.get("reference")
        if reference is not None:
            entry["speedup_vs_reference"] = {
                name: round(
                    reference["elapsed_seconds"]
                    / summary["elapsed_seconds"],
                    2,
                )
                for name, summary in sorted(by_keystream.items())
                if summary["elapsed_seconds"]
            }
        fast = by_keystream.get("fast")
        aesni = by_keystream.get("aesni")
        if fast is not None and aesni is not None and aesni["elapsed_seconds"]:
            entry["aesni_vs_fast"] = round(
                fast["elapsed_seconds"] / aesni["elapsed_seconds"], 2
            )
        # AES-family backends run the same construction: their engine
        # end states must be bit-identical per app.
        aes_family = [
            summary
            for summary in by_keystream.values()
            if summary["family"] == "aes"
        ]
        if aes_family:
            digests = {
                json.dumps(summary["state_digests"], sort_keys=True)
                for summary in aes_family
            }
            entry["aes_family_digest_agreement"] = len(digests) == 1
        comparisons[group] = entry
    return comparisons


def run_study(spec: StudySpec, jobs: int | None = None) -> dict:
    """Run the sweep: sequential timing, parallel post-processing."""
    flavor_list, skipped = spec.flavors()
    raw_records = [run_flavor(flavor, spec) for flavor in flavor_list]

    if jobs is None:
        jobs = min(4, multiprocessing.cpu_count())
    if jobs > 1 and len(raw_records) > 1:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(min(jobs, len(raw_records))) as pool:
            summaries = pool.map(summarize_flavor, raw_records)
    else:
        summaries = [summarize_flavor(raw) for raw in raw_records]

    flavors = {
        raw["label"]: summary
        for raw, summary in zip(raw_records, summaries)
    }
    comparisons = _compare_groups(flavors)
    agreement = all(
        entry.get("aes_family_digest_agreement", True)
        for entry in comparisons.values()
    )
    mismatches = sum(
        summary["readback_mismatches"] for summary in flavors.values()
    )
    return {
        "schema": STUDY_SCHEMA,
        "bench": "study",
        "config": spec.config_dict(),
        "flavors": flavors,
        "comparisons": comparisons,
        "skipped_backends": skipped,
        "summary": {
            "flavors": len(flavors),
            "keystreams_available": [
                name
                for name in keystream_backends()
                if name in spec.keystreams and name not in skipped
            ],
            "readback_mismatches": mismatches,
            "aes_family_digest_agreement": agreement,
        },
    }


def render_study(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_study(payload: dict, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(render_study(payload))
    return path


__all__ = [
    "STUDY_SCHEMA",
    "Flavor",
    "StudySpec",
    "dump_study",
    "parse_mode_token",
    "render_study",
    "run_flavor",
    "run_study",
    "summarize_flavor",
]

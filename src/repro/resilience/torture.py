"""Combined crash x fault torture: the harness behind ``repro torture``.

The crash matrix (:mod:`repro.persist.crashsim`) proves the journal
protocol against *every* crash point of a short deterministic workload;
the fault campaign (:mod:`repro.resilience.campaign`) proves the
recovery/quarantine machinery against sustained Poisson fault arrivals.
Each leaves the other's failure mode untested: a crash can land while
the quarantine map, error log and spare pool are mid-evolution, and a
fault can strike state that a recent recovery just rebuilt.

This module interleaves both.  One composed
:class:`~repro.stack.EngineStack` (fast x durable x resilient) runs over
a single :class:`~repro.persist.store.DurableStore` for the whole
campaign, while the harness:

* drives seeded background traffic through the batched write path (each
  flush seals one group-commit transaction);
* injects Poisson fault arrivals -- transient SEUs, stuck-at cells, row
  bursts -- each followed by the demand read that discovers it (CE
  recovery, DUE accounting, quarantine retirement, spare remapping);
* crashes the stack at the end of every cycle (drop the volatile half,
  keep the store), runs full recovery via :meth:`EngineStack.recover`,
  and verifies the rebuilt state against the ground-truth
  :class:`~repro.oracle.ShadowOracle` before traffic resumes.

Per-recovery verification (one violation string per breach): every
:meth:`~repro.oracle.ShadowOracle.check_recovered` invariant (root
verified, anti-replay floors, a batched write that never flushed never
becomes durable, the quarantine mapping equal to the sealed state, no
retired block resurrected); **no SDC** -- every acknowledged block reads
back its acknowledged data (a detected-uncorrectable read is *not* a
breach: the data was destroyed by injected physics, flagged, and is
repaired from the oracle, exactly as the campaign engine does); and
**telemetry consistency** -- the recovered error-log accounting and
CE/DUE health history equal the snapshot taken at the last explicit
checkpoint (telemetry is checkpoint-cadence durable by design, so the
harness checkpoints on a fixed cadence).

Volatile fault state (registered stuck/in-flight masks) does *not*
survive a crash: a power cycle is modeled as a fresh power-on of the
memory parts.  What must survive -- and what the oracle checks --
is the *durable* residue of every fault: the quarantine map that
retired blocks, the spare pool it consumed, and the error-log totals.

Everything is a pure function of ``TortureSpec.seed``: one
``random.Random`` drives traffic, fault arrivals and payloads, so any
reported violation replays bit-for-bit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.engine.config import EngineConfig, preset
from repro.core.engine.secure_memory import IntegrityError
from repro.harness.reporting import format_series, format_table
from repro.lint.contracts import BLOCK_BYTES
from repro.obs.metrics import MetricRegistry
from repro.oracle import ShadowOracle
from repro.persist.config import DurabilityConfig
from repro.persist.recovery import RecoveryError
from repro.persist.store import DurableStore
from repro.resilience.campaign import (
    STAGE_TO_PRIMARY,
    FaultModel,
    default_models,
)
from repro.stack import EngineStack

BLOCK_BITS = BLOCK_BYTES * 8

#: what a freshly provisioned error log checkpoints as
_FRESH_ERRLOG = {
    "seq": 0, "evicted": 0, "cycles": 0, "outcomes": {}, "by_class": {},
}


@dataclass(frozen=True)
class TortureSpec:
    """One deterministic torture scenario (pure function of ``seed``).

    The defaults run 100 crash-recovery cycles -- the acceptance bar --
    over a small region in a few seconds: tiny 2-bit deltas keep the
    counter paths (reset, re-encode, group/global re-encrypt) firing,
    ``ce_threshold=1`` retires on first corrected error so the 3-block
    spare pool both fills and exhausts (degraded blocks appear), and
    every cycle ends in a crash with whatever the batch queue holds.
    """

    preset: str = "combined"
    scheme_kwargs: tuple[tuple[str, Any], ...] = (("delta_bits", 2),)
    group_count: int = 2
    cycles: int = 100
    ops_per_cycle: int = 20
    batch: int = 4  # writes per group-commit flush (0 = scalar)
    kernel_mode: str = "fast"
    seed: int = 0xDAC2018
    checkpoint_every: int = 5  # cycles between explicit checkpoints
    spare_blocks: int = 3
    ce_threshold: int = 1
    due_threshold: int = 2
    write_fraction: float = 0.45
    transient_rate: float = 0.04
    stuck_rate: float = 0.01
    burst_rate: float = 0.002

    def __post_init__(self) -> None:
        if self.cycles < 1 or self.ops_per_cycle < 1:
            raise ValueError("cycles and ops_per_cycle must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.spare_blocks < 0:
            raise ValueError("spare_blocks must be >= 0")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        for rate in (self.transient_rate, self.stuck_rate, self.burst_rate):
            if rate < 0:
                raise ValueError("fault rates must be >= 0")

    def engine_config(self) -> EngineConfig:
        return preset(
            self.preset,
            protected_bytes=self.group_count * 64 * BLOCK_BYTES,
            scheme_kwargs=dict(self.scheme_kwargs),
            keystream_mode="splitmix",
        )

    def durability(self) -> DurabilityConfig:
        # Checkpoints fire only when the harness asks: the telemetry
        # snapshot is taken at the same instant, so "recovered errlog ==
        # snapshot" is an exact equality, not a window.
        return DurabilityConfig(
            checkpoint_interval=0,
            journal_capacity_records=0,
            checkpoint_on_global_reencrypt=False,
        )

    def resilience_kwargs(self) -> dict[str, Any]:
        return {
            "spare_blocks": self.spare_blocks,
            "ce_threshold": self.ce_threshold,
            "due_threshold": self.due_threshold,
        }

    def models(self) -> list[FaultModel]:
        return default_models(
            transient_rate=self.transient_rate,
            stuck_rate=self.stuck_rate,
            burst_rate=self.burst_rate,
        )

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "scheme_kwargs": dict(self.scheme_kwargs)}


@dataclass
class TortureReport:
    """Aggregate verdict over one torture campaign."""

    spec: TortureSpec
    cycles_run: int = 0
    recoveries: int = 0
    checkpoints: int = 0
    writes: int = 0
    reads: int = 0
    group_commits: int = 0
    injected: Counter = field(default_factory=Counter)  # model -> faults
    primary: Counter = field(default_factory=Counter)  # outcome -> count
    due_repairs: int = 0
    sdc_total: int = 0
    retired_blocks: int = 0
    degraded_blocks: int = 0
    spares_remaining: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        return not self.violations and self.sdc_total == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_json(),
            "cycles_run": self.cycles_run,
            "recoveries": self.recoveries,
            "checkpoints": self.checkpoints,
            "writes": self.writes,
            "reads": self.reads,
            "group_commits": self.group_commits,
            "injected": dict(sorted(self.injected.items())),
            "injected_total": self.injected_total,
            "primary": dict(sorted(self.primary.items())),
            "due_repairs": self.due_repairs,
            "sdc_total": self.sdc_total,
            "retired_blocks": self.retired_blocks,
            "degraded_blocks": self.degraded_blocks,
            "spares_remaining": self.spares_remaining,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def format_summary(self) -> str:
        injected = format_table(
            f"Torture campaign -- fault arrivals "
            f"({self.cycles_run} crash cycles, seed {self.spec.seed})",
            ["fault model", "injected"],
            [[name, count] for name, count in sorted(self.injected.items())]
            + [["TOTAL", self.injected_total]],
        )
        summary = format_series(
            "Crash x fault summary",
            {
                "crash-recovery cycles": self.recoveries,
                "explicit checkpoints": self.checkpoints,
                "writes / reads": f"{self.writes} / {self.reads}",
                "group commits sealed": self.group_commits,
                "primary outcomes": ", ".join(
                    f"{k}={v}" for k, v in sorted(self.primary.items())
                ) or "none",
                "DUE blocks repaired": self.due_repairs,
                "blocks retired": self.retired_blocks,
                "blocks degraded": self.degraded_blocks,
                "spares remaining": self.spares_remaining,
                "SDC total": self.sdc_total,
                "violations": len(self.violations),
                "verdict": "OK" if self.ok else "FAIL",
            },
        )
        lines = [injected, "", summary]
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        return "\n".join(lines)


class TortureCampaign:
    """Run one spec: traffic + faults + a crash/recovery every cycle."""

    def __init__(self, spec: TortureSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.key = bytes(
            random.Random(spec.seed ^ 0x5EED).randrange(256)
            for _ in range(48)
        )
        self.registry = MetricRegistry()
        self.store = DurableStore()
        self.models = spec.models()
        self.oracle = ShadowOracle()
        #: telemetry captured at the last explicit checkpoint
        self.checkpoint_errlog: dict[str, Any] = dict(_FRESH_ERRLOG)
        self.checkpoint_health: dict[str, Any] = {}
        self.report = TortureReport(spec=spec)
        self.stack = EngineStack(
            spec.engine_config(),
            self.key,
            fast=spec.batch > 0,
            kernel_mode=spec.kernel_mode,
            durability=spec.durability(),
            store=self.store,
            resilience=spec.resilience_kwargs(),
            registry=self.registry,
        )

    # -- ground-truth bookkeeping --------------------------------------------

    def _flush_ack(self) -> None:
        """Seal the queued write run (one group commit) and acknowledge."""
        if self.oracle.queued:
            self.oracle.submit()
            self.stack.flush()
            self.report.group_commits += 1
            self.oracle.ack()
        self.oracle.pin(self.stack)

    def _write(self, address: int, data: bytes) -> None:
        self.report.writes += 1
        self.stack.write(address, data)
        self.oracle.queue(address, data)
        if len(self.oracle.queued) >= self.spec.batch:
            self._flush_ack()

    def _read(self, address: int, cycle: int, why: str):
        """One resilient read with SDC detection and DUE repair."""
        self._flush_ack()  # reads observe only acknowledged state
        self.report.reads += 1
        rec = self.stack.read(address)
        if rec.ok:
            if not self.oracle.judge(address, rec.data):
                self.report.sdc_total += 1
                self.report.violations.append(
                    f"cycle {cycle}: SDC on {why} read of address "
                    f"{address:#x} (data disagrees with ground truth)"
                )
        else:
            # Detected-uncorrectable: data destroyed by injected
            # physics, flagged, software-repaired from the oracle --
            # the same contract the fault campaign enforces.
            self.report.due_repairs += 1
            self._write(address, self.oracle.expected(address))
            self._flush_ack()
        # Retirement/degrade side effects sealed inside the read; the
        # acknowledged floor moves with them.
        self.oracle.pin(self.stack)
        return rec

    def _health_state(self) -> dict[str, Any]:
        return self.stack.resilient.quarantine.state_dict()["health"]

    # -- campaign phases -----------------------------------------------------

    def _checkpoint(self) -> None:
        """Explicit checkpoint + the telemetry snapshot."""
        self._flush_ack()
        self.stack.checkpoint()
        self.report.checkpoints += 1
        self.checkpoint_errlog = self.stack.resilient.log.state_dict()
        self.checkpoint_health = self._health_state()

    def _inject_and_observe(self, model: FaultModel, cycle: int) -> None:
        capacity = self.stack.capacity_blocks
        for fault in model.draw(self.rng, capacity):
            self.stack.resilient.inject_fault(
                fault.block * BLOCK_BYTES,
                data_bits=fault.data_bits,
                ecc_bits=fault.ecc_bits,
                persistence=fault.persistence,
                fault_class=model.fault_class,
            )
            self.report.injected[model.name] += 1
            rec = self._read(fault.block * BLOCK_BYTES, cycle, "demand")
            self.report.primary[STAGE_TO_PRIMARY[rec.stage]] += 1

    def _traffic_op(self, cycle: int) -> None:
        for model in self.models:
            for _ in range(model.arrivals(self.rng)):
                self._inject_and_observe(model, cycle)
        block = self.rng.randrange(self.stack.capacity_blocks)
        address = block * BLOCK_BYTES
        if self.rng.random() < self.spec.write_fraction:
            data = self.rng.getrandbits(BLOCK_BITS).to_bytes(
                BLOCK_BYTES, "little"
            )
            self._write(address, data)
        else:
            self._read(address, cycle, "background")

    def _crash_and_recover(self, cycle: int) -> None:
        """Power-cut the volatile half, recover, verify vs the oracle.

        The cut falls between operations, after every mapping change
        was pinned, so the sealed mapping is the last acknowledged one.
        """
        try:
            self.stack, recovery = EngineStack.recover(
                self.store,
                self.spec.engine_config(),
                self.key,
                fast=self.spec.batch > 0,
                kernel_mode=self.spec.kernel_mode,
                durability=self.spec.durability(),
                resilience=self.spec.resilience_kwargs(),
                registry=self.registry,
            )
        except RecoveryError as err:
            self.report.violations.append(
                f"cycle {cycle}: recovery failed: {err}"
            )
            raise
        self.report.recoveries += 1
        self._verify_recovery(cycle, recovery)

    def _verify_recovery(self, cycle: int, recovery) -> None:
        bad = self.report.violations
        # Telemetry: checkpoint-cadence durable -- recovered accounting
        # equals the snapshot at the last explicit checkpoint, exactly.
        # Checked before any read can add events.
        if self.stack.resilient.log.state_dict() != self.checkpoint_errlog:
            bad.append(
                f"cycle {cycle}: error-log accounting diverged from the "
                f"last checkpoint snapshot"
            )
        if self._health_state() != self.checkpoint_health:
            bad.append(
                f"cycle {cycle}: CE/DUE health history diverged from the "
                f"last checkpoint snapshot"
            )
        bad.extend(
            f"cycle {cycle}: {violation}"
            for violation in self.oracle.check_recovered(self.stack, recovery)
        )
        # No SDC: every acknowledged block reads back (DUEs repaired).
        for address in sorted(self.oracle.acked):
            try:
                self._read(address, cycle, "verification")
            except IntegrityError as err:
                bad.append(
                    f"cycle {cycle}: verification read of address "
                    f"{address:#x} raised integrity error: {err}"
                )

    # -- entry point ---------------------------------------------------------

    def run(self, limit: int | None = None) -> TortureReport:
        """Run the campaign (optionally bounded to ``limit`` cycles)."""
        cycles = self.spec.cycles if limit is None else min(
            self.spec.cycles, limit
        )
        self.oracle.pin(self.stack)
        for cycle in range(cycles):
            if cycle % self.spec.checkpoint_every == 0:
                self._checkpoint()
            for _ in range(self.spec.ops_per_cycle):
                self._traffic_op(cycle)
            self.report.cycles_run = cycle + 1
            self._crash_and_recover(cycle)
        quarantine = self.stack.resilient.quarantine
        self.report.retired_blocks = quarantine.retired_count
        self.report.degraded_blocks = quarantine.degraded_count
        self.report.spares_remaining = quarantine.spares_remaining
        return self.report


def run_torture(
    spec: TortureSpec, limit: int | None = None
) -> TortureReport:
    """Convenience wrapper: one campaign, one report."""
    return TortureCampaign(spec).run(limit=limit)


__all__ = [
    "TortureCampaign",
    "TortureReport",
    "TortureSpec",
    "run_torture",
]

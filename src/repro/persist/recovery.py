"""Crash recovery: the explicit state machine behind ``repro crash``.

Recovery rebuilds a :class:`~repro.core.engine.secure_memory.SecureMemory`
from a :class:`~repro.persist.store.DurableStore` that may have been
interrupted at *any* durable step.  The machine is linear and total --
every phase either completes or raises a typed :class:`RecoveryError`
naming the phase that failed:

``SCAN``
    Read back the journal region; discard the torn/unsealed tail (those
    transactions never acknowledged).
``LOAD_CHECKPOINT``
    Decode the newest sealed checkpoint, falling back one epoch if its
    body fails the CRC (a crash tore the shadow write).
``REDO``
    Replay, in LSN order, every sealed record with ``lsn >=
    checkpoint.next_lsn`` -- the filter matters: a crash *between*
    checkpoint seal and journal truncate leaves already-absorbed records
    in the journal, and replaying them twice must be (and is) idempotent
    only because we skip them entirely.
``REBUILD_TREE``
    Implicit in redo: every restored metadata block updates its Bonsai
    leaf, so by the end the tree is rebuilt hash-by-hash.
``VERIFY``
    The rebuilt root must equal the last acknowledged root digest, and
    no counter may regress below its checkpointed value (anti-replay)
    unless a global re-encryption epoch intervened.
``RESUME``
    Attach a fresh :class:`PersistenceManager` continuing the LSN and
    epoch sequences, seal a new checkpoint so the next crash recovers
    from here, and re-journal the recovered resilience events -- the
    resume checkpoint is taken from a bare engine, so without the
    re-append the truncation would destroy the quarantine/error-log
    records of a resilience layer that has not reattached yet.

This module imports the engine, so the engine (which imports
``repro.persist.config``/``manager``) must never import it -- see the
package ``__init__`` note.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine.config import EngineConfig
from repro.core.engine.secure_memory import SecureMemory
from repro.obs.metrics import MetricRegistry, get_registry
from repro.persist.checkpoint import Checkpoint, load_latest_checkpoint
from repro.persist.config import DurabilityConfig
from repro.persist.journal import (
    ResilienceRecord,
    TxnRecord,
    scan_journal,
)
from repro.persist.manager import PersistenceManager
from repro.persist.store import DurableStore


class RecoveryPhase(enum.Enum):
    SCAN = "scan"
    LOAD_CHECKPOINT = "load_checkpoint"
    REDO = "redo"
    REBUILD_TREE = "rebuild_tree"
    VERIFY = "verify"
    RESUME = "resume"


class RecoveryError(Exception):
    """Recovery could not restore a consistent state."""

    def __init__(self, phase: RecoveryPhase, message: str) -> None:
        super().__init__(f"[{phase.value}] {message}")
        self.phase = phase


@dataclass
class RecoveryReport:
    """What one recovery run found and did."""

    phases: list[str] = field(default_factory=list)
    checkpoint_epoch: int = -1
    checkpoint_next_lsn: int = 0
    redo_records: int = 0
    redo_data_blocks: int = 0
    redo_meta_groups: int = 0
    skipped_absorbed: int = 0  # pre-checkpoint records left in the journal
    discarded_torn: int = 0
    discarded_unsealed: int = 0
    resilience_events: list[dict[str, Any]] = field(default_factory=list)
    root_expected: int = 0
    root_rebuilt: int = 0
    root_verified: bool = False
    counters_checked: int = 0
    resume_next_lsn: int = 0
    resume_epoch: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "phases": list(self.phases),
            "checkpoint_epoch": self.checkpoint_epoch,
            "checkpoint_next_lsn": self.checkpoint_next_lsn,
            "redo_records": self.redo_records,
            "redo_data_blocks": self.redo_data_blocks,
            "redo_meta_groups": self.redo_meta_groups,
            "skipped_absorbed": self.skipped_absorbed,
            "discarded_torn": self.discarded_torn,
            "discarded_unsealed": self.discarded_unsealed,
            "resilience_events": len(self.resilience_events),
            "root_expected": self.root_expected,
            "root_rebuilt": self.root_rebuilt,
            "root_verified": self.root_verified,
            "counters_checked": self.counters_checked,
            "resume_next_lsn": self.resume_next_lsn,
            "resume_epoch": self.resume_epoch,
        }


def recover(
    store: DurableStore,
    config: EngineConfig,
    key: bytes,
    durability: DurabilityConfig | None = None,
    registry: MetricRegistry | None = None,
) -> tuple[SecureMemory, RecoveryReport]:
    """Run the full recovery state machine; returns (engine, report).

    ``durability`` configures the *resumed* persistence manager (cadence
    etc.); defaults to a fresh :class:`DurabilityConfig`.
    """
    registry = registry if registry is not None else get_registry()
    durability = durability if durability is not None else DurabilityConfig()
    report = RecoveryReport()
    m_runs = registry.counter("recovery.run")
    m_redo = registry.counter("recovery.redo.records")
    m_torn = registry.counter("recovery.discarded.torn")
    m_unsealed = registry.counter("recovery.discarded.unsealed")
    m_root_ok = registry.counter("recovery.verify.root_ok")
    m_fail = registry.counter("recovery.verify.fail")
    m_res = registry.counter("recovery.resilience.replayed")
    m_runs.inc()

    # -- SCAN ---------------------------------------------------------------
    report.phases.append(RecoveryPhase.SCAN.value)
    scan = scan_journal(store)
    report.discarded_torn = scan.discarded_torn
    report.discarded_unsealed = scan.discarded_unsealed
    m_torn.inc(scan.discarded_torn)
    m_unsealed.inc(scan.discarded_unsealed)

    # -- LOAD_CHECKPOINT ----------------------------------------------------
    report.phases.append(RecoveryPhase.LOAD_CHECKPOINT.value)
    checkpoint = load_latest_checkpoint(store)
    if checkpoint is None:
        if scan.records:
            raise RecoveryError(
                RecoveryPhase.LOAD_CHECKPOINT,
                "sealed journal records but no sealed checkpoint: the "
                "write-ahead protocol seals the epoch-0 checkpoint "
                "before the first journal append, so this store is "
                "corrupt beyond a crash",
            )
        # The crash hit provisioning itself, before the epoch-0
        # checkpoint sealed.  Nothing was ever acknowledged, so the
        # empty state *is* the consistent state: re-bootstrap.
        report.phases.append(RecoveryPhase.RESUME.value)
        engine = SecureMemory(config, key, registry=registry)
        manager = PersistenceManager(
            durability, store=store, registry=registry
        )
        engine.attach_persistence(manager, bootstrap=True)
        report.root_expected = engine.tree.root_digest()
        report.root_rebuilt = report.root_expected
        report.root_verified = True
        m_root_ok.inc()
        report.resume_next_lsn = manager.next_lsn
        report.resume_epoch = manager.epoch
        return engine, report
    report.checkpoint_epoch = checkpoint.epoch
    report.checkpoint_next_lsn = checkpoint.next_lsn

    engine = SecureMemory(config, key, registry=registry)
    engine.restore_scheme_epoch(checkpoint.scheme_epoch)
    for block, image in checkpoint.data.items():
        engine.restore_block_image(block, image)
    for group, metadata in checkpoint.meta.items():
        engine.restore_group_metadata(group, metadata)
    if checkpoint.resilience:
        report.resilience_events.append(
            {"event": "checkpoint_state", "payload": checkpoint.resilience}
        )

    # -- REDO (rebuilds the tree leaf-by-leaf as it goes) -------------------
    report.phases.append(RecoveryPhase.REDO.value)
    expected_root = checkpoint.root
    scheme_epoch = checkpoint.scheme_epoch
    last_lsn = checkpoint.next_lsn - 1
    for record in scan.records:
        if record.lsn < checkpoint.next_lsn:
            # Absorbed by the checkpoint; crash hit between checkpoint
            # seal and journal truncate.  Replaying would double-apply.
            report.skipped_absorbed += 1
            continue
        if record.lsn != last_lsn + 1:
            raise RecoveryError(
                RecoveryPhase.REDO,
                f"journal LSN gap: expected {last_lsn + 1}, "
                f"found {record.lsn}",
            )
        last_lsn = record.lsn
        if isinstance(record, TxnRecord):
            if record.scheme_epoch != scheme_epoch:
                engine.restore_scheme_epoch(record.scheme_epoch)
                scheme_epoch = record.scheme_epoch
            for block, image in record.data.items():
                engine.restore_block_image(block, image)
            for group, metadata in record.meta.items():
                engine.restore_group_metadata(group, metadata)
            expected_root = record.root
            report.redo_records += 1
            report.redo_data_blocks += len(record.data)
            report.redo_meta_groups += len(record.meta)
            m_redo.inc()
        elif isinstance(record, ResilienceRecord):
            report.resilience_events.append(
                {"event": record.event, "payload": record.payload}
            )
            m_res.inc()
    report.phases.append(RecoveryPhase.REBUILD_TREE.value)

    # -- VERIFY -------------------------------------------------------------
    report.phases.append(RecoveryPhase.VERIFY.value)
    report.root_expected = expected_root
    report.root_rebuilt = engine.tree.root_digest()
    if report.root_rebuilt != expected_root:
        m_fail.inc()
        raise RecoveryError(
            RecoveryPhase.VERIFY,
            f"rebuilt tree root {report.root_rebuilt:#x} != acknowledged "
            f"root {expected_root:#x}",
        )
    report.root_verified = True
    m_root_ok.inc()
    if scheme_epoch == checkpoint.scheme_epoch:
        # Anti-replay floor: within one re-encryption epoch counters only
        # grow, so the recovered state must dominate the checkpoint.
        for group, metadata in checkpoint.meta.items():
            floor = engine.scheme.decode_metadata(metadata)
            # A group missing from storage reads as the engine's initial
            # (all-zero) metadata, so a dropped group is a regression.
            now = engine.scheme.decode_metadata(
                engine._stored_metadata(group)
            )
            for slot, (lo, cur) in enumerate(zip(floor, now)):
                report.counters_checked += 1
                if cur < lo:
                    m_fail.inc()
                    raise RecoveryError(
                        RecoveryPhase.VERIFY,
                        f"counter regression in group {group} slot "
                        f"{slot}: {cur} < checkpointed {lo}",
                    )

    # -- RESUME -------------------------------------------------------------
    report.phases.append(RecoveryPhase.RESUME.value)
    manager = PersistenceManager(durability, store=store, registry=registry)
    engine.attach_persistence(manager, bootstrap=False)
    manager.resume(next_lsn=last_lsn + 1, epoch=checkpoint.epoch + 1)
    manager.checkpoint()  # fresh recovery point; truncates the journal
    # The resume checkpoint snapshots a *bare* engine: any resilience
    # plane (quarantine map, error-log accounting) is not reattached
    # yet, so the snapshot cannot carry that state -- but the truncate
    # above just dropped the journaled records that did.  Re-journal
    # the recovered fold (the absorbed checkpoint_state, then every
    # post-checkpoint record, in replay order) so a second crash before
    # the next full-stack checkpoint still recovers it.  Replay is
    # idempotent, so layers that already consumed ``resilience_events``
    # lose nothing.
    for entry in report.resilience_events:
        manager.append_resilience(entry["event"], entry["payload"])
    report.resume_next_lsn = manager.next_lsn
    report.resume_epoch = manager.epoch
    return engine, report


__all__ = [
    "RecoveryError",
    "RecoveryPhase",
    "RecoveryReport",
    "recover",
]

"""ShadowOracle: the one ground truth every campaign checks against.

The paper's adversary reads and writes DRAM, so neither a crash, an
injected fault nor a refused request may ever hand back stale data,
roll an encryption counter back (the Bonsai-tree replay argument) or
serve a block that quarantine retired.  Every harness that drives the
engine -- the fault campaign, the crash matrix, the crash x fault
torture run, and the service's loadgen and chaos clients -- keeps its
ground truth in one :class:`ShadowOracle` and asks it the same two
questions:

* :meth:`ShadowOracle.judge` -- may a read of this address return these
  bytes?  The last acknowledged value always may.  An address whose
  latest mutation is in flight or was refused is *ambiguous*: the
  acknowledged value or the attempted one, never a third value.
* :meth:`ShadowOracle.check_recovered` -- did a recovery keep every
  invariant?  The rebuilt Bonsai root verified; no counter fell below
  its acknowledged floor within one scheme epoch; no retired physical
  block came back; the quarantine mapping is one of the sealed states;
  a write run that never reached a flush did not land, and the one in
  flight at the crash landed all or nothing.

The oracle is pure: it holds plain dicts and sets, reads the stack only
through its public surface (plus the engine's stored group metadata),
and does no I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.core.engine.secure_memory import IntegrityError
from repro.lint.contracts import BLOCK_BYTES

if TYPE_CHECKING:
    from repro.core.engine.secure_memory import SecureMemory
    from repro.persist.recovery import RecoveryReport
    from repro.stack import EngineStack

ZERO_BLOCK = b"\x00" * BLOCK_BYTES

#: the quarantine keys journaled immediately on every retire/degrade
#: (the CE/DUE health history is checkpoint-cadence and may lag)
MAPPING_KEYS = ("map", "retired", "free_spares", "degraded")


def mapping_state(stack: EngineStack) -> dict[str, Any] | None:
    """The immediately-journaled slice of the quarantine state, or
    ``None`` when the stack has no resilience layer."""
    if stack.resilient is None:
        return None
    state = stack.resilient.quarantine.state_dict()
    return {key: state[key] for key in MAPPING_KEYS}


def read_back(stack: EngineStack, address: int) -> tuple[bytes | None, str]:
    """One read through the top of the stack: ``(data, "")``, or
    ``(None, why)`` when the block is unreadable."""
    try:
        result = stack.read(address)
    except IntegrityError as err:
        return None, str(err)
    if not getattr(result, "ok", True):
        return None, "resilient read failed (DUE)"
    return result.data, ""


class ShadowOracle:
    """Ground truth, acknowledged floors and quarantine history.

    Writes move through three states.  :meth:`queue` records a write the
    harness handed to a batching layer; :meth:`submit` marks the queued
    run as in flight (the flush that may seal it has begun); :meth:`ack`
    makes it the acknowledged value.  :meth:`refuse` records a mutation
    that failed after it may have reached the engine.  :meth:`pin`
    snapshots the counter floors and quarantine mapping at an
    acknowledgement; :meth:`crash` adds the crash-time mapping to the
    states a recovery may legitimately restore.
    """

    def __init__(self) -> None:
        #: address -> last acknowledged plaintext
        self.acked: dict[int, bytes] = {}
        #: address -> every value a read may legally return
        self.ambiguous: dict[int, set[bytes]] = {}
        #: writes accepted by a batching layer, not yet flushed
        self.queued: list[tuple[int, bytes]] = []
        #: final value per address of the run being acknowledged
        self.inflight: dict[int, bytes] = {}
        #: counter storage and scheme epoch at the last acknowledgement
        self.floor_meta: dict[int, bytes] = {}
        self.floor_epoch = 0
        #: every physical block ever retired (must never serve again)
        self.retired_ever: set[int] = set()
        #: quarantine mappings a recovery may restore
        self.sealed: list[dict[str, Any] | None] = [None]

    # -- ground truth --------------------------------------------------------

    def expected(self, address: int) -> bytes:
        """The acknowledged value (zeros for a never-written block)."""
        return self.acked.get(address, ZERO_BLOCK)

    def judge(self, address: int, seen: bytes | None) -> bool:
        """True iff a read of ``address`` may return ``seen``."""
        return seen in self.ambiguous.get(address, {self.expected(address)})

    def queue(self, address: int, data: bytes) -> None:
        self.queued.append((address, data))

    def submit(self) -> None:
        """The queued run enters the flush that acknowledges it."""
        self.inflight = dict(self.queued)
        self.queued.clear()

    def ack(self, writes: Iterable[tuple[int, bytes]] = ()) -> None:
        """Acknowledge the in-flight run plus ``writes``."""
        for address, data in [*self.inflight.items(), *writes]:
            self.acked[address] = data
            self.ambiguous.pop(address, None)
        self.inflight = {}

    def refuse(self, writes: Iterable[tuple[int, bytes]]) -> None:
        """A refused mutation leaves each address two-valued until a
        later acknowledgement pins it."""
        for address, attempted in writes:
            self.ambiguous.setdefault(
                address, {self.expected(address)}
            ).add(attempted)

    # -- floors and quarantine history ---------------------------------------

    def pin(self, stack: EngineStack) -> None:
        """Snapshot the acknowledged floors and the sealed mapping."""
        engine = stack.engine
        self.floor_meta = dict(engine.counter_storage)
        self.floor_epoch = getattr(engine.scheme, "epoch", 0)
        mapping = mapping_state(stack)
        self.sealed = [mapping]
        if mapping is not None:
            self.retired_ever.update(int(k) for k in mapping["retired"])

    def crash(self, stack: EngineStack) -> None:
        """A crash interrupted ``stack``: its in-memory mapping may
        already be sealed (a read crashed after its retirement record)."""
        mapping = mapping_state(stack)
        if mapping not in self.sealed:
            self.sealed.append(mapping)

    def counter_regressions(self, engine: SecureMemory) -> list[str]:
        """Anti-replay: within one scheme epoch no counter may fall below
        its acknowledged floor.  A group missing from counter storage
        reads as the engine's initial metadata, not as its floor."""
        if getattr(engine.scheme, "epoch", 0) != self.floor_epoch:
            return []
        bad = []
        decode = engine.scheme.decode_metadata
        for group, metadata in sorted(self.floor_meta.items()):
            now = decode(engine._stored_metadata(group))
            for slot, (lo, cur) in enumerate(zip(decode(metadata), now)):
                if cur < lo:
                    bad.append(
                        f"counter regression: group {group} slot {slot} "
                        f"recovered {cur} < acked {lo}"
                    )
        return bad

    # -- the recovery verdict ------------------------------------------------

    def check_recovered(
        self, stack: EngineStack, recovery: RecoveryReport
    ) -> list[str]:
        """Every recovery invariant, one violation string per breach.

        Reads only the queued and in-flight addresses.  Afterwards the
        queued run is dropped (it must not have landed) and the
        in-flight run becomes ambiguous, so :meth:`judge` accepts each
        of its addresses at the acknowledged or the attempted value.
        """
        bad = []
        if not recovery.root_verified:
            bad.append("tree root not verified by recovery")
        if stack.resilient is not None:
            if mapping_state(stack) not in self.sealed:
                bad.append(
                    "quarantine mapping diverged from every sealed state"
                )
            quarantine = stack.resilient.quarantine
            for physical in sorted(self.retired_ever):
                if not quarantine.is_retired(physical):
                    bad.append(
                        f"retired physical block {physical} resurrected "
                        "by recovery"
                    )
        bad.extend(self.counter_regressions(stack.engine))
        for address, queued in sorted(dict(self.queued).items()):
            if queued == self.expected(address):
                continue  # uninformative: both outcomes read identically
            if read_back(stack, address)[0] == queued:
                bad.append(
                    f"unacknowledged write to address {address:#x} "
                    "survived the crash"
                )
        landed: set[bool] = set()
        for address, final in sorted(self.inflight.items()):
            baseline = self.expected(address)
            if final == baseline:
                continue
            got, why = read_back(stack, address)
            if got is None:
                bad.append(
                    f"in-flight address {address:#x} unreadable after "
                    f"recovery: {why}"
                )
            elif got == final:
                landed.add(True)
            elif got == baseline:
                landed.add(False)
            else:
                bad.append(
                    f"in-flight address {address:#x} recovered to neither "
                    "its acked nor its batch value"
                )
        if len(landed) > 1:
            bad.append(
                "group commit split: crash landed part of an in-flight batch"
            )
        self.queued.clear()
        self.refuse(self.inflight.items())
        self.inflight = {}
        return bad


__all__ = [
    "MAPPING_KEYS",
    "ShadowOracle",
    "ZERO_BLOCK",
    "mapping_state",
    "read_back",
]

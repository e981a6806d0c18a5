"""ShadowOracle: the ground truth and recovery invariants every campaign
shares.

The campaign tests only ever show clean runs.  These tests doctor the
state behind the oracle's back -- one breach at a time -- and assert
that the matching violation is reported, so each check is shown to
fire, not merely to stay quiet.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.engine.config import preset
from repro.obs.metrics import MetricRegistry
from repro.oracle import ZERO_BLOCK, ShadowOracle, mapping_state, read_back
from repro.stack import EngineStack

A, B = 0, 64
X, Y, Z = b"\x11" * 64, b"\x22" * 64, b"\x33" * 64
VERIFIED = SimpleNamespace(root_verified=True)


def make_stack(resilient: bool = False) -> EngineStack:
    config = preset(
        "combined", protected_bytes=2 * 64 * 64, keystream_mode="splitmix"
    )
    return EngineStack(
        config,
        bytes(range(48)),
        resilience={"spare_blocks": 2, "ce_threshold": 1}
        if resilient
        else None,
        registry=MetricRegistry(),
    )


def acked(stack: EngineStack, oracle: ShadowOracle, *writes) -> None:
    """Write and flush a run, acknowledging it the way the harnesses do."""
    for address, data in writes:
        stack.write(address, data)
        oracle.queue(address, data)
    oracle.submit()
    stack.flush()
    oracle.ack()
    oracle.pin(stack)


@pytest.fixture
def clean():
    stack, oracle = make_stack(), ShadowOracle()
    oracle.pin(stack)
    acked(stack, oracle, (A, X), (B, Y))
    assert oracle.check_recovered(stack, VERIFIED) == []
    return stack, oracle


@pytest.fixture
def retired():
    """A resilient stack whose logical block 0 has been retired."""
    stack, oracle = make_stack(resilient=True), ShadowOracle()
    acked(stack, oracle, (A, X))
    stack.resilient.inject_fault(
        A, data_bits=(7,), persistence="stuck", fault_class="test"
    )
    assert stack.read(A).ok
    oracle.pin(stack)
    assert oracle.retired_ever
    assert oracle.check_recovered(stack, VERIFIED) == []
    return stack, oracle


def doctor_quarantine(stack: EngineStack, edit) -> None:
    quarantine = stack.resilient.quarantine
    state = quarantine.state_dict()
    edit(state)
    quarantine.restore_state(state)


class TestJudge:
    def test_unwritten_block_reads_as_zeros(self):
        oracle = ShadowOracle()
        assert oracle.judge(A, ZERO_BLOCK)
        assert not oracle.judge(A, X)

    def test_acknowledged_value_replaced(self, clean):
        stack, oracle = clean
        stack.write(A, Z)  # behind the oracle's back
        stack.flush()
        got, _ = read_back(stack, A)
        assert got == Z
        assert not oracle.judge(A, got)

    def test_third_value_at_ambiguous_address(self):
        oracle = ShadowOracle()
        oracle.ack([(A, X)])
        oracle.refuse([(A, Y)])
        assert oracle.judge(A, X)
        assert oracle.judge(A, Y)
        assert not oracle.judge(A, Z)

    def test_ack_pins_an_ambiguous_address(self):
        oracle = ShadowOracle()
        oracle.refuse([(A, Y)])
        oracle.ack([(A, Z)])
        assert oracle.judge(A, Z)
        assert not oracle.judge(A, Y)
        assert A not in oracle.ambiguous


class TestWriteRuns:
    def test_half_landed_inflight_batch(self, clean):
        stack, oracle = clean
        oracle.queue(A, Z)
        oracle.queue(B, Z)
        oracle.submit()
        stack.write(A, Z)  # only half of the run reaches the engine
        stack.flush()
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == [
            "group commit split: crash landed part of an in-flight batch"
        ]

    @pytest.mark.parametrize("lands", [True, False])
    def test_whole_inflight_batch_lands_or_vanishes(self, clean, lands):
        stack, oracle = clean
        oracle.queue(A, Z)
        oracle.queue(B, Z)
        oracle.submit()
        if lands:
            stack.write_many([(A, Z), (B, Z)])
        assert oracle.check_recovered(stack, VERIFIED) == []
        # Settled as ambiguous: either outcome judges clean afterwards.
        assert oracle.judge(A, Z) and oracle.judge(A, X)
        assert not oracle.inflight

    def test_inflight_value_neither_acked_nor_attempted(self, clean):
        stack, oracle = clean
        oracle.queue(A, Z)
        oracle.submit()
        stack.write(A, Y)
        stack.flush()
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == [
            "in-flight address 0x0 recovered to neither its acked nor "
            "its batch value"
        ]

    def test_unacknowledged_queued_write_survives(self, clean):
        stack, oracle = clean
        oracle.queue(A, Z)
        stack.write(A, Z)  # the never-flushed run became durable anyway
        stack.flush()
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == [
            "unacknowledged write to address 0x0 survived the crash"
        ]
        assert not oracle.queued


class TestCounterFloors:
    def test_counter_below_floor(self, clean):
        stack, oracle = clean
        engine = stack.engine
        earlier = engine.counter_storage[0]
        acked(stack, oracle, (A, Z))  # block 0's counter moves up
        engine.counter_storage[0] = earlier  # replay the older metadata
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == ["counter regression: group 0 slot 0 recovered 1 < acked 2"]

    def test_dropped_group(self, clean):
        """A group missing from counter storage reads as all-zero
        counters, not as its floor: dropping it is a rollback."""
        stack, oracle = clean
        del stack.engine.counter_storage[0]
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == [
            "counter regression: group 0 slot 0 recovered 0 < acked 1",
            "counter regression: group 0 slot 1 recovered 0 < acked 1",
        ]

    def test_new_epoch_restarts_the_counter_space(self, clean):
        stack, oracle = clean
        del stack.engine.counter_storage[0]
        oracle.floor_epoch += 1  # a global re-encryption intervened
        assert oracle.check_recovered(stack, VERIFIED) == []


class TestQuarantine:
    def test_retired_block_unretired(self, retired):
        stack, oracle = retired
        (physical,) = oracle.retired_ever
        doctor_quarantine(
            stack, lambda state: state["retired"].pop(str(physical))
        )
        bad = oracle.check_recovered(stack, VERIFIED)
        assert (
            f"retired physical block {physical} resurrected by recovery"
            in bad
        )

    def test_mapping_outside_sealed_set(self, retired):
        stack, oracle = retired
        doctor_quarantine(stack, lambda state: state["free_spares"].pop())
        bad = oracle.check_recovered(stack, VERIFIED)
        assert bad == ["quarantine mapping diverged from every sealed state"]

    def test_crash_time_mapping_is_sealed(self, retired):
        stack, oracle = retired
        doctor_quarantine(stack, lambda state: state["free_spares"].pop())
        oracle.crash(stack)  # the crash hit after this state sealed
        assert oracle.check_recovered(stack, VERIFIED) == []

    def test_mapping_state_is_none_without_resilience(self):
        assert mapping_state(make_stack()) is None


class TestRoot:
    def test_root_not_verified(self, clean):
        stack, oracle = clean
        bad = oracle.check_recovered(
            stack, SimpleNamespace(root_verified=False)
        )
        assert bad == ["tree root not verified by recovery"]

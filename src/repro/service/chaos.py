"""``repro chaos``: disk faults x shard kills x overload, one campaign.

Extends the loadgen harness (``repro loadgen``) with the full fault
surface this service claims to survive:

* **disk faults** -- every tenant's :class:`~repro.faultfs.FaultFS`
  runs a seeded background :class:`~repro.faultfs.FaultProfile`, and
  one *victim* tenant (routed to a never-killed shard, so its
  in-memory degraded state survives the campaign) gets a boosted rate
  that drives it into degraded read-only mode;
* **shard kills** -- one worker is SIGKILLed mid-run and restarted,
  exercising the client circuit breaker (open -> fast-fail ->
  half-open probe -> closed) and journal replay;
* **induced overload** -- a burst of raw concurrent connections
  overflows the bounded dispatch queue, proving requests shed with a
  typed ``Overloaded`` refusal instead of queuing without bound;
* **deadline probes** -- requests carrying ``deadline_ms = 0`` must
  come back ``DeadlineExceeded``, deterministically, without touching
  any engine.

Correctness contract: **zero silent data corruption, bounded
staleness**.  Every *acknowledged* write must read back exactly.  A
*refused* mutation is allowed to leave the address at either the last
acknowledged value or the attempted one -- a storage fault between the
in-memory apply and the journal seal is genuinely ambiguous one level
up -- so the :class:`~repro.oracle.ShadowOracle` tracks a candidate
*set* for such addresses and accepts either member, never a third
value.  Every refusal must be typed: an ``internal`` error code
anywhere fails the campaign.

The committed ``BENCH_chaos.json`` additionally carries a
*retry-amplification* measurement (total client frame sends over
logical operations); ``scripts/chaos_gate.py`` enforces the <= 3x
floor so a regression to hot-loop retrying cannot land silently.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.faultfs import FaultProfile
from repro.obs.metrics import MetricRegistry
from repro.oracle import ShadowOracle
from repro.service.breaker import BreakerConfig
from repro.service.endpoints import scrape
from repro.service.errors import (
    QuotaExceeded,
    ServiceError,
    StorageFaulted,
    TenantDegraded,
)
from repro.service.loadgen import _block_payload, percentile
from repro.service.quota import QuotaConfig
from repro.service.router import ShardRouter, shard_of
from repro.service.server import (
    RETRYABLE_ERRORS,
    ServiceClient,
    ServiceSupervisor,
    ShardOptions,
    encode_frame,
    read_frame,
)
from repro.service.tenant import BLOCK_BYTES

CHAOS_SCHEMA = "repro.service.chaos/1"


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos campaign, fully determined by its fields."""

    tenants: int = 4
    shards: int = 2
    ops_per_tenant: int = 120
    batch_every: int = 8
    batch_size: int = 4
    read_every: int = 5
    region_kb: int = 16
    preset: str = "combined"
    seed: int = 1
    secret_seed: int = 0xDAC2018
    #: background disk-fault rate every tenant runs under
    fault_rate: float = 0.002
    #: boosted rate for the degraded-mode victim tenant
    boost_rate: float = 0.35
    #: fs steps exempt from injection (covers provisioning + recovery
    #: warm-up after a restart)
    warmup_steps: int = 24
    degraded_after: int = 4
    max_queue_depth: int = 8
    #: SIGKILL this shard once mid-run, then restart it
    kill_shard: int = 1
    kill_after_fraction: float = 0.4
    #: concurrent raw connections fired at one shard to overflow the
    #: dispatch queue
    overload_probes: int = 32
    #: requests sent with ``deadline_ms = 0`` (expired on arrival)
    deadline_probes: int = 8
    #: tight op quota for one tenant, so QuotaExceeded shows up typed
    quota: QuotaConfig = field(
        default_factory=lambda: QuotaConfig(rate_ops=400.0, burst_ops=24)
    )

    def __post_init__(self) -> None:
        if self.tenants < 2 or self.shards < 2:
            raise ValueError(
                "chaos needs >= 2 tenants and >= 2 shards (one shard "
                "is killed; the victim tenant must live elsewhere)"
            )
        if not 0 <= self.kill_shard < self.shards:
            raise ValueError("kill_shard out of range")
        if not 0.0 <= self.fault_rate < 1.0 or not 0.0 <= self.boost_rate < 1.0:
            raise ValueError("fault rates must be in [0, 1)")

    def tenant_ids(self) -> list[str]:
        return [f"tenant-{index:02d}" for index in range(self.tenants)]

    def victim_tenant(self) -> str:
        """The boosted tenant: first one routed off the killed shard."""
        for tenant_id in self.tenant_ids():
            if shard_of(tenant_id, self.shards) != self.kill_shard:
                return tenant_id
        raise ValueError("no tenant routes off the killed shard")

    def quota_tenant(self) -> str:
        """The rate-limited tenant (distinct from the victim)."""
        victim = self.victim_tenant()
        for tenant_id in reversed(self.tenant_ids()):
            if tenant_id != victim:
                return tenant_id
        raise AssertionError("unreachable: >= 2 tenants")

    def safe_shard(self) -> int:
        """A shard that is never killed (overload/deadline target)."""
        return 0 if self.kill_shard != 0 else 1

    def shard_options(self) -> ShardOptions:
        return ShardOptions(
            max_queue_depth=self.max_queue_depth,
            degraded_after=self.degraded_after,
            fault_profile=FaultProfile(
                seed=self.seed,
                rate=self.fault_rate,
                warmup_steps=self.warmup_steps,
            ),
            fault_boost_tenant=self.victim_tenant(),
            fault_boost_profile=FaultProfile(
                seed=self.seed,
                rate=self.boost_rate,
                warmup_steps=self.warmup_steps,
            ),
        )

    def config_dict(self) -> dict[str, Any]:
        return {
            "tenants": self.tenants,
            "shards": self.shards,
            "ops_per_tenant": self.ops_per_tenant,
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "boost_rate": self.boost_rate,
            "warmup_steps": self.warmup_steps,
            "degraded_after": self.degraded_after,
            "max_queue_depth": self.max_queue_depth,
            "kill_shard": self.kill_shard,
            "kill_after_fraction": self.kill_after_fraction,
            "overload_probes": self.overload_probes,
            "deadline_probes": self.deadline_probes,
            "victim_tenant": self.victim_tenant(),
            "quota_tenant": self.quota_tenant(),
        }


class _ChaosTraffic:
    """One tenant's traffic loop, judged by an ambiguity-aware oracle.

    A mutation refused after it may have reached the engine leaves its
    addresses two-valued in the oracle (the last acked value or the
    attempted one) until a later acknowledgement pins them.  Bounded
    staleness, no fabricated ground truth.
    """

    def __init__(
        self,
        tenant_id: str,
        spec: ChaosSpec,
        root: pathlib.Path,
        client_registry: MetricRegistry,
    ) -> None:
        self.tenant_id = tenant_id
        self.spec = spec
        self.client = ServiceClient(
            root,
            spec.shards,
            registry=client_registry,
            breaker=BreakerConfig(failure_threshold=3, cooldown=0.1),
            rng_seed=int.from_bytes(
                hashlib.sha256(
                    f"repro.chaos.client/{spec.seed}/{tenant_id}".encode()
                ).digest()[:8],
                "big",
            ),
        )
        self.rng = random.Random(f"repro.chaos/{spec.seed}/{tenant_id}")
        self.oracle = ShadowOracle()
        self.refusals: collections.Counter[str] = collections.Counter()
        self.logical_ops = 0
        self.acked_ops = 0
        self.inline_mismatches = 0
        self.inline_ambiguous = 0
        self.latencies_ms: list[float] = []
        self.capacity_bytes = 0

    async def provision(self) -> None:
        self.logical_ops += 1
        quota = (
            self.spec.quota
            if self.tenant_id == self.spec.quota_tenant()
            else QuotaConfig()
        )
        response = await self.client.request_retry({
            "op": "provision",
            "tenant": self.tenant_id,
            "preset": self.spec.preset,
            "region_kb": self.spec.region_kb,
            "resilience": True,
            "quota": quota.to_json(),
        })
        self.capacity_bytes = int(response["capacity_bytes"])

    def _pick_address(self) -> int:
        blocks = self.capacity_bytes // BLOCK_BYTES
        return self.rng.randrange(blocks) * BLOCK_BYTES

    async def _mutate(
        self, payload: dict[str, Any], writes: list[tuple[int, bytes]]
    ) -> None:
        """One mutating request; classifies every refusal by type."""
        # Per-op latency includes retry stalls: the user-visible tail.
        # repro-lint: disable=RL002
        start = time.monotonic()
        try:
            await self.client.request_retry(payload, deadline=30.0)
        except (QuotaExceeded, TenantDegraded) as error:
            # Refused strictly before dispatch: nothing reached the
            # engine, the last acked value still stands.
            self.refusals[error.code] += 1
        except StorageFaulted as error:
            # The backing store refused mid-mutation: not acked, but
            # possibly applied in engine memory.  Two-valued from here
            # until a later ack pins it.
            self.refusals[error.code] += 1
            self.oracle.refuse(writes)
        except RETRYABLE_ERRORS as error:
            # Retry budget exhausted: the last attempt is ambiguous.
            self.refusals[error.code] += 1
            self.oracle.refuse(writes)
        except ServiceError as error:
            self.refusals[error.code] += 1
        else:
            self.oracle.ack(writes)
            self.acked_ops += 1
        finally:
            # repro-lint: disable=RL002
            self.latencies_ms.append((time.monotonic() - start) * 1000.0)

    async def _one_op(self, sequence: int) -> None:
        spec = self.spec
        self.logical_ops += 1
        if (
            spec.read_every
            and sequence % spec.read_every == 2
            and self.oracle.acked
        ):
            address = self.rng.choice(sorted(self.oracle.acked))
            try:
                response = await self.client.request_retry({
                    "op": "read",
                    "tenant": self.tenant_id,
                    "address": address,
                }, deadline=30.0)
            except ServiceError as error:
                self.refusals[error.code] += 1
                return
            data = response.get("data")
            seen = bytes.fromhex(data) if data else None
            if self.oracle.judge(address, seen):
                self.acked_ops += 1
                if address in self.oracle.ambiguous:
                    self.inline_ambiguous += 1
            else:
                self.inline_mismatches += 1
        elif spec.batch_every and sequence % spec.batch_every == 1:
            writes = []
            for offset in range(spec.batch_size):
                address = self._pick_address()
                writes.append((address, _block_payload(
                    self.tenant_id, spec.seed, address,
                    sequence * 1000 + offset,
                )))
            await self._mutate({
                "op": "batch",
                "tenant": self.tenant_id,
                "writes": [[a, d.hex()] for a, d in writes],
            }, writes)
        else:
            address = self._pick_address()
            data = _block_payload(
                self.tenant_id, spec.seed, address, sequence
            )
            await self._mutate({
                "op": "write",
                "tenant": self.tenant_id,
                "address": address,
                "data": data.hex(),
            }, writes=[(address, data)])

    async def run(self) -> None:
        for sequence in range(self.spec.ops_per_tenant):
            await self._one_op(sequence)

    async def verify(self) -> dict[str, int]:
        """Read back every tracked address; SDC = a third value.

        Addresses whose only history is a refused first write (no
        acked value to fall back to) are skipped, not guessed: with no
        acknowledged ground truth there is nothing to hold the service
        to -- an unwritten block legally reads as anything the engine
        initialises it to.
        """
        oracle = self.oracle
        verified = sdc = ambiguous_ok = skipped = 0
        for address in sorted(set(oracle.acked) | set(oracle.ambiguous)):
            if address not in oracle.acked:
                skipped += 1
                continue
            while True:
                try:
                    data = await self.client.read(self.tenant_id, address)
                    break
                except QuotaExceeded:
                    await asyncio.sleep(0.05)
            if oracle.judge(address, data):
                verified += 1
                if address in oracle.ambiguous:
                    ambiguous_ok += 1
            else:
                sdc += 1
        return {
            "verified": verified,
            "sdc": sdc,
            "ambiguous_ok": ambiguous_ok,
            "skipped": skipped,
        }

    async def close(self) -> None:
        await self.client.close()


async def _deadline_probes(
    spec: ChaosSpec, root: pathlib.Path, registry: MetricRegistry
) -> dict[str, int]:
    """Fire ``deadline_ms = 0`` pings; every one must come back typed."""
    client = ServiceClient(
        root, spec.shards, registry=registry, rng_seed=spec.seed
    )
    refused = other = 0
    try:
        for index in range(spec.deadline_probes):
            shard = index % spec.shards
            if shard == spec.kill_shard:
                shard = spec.safe_shard()
            try:
                await client.request(
                    {"op": "ping", "tenant": "", "deadline_ms": 0},
                    shard=shard,
                )
                other += 1
            except ServiceError as error:
                if error.code == "deadline_exceeded":
                    refused += 1
                else:
                    other += 1
    finally:
        await client.close()
    return {
        "sent": spec.deadline_probes,
        "refused": refused,
        "other": other,
    }


async def _overload_burst(
    spec: ChaosSpec, root: pathlib.Path
) -> dict[str, int]:
    """Overflow one shard's dispatch queue with raw concurrent frames.

    Raw connections (not :class:`ServiceClient`) because one client
    serializes request/response per shard; shedding needs genuinely
    concurrent arrivals.  These sends are deliberately outside the
    retry-amplification accounting -- they exist to be refused.
    """
    shard = spec.safe_shard()
    path = str(ShardRouter(root, spec.shards).socket_path(shard))
    frame = encode_frame({"op": "ping", "tenant": ""})

    async def _probe() -> str:
        try:
            reader, writer = await asyncio.open_unix_connection(path)
        except OSError:
            return "connect_failed"
        try:
            writer.write(frame)
            await writer.drain()
            response = await read_frame(reader)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            return "io_failed"
        finally:
            writer.close()
        if response.get("ok", False):
            return "ok"
        return str(response.get("error", {}).get("code", "internal"))

    outcomes = await asyncio.gather(
        *(_probe() for _ in range(spec.overload_probes))
    )
    counts = collections.Counter(outcomes)
    return {
        "probes": spec.overload_probes,
        "ok": counts.get("ok", 0),
        "shed": counts.get("overloaded", 0),
        "errors": spec.overload_probes
        - counts.get("ok", 0)
        - counts.get("overloaded", 0),
    }


async def _drive(
    spec: ChaosSpec,
    root: pathlib.Path,
    supervisor: ServiceSupervisor,
) -> dict[str, Any]:
    client_registry = MetricRegistry()
    traffic = [
        _ChaosTraffic(tenant_id, spec, root, client_registry)
        for tenant_id in spec.tenant_ids()
    ]
    for tenant in traffic:
        await tenant.provision()

    kill_events: list[dict[str, Any]] = []

    async def _chaos_kill() -> None:
        total = spec.ops_per_tenant * spec.tenants
        target = int(total * spec.kill_after_fraction)
        while (
            sum(t.acked_ops + sum(t.refusals.values()) for t in traffic)
            < target
        ):
            await asyncio.sleep(0.01)
        await asyncio.to_thread(supervisor.kill_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "kill"})
        await asyncio.to_thread(supervisor.restart_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "restart"})

    # Campaign wallclock (throughput denominator), not simulated time.
    # repro-lint: disable=RL002
    start = time.monotonic()
    deadline_report, overload_report, *_ = await asyncio.gather(
        _deadline_probes(spec, root, client_registry),
        _overload_burst(spec, root),
        _chaos_kill(),
        *(tenant.run() for tenant in traffic),
    )
    # repro-lint: disable=RL002
    elapsed = time.monotonic() - start

    # The victim must end the campaign degraded: one more write has to
    # bounce with the typed refusal while a read still serves.
    victim = next(
        t for t in traffic if t.tenant_id == spec.victim_tenant()
    )
    victim_address = 0
    victim_payload = _block_payload(
        victim.tenant_id, spec.seed, victim_address, 999_999
    )
    degraded_write_refused = False
    try:
        await victim.client.write(
            victim.tenant_id, victim_address, victim_payload
        )
    except TenantDegraded:
        degraded_write_refused = True
    except ServiceError:
        degraded_write_refused = False
    degraded_read_ok = False
    try:
        await victim.client.read(victim.tenant_id, victim_address)
        degraded_read_ok = True
    except ServiceError:
        degraded_read_ok = False

    verify_totals = collections.Counter()
    for tenant in traffic:
        verify_totals.update(await tenant.verify())

    refusals = collections.Counter()
    for tenant in traffic:
        refusals.update(tenant.refusals)

    logical_ops = sum(t.logical_ops for t in traffic) + (
        deadline_report["sent"]
    ) + verify_totals["verified"] + verify_totals["sdc"]
    client_totals = client_registry.snapshot().totals()
    sends = client_totals.get("service.client.sends", 0)
    amplification = (sends / logical_ops) if logical_ops else 0.0

    all_latencies = [
        sample for t in traffic for sample in t.latencies_ms
    ]
    breaker_states = {
        t.tenant_id: t.client.breaker_states() for t in traffic
    }
    for tenant in traffic:
        await tenant.close()

    return {
        "elapsed_s": round(elapsed, 3),
        "acked_ops": sum(t.acked_ops for t in traffic),
        "logical_ops": logical_ops,
        "refusals": dict(sorted(refusals.items())),
        "p50_ms": round(percentile(all_latencies, 50), 3),
        "p99_ms": round(percentile(all_latencies, 99), 3),
        "verified_blocks": verify_totals["verified"],
        "sdc_blocks": verify_totals["sdc"],
        "ambiguous_ok_blocks": verify_totals["ambiguous_ok"],
        "skipped_blocks": verify_totals["skipped"],
        "inline_mismatches": sum(t.inline_mismatches for t in traffic),
        "inline_ambiguous": sum(t.inline_ambiguous for t in traffic),
        "kill_events": kill_events,
        "deadline": deadline_report,
        "overload": overload_report,
        "client": {
            "sends": sends,
            "retries": client_totals.get("service.client.retries", 0),
            "fast_fails": client_totals.get(
                "service.breaker.fast_fail", 0
            ),
            "amplification": round(amplification, 3),
        },
        "breaker": {
            "opened": client_totals.get("service.breaker.opened", 0),
            "half_open": client_totals.get(
                "service.breaker.half_open", 0
            ),
            "closed": client_totals.get("service.breaker.closed", 0),
            "states": breaker_states,
        },
        "degraded": {
            "tenant": spec.victim_tenant(),
            "write_refused": degraded_write_refused,
            "read_ok": degraded_read_ok,
        },
    }


def run_chaos(
    spec: ChaosSpec,
    root: str | pathlib.Path,
    out_path: str | pathlib.Path | None = None,
) -> dict[str, Any]:
    """Run one chaos campaign end to end; returns the bench payload."""
    root = pathlib.Path(root)
    supervisor = ServiceSupervisor(
        root,
        num_shards=spec.shards,
        secret_seed=spec.secret_seed,
        options=spec.shard_options(),
    )
    supervisor.start()
    try:
        supervisor.wait_ready()
        results = asyncio.run(_drive(spec, root, supervisor))
        health = {}
        for shard in range(spec.shards):
            http = str(supervisor.router.http_socket_path(shard))
            health[f"shard-{shard}"] = scrape(http, "/health")
    finally:
        supervisor.stop()

    refusals = results["refusals"]
    typed_only = refusals.get("internal", 0) == 0
    payload = {
        "schema": CHAOS_SCHEMA,
        "bench": "chaos",
        "config": spec.config_dict(),
        "results": results,
        "health": health,
        "all_verified": (
            results["sdc_blocks"] == 0
            and results["inline_mismatches"] == 0
            and typed_only
        ),
    }
    if out_path is not None:
        pathlib.Path(out_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return payload


__all__ = ["CHAOS_SCHEMA", "ChaosSpec", "run_chaos"]

"""Mixed-tenant load generator, chaos kill, and the service benchmark.

``repro loadgen`` self-hosts a :class:`ServiceSupervisor`, provisions N
tenants across the shards, and drives concurrent per-tenant traffic
(single writes, group-commit batches, and verifying reads) while a
:class:`~repro.oracle.ShadowOracle` records every acknowledged write.
The oracle is the ground truth: at the end, every acknowledged block is
read back through the service and judged byte-for-byte -- any mismatch
is silent data corruption and fails the run.

Chaos mode (``kill_shard``) SIGKILLs one worker mid-run and restarts
it.  In-flight requests surface :class:`ShardUnavailable`; the
generator retries them idempotently (same (address, data) pair) until
the restarted worker has replayed its journals, and only then
acknowledges the write to the oracle.  An op's latency includes any such retry
stall, so the reported p99 is the *user-visible* tail under a crash,
not a fair-weather number.

Latency and throughput are wall-clock and therefore machine-dependent;
the correctness fields (``sdc_blocks``, ``verified_blocks``,
``all_verified``) are not.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import MetricRegistry
from repro.oracle import ShadowOracle
from repro.service.endpoints import scrape
from repro.service.errors import QuotaExceeded, ShardUnavailable
from repro.service.quota import QuotaConfig
from repro.service.router import shard_of
from repro.service.server import ServiceClient, ServiceSupervisor
from repro.service.tenant import BLOCK_BYTES

BENCH_SCHEMA = "repro.service.bench/1"


@dataclass(frozen=True)
class LoadgenSpec:
    """One load-generation campaign, fully determined by its fields."""

    tenants: int = 4
    shards: int = 2
    ops_per_tenant: int = 200
    batch_every: int = 8
    batch_size: int = 4
    read_every: int = 5
    region_kb: int = 16
    preset: str = "combined"
    keystream: str = "splitmix"
    seed: int = 1
    secret_seed: int = 0xDAC2018
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: chaos: SIGKILL this shard once mid-run, then restart it
    kill_shard: int | None = None
    kill_after_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.shards < 1:
            raise ValueError("tenants and shards must be >= 1")
        if self.ops_per_tenant < 1:
            raise ValueError("ops_per_tenant must be >= 1")
        if self.kill_shard is not None and not (
            0 <= self.kill_shard < self.shards
        ):
            raise ValueError("kill_shard out of range")

    def tenant_ids(self) -> list[str]:
        return [f"tenant-{index:02d}" for index in range(self.tenants)]

    def config_dict(self) -> dict[str, Any]:
        return {
            "tenants": self.tenants,
            "shards": self.shards,
            "ops_per_tenant": self.ops_per_tenant,
            "batch_every": self.batch_every,
            "batch_size": self.batch_size,
            "read_every": self.read_every,
            "region_kb": self.region_kb,
            "preset": self.preset,
            "keystream": self.keystream,
            "seed": self.seed,
            "kill_shard": self.kill_shard,
            "kill_after_fraction": self.kill_after_fraction,
        }


def _block_payload(tenant_id: str, seed: int, address: int,
                   sequence: int) -> bytes:
    return hashlib.sha512(
        f"repro.loadgen/{tenant_id}/{seed}/{address}/{sequence}".encode()
    ).digest()[:BLOCK_BYTES]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``, in ms."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class _TenantTraffic:
    """One tenant's traffic loop + its ground-truth oracle."""

    def __init__(self, tenant_id: str, spec: LoadgenSpec,
                 root: pathlib.Path,
                 client_registry: MetricRegistry | None = None) -> None:
        self.tenant_id = tenant_id
        self.spec = spec
        self.client = ServiceClient(
            root,
            spec.shards,
            registry=client_registry,
            rng_seed=int.from_bytes(
                hashlib.sha256(
                    f"repro.loadgen.client/{spec.seed}/{tenant_id}".encode()
                ).digest()[:8],
                "big",
            ),
        )
        self.rng = random.Random(
            f"repro.loadgen/{spec.seed}/{tenant_id}"
        )
        self.oracle = ShadowOracle()
        self.latencies_ms: list[float] = []
        self.acked_ops = 0
        self.retried_ops = 0
        self.quota_rejections = 0
        self.inline_mismatches = 0
        self.capacity_bytes = 0

    async def provision(self) -> None:
        response = await self.client.request_retry({
            "op": "provision",
            "tenant": self.tenant_id,
            "preset": self.spec.preset,
            "region_kb": self.spec.region_kb,
            "keystream": self.spec.keystream,
            "quota": self.spec.quota.to_json(),
        })
        self.capacity_bytes = int(response["capacity_bytes"])

    def _pick_address(self) -> int:
        blocks = self.capacity_bytes // BLOCK_BYTES
        return self.rng.randrange(blocks) * BLOCK_BYTES

    async def _timed(self, payload: dict[str, Any]) -> dict[str, Any]:
        # Measuring real request latency is this coroutine's job.
        # repro-lint: disable=RL002
        start = time.monotonic()
        try:
            response = await self.client.request(payload)
        except QuotaExceeded:
            self.quota_rejections += 1
            raise
        except ShardUnavailable:
            # Ambiguous failure (killed shard mid-request): retry the
            # identical payload until the replacement worker answers.
            self.retried_ops += 1
            response = await self.client.request_retry(
                payload, deadline=30.0
            )
        # repro-lint: disable=RL002
        self.latencies_ms.append((time.monotonic() - start) * 1000.0)
        return response

    async def run(self) -> None:
        for sequence in range(self.spec.ops_per_tenant):
            try:
                await self._one_op(sequence)
            except QuotaExceeded:
                # A quota refusal is the service working as designed:
                # count it (in _timed) and move to the next op.
                continue

    async def _one_op(self, sequence: int) -> None:
        spec = self.spec
        if spec.read_every and sequence % spec.read_every == 2 \
                and self.oracle.acked:
            address = self.rng.choice(sorted(self.oracle.acked))
            response = await self._timed({
                "op": "read",
                "tenant": self.tenant_id,
                "address": address,
            })
            data = response.get("data")
            seen = bytes.fromhex(data) if data else b""
            if not self.oracle.judge(address, seen):
                self.inline_mismatches += 1
            self.acked_ops += 1
        elif spec.batch_every and sequence % spec.batch_every == 1:
            writes = []
            for offset in range(spec.batch_size):
                address = self._pick_address()
                writes.append((address, _block_payload(
                    self.tenant_id, spec.seed, address,
                    sequence * 1000 + offset,
                )))
            await self._timed({
                "op": "batch",
                "tenant": self.tenant_id,
                "writes": [[a, d.hex()] for a, d in writes],
            })
            self.oracle.ack(writes)
            self.acked_ops += len(writes)
        else:
            address = self._pick_address()
            data = _block_payload(
                self.tenant_id, spec.seed, address, sequence
            )
            await self._timed({
                "op": "write",
                "tenant": self.tenant_id,
                "address": address,
                "data": data.hex(),
            })
            self.oracle.ack([(address, data)])
            self.acked_ops += 1

    async def verify(self) -> tuple[int, int]:
        """Read every acknowledged block back; returns (verified, sdc).

        Verification reads pay the same op quota as traffic, so a
        rate-limited tenant's sweep politely waits for bucket refills.
        """
        verified = sdc = 0
        for address in sorted(self.oracle.acked):
            while True:
                try:
                    data = await self.client.read(self.tenant_id, address)
                    break
                except QuotaExceeded:
                    await asyncio.sleep(0.05)
            if self.oracle.judge(address, data):
                verified += 1
            else:
                sdc += 1
        return verified, sdc

    async def close(self) -> None:
        await self.client.close()


async def _drive(spec: LoadgenSpec, root: pathlib.Path,
                 supervisor: ServiceSupervisor) -> dict[str, Any]:
    client_registry = MetricRegistry()
    traffic = [
        _TenantTraffic(tenant_id, spec, root, client_registry)
        for tenant_id in spec.tenant_ids()
    ]
    for tenant in traffic:
        await tenant.provision()

    kill_events: list[dict[str, Any]] = []

    async def _chaos() -> None:
        if spec.kill_shard is None:
            return
        total = spec.ops_per_tenant * spec.tenants
        target = int(total * spec.kill_after_fraction)
        while sum(t.acked_ops for t in traffic) < target:
            await asyncio.sleep(0.01)
        await asyncio.to_thread(supervisor.kill_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "kill"})
        await asyncio.to_thread(supervisor.restart_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "restart"})

    # Campaign wallclock (throughput denominator), not simulated time.
    # repro-lint: disable=RL002
    start = time.monotonic()
    await asyncio.gather(_chaos(), *(tenant.run() for tenant in traffic))
    # repro-lint: disable=RL002
    elapsed = time.monotonic() - start

    verified = sdc = 0
    for tenant in traffic:
        tenant_verified, tenant_sdc = await tenant.verify()
        verified += tenant_verified
        sdc += tenant_sdc

    all_latencies = [
        sample for tenant in traffic for sample in tenant.latencies_ms
    ]
    total_ops = sum(tenant.acked_ops for tenant in traffic)
    tenants_out = {
        tenant.tenant_id: {
            "shard": shard_of(tenant.tenant_id, spec.shards),
            "acked_ops": tenant.acked_ops,
            "retried_ops": tenant.retried_ops,
            "quota_rejections": tenant.quota_rejections,
            "shadow_blocks": len(tenant.oracle.acked),
            "inline_mismatches": tenant.inline_mismatches,
            "p50_ms": round(percentile(tenant.latencies_ms, 50), 3),
            "p99_ms": round(percentile(tenant.latencies_ms, 99), 3),
        }
        for tenant in traffic
    }
    for tenant in traffic:
        await tenant.close()
    client_totals = client_registry.snapshot().totals()
    return {
        "client": {
            "sends": client_totals.get("service.client.sends", 0),
            "retries": client_totals.get("service.client.retries", 0),
            "breaker_opened": client_totals.get(
                "service.breaker.opened", 0
            ),
        },
        "elapsed_s": round(elapsed, 3),
        "throughput_ops_s": round(total_ops / elapsed, 1) if elapsed else 0.0,
        "acked_ops": total_ops,
        "p50_ms": round(percentile(all_latencies, 50), 3),
        "p99_ms": round(percentile(all_latencies, 99), 3),
        "verified_blocks": verified,
        "sdc_blocks": sdc,
        "inline_mismatches": sum(t.inline_mismatches for t in traffic),
        "kill_events": kill_events,
        "tenants": tenants_out,
    }


def run_loadgen(spec: LoadgenSpec, root: str | pathlib.Path,
                out_path: str | pathlib.Path | None = None
                ) -> dict[str, Any]:
    """Run one campaign end to end; returns the benchmark payload."""
    root = pathlib.Path(root)
    supervisor = ServiceSupervisor(
        root, num_shards=spec.shards, secret_seed=spec.secret_seed
    )
    supervisor.start()
    try:
        supervisor.wait_ready()
        results = asyncio.run(_drive(spec, root, supervisor))
        scrapes = {}
        for shard in range(spec.shards):
            http = str(supervisor.router.http_socket_path(shard))
            scrapes[f"shard-{shard}"] = {
                "health": scrape(http, "/health"),
            }
    finally:
        supervisor.stop()

    payload = {
        "schema": BENCH_SCHEMA,
        "bench": "service",
        "config": spec.config_dict(),
        "results": results,
        "health": {
            name: entry["health"].get("status")
            for name, entry in sorted(scrapes.items())
        },
        "all_verified": results["sdc_blocks"] == 0
        and results["inline_mismatches"] == 0,
    }
    if out_path is not None:
        pathlib.Path(out_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return payload


__all__ = [
    "BENCH_SCHEMA",
    "LoadgenSpec",
    "percentile",
    "run_loadgen",
]

"""Workload ``service-steady``: closed-loop traffic against one live shard.

One self-hosted shard worker serves two tenants (preset ``combined``,
keystream ``aesni``, 16 KiB regions, no injected faults, no kill).  One
load-generator process -- this one -- keeps one closed-loop connection
per tenant, so two requests are in flight at most, one per CPU of the
two-CPU machine the benchmark was sized on.  Traffic follows the
``repro loadgen`` default mix: every 5th request a read, every 8th a
4-block batch, the rest single writes.  The data directory sits inside
the checkout, on the disk-backed filesystem, so fsync is real.  The run
ends with a full read-back of every acknowledged block.

Why: it is the only workload where the persist journal and its fsyncs,
the faultfs barrier layer, service dispatch and the wire protocol do
the work.  It drives the same engine as ``engine-replay`` but with
batches of 1-4 blocks instead of 256, so a kernel change that pays only
at large batches shows a gain there and none, or a loss, here.  Closed
loop, because service clients wait for each reply.

The shard runs in its own process, where the benchmark cannot install
wrappers, so the traced run also replays the same request sequence
against an in-process ``Shard.handle_request`` on the same filesystem:
that replay gives the handler, engine and fsync split, and the
difference between client and handler medians is the wire.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any

from common import (
    Outcome,
    expect,
    fresh_dir,
    median,
    pass_count,
    process_peak_rss_mib,
    remove_dir,
)
from engine import engine_layers, engine_patches
from spans import SpanRecorder, installed

TENANTS = ("tenant-00", "tenant-01")
PRESET = "combined"
KEYSTREAM = "aesni"
REGION_KB = 16
BLOCK_BYTES = 64
#: requests per tenant in one pass, per size
PASS_REQUESTS = {"full": 250, "tiny": 20}
#: passes the traced run sends live and replays in process
TRACED_PASSES = {"full": 6, "tiny": 2}
SETUPS = 7
#: seconds one pass takes on the 2-CPU machine the benchmark was sized on
NOMINAL_PASS_S = 1.2


@dataclass(frozen=True)
class Request:
    tenant: str
    op: str
    payload: dict[str, Any]
    #: blocks a success acknowledges (a batch counts its blocks)
    blocks: int
    #: for reads, the last acknowledged data at that address
    expected: bytes | None = None


class _Traffic:
    """One tenant's request sequence, fixed by the seed."""

    def __init__(self, tenant: str, seed: int) -> None:
        from repro.service.loadgen import LoadgenSpec

        mix = LoadgenSpec()
        self.read_every = mix.read_every
        self.batch_every = mix.batch_every
        self.batch_size = mix.batch_size
        self.tenant = tenant
        self.seed = seed
        self.rng = random.Random(f"perfbench.service/{seed}/{tenant}")
        self.shadow: dict[int, bytes] = {}
        self.sequence = 0

    def _payload(self, address: int, salt: int) -> bytes:
        return hashlib.sha512(
            f"{self.tenant}/{self.seed}/{address}/{salt}".encode()
        ).digest()[:BLOCK_BYTES]

    def _address(self) -> int:
        return self.rng.randrange(REGION_KB * 1024 // BLOCK_BYTES) * BLOCK_BYTES

    def next_pass(self, count: int) -> list[Request]:
        requests = []
        for _ in range(count):
            i = self.sequence
            self.sequence += 1
            if i % self.read_every == 2 and self.shadow:
                address = self.rng.choice(sorted(self.shadow))
                requests.append(Request(
                    self.tenant, "read",
                    {"op": "read", "tenant": self.tenant, "address": address},
                    1, self.shadow[address],
                ))
            elif i % self.batch_every == 1:
                writes = []
                for offset in range(self.batch_size):
                    address = self._address()
                    data = self._payload(address, i * 1000 + offset)
                    self.shadow[address] = data
                    writes.append([address, data.hex()])
                requests.append(Request(
                    self.tenant, "batch",
                    {"op": "batch", "tenant": self.tenant, "writes": writes},
                    len(writes),
                ))
            else:
                address = self._address()
                data = self._payload(address, i)
                self.shadow[address] = data
                requests.append(Request(
                    self.tenant, "write",
                    {"op": "write", "tenant": self.tenant,
                     "address": address, "data": data.hex()},
                    1,
                ))
        return requests


def _secret(seed: int) -> int:
    return int.from_bytes(
        hashlib.sha256(f"perfbench.secret/{seed}".encode()).digest()[:8],
        "big",
    )


def _provision_request(tenant: str) -> dict[str, Any]:
    return {"op": "provision", "tenant": tenant, "preset": PRESET,
            "region_kb": REGION_KB, "keystream": KEYSTREAM}


def _check_tenant(root: Any, tenant: str, capacity: int) -> None:
    """Refuse when the provisioned tenant differs from what was asked."""
    from repro.service.tenant import read_manifest, tenant_dir

    spec = read_manifest(tenant_dir(root, tenant))
    expect(f"{tenant} keystream", KEYSTREAM, spec.keystream)
    expect(f"{tenant} preset", PRESET, spec.preset)
    expect(f"{tenant} capacity", REGION_KB * 1024, capacity)


def _check(outcome: Outcome, request: Request, response: dict[str, Any]
           ) -> None:
    if not response.get("ok", False):
        outcome.fail(f"{request.op} refused: {response.get('error')}")
    elif request.op == "read":
        data = response.get("data")
        seen = bytes.fromhex(data) if data else b""
        if seen != request.expected:
            outcome.fail(f"inline mismatch at {request.payload['address']}")


class _Live:
    """A self-hosted single-shard service with provisioned tenants."""

    def __init__(self, seed: int) -> None:
        from repro.obs.metrics import MetricRegistry
        from repro.service.server import ServiceSupervisor

        self.root = fresh_dir("svc")
        self.client_registry = MetricRegistry()
        self.supervisor = ServiceSupervisor(
            self.root, num_shards=1, secret_seed=_secret(seed)
        )
        self.supervisor.start()
        try:
            self.supervisor.wait_ready()
            asyncio.run(self._provision())
        except BaseException:
            self.close()
            raise

    def _clients(self) -> dict[str, Any]:
        from repro.service.server import ServiceClient

        return {
            tenant: ServiceClient(self.root, 1,
                                  registry=self.client_registry,
                                  rng_seed=index)
            for index, tenant in enumerate(TENANTS)
        }

    async def _provision(self) -> None:
        clients = self._clients()
        try:
            for tenant, client in clients.items():
                response = await client.request_retry(
                    _provision_request(tenant)
                )
                _check_tenant(self.root, tenant,
                              int(response["capacity_bytes"]))
        finally:
            for client in clients.values():
                await client.close()

    async def traffic(self, outcome: Outcome, traffic: list[_Traffic],
                      per_pass: int, passes: int) -> dict[str, Any]:
        """``passes`` timed passes, then the full shadow read-back."""
        from repro.service.errors import ServiceError

        clients = self._clients()
        latencies: dict[str, list[float]] = {"write": [], "batch": [],
                                             "read": []}
        pass_times: list[float] = []
        sent: list[list[Request]] = []
        acked = 0

        async def loop(requests: list[Request]) -> int:
            blocks = 0
            client = clients[requests[0].tenant]
            for request in requests:
                start = time.perf_counter()
                try:
                    response = await client.request(request.payload)
                except ServiceError as error:
                    response = {"ok": False, "error": repr(error)}
                latencies[request.op].append(
                    (time.perf_counter() - start) * 1000.0
                )
                outcome.attempted += 1
                _check(outcome, request, response)
                if response.get("ok", False):
                    blocks += request.blocks
            return blocks

        try:
            for _ in range(passes):
                batch = [t.next_pass(per_pass) for t in traffic]
                sent.append([r for requests in batch for r in requests])
                start = time.perf_counter()
                done = await asyncio.gather(*(loop(r) for r in batch))
                pass_times.append(time.perf_counter() - start)
                acked += sum(done)
            readback_start = time.perf_counter()
            sdc = 0
            for t in traffic:
                for address in sorted(t.shadow):
                    outcome.attempted += 1
                    data = await clients[t.tenant].read(t.tenant, address)
                    if data != t.shadow[address]:
                        sdc += 1
                        outcome.fail(f"SDC at {t.tenant}:{address}")
            readback_s = time.perf_counter() - readback_start
        finally:
            for client in clients.values():
                await client.close()
        return {
            "pass_times": pass_times,
            "latencies": latencies,
            "acked_blocks": acked,
            "sent": sent,
            "sdc_blocks": sdc,
            "readback_s": readback_s,
        }

    def scrape(self) -> dict[str, Any]:
        from repro.service.endpoints import scrape

        http = str(self.supervisor.router.http_socket_path(0))
        return scrape(http, "/metrics")["metrics"]

    def shard_peak_rss_mib(self) -> float:
        import multiprocessing

        children = multiprocessing.active_children()
        if len(children) != 1:
            raise RuntimeError(f"expected one shard worker: {children}")
        return process_peak_rss_mib(children[0].pid)

    def close(self) -> None:
        try:
            self.supervisor.stop()
        finally:
            remove_dir(self.root)


def _digest(shard: Any) -> dict[str, str]:
    from repro.harness.parallel import state_digest

    return {
        tenant: state_digest(shard.tenants[tenant].stack.engine)
        for tenant in TENANTS
    }


def _in_process(outcome: Outcome, seed: int, passes: list[list[Request]],
                recorder: SpanRecorder | None
                ) -> tuple[float, dict[str, list[float]], dict[str, str],
                           list[dict[str, Any]]]:
    """Replay ``passes`` against an in-process shard on a fresh directory.

    Returns the replay wall time, handler latencies per op, the tenants'
    engine state digests after the first pass and their metric totals.
    """
    from repro.service.server import Shard

    root = fresh_dir("shard")
    latencies: dict[str, list[float]] = {"write": [], "batch": [],
                                         "read": []}
    try:
        shard = Shard(root, 0, 1, _secret(seed))
        for tenant in TENANTS:
            response = shard.handle_request(_provision_request(tenant))
            expect(f"{tenant} provision", True, response.get("ok"))
            _check_tenant(root, tenant, int(response["capacity_bytes"]))
        handle = shard.handle_request
        if recorder is not None:
            handle = recorder.wrap("service.handle_request", handle)
        digests: dict[str, str] = {}
        wall = 0.0
        for requests in passes:
            # The live run interleaves the tenants; so does the replay.
            by_tenant = [[r for r in requests if r.tenant == t]
                         for t in TENANTS]
            ordered = [r for group in zip(*by_tenant) for r in group]
            start = time.perf_counter()
            for request in ordered:
                began = time.perf_counter()
                response = handle(request.payload)
                latencies[request.op].append(
                    (time.perf_counter() - began) * 1000.0
                )
                outcome.attempted += 1
                _check(outcome, request, response)
            wall += time.perf_counter() - start
            if not digests:
                digests = _digest(shard)
        totals = [shard.tenants[t].registry.snapshot().totals()
                  for t in TENANTS]
    finally:
        remove_dir(root)
    return wall, latencies, digests, totals


def _service_patches(recorder: SpanRecorder) -> list[tuple]:
    from repro.faultfs.layer import FaultFS
    from repro.stack import EngineStack

    def wrap(name: str) -> Any:
        return lambda original: recorder.wrap(name, original)

    return [
        *[(EngineStack, method, wrap("service.engine"))
          for method in ("write", "write_many", "flush", "read",
                         "read_many")],
        (FaultFS, "fsync", wrap("faultfs.fsync")),
        (FaultFS, "fsync_dir", wrap("faultfs.fsync_dir")),
    ]


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p99/p95/p90/p50 with at least ten samples above it,
    as ``(q, value)``."""
    from repro.service.loadgen import percentile

    for q in (99.0, 95.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(samples, q)
    return 50.0, percentile(samples, 50.0)


def _summary(live: dict[str, Any]) -> dict[str, Any]:
    from repro.service.loadgen import percentile

    latencies = live["latencies"]
    every = [x for samples in latencies.values() for x in samples]
    q, tail = _tail(every)
    traffic_s = sum(live["pass_times"])
    return {
        "service_ops_per_s": live["acked_blocks"] / traffic_s,
        "service_write_p50_ms": percentile(latencies["write"], 50),
        "service_read_p50_ms": percentile(latencies["read"], 50),
        "service_tail_ms": {"percentile": q, "value": tail,
                            "samples": len(every)},
        "client_p50_ms": percentile(every, 50),
        "readback_s": live["readback_s"],
        "sdc_blocks": live["sdc_blocks"],
        "pass_s": live["pass_times"],
    }


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    from repro.service.loadgen import percentile

    outcome = Outcome()
    per_pass = PASS_REQUESTS[size]
    setups = []
    live = None
    try:
        for index in range(1 if trace else SETUPS):
            start = time.perf_counter()
            live = _Live(seed)
            setups.append(time.perf_counter() - start)
            if index < (0 if trace else SETUPS - 1):
                live.close()
                live = None
        assert live is not None
        traffic = [_Traffic(tenant, seed) for tenant in TENANTS]
        results = asyncio.run(live.traffic(
            outcome, traffic, per_pass,
            TRACED_PASSES[size] if trace
            else pass_count(seconds, NOMINAL_PASS_S),
        ))
        scraped = live.scrape()
        shard_rss = live.shard_peak_rss_mib()
    finally:
        if live is not None:
            live.close()
    rejected = sum(value for name, value in scraped.items()
                   if name.startswith("service.rejected."))
    outcome.check(rejected == 0, f"shard rejected {rejected} requests")

    summary = _summary(results)
    sent = results["sent"]
    # The in-process replay of the first pass pins the engine state the
    # request sequence must produce on every run of this seed.
    replayed = sent if trace else sent[:1]
    untraced_wall, handle_ms, digests, _ = _in_process(
        outcome, seed, replayed, None
    )
    outcome.report = {
        "setup_s": setups,
        **summary,
        "shard_peak_rss_mb": shard_rss,
        "state_digest": digests,
    }
    if trace:
        recorder = SpanRecorder()
        kernel_blocks: dict[str, int] = {}
        patches = engine_patches(recorder, kernel_blocks)
        with installed(patches + _service_patches(recorder)):
            traced_wall, _, traced_digests, totals = _in_process(
                outcome, seed, replayed, recorder
            )
        outcome.check(traced_digests == digests,
                      "traced replay state differs from the untraced one")
        writes = sum(r.blocks for requests in sent for r in requests
                     if r.op != "read")
        live_writes = sum(
            value for name, value in scraped.items()
            if name.endswith(".stack.writes")
        )

        def per_write(suffix: str) -> float:
            return sum(value for name, value in scraped.items()
                       if name.endswith(suffix)) / live_writes

        handled = [x for samples in handle_ms.values() for x in samples]
        client_totals = live.client_registry.snapshot().totals()
        layers = {
            **engine_layers(recorder, kernel_blocks, writes, totals),
            "faultfs.fsyncs_per_write": per_write(".faultfs.fsyncs")
            + per_write(".faultfs.dir_fsyncs"),
            "persist.journal.seals_per_write": per_write(
                ".persist.journal.seal"),
            "persist.journal.bytes_per_write": per_write(
                ".persist.journal.bytes"),
            "service.handle_write_ms": percentile(handle_ms["write"], 50),
            "service.handle_read_ms": percentile(handle_ms["read"], 50),
            "service.engine_s": recorder.inclusive.get("service.engine", 0.0),
            "service.fsync_s": recorder.inclusive.get("faultfs.fsync", 0.0)
            + recorder.inclusive.get("faultfs.fsync_dir", 0.0),
            "service.wire_ms": summary["client_p50_ms"]
            - percentile(handled, 50),
            "service.client.retries": client_totals.get(
                "service.client.retries", 0),
            "service.rejected": rejected,
            "obs.trace_overhead": traced_wall / untraced_wall,
            # The replay loop is little besides handle_request, so the
            # coverage that can fail is that of the layer spans below it.
            "obs.span_coverage": 1.0 - recorder.self_time.get(
                "service.handle_request", 0.0) / recorder.inclusive.get(
                "service.handle_request", 0.0),
        }
        outcome.report["layers"] = layers
        outcome.report["recorder"] = recorder
    else:
        outcome.metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(results["pass_times"]), "s"),
            "peak_rss_mb": (shard_rss, "MiB"),
        }
    outcome.determinism = {
        "requests_per_pass": per_pass * len(TENANTS),
        "state_digest_after_first_pass": digests,
    }
    return outcome

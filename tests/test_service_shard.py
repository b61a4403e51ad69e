"""Shard layer: hash ring, routing invariants, eviction/respawn, chaos."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ir import print_function
from repro.resilience import FAULTS, FaultPlan
from repro.service import (
    HashRing,
    LocalShard,
    NoShardAvailableError,
    ProcessShard,
    RequestError,
    ServiceConfig,
    ServiceError,
    ShardError,
    ShardRouter,
    artifact_bytes,
    build_artifact,
    normalize_request,
)
from repro.service.client import ServiceClient
from repro.service.server import make_server, shutdown_server
from repro.service.shard import shard_cache_dir

from .conftest import build_mac_kernel


@pytest.fixture(autouse=True)
def disarm():
    """Never leak an armed fault plan into other tests."""
    yield
    FAULTS.disarm()


def make_request(method="bpc", trip_count=16, **extra):
    request = {
        "ir": print_function(build_mac_kernel(trip_count=trip_count)),
        "file": {"registers": 32, "banks": 2},
        "method": method,
    }
    request.update(extra)
    return request


def make_router(n=3, **kwargs):
    shards = [LocalShard(f"s{i}", ServiceConfig()) for i in range(n)]
    return ShardRouter(shards, **kwargs)


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------
def test_ring_lookup_deterministic_and_total():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(200)]
    first = {k: ring.lookup(k) for k in keys}
    assert set(first.values()) == {"s0", "s1", "s2"}  # no starved member
    assert {k: ring.lookup(k) for k in keys} == first


def test_ring_remove_remaps_only_the_dead_members_keys():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(300)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s1")
    after = {k: ring.lookup(k) for k in keys}
    for key in keys:
        if before[key] == "s1":
            assert after[key] in ("s0", "s2")
        else:  # survivors keep their slices untouched
            assert after[key] == before[key]


def test_ring_re_add_restores_exact_ownership():
    # vnode positions derive from the member *name*, so a respawned
    # worker reclaims precisely its old key slice (cache stays warm).
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    keys = [f"key-{i}" for i in range(300)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s1")
    ring.add("s1")
    assert {k: ring.lookup(k) for k in keys} == before


def test_ring_preference_chain_distinct_and_headed_by_owner():
    ring = HashRing(replicas=64)
    for name in ("s0", "s1", "s2"):
        ring.add(name)
    for i in range(50):
        chain = ring.preference(f"key-{i}")
        assert len(chain) == len(set(chain)) == 3
        assert chain[0] == ring.lookup(f"key-{i}")


def test_ring_empty_and_membership():
    ring = HashRing()
    assert ring.lookup("k") is None
    assert ring.preference("k") == []
    ring.add("s0")
    ring.add("s0")  # idempotent: no duplicate vnodes
    assert ring.members == ["s0"]
    assert len(ring._positions) == ring.replicas
    ring.remove("s0")
    ring.remove("s0")  # idempotent
    assert len(ring) == 0
    with pytest.raises(ValueError):
        HashRing(replicas=0)


def test_shard_cache_dir():
    assert shard_cache_dir(None, "s0") is None
    path = shard_cache_dir("/tmp/base", "s1")
    assert path.endswith("shard-s1")


# ----------------------------------------------------------------------
# Routing invariants
# ----------------------------------------------------------------------
def test_same_key_routes_to_same_live_shard():
    router = make_router()
    try:
        first = router.submit(make_request())
        assert router.wait(first["job_id"])["status"] == "done"
        second = router.submit(make_request())
        assert first["shard"] == second["shard"]
        done = router.wait(second["job_id"])
        assert done["status"] == "done"
        assert done["cache"] == "hit"  # same key → same shard → warm cache
    finally:
        router.close()


def test_job_ids_are_shard_qualified_and_round_trip():
    router = make_router()
    try:
        status = router.submit(make_request())
        assert status["job_id"].endswith(f"@{status['shard']}")
        done = router.wait(status["job_id"])
        assert done["status"] == "done"
        blob = router.result(status["job_id"])
        assert blob.startswith(b"{")
        with pytest.raises(RequestError):
            router.poll("j000001")  # unqualified
        with pytest.raises(ShardError):
            router.poll("j000001@nope")  # unknown shard
        with pytest.raises(ServiceError):
            router.poll(f"j999999@{status['shard']}")  # unknown job
    finally:
        router.close()


def test_concurrent_duplicate_submits_execute_exactly_once():
    router = make_router()
    request = make_request()
    statuses: list[dict] = []
    lock = threading.Lock()

    def worker():
        status = router.submit(dict(request))
        done = router.wait(status["job_id"])
        with lock:
            statuses.append(done)

    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(statuses) == 8
        assert {s["status"] for s in statuses} == {"done"}
        assert len({s["shard"] for s in statuses}) == 1  # one owner
        stats = router.stats()
        assert stats["counters"]["executed"] == 1  # fleet-wide
        blobs = {router.result(s["job_id"]) for s in statuses}
        assert len(blobs) == 1  # bit-identical
    finally:
        router.close()


def test_requests_spread_across_shards():
    router = make_router()
    try:
        for trip in range(4, 24):
            router.submit(make_request(trip_count=trip))
        routed = router.stats()["router"]["routed"]
        assert sum(routed.values()) == 20
        assert sum(1 for count in routed.values() if count > 0) >= 2
    finally:
        router.close()


def test_bad_request_propagates_without_eviction():
    router = make_router()
    try:
        with pytest.raises(RequestError):
            router.submit({"ir": ""})
        assert len(router.ring) == 3
    finally:
        router.close()


# ----------------------------------------------------------------------
# Eviction / respawn
# ----------------------------------------------------------------------
def test_dead_shard_keys_hand_off_then_return_after_respawn():
    router = make_router(auto_respawn=False, breaker_threshold=1)
    request = make_request()
    key = normalize_request(request)["key"]
    try:
        owner = router.ring.lookup(key)
        router.shards[owner].kill()
        status = router.submit(request)  # walks the preference chain
        assert status["shard"] != owner
        assert router.wait(status["job_id"])["status"] == "done"
        stats = router.stats()
        assert stats["router"]["counters"]["handoffs"] >= 1
        assert owner in stats["router"]["evicted"]
        # Respawn: the name-derived vnodes hand the slice straight back.
        router.respawn(owner)
        assert router.ring.lookup(key) == owner
        assert router.submit(request)["shard"] == owner
    finally:
        router.close()


def test_all_shards_dead_raises_no_shard_available():
    router = make_router(auto_respawn=False, breaker_threshold=1)
    try:
        for shard in list(router.shards.values()):
            shard.kill()
        with pytest.raises(NoShardAvailableError):
            router.submit(make_request())
        assert router.stats()["router"]["counters"]["no_shard"] == 1
    finally:
        router.close()


def test_health_check_evicts_then_respawns():
    router = make_router(breaker_threshold=1, breaker_cooldown_s=0.05)
    try:
        victim = sorted(router.shards)[0]
        router.shards[victim].kill()
        report = router.check_health()
        assert victim in report["evicted"]
        assert victim not in router.ring.members
        # Once the breaker cooldown lapses the next sweep trial-restarts.
        time.sleep(0.06)
        report = router.check_health()
        assert victim in report["respawned"]
        assert victim in router.ring.members
        status = router.submit(make_request())
        assert router.wait(status["job_id"])["status"] == "done"
    finally:
        router.close()


# ----------------------------------------------------------------------
# Chaos: fault-driven death and handoff
# ----------------------------------------------------------------------
def test_chaos_worker_death_is_verifier_clean_and_bit_identical():
    shards = [
        LocalShard(f"s{i}", ServiceConfig(verify="strict")) for i in range(3)
    ]
    router = ShardRouter(shards, breaker_threshold=1, breaker_cooldown_s=0.05)
    request = make_request()
    direct = artifact_bytes(
        build_artifact(
            request["ir"], {"registers": 32, "banks": 2}, "bpc"
        )
    )
    try:
        before = router.submit(request)
        assert router.wait(before["job_id"])["status"] == "done"
        FAULTS.arm(
            FaultPlan.from_dict(
                {"faults": [{"site": "shard.worker", "mode": "death",
                             "times": 1}]}
            )
        )
        report = router.check_health()  # fault kills one worker
        FAULTS.disarm()
        assert len(report["evicted"]) == 1
        time.sleep(0.06)
        router.check_health()  # cooldown elapsed: respawn
        status = router.submit(request)
        done = router.wait(status["job_id"])
        assert done["status"] == "done"
        assert router.result(status["job_id"]) == direct
        assert router.stats()["counters"]["verify_failed"] == 0
    finally:
        FAULTS.disarm()
        router.close()


def test_route_handoff_fault_skips_the_owner():
    router = make_router()
    request = make_request()
    key = normalize_request(request)["key"]
    try:
        owner = router.ring.lookup(key)
        FAULTS.arm(
            FaultPlan.from_dict(
                {"faults": [{"site": "shard.route", "mode": "handoff",
                             "times": 1}]}
            )
        )
        status = router.submit(request)
        assert status["shard"] != owner
        assert router.wait(status["job_id"])["status"] == "done"
        assert router.stats()["router"]["counters"]["handoffs"] == 1
    finally:
        FAULTS.disarm()
        router.close()


# ----------------------------------------------------------------------
# HTTP front end (in-process shards — no child processes in tier 1)
# ----------------------------------------------------------------------
@pytest.fixture
def frontend():
    router = make_router()
    server = make_server(backend=router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", retries=0)
    try:
        yield client, router
    finally:
        shutdown_server(server)
        thread.join(timeout=5)


def test_frontend_allocate_stats_and_errors(frontend):
    client, router = frontend
    request = make_request()
    status, artifact = client.allocate(request["ir"], registers=32, banks=2)
    assert artifact["method"] == "bpc"
    assert "@" in status["job_id"]
    status = client.submit(request["ir"], registers=32, banks=2)
    done = client.wait(status["job_id"])
    assert done["status"] == "done"
    assert client.result(status["job_id"]).startswith(b"{")
    stats = client.stats()
    assert stats["router"]["ring"]["members"] == ["s0", "s1", "s2"]
    assert stats["counters"]["executed"] == 1
    assert client.health()["shards"] == 3
    with pytest.raises(ServiceError) as excinfo:
        client.poll("j000001")  # unqualified id → 400
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.poll("j000001@nope")  # unknown shard → 503
    assert excinfo.value.status == 503


def test_process_shard_wait_timeout_means_pending_not_dead(monkeypatch):
    # A worker that keeps answering "queued" is alive: the wait timeout
    # must stay a ServiceError (the router's "still pending", answered
    # 202 like a single server), never a ShardError (a dead worker, 503).
    client = ServiceClient("http://127.0.0.1:9", retries=0)
    monkeypatch.setattr(client, "poll", lambda job_id: {"status": "queued"})
    shard = object.__new__(ProcessShard)  # no worker process needed
    shard.name, shard.client = "s0", client
    with pytest.raises(ServiceError) as excinfo:
        shard.wait("j000001", timeout=0.0)
    assert excinfo.value.status == 202

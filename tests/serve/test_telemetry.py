"""The server's telemetry: one snapshot behind ``/healthz``, ``/stats`` and
``/metrics``.

Pinned here:

* counters never go backwards when a worker's Session LRU evicts a
  Session (they live on the worker slot, not on the Session);
* ``/stats`` and ``/metrics`` scraped back to back report the same value
  for every series ``/metrics`` reads from the snapshot;
* the surface itself — the ``/healthz`` and ``/stats`` keys and the
  ``/metrics`` (name, type, label names) set — stays what clients and
  dashboards already read.
"""

import http.client
import json
import re
import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import QueryServer
from repro.backends.exec import reset_breakers, sqlite_exec
from repro.core.conventions import SQL_CONVENTIONS
from repro.engine.planner import ExecutionStats
from repro.serve import DEFAULT_SESSION_LIMIT
from repro.util import failpoints

SIMPLE = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"
CRASHER = "{Q(x) | ∃p ∈ P[Q.x = p.x + 1]}"

#: The engine and session cache counters ``/stats`` and
#: ``arc_stats_total`` report.
COUNTERS = set(ExecutionStats.__slots__) | {
    "catalog_loads", "catalog_hits", "probe_hits",
}

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


@pytest.fixture(autouse=True)
def clean_state():
    failpoints.reset()
    reset_breakers()
    sqlite_exec.clear_catalog_cache()
    yield
    failpoints.reset()
    reset_breakers()
    failpoints.load_env()


def _db(value):
    db = repro.Database()
    db.create("P", ("x",), [(value,), (value + 1,)])
    return db


@pytest.fixture
def serve():
    servers = []

    def start(**kwargs):
        session = Session(_db(1), SQL_CONVENTIONS, options=EvalOptions())
        server = QueryServer(("127.0.0.1", 0), session, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _request(server, method, path, body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, data)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _post(server, body):
    return _request(server, "POST", "/query", body)[0]


def _stats(server):
    status, body = _request(server, "GET", "/stats")
    assert status == 200
    return json.loads(body)


def _scrape(server):
    """``/metrics`` as ``({(name, labels): value}, {(family, type, label
    names)})``; histogram series are left out of the values."""
    status, body = _request(server, "GET", "/metrics")
    assert status == 200
    values, types, series = {}, {}, set()
    for line in body.decode("utf-8").splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        assert match, line
        name = match["name"]
        labels = tuple(sorted(_LABEL.findall(match["labels"] or "")))
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if types.get(family) == "histogram":
            series.add((family, "histogram",
                        tuple(k for k, _ in labels if k != "le")))
            continue
        series.add((name, types[name], tuple(k for k, _ in labels)))
        values[(name, labels)] = float(match["value"])
    return values, series


def _traffic(server):
    """Planner and SQLite runs, one worker crash-and-quarantine."""
    for backend in ("planner", "sqlite"):
        assert _post(server, {"query": SIMPLE, "backend": backend}) == 200
    failpoints.activate("pool.worker", "boom*2")
    for _ in range(2):
        assert _post(server, {"query": CRASHER}) == 500
        deadline = time.monotonic() + 10
        while server.pool.busy and time.monotonic() < deadline:
            time.sleep(0.002)
    assert _post(server, {"query": CRASHER}) == 422
    failpoints.reset()
    assert _post(server, {"query": SIMPLE}) == 200


class TestEviction:
    def test_lru_eviction_never_lowers_a_counter(self, serve):
        """One worker, the default catalog plus four named ones: the fifth
        catalog evicts the default catalog's Session, whose counts stay."""
        names = ["b", "c", "d", "e"]
        assert len(names) == DEFAULT_SESSION_LIMIT
        server = serve(
            workers=1, catalogs={n: _db(i) for i, n in enumerate(names, 2)}
        )
        # The default catalog's Session, evicted below, did the most work.
        for catalog in ["default"] * 3 + names[:-1]:
            for backend in ("planner", "sqlite"):
                assert _post(server, {"query": SIMPLE, "catalog": catalog,
                                      "backend": backend}) == 200
        before = _stats(server)
        before_metrics, _ = _scrape(server)
        assert before["pool"]["sessions_evicted"] == 0
        assert before["rows_enumerated"] > 0 and before["catalog_loads"] > 0
        assert _post(server, {"query": SIMPLE, "catalog": names[-1]}) == 200
        after = _stats(server)
        after_metrics, _ = _scrape(server)
        assert after["pool"]["sessions_evicted"] == 1
        for name in COUNTERS:
            assert after[name] >= before[name], name
        stats_samples = [
            key for key in before_metrics if key[0] == "arc_stats_total"
        ]
        assert {key[1][0][1] for key in stats_samples} == COUNTERS
        for key in stats_samples:
            assert after_metrics[key] >= before_metrics[key], key


def _snapshot_series(stats):
    """Every ``/metrics`` series read from the snapshot, by ``/stats`` key."""
    pool, quarantine = stats["pool"], stats["quarantine"]
    expected = {
        ("arc_requests_total", ()): stats["requests_total"],
        ("arc_pool_workers", ()): pool["workers"],
        ("arc_pool_busy", ()): pool["busy"],
        ("arc_pool_queue_depth", ()): pool["queue_depth"],
        ("arc_pool_queue_capacity", ()): pool["queue_capacity"],
        ("arc_pool_service_ewma_ms", ()): pool["service_ewma_ms"],
        ("arc_coalesced_total", ()): pool["coalesced_total"],
        ("arc_worker_respawns_total", ()): pool["workers_respawned"],
        ("arc_shed_total", ()): pool["shed_total"],
        ("arc_quarantined_total", ()): quarantine["quarantined_total"],
        ("arc_quarantine_size", ()): quarantine["size"],
    }
    for name in COUNTERS:
        expected[("arc_stats_total", (("counter", name),))] = stats[name]
    for row in pool["per_worker"]:
        key = ("arc_worker_requests_total", (("worker", str(row["worker"])),))
        expected[key] = row["handled"]
    codes = {"closed": 0, "half-open": 1, "open": 2}
    for backend, breaker in stats["breakers"].items():
        label = (("backend", backend),)
        expected[("arc_breaker_state", label)] = codes[breaker["state"]]
        expected[("arc_breaker_trips_total", label)] = breaker["trips"]
    return expected


class TestAgreement:
    def test_metrics_equal_stats_without_traffic_between(self, serve):
        server = serve(workers=2, queue_depth=8)
        _traffic(server)
        stats = _stats(server)
        scraped, _ = _scrape(server)
        expected = _snapshot_series(stats)
        assert expected[("arc_quarantined_total", ())] == 1
        assert expected[("arc_worker_respawns_total", ())] == 2
        registry = {metric.name for metric in server.metrics}
        snapshot_backed = {
            key: value for key, value in scraped.items()
            if key[0] not in registry and key[0] != "arc_uptime_seconds"
        }
        assert snapshot_backed == expected


#: The surface at the change that introduced the snapshot; clients and
#: dashboards read these names.
HEALTHZ_KEYS = {
    "backend", "breakers", "busy", "catalogs", "coalesced_total",
    "degraded_backends", "queue_depth", "queue_saturated", "relations",
    "requests", "status", "uptime_s", "workers",
}
STATS_KEYS = COUNTERS | {
    "breakers", "latency", "pool", "quarantine", "requests",
    "requests_total", "uptime_s",
}
POOL_KEYS = {
    "busy", "coalesced_total", "draining", "jobs_completed", "per_worker",
    "queries_executed", "queue_capacity", "queue_depth", "service_ewma_ms",
    "sessions_evicted", "shed_total", "workers", "workers_respawned",
}
METRICS_SERIES = {
    ("arc_backend_seconds", "histogram", ("backend",)),
    ("arc_breaker_state", "gauge", ("backend",)),
    ("arc_breaker_trips_total", "counter", ("backend",)),
    ("arc_coalesced_total", "counter", ()),
    ("arc_phase_seconds", "histogram", ("phase",)),
    ("arc_pool_busy", "gauge", ()),
    ("arc_pool_queue_capacity", "gauge", ()),
    ("arc_pool_queue_depth", "gauge", ()),
    ("arc_pool_service_ewma_ms", "gauge", ()),
    ("arc_pool_workers", "gauge", ()),
    ("arc_prepared_lru_total", "counter", ("result",)),
    ("arc_quarantine_size", "gauge", ()),
    ("arc_quarantined_total", "counter", ()),
    ("arc_requests_total", "counter", ()),
    ("arc_shed_total", "counter", ()),
    ("arc_stats_total", "counter", ("counter",)),
    ("arc_uptime_seconds", "gauge", ()),
    ("arc_worker_requests_total", "counter", ("worker",)),
    ("arc_worker_respawns_total", "counter", ()),
    ("arc_worker_seconds", "histogram", ("worker",)),
}


class TestSurface:
    def test_keys_and_series_are_pinned(self, serve):
        server = serve(workers=2, queue_depth=8)
        _traffic(server)
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert set(json.loads(body)) == HEALTHZ_KEYS
        stats = _stats(server)
        assert set(stats) == STATS_KEYS
        assert set(stats["pool"]) == POOL_KEYS
        assert set(stats["quarantine"]) == {
            "entries", "quarantined_total", "released_total", "size",
            "threshold", "ttl_s",
        }
        _, series = _scrape(server)
        assert series == METRICS_SERIES

    def test_each_endpoint_reads_the_snapshot_once(self, serve, monkeypatch):
        server = serve(workers=1)
        calls = []
        original = QueryServer.snapshot

        def counted(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(QueryServer, "snapshot", counted)
        for path in ("/healthz", "/stats", "/metrics"):
            calls.clear()
            assert _request(server, "GET", path)[0] == 200
            assert len(calls) == 1, path

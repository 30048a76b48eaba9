"""A closed-loop HTTP load generator for the serve benchmarks (stdlib only).

Closed-loop means each client thread keeps exactly one request in flight:
it sends, waits for the full response, records the latency, and sends the
next — so offered load self-regulates to the server's capacity and the
measured RPS *is* throughput (open-loop generators need coordinated-
omission correction; this one does not).  Clients hold persistent
``http.client`` connections (HTTP/1.1 keep-alive), start together on a
barrier, and each walks its own payload, so worker-scaling runs can give
every client a distinct query while coalescing runs give them the same
one.

Used by ``bench_e29_load.py`` (RPS + p50/p99 vs worker count); nothing
here imports the engine, so the generator can drive an out-of-process
server.
"""

from __future__ import annotations

import http.client
import threading
import time
from urllib.parse import urlsplit


def percentile(sorted_values, q):
    """The q-quantile (0..1) of *sorted_values* by linear interpolation."""
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction


class LoadSummary:
    """What one load run measured."""

    __slots__ = (
        "requests", "errors", "wall_s", "rps", "p50_ms", "p99_ms",
        "statuses", "coalesced",
    )

    def __init__(self, *, requests, errors, wall_s, latencies_s, statuses,
                 coalesced):
        self.requests = requests
        self.errors = errors
        self.wall_s = wall_s
        self.rps = requests / wall_s if wall_s > 0 else 0.0
        ordered = sorted(latencies_s)
        p50 = percentile(ordered, 0.50)
        p99 = percentile(ordered, 0.99)
        self.p50_ms = None if p50 is None else p50 * 1e3
        self.p99_ms = None if p99 is None else p99 * 1e3
        #: status code -> count across every request.
        self.statuses = statuses
        #: responses carrying ``X-Arc-Coalesced`` (answered by a leader).
        self.coalesced = coalesced

    def as_dict(self):
        return {
            "requests": self.requests,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 6),
            "rps": round(self.rps, 2),
            "p50_ms": None if self.p50_ms is None else round(self.p50_ms, 3),
            "p99_ms": None if self.p99_ms is None else round(self.p99_ms, 3),
            "statuses": dict(sorted(self.statuses.items())),
            "coalesced": self.coalesced,
        }

    def __repr__(self):
        return (
            f"LoadSummary(rps={self.rps:.1f}, p50={self.p50_ms}, "
            f"p99={self.p99_ms}, errors={self.errors})"
        )


class _Client(threading.Thread):
    """One closed-loop client: send, await, record, repeat."""

    def __init__(self, index, host, port, path, payload, requests,
                 barrier, timeout_s):
        super().__init__(name=f"loadgen-{index}", daemon=True)
        self.host, self.port, self.path = host, port, path
        self.payload = payload
        self.requests = requests
        self.barrier = barrier
        self.timeout_s = timeout_s
        self.latencies = []
        self.statuses = {}
        self.coalesced = 0
        self.errors = 0
        self.started_at = None
        self.finished_at = None

    def _connect(self):
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def run(self):
        conn = self._connect()
        headers = {"Content-Type": "application/json"}
        self.barrier.wait()
        self.started_at = time.perf_counter()
        for _ in range(self.requests):
            start = time.perf_counter()
            try:
                conn.request("POST", self.path, self.payload, headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
                if response.getheader("X-Arc-Coalesced"):
                    self.coalesced += 1
            except (OSError, http.client.HTTPException):
                # Count the failure, then reconnect: a broken keep-alive
                # connection must not sink the rest of the run.
                self.errors += 1
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                conn = self._connect()
                continue
            self.latencies.append(time.perf_counter() - start)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status >= 400 or not body:
                self.errors += 1
        self.finished_at = time.perf_counter()
        conn.close()


def run_load(url, payloads, *, clients=4, requests_per_client=50,
             timeout_s=30.0):
    """Drive ``POST {url}/query`` closed-loop; a :class:`LoadSummary`.

    *payloads* is a list of pre-encoded JSON request bodies; client *i*
    sends ``payloads[i % len(payloads)]`` for every one of its requests.
    Pass one payload to measure coalescing, ``clients`` distinct payloads
    to measure worker scaling.
    """
    if not payloads:
        raise ValueError("run_load needs at least one payload")
    parts = urlsplit(url)
    host, port = parts.hostname, parts.port or 80
    path = (parts.path.rstrip("/") or "") + "/query"
    barrier = threading.Barrier(clients)
    pool = [
        _Client(
            index, host, port, path,
            payloads[index % len(payloads)],
            requests_per_client, barrier, timeout_s,
        )
        for index in range(clients)
    ]
    for client in pool:
        client.start()
    for client in pool:
        client.join()
    latencies = []
    statuses = {}
    errors = coalesced = 0
    for client in pool:
        latencies.extend(client.latencies)
        errors += client.errors
        coalesced += client.coalesced
        for status, count in client.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    started = min(c.started_at for c in pool if c.started_at is not None)
    finished = max(c.finished_at for c in pool if c.finished_at is not None)
    return LoadSummary(
        requests=clients * requests_per_client,
        errors=errors,
        wall_s=finished - started,
        latencies_s=latencies,
        statuses=statuses,
        coalesced=coalesced,
    )

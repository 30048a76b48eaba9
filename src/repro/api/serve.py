"""``repro serve``: the Session API over HTTP (stdlib only).

A JSON endpoint backed by the :mod:`repro.serve` concurrency subsystem: a
threaded front end (one handler thread per connection) dispatching to a
fixed **worker pool** where each worker owns its own warm
:class:`~repro.api.Session` — per-worker prepared-query LRUs, per-thread
SQLite connections, capability-probe memos — so repeated requests hit
every cache while distinct requests execute in parallel.

Protocol
--------
``POST /query`` with a JSON body::

    {"query": "{Q(A) | ∃r ∈ R[Q.A = r.A]}", "frontend": "arc",
     "backend": "sqlite", "catalog": "default"}

``frontend`` defaults to ``arc`` (any :data:`repro.frontends.FRONTENDS`
language); ``backend`` defaults to the session's configured engine;
``catalog`` (optional) selects one of the server's named catalogs for
multi-catalog serving.  The response body carries the result only —
timing rides response *headers* (``X-Arc-Elapsed-Us``, ``X-Arc-Warm``,
``X-Arc-Worker``) so identical requests produce byte-identical bodies::

    {"kind": "relation", "name": "Q", "columns": ["A"],
     "rows": [[1], [2]], "row_count": 2, "fallback": []}

Concurrency semantics
---------------------
* **Coalescing**: N concurrent identical requests (same catalog, query,
  frontend, backend, and budget) fold into **one** execution; followers
  receive the leader's byte-identical body with ``X-Arc-Coalesced: 1``.
* **Admission control**: the pool's job queue is bounded
  (``--queue-depth``); a full queue answers **429** with ``Retry-After``
  and ``error_type: "AdmissionError"`` instead of buffering overload.
  A draining server answers 503.
* **Deadlines** still apply per request *inside* the worker
  (``timeout_ms`` / ``max_rows``), so admission and execution budgets
  compose.  Each run gets exactly one wall-clock Deadline: the request's
  soft ``timeout_ms`` (else the session default) capped by the server's
  hard wall cap (``--hard-timeout-ms``, else
  :data:`DEFAULT_HARD_TIMEOUT_MS` for deadline-less requests).

Self-healing
------------
The pool supervises itself (see :mod:`repro.serve.pool`): a crashed
worker is respawned with fresh warm Sessions and the in-flight caller
gets a typed 500 (``error_type: "WorkerCrash"``); a request fingerprint
that kills workers repeatedly is quarantined and answers **422**
(``error_type: "PoisonQuery"``) with ``Retry-After`` until its TTL
lapses; a stuck query runs into the hard wall cap inside its own
Deadline and answers 408 like any deadline; and deadline-aware shedding
refuses requests (429 + ``Retry-After``) whose budget the queue would
already consume.  ``/stats`` exposes ``pool.workers_respawned`` /
``shed_total`` and a ``quarantine`` block; ``/metrics`` exports the
matching ``arc_worker_respawns_total`` / ``arc_shed_total`` /
``arc_quarantined_total`` counters and the ``arc_quarantine_size``
gauge.

``GET /healthz`` answers liveness — 200 while healthy, **503 degraded**
while any backend circuit breaker is open *or the job queue is
saturated*; ``GET /stats`` exposes aggregated execution counters across
every worker session, breaker states, per-phase latency quantiles, and a
``pool`` block (``workers``, ``busy``, ``queue_depth``,
``coalesced_total``, per-worker handled counts); ``GET /metrics`` serves
the same signals in Prometheus text format (pool gauges, coalescing
counter, per-worker latency histograms).  Errors return 400 (bad request
/ query errors), 404, 408 (:class:`~repro.errors.QueryTimeout`), 413
(:class:`~repro.errors.BudgetExceeded` or an oversized request body), 422
(:class:`~repro.errors.PoisonQuery`), 429 (admission/shedding), or 500
(including :class:`~repro.errors.WorkerCrash`), always with
``{"error": ..., "error_type": ...}`` — the stdlib's own refusals of a
malformed or unsupported request (400, 414, 431, 501, 505) too.

Observability
-------------
The server attaches a *metrics-only* :class:`~repro.obs.Tracer` to every
worker session (sharing one locked registry): every query phase feeds the
per-phase/per-backend latency histograms behind ``/metrics`` while the
span records themselves are dropped, so a long-lived server holds no
trace memory.  Each ``POST /query`` gets a fresh ``X-Arc-Query-Id``
response header, and ``--log-requests`` emits one stdlib-``logging`` line
per request — method, path, status, elapsed time, query id — with
``--log-json`` switching the same logger to structured JSON lines.

Shutdown
--------
:func:`install_sigterm_handler` makes SIGTERM/SIGINT **drain**: stop
accepting, finish every queued and in-flight request (responses are
written), then close.  ``server.server_close()`` performs the same drain
when no signal arrived first.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
import uuid
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..backends.exec import breaker_states
from ..data.relation import Relation
from ..data.values import NULL, Truth
from ..engine.planner import ExecutionStats
from ..errors import (
    ArcError,
    BudgetExceeded,
    OptionsError,
    PoisonQuery,
    QueryTimeout,
    WorkerCrash,
)
from ..frontends import FRONTENDS
from ..obs import MetricsRegistry, Tracer, render_prometheus
from ..serve import (
    DEFAULT_POISON_THRESHOLD,
    DEFAULT_QUARANTINE_TTL_S,
    RETRY_AFTER_S,
    AdmissionError,
    Coalescer,
    SessionFactory,
    WorkerPool,
    poison_fingerprint,
)
from ..serve.pool import DEFAULT_QUEUE_DEPTH, DEFAULT_SESSION_LIMIT
from ..util import failpoints
from .options import validate_budget

#: Default bound on request bodies (1 MiB): a query is text, not a bulk
#: upload, so anything larger is a client error or an attack.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Hard wall cap (ms) for requests with no soft deadline of their own.
DEFAULT_HARD_TIMEOUT_MS = 10_000

#: Upper bound a handler thread waits for its own job / a coalesced
#: leader.  Generous on purpose: per-request deadlines (``timeout_ms``)
#: are the real budget; this is only a backstop against a wedged worker.
_JOB_WAIT_S = 600.0

#: Numeric encoding of breaker states for the ``arc_breaker_state`` gauge.
_BREAKER_STATE_CODE = {"closed": 0, "half-open": 1, "open": 2}


def configure_request_logging(stream=None):
    """The ``repro.serve`` request logger, handler attached once.

    Request lines are emitted pre-formatted (text or JSON), so the handler
    formats nothing beyond the message itself.  *stream* defaults to the
    stdlib's choice (stderr); tests pass a buffer.
    """
    logger = logging.getLogger("repro.serve")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    if stream is not None:
        logger.handlers.clear()
    if stream is not None or not logger.handlers:
        handler = logging.StreamHandler(stream) if stream is not None \
            else logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    return logger


def _json_value(value):
    return None if value is NULL else value


def _result_body(result, fallback_reasons):
    if isinstance(result, Truth):
        body = {"kind": "truth", "truth": result.name}
    elif isinstance(result, Relation):
        body = {
            "kind": "relation",
            "name": result.name,
            "columns": list(result.schema),
            "rows": [
                [_json_value(row[attr]) for attr in result.schema]
                for row in result.sorted_rows()
            ],
            "row_count": len(result),
        }
    else:  # pragma: no cover - evaluate() only returns Relation or Truth
        body = {"kind": "value", "value": repr(result)}
    body["fallback"] = list(fallback_reasons)
    return body


class Outcome:
    """One request's computed answer: status + pre-serialized body.

    The body serializes **once** (sorted keys), so a coalesced flight fans
    the exact same bytes out to every follower — the byte-identical
    contract the coalescer depends on.
    """

    __slots__ = ("status", "payload", "headers")

    def __init__(self, status, body, headers=()):
        self.status = status
        self.payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.headers = tuple(headers)


def _error_outcome(exc_or_message, status, headers=(), worker=None):
    """The ``{"error": ..., "error_type": ...}`` body every error answers
    with.  An exception names its own type; a plain message takes the
    status phrase (``BadRequest``, ``NotFound``, ``RequestURITooLong``)."""
    if isinstance(exc_or_message, BaseException):
        error_type = type(exc_or_message).__name__
    else:
        phrase = HTTPStatus(status).phrase
        error_type = phrase.replace(" ", "").replace("-", "")
    body = {"error": str(exc_or_message), "error_type": error_type}
    headers = tuple(headers)
    if worker is not None:
        headers += (("X-Arc-Worker", str(worker)),)
    return Outcome(status, body, headers)


def _prometheus_extra(server):
    """Counter/gauge rows for ``/metrics`` beyond the tracer's histograms:
    aggregated engine ExecutionStats and session cache counters across the
    worker pool, pool gauges, coalescing totals, breaker states, and the
    server's own uptime/request totals."""
    totals, loads, hits, probes = server.aggregate_stats()
    stats_samples = [
        ({"counter": name}, value) for name, value in sorted(totals.items())
    ]
    stats_samples += [
        ({"counter": "catalog_loads"}, loads),
        ({"counter": "catalog_hits"}, hits),
        ({"counter": "probe_hits"}, probes),
    ]
    pool = server.pool.snapshot()
    extra = [
        (
            "arc_stats_total",
            "counter",
            "Engine ExecutionStats and session cache counters "
            "(summed across worker sessions).",
            stats_samples,
        ),
        (
            "arc_requests_total",
            "counter",
            "HTTP query requests served.",
            [({}, server.requests_served)],
        ),
        (
            "arc_pool_workers",
            "gauge",
            "Worker threads in the serving pool.",
            [({}, pool["workers"])],
        ),
        (
            "arc_pool_busy",
            "gauge",
            "Workers executing a job right now.",
            [({}, pool["busy"])],
        ),
        (
            "arc_pool_queue_depth",
            "gauge",
            "Jobs queued but not yet started.",
            [({}, pool["queue_depth"])],
        ),
        (
            "arc_pool_queue_capacity",
            "gauge",
            "Queue depth at which admission control refuses (429).",
            [({}, pool["queue_capacity"])],
        ),
        (
            "arc_coalesced_total",
            "counter",
            "Requests answered from another in-flight execution.",
            [({}, server.coalescer.coalesced_total)],
        ),
        (
            "arc_worker_requests_total",
            "counter",
            "Jobs completed per pool worker.",
            [
                ({"worker": str(row["worker"])}, row["handled"])
                for row in pool["per_worker"]
            ],
        ),
        (
            "arc_quarantine_size",
            "gauge",
            "Request fingerprints currently quarantined as poison.",
            [({}, len(server.pool.quarantine))],
        ),
        (
            "arc_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
            [({}, round(time.monotonic() - server.started, 3))],
        ),
    ]
    breakers = breaker_states()
    if breakers:
        extra.append((
            "arc_breaker_state",
            "gauge",
            "Circuit breaker state per backend (0=closed 1=half-open 2=open).",
            [
                ({"backend": name}, _BREAKER_STATE_CODE[snap["state"]])
                for name, snap in breakers.items()
            ],
        ))
        extra.append((
            "arc_breaker_trips_total",
            "counter",
            "Circuit breaker trips per backend.",
            [({"backend": name}, snap["trips"]) for name, snap in breakers.items()],
        ))
    return extra


class QueryServer(ThreadingHTTPServer):
    """An HTTP front end over a worker pool of warm Sessions.

    *session* is the control session: it defines the default catalog,
    conventions, externals, and options, and worker 0 adopts it (so a
    single-worker server executes on exactly the session object the
    caller holds).  Extra *catalogs* (name → Database) become selectable
    via the request ``catalog`` field; workers build Sessions for them
    lazily through a bounded per-worker LRU.
    """

    # Handler threads are daemonic: a keep-alive connection parked in
    # readline() must not block process exit.  Graceful shutdown happens
    # at the pool layer (drain), not by joining handler threads.
    daemon_threads = True

    def __init__(self, address, session, *, workers=1,
                 queue_depth=DEFAULT_QUEUE_DEPTH,
                 session_limit=DEFAULT_SESSION_LIMIT, catalogs=None,
                 quiet=True, max_body_bytes=DEFAULT_MAX_BODY_BYTES,
                 log_requests=False, log_json=False,
                 hard_timeout_ms=None, shed_threshold_ms=None,
                 poison_threshold=DEFAULT_POISON_THRESHOLD,
                 quarantine_ttl_s=DEFAULT_QUARANTINE_TTL_S):
        # Validated before binding: a non-positive cap would turn every
        # request into a 408 (or a 400), so refuse it at startup instead.
        validate_budget(hard_timeout_ms, None, timeout_name="hard_timeout_ms")
        validate_budget(
            shed_threshold_ms, None, timeout_name="shed_threshold_ms"
        )
        super().__init__(address, _Handler)
        self.session = session
        self.hard_timeout_ms = hard_timeout_ms
        self.quiet = quiet
        self.max_body_bytes = max_body_bytes
        self.started = time.monotonic()
        self.requests_served = 0
        #: Backend executions performed (coalesced followers excluded).
        self.queries_executed = 0
        self._counts_lock = threading.Lock()
        self.log_requests = log_requests or log_json
        self.log_json = log_json
        self.logger = configure_request_logging() if self.log_requests else None
        # Metrics-only tracing: phase durations feed the histograms behind
        # /metrics and /stats; spans drop immediately (keep_spans=False),
        # so serving forever accumulates no trace memory.  A tracer the
        # caller already installed is respected — its registry (if any)
        # backs /metrics instead.
        if session.tracer is None:
            self.metrics = MetricsRegistry()
            session.tracer = Tracer(metrics=self.metrics, keep_spans=False)
        else:
            if session.tracer.metrics is None:
                session.tracer.metrics = MetricsRegistry()
            self.metrics = session.tracer.metrics
        self.factory = SessionFactory.from_session(
            session, metrics=self.metrics, catalogs=catalogs
        )
        self.pool = WorkerPool(
            self.factory, workers, queue_depth,
            session_limit=session_limit, metrics=self.metrics,
            adopt=session, shed_threshold_ms=shed_threshold_ms,
            poison_threshold=poison_threshold,
            quarantine_ttl_s=quarantine_ttl_s,
        )
        self.coalescer = Coalescer()

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- the query path ----------------------------------------------------

    def execute_query(self, catalog, query, frontend, backend, timeout_ms,
                      max_rows, query_id):
        """Run one validated request through coalescing, admission, and
        the pool; ``(outcome, coalesced)``.

        The coalesce key is the full request identity — two requests that
        could produce different bodies never share an execution.  The
        leader publishes its outcome (success *or* error) in a
        ``finally`` — even if the leader's own thread dies between submit
        and publish (fault injection: the ``pool.leader`` failpoint), the
        backstop publishes a typed 500 so followers are never stranded.
        """
        key = (catalog, query, frontend, backend, timeout_ms, max_rows)
        entry, leader = self.coalescer.join(key)
        if not leader:
            outcome = entry.wait(_JOB_WAIT_S)
            if outcome is None:  # pragma: no cover - wedged-leader backstop
                outcome = _error_outcome(
                    "coalesced execution did not complete in time", 500
                )
            return outcome, True
        outcome = None
        try:
            try:
                # The soft deadline is both the admission budget and, capped
                # by the hard wall cap, the run's one Deadline.
                soft_ms = timeout_ms
                if soft_ms is None:
                    soft_ms = self.session.options.timeout_ms
                fingerprint = poison_fingerprint(
                    catalog, query, frontend, backend
                )
                try:
                    future = self.pool.submit(
                        lambda worker: self._run_query(
                            worker, catalog, query, frontend, backend,
                            self._wall_cap_ms(soft_ms), max_rows, query_id,
                        ),
                        timeout_ms=soft_ms, fingerprint=fingerprint,
                    )
                except PoisonQuery as exc:
                    headers = (
                        (("Retry-After", str(exc.retry_after_s)),)
                        if exc.retry_after_s else ()
                    )
                    outcome = _error_outcome(exc, 422, headers)
                else:
                    failpoints.hit("pool.leader")
                    outcome = future.wait(_JOB_WAIT_S)
            except AdmissionError as exc:
                outcome = _error_outcome(
                    exc, exc.status,
                    (("Retry-After", str(exc.retry_after_s)),),
                )
            except WorkerCrash as exc:
                outcome = _error_outcome(exc, 500)
            except Exception as exc:  # pragma: no cover - defensive
                outcome = _error_outcome(exc, 500)
        finally:
            if outcome is None:
                outcome = _error_outcome(
                    "coalescing leader died before publishing its outcome",
                    500,
                )
            self.coalescer.publish(key, outcome)
        return outcome, False

    def _wall_cap_ms(self, soft_ms):
        """The one wall-clock budget a run gets: ``min(soft, hard)``.

        *soft_ms* is the request's ``timeout_ms`` (else the session
        default); the hard cap is ``hard_timeout_ms``, else
        :data:`DEFAULT_HARD_TIMEOUT_MS` for a run with no soft deadline.
        The cap is always finite, so every served run is armed and no
        query can pin a worker forever.
        """
        bounds = [
            ms for ms in (soft_ms, self.hard_timeout_ms) if ms is not None
        ]
        return min(bounds) if bounds else DEFAULT_HARD_TIMEOUT_MS

    def _run_query(self, worker, catalog, query, frontend, backend,
                   timeout_ms, max_rows, query_id):
        """The worker-side job: run on the worker's Session, map errors to
        HTTP statuses, and serialize the answer exactly once.

        *timeout_ms* is the run's whole wall-clock budget (see
        :meth:`_wall_cap_ms`), armed when the job starts; past it the run
        unwinds as :class:`~repro.errors.QueryTimeout` (→ 408).
        """
        session = worker.session_for(catalog)
        # The response header ties client-side logs to the spans/metrics
        # this request produced (the session tracer pins the request id on
        # every root span of the run).
        if session.tracer is not None:
            session.tracer.begin(query_id)
        start = time.perf_counter()
        try:
            prepared = session.prepare(query, frontend)
            warm = prepared.run_count > 0
            info = prepared.run_info(
                backend=backend, timeout_ms=timeout_ms, max_rows=max_rows
            )
        except QueryTimeout as exc:
            # The query is dead but the connection is fine: answer 408 and
            # keep serving.
            return _error_outcome(exc, 408, worker=worker.index)
        except BudgetExceeded as exc:
            return _error_outcome(exc, 413, worker=worker.index)
        except ArcError as exc:
            return _error_outcome(exc, 400, worker=worker.index)
        except Exception as exc:  # pragma: no cover - defensive
            return _error_outcome(exc, 500, worker=worker.index)
        elapsed_us = int((time.perf_counter() - start) * 1_000_000)
        with self._counts_lock:
            self.queries_executed += 1
        return Outcome(
            200,
            _result_body(info["result"], info["fallback_reasons"]),
            headers=(
                ("X-Arc-Elapsed-Us", str(elapsed_us)),
                ("X-Arc-Warm", "1" if warm else "0"),
                ("X-Arc-Worker", str(worker.index)),
            ),
        )

    def count_served(self):
        with self._counts_lock:
            self.requests_served += 1

    # -- aggregation -------------------------------------------------------

    def aggregate_stats(self):
        """Execution counters summed across every live worker Session
        **plus** the retired totals harvested from crashed workers:
        ``(stats totals, catalog_loads, catalog_hits, probe_hits)``.

        A respawned worker's fresh Sessions count from zero, but its dead
        predecessor's totals live on in the pool's retired ledger — the
        aggregate never goes backwards across a crash.
        """
        totals = ExecutionStats().as_dict()
        loads = hits = probes = 0
        for session in self.pool.sessions():
            for name, value in session.stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
            loads += session.catalog_loads
            hits += session.catalog_hits
            probes += session.probe_hits
        retired, (r_loads, r_hits, r_probes) = self.pool.retired_stats()
        for name, value in retired.items():
            totals[name] = totals.get(name, 0) + value
        return totals, loads + r_loads, hits + r_hits, probes + r_probes

    # -- lifecycle ---------------------------------------------------------

    def drain(self):
        """Stop accepting, finish queued + in-flight requests, stop workers.

        Safe to call from any non-serving thread (the SIGTERM handler's
        helper thread does); idempotent.
        """
        self.shutdown()
        self.pool.drain()

    def server_close(self):
        # Drain before releasing the socket so every accepted request gets
        # its response; idempotent after an earlier drain().
        self.pool.drain()
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: Socket timeout per read: an idle keep-alive connection parks its
    #: handler thread at most this long after the peer vanishes.
    timeout = 30

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    def log_request(self, code="-", size="-"):
        """One structured line per request (``--log-requests``).

        ``send_response`` calls this for every response, so each request —
        success or error — logs exactly once, with its status code, elapsed
        time, and (for ``/query``) the query id the response headers carry.
        """
        server = self.server
        if not server.log_requests:
            return
        code = getattr(code, "value", code)
        started = getattr(self, "_request_started", None)
        elapsed_ms = (
            None if started is None
            else round((time.perf_counter() - started) * 1e3, 3)
        )
        query_id = getattr(self, "_query_id", None)
        # A 414 refuses the very first request line before ``path`` is set.
        path = getattr(self, "path", None)
        if server.log_json:
            server.logger.info(json.dumps(
                {
                    "ts": round(time.time(), 6),
                    "method": self.command,
                    "path": path,
                    "status": int(code),
                    "elapsed_ms": elapsed_ms,
                    "query_id": query_id,
                },
                sort_keys=True,
            ))
        else:
            parts = [f"{self.command} {path} {code}"]
            if elapsed_ms is not None:
                parts.append(f"{elapsed_ms:.3f}ms")
            if query_id is not None:
                parts.append(f"qid={query_id}")
            server.logger.info(" ".join(parts))

    def _send_payload(self, status, payload, headers=(),
                      content_type="application/json; charset=utf-8"):
        """Send the status line, headers and body in one write.

        ``wfile`` is unbuffered: flushing the headers, then writing the
        body, sends two small TCP segments, and under Nagle's algorithm
        the second waits for the client's delayed ACK — ~40 ms on every
        keep-alive request.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        # Every response to an identified request — success *or* error —
        # carries the query id, so client logs always correlate.
        query_id = getattr(self, "_query_id", None)
        if query_id is not None:
            self.send_header("X-Arc-Query-Id", query_id)
        for name, value in headers:
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # a bare body, no head
            self._headers_buffer = []
        else:
            self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(payload)
        self.flush_headers()

    def _send_json(self, status, body, headers=()):
        self._send_payload(
            status, json.dumps(body, sort_keys=True).encode("utf-8"), headers
        )

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own refusals (unsupported method, malformed request
        line, oversized URI or headers) in the JSON error contract, closing
        the connection as the stdlib does."""
        # The request never reached a handler: nothing of an earlier
        # request on this keep-alive connection applies to the reply.
        self._query_id = self._request_started = None
        self.log_error("code %d, message %s", code, message)
        self._error(code, message or HTTPStatus(code).description, close=True)

    # -- GET ---------------------------------------------------------------

    def _read_body(self):
        """Drain the request body before any response; None once refused.

        On a keep-alive (HTTP/1.1) connection, unread body bytes would be
        parsed as the next request line, desyncing every follow-up request
        — so every method drains, even one that ignores its body.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Cannot drain an unknown length: refuse and drop the socket.
            self._error(400, "bad Content-Length", close=True)
            return None
        if length < 0:
            self._error(400, "negative Content-Length", close=True)
            return None
        if length > self.server.max_body_bytes:
            # Refused *before* reading: draining an attacker-sized body
            # would be the very resource sink the bound exists to prevent.
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes} byte limit",
                close=True,
            )
            return None
        return self.rfile.read(length)

    def do_GET(self):
        self._request_started = time.perf_counter()
        self._query_id = None
        if self._read_body() is None:
            return
        server = self.server
        if self.path == "/healthz":
            breakers = breaker_states()
            degraded_backends = sorted(
                name
                for name, snap in breakers.items()
                if snap["state"] == "open"
            )
            saturated = server.pool.saturated()
            degraded = bool(degraded_backends) or saturated
            pool = server.pool.snapshot()
            # A degraded 503 is retriable — advise pollers when to return.
            degraded_headers = (
                (("Retry-After", str(RETRY_AFTER_S)),) if degraded else ()
            )
            self._send_json(
                503 if degraded else 200,
                {
                    "status": "degraded" if degraded else "ok",
                    "degraded_backends": degraded_backends,
                    "queue_saturated": saturated,
                    "breakers": breakers,
                    "relations": sorted(
                        server.factory.catalogs[server.factory.default].names()
                    ),
                    "catalogs": server.factory.names(),
                    "backend": server.session.options.backend,
                    "workers": pool["workers"],
                    "busy": pool["busy"],
                    "queue_depth": pool["queue_depth"],
                    "coalesced_total": server.coalescer.coalesced_total,
                    "requests": server.requests_served,
                    "uptime_s": round(time.monotonic() - server.started, 3),
                },
                headers=degraded_headers,
            )
            return
        if self.path == "/stats":
            totals, loads, hits, probes = server.aggregate_stats()
            pool = server.pool.snapshot()
            pool["coalesced_total"] = server.coalescer.coalesced_total
            pool["queries_executed"] = server.queries_executed
            stats = totals
            stats.update(
                catalog_loads=loads,
                catalog_hits=hits,
                probe_hits=probes,
                requests=server.requests_served,
                requests_total=server.requests_served,
                uptime_s=round(time.monotonic() - server.started, 3),
                breakers=breaker_states(),
                latency=server.metrics.latency_summary(),
                pool=pool,
                quarantine=server.pool.quarantine.snapshot(),
            )
            self._send_json(
                200, stats, headers=(("Cache-Control", "no-store"),)
            )
            return
        if self.path == "/metrics":
            text = render_prometheus(
                server.metrics, extra=_prometheus_extra(server)
            )
            self._send_payload(
                200, text.encode("utf-8"),
                headers=(("Cache-Control", "no-store"),),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        self._error(404, f"unknown path {self.path!r}")

    # -- POST /query -------------------------------------------------------

    def _error(self, status, exc_or_message, *, close=False):
        headers = ()
        if close:
            self.close_connection = True
            headers = (("Connection", "close"),)
        outcome = _error_outcome(exc_or_message, status, headers)
        self._send_payload(outcome.status, outcome.payload, outcome.headers)

    def do_POST(self):
        self._request_started = time.perf_counter()
        # A fresh id per request, assigned before any parsing: even a
        # malformed request's error response ties back to the server logs.
        self._query_id = uuid.uuid4().hex[:16]
        payload = self._read_body()
        if payload is None:
            return
        if self.path != "/query":
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            request = json.loads(payload or b"{}")
        except json.JSONDecodeError:
            self._error(400, "request body must be JSON")
            return
        if not isinstance(request, dict) or not isinstance(
            request.get("query"), str
        ):
            self._error(400, 'request must be {"query": "...", ...}')
            return
        frontend = request.get("frontend", "arc")
        if frontend not in FRONTENDS:
            self._error(
                400, f"unknown frontend {frontend!r}; choose from {FRONTENDS}"
            )
            return
        backend = request.get("backend")
        if backend is not None and not isinstance(backend, str):
            self._error(400, "backend must be a string")
            return
        factory = self.server.factory
        catalog = request.get("catalog")
        if catalog is None:
            catalog = factory.default
        elif not isinstance(catalog, str) or not factory.has(catalog):
            self._error(
                400,
                f"unknown catalog {catalog!r}; choose from {factory.names()}",
            )
            return
        timeout_ms = request.get("timeout_ms")
        max_rows = request.get("max_rows")
        try:
            validate_budget(timeout_ms, max_rows, flavor="request ")
        except OptionsError as exc:
            self._error(400, exc)
            return
        outcome, coalesced = self.server.execute_query(
            catalog, request["query"], frontend, backend,
            timeout_ms, max_rows, self._query_id,
        )
        headers = outcome.headers
        if coalesced:
            headers += (("X-Arc-Coalesced", "1"),)
        if outcome.status == 200:
            self.server.count_served()
        self._send_payload(outcome.status, outcome.payload, headers)


def make_server(session, host="127.0.0.1", port=0, *, workers=1,
                queue_depth=DEFAULT_QUEUE_DEPTH,
                session_limit=DEFAULT_SESSION_LIMIT, catalogs=None,
                quiet=True, max_body_bytes=DEFAULT_MAX_BODY_BYTES,
                log_requests=False, log_json=False,
                hard_timeout_ms=None, shed_threshold_ms=None,
                poison_threshold=DEFAULT_POISON_THRESHOLD,
                quarantine_ttl_s=DEFAULT_QUARANTINE_TTL_S):
    """Bind a :class:`QueryServer` for *session* (``port=0`` = ephemeral).

    The caller drives it: ``server.serve_forever()`` to block,
    ``server.handle_request()`` for one request, ``server.server_close()``
    to drain the pool and release the socket.  ``server.url`` reports the
    bound address.  ``workers`` sizes the execution pool (worker 0 adopts
    *session*; the default of 1 preserves strictly serialized execution);
    ``queue_depth`` bounds admission; *catalogs* maps extra catalog names
    to Databases for the request ``catalog`` field.  ``log_requests``
    emits one ``repro.serve`` logging line per request; ``log_json``
    switches those lines to structured JSON (and implies
    ``log_requests``).

    Self-healing knobs: ``hard_timeout_ms`` caps any single execution's
    wall time (each run's Deadline is ``min(soft, hard)``; without it a
    deadline-less run is capped at :data:`DEFAULT_HARD_TIMEOUT_MS`);
    ``shed_threshold_ms`` sheds deadline-less requests
    when the estimated queue wait exceeds it; ``poison_threshold`` /
    ``quarantine_ttl_s`` tune the poison-query quarantine.
    """
    return QueryServer(
        (host, port), session, workers=workers, queue_depth=queue_depth,
        session_limit=session_limit, catalogs=catalogs, quiet=quiet,
        max_body_bytes=max_body_bytes,
        log_requests=log_requests, log_json=log_json,
        hard_timeout_ms=hard_timeout_ms, shed_threshold_ms=shed_threshold_ms,
        poison_threshold=poison_threshold, quarantine_ttl_s=quarantine_ttl_s,
    )


def install_sigterm_handler(server, *, signals=(signal.SIGTERM, signal.SIGINT)):
    """Make *signals* drain *server* gracefully; returns the handler.

    Drain means: stop accepting, finish every queued and in-flight
    request (their responses are written), then stop the workers.
    ``HTTPServer.shutdown()`` blocks until ``serve_forever`` exits, and
    the signal handler runs **on** the serving thread — calling it
    directly would deadlock.  The handler instead fires
    :meth:`QueryServer.drain` from a helper thread.  Idempotent under
    signal storms: only the first delivery spawns the drain thread.
    """
    fired = []

    def _handler(signum, frame):
        if fired:
            return
        fired.append(signum)
        threading.Thread(target=server.drain, daemon=True).start()

    for signum in signals:
        signal.signal(signum, _handler)
    return _handler

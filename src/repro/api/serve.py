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
already consume.

Telemetry
---------
Every serving event is counted once, where it happens: engine and
session cache counters in each worker slot's ExecutionStats, pool
events (respawns, sheds, the service-time EWMA) on the pool,
quarantines on the :class:`~repro.serve.Quarantine`, requests and
coalesced followers on the server.  :meth:`QueryServer.snapshot` reads
them all once, and its dict is the ``GET /stats`` body: the summed
counters, breaker states, per-phase latency quantiles, a ``pool`` block
(``workers``, ``busy``, ``queue_depth``, ``coalesced_total``,
``workers_respawned``, ``shed_total``, per-worker handled counts) and a
``quarantine`` block.  ``GET /healthz`` projects the same snapshot into
liveness — 200 while healthy, **503 degraded** while any backend circuit
breaker is open *or the job queue is saturated*.  ``GET /metrics``
renders the registry's histograms and counters plus one row per series
of :data:`_METRICS` read from the snapshot, in Prometheus text format.

Errors return 400 (bad request / query errors), 404, 408
(:class:`~repro.errors.QueryTimeout`), 413
(:class:`~repro.errors.BudgetExceeded`, or a request body over
:data:`MAX_BODY_BYTES`), 422
(:class:`~repro.errors.PoisonQuery`), 429 (admission/shedding), or 500
(including :class:`~repro.errors.WorkerCrash`), always with
``{"error": ..., "error_type": ...}`` — the stdlib's own refusals of a
malformed or unsupported request (400, 414, 431, 501, 505) too.  A
request whose body cannot be framed — any ``Transfer-Encoding`` (501),
a ``Content-Length`` that is not one decimal number (400) — and a head
line that is not ``name: value`` (400) are refused and the connection
closed, so no byte of them is read as the next request.

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

import email.utils
import functools
import json
import logging
import os
import re
import signal
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..backends.exec import breaker_states
from ..data.relation import Relation
from ..data.values import Truth
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
    RETRY_AFTER_S,
    AdmissionError,
    Coalescer,
    SessionFactory,
    WorkerPool,
    poison_fingerprint,
)
from ..serve.pool import DEFAULT_QUEUE_DEPTH
from ..util import failpoints
from .options import validate_budget

#: Bound on request bodies (1 MiB): a query is text, not a bulk upload,
#: so anything larger is a client error or an attack.
MAX_BODY_BYTES = 1 << 20

#: Hard wall cap (ms) for requests with no soft deadline of their own.
DEFAULT_HARD_TIMEOUT_MS = 10_000

#: Upper bound a handler thread waits for its own job / a coalesced
#: leader.  Generous on purpose: per-request deadlines (``timeout_ms``)
#: are the real budget; this is only a backstop against a wedged worker.
_JOB_WAIT_S = 600.0

#: Numeric encoding of breaker states for the ``arc_breaker_state`` gauge.
_BREAKER_STATE_CODE = {"closed": 0, "half-open": 1, "open": 2}

#: Longest request-head line, and most head lines (the blank line ending
#: the head included), before a 431: the bounds ``http.client`` reads
#: a head with.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

#: ``HTTP/major.minor``, each part at most ten ASCII digits.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

#: A field name: an RFC 9110 token, so no whitespace before the colon.
_FIELD_NAME = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


@functools.lru_cache(maxsize=1)
def _http_date(second):
    """The ``Date`` header value, formatted once per second."""
    return email.utils.formatdate(second, usegmt=True)


def _body_length(declared):
    """The body length a ``Content-Length`` value declares.

    Only ASCII digits count (no sign, no ``_``, none of the other digits
    ``int`` reads), with surrounding whitespace stripped; a list of equal
    values reads as one (RFC 9112 §6.3).  Raises :class:`ValueError`
    for anything else, differing repeats included.
    """
    values = {value.strip() for value in declared.split(",")}
    if len(values) > 1:
        raise ValueError(f"differing Content-Length values {declared!r}")
    (value,) = values
    if not (value.isascii() and value.isdigit()):
        raise ValueError(
            f"Content-Length must be a non-negative decimal integer, "
            f"got {value!r}"
        )
    return int(value)


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


def _result_body(result, fallback_reasons):
    if isinstance(result, Truth):
        body = {"kind": "truth", "truth": result.name}
    elif isinstance(result, Relation):
        body = {
            "kind": "relation",
            "name": result.name,
            "columns": list(result.schema),
            "rows": result.json_rows(),
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


#: The ``/metrics`` series read from :meth:`QueryServer.snapshot`, beside
#: the registry's own: ``(name, type, help, samples)``, where *samples*
#: maps the snapshot to a number (one unlabelled sample) or to a list of
#: ``(labels, value)``.  A new server metric is one row here.
_METRICS = (
    ("arc_stats_total", "counter",
     "Engine ExecutionStats and session cache counters "
     "(summed across worker slots).",
     lambda s: [({"counter": name}, s[name])
                for name in ExecutionStats.__slots__]),
    ("arc_requests_total", "counter", "HTTP query requests served.",
     lambda s: s["requests_total"]),
    ("arc_pool_workers", "gauge", "Worker threads in the serving pool.",
     lambda s: s["pool"]["workers"]),
    ("arc_pool_busy", "gauge", "Workers executing a job right now.",
     lambda s: s["pool"]["busy"]),
    ("arc_pool_queue_depth", "gauge", "Jobs queued but not yet started.",
     lambda s: s["pool"]["queue_depth"]),
    ("arc_pool_queue_capacity", "gauge",
     "Queue depth at which admission control refuses (429).",
     lambda s: s["pool"]["queue_capacity"]),
    ("arc_pool_service_ewma_ms", "gauge",
     "Rolling EWMA of per-job service time, milliseconds.",
     lambda s: s["pool"]["service_ewma_ms"]),
    ("arc_coalesced_total", "counter",
     "Requests answered from another in-flight execution.",
     lambda s: s["pool"]["coalesced_total"]),
    ("arc_worker_requests_total", "counter", "Jobs completed per pool worker.",
     lambda s: [({"worker": str(row["worker"])}, row["handled"])
                for row in s["pool"]["per_worker"]]),
    ("arc_worker_respawns_total", "counter",
     "Pool workers respawned after a crash.",
     lambda s: s["pool"]["workers_respawned"]),
    ("arc_shed_total", "counter",
     "Requests refused because the estimated queue wait exceeded their "
     "deadline budget.",
     lambda s: s["pool"]["shed_total"]),
    ("arc_quarantined_total", "counter",
     "Request fingerprints quarantined as poison.",
     lambda s: s["quarantine"]["quarantined_total"]),
    ("arc_quarantine_size", "gauge",
     "Request fingerprints currently quarantined as poison.",
     lambda s: s["quarantine"]["size"]),
    ("arc_uptime_seconds", "gauge", "Seconds since the server started.",
     lambda s: s["uptime_s"]),
    ("arc_breaker_state", "gauge",
     "Circuit breaker state per backend (0=closed 1=half-open 2=open).",
     lambda s: [({"backend": name}, _BREAKER_STATE_CODE[snap["state"]])
                for name, snap in s["breakers"].items()]),
    ("arc_breaker_trips_total", "counter",
     "Circuit breaker trips per backend.",
     lambda s: [({"backend": name}, snap["trips"])
                for name, snap in s["breakers"].items()]),
)


def _metric_rows(snapshot):
    """The :data:`_METRICS` rows with samples, for ``render_prometheus``."""
    for name, kind, help_text, read in _METRICS:
        samples = read(snapshot)
        if not isinstance(samples, list):
            samples = [({}, samples)]
        if samples:
            yield name, kind, help_text, samples


class QueryServer(ThreadingHTTPServer):
    """An HTTP front end over a worker pool of warm Sessions.

    *session* is the control session: it defines the default catalog,
    conventions, externals, and options, and worker 0 adopts it (so a
    single-worker server executes on exactly the session object the
    caller holds).  Extra *catalogs* (name → Database) become selectable
    via the request ``catalog`` field; workers build Sessions for them
    lazily through a bounded per-worker LRU.

    Bind with ``QueryServer((host, port), session, ...)`` (``port`` 0 =
    ephemeral; ``server.url`` reports the bound address), then drive it:
    ``serve_forever()`` to block, ``handle_request()`` for one request,
    ``server_close()`` to drain the pool and release the socket.
    ``workers`` sizes the execution pool (the default of 1 preserves
    strictly serialized execution); ``queue_depth`` bounds admission.
    ``log_requests`` emits one ``repro.serve`` logging line per request;
    ``log_json`` switches those lines to structured JSON (and implies
    ``log_requests``).

    Self-healing knobs: ``hard_timeout_ms`` caps any single execution's
    wall time (each run's Deadline is ``min(soft, hard)``; without it a
    deadline-less run is capped at :data:`DEFAULT_HARD_TIMEOUT_MS`);
    ``shed_threshold_ms`` sheds deadline-less requests when the estimated
    queue wait exceeds it.  The poison-query quarantine uses the
    :mod:`repro.serve.supervise` defaults (2 kills, 300 s), and request
    bodies are bounded by :data:`MAX_BODY_BYTES`.
    """

    # Handler threads are daemonic: a keep-alive connection parked in
    # readline() must not block process exit.  Graceful shutdown happens
    # at the pool layer (drain), not by joining handler threads.
    daemon_threads = True

    def __init__(self, address, session, *, workers=1,
                 queue_depth=DEFAULT_QUEUE_DEPTH, catalogs=None,
                 log_requests=False, log_json=False,
                 hard_timeout_ms=None, shed_threshold_ms=None):
        # Validated before binding: a non-positive cap would turn every
        # request into a 408 (or a 400), so refuse it at startup instead.
        validate_budget(hard_timeout_ms, None, timeout_name="hard_timeout_ms")
        validate_budget(
            shed_threshold_ms, None, timeout_name="shed_threshold_ms"
        )
        super().__init__(address, _Handler)
        self.session = session
        self.hard_timeout_ms = hard_timeout_ms
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
            self.factory, workers, queue_depth, metrics=self.metrics,
            adopt=session, shed_threshold_ms=shed_threshold_ms,
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

    # -- telemetry ---------------------------------------------------------

    def snapshot(self):
        """The server's telemetry, read once: the ``/stats`` body.

        The worker slots' summed ExecutionStats (session cache counters
        included), request totals, uptime, breaker states, per-phase
        latency quantiles, and the ``pool`` and ``quarantine`` blocks.
        ``/healthz`` projects this dict and ``/metrics`` renders it
        through :data:`_METRICS`.
        """
        pool = self.pool.snapshot()
        pool["coalesced_total"] = self.coalescer.coalesced_total
        pool["queries_executed"] = self.queries_executed
        snapshot = self.pool.aggregate_stats()
        snapshot.update(
            requests=self.requests_served,
            requests_total=self.requests_served,
            uptime_s=round(time.monotonic() - self.started, 3),
            breakers=breaker_states(),
            latency=self.metrics.latency_summary(),
            pool=pool,
            quarantine=self.pool.quarantine.snapshot(),
        )
        return snapshot

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
        """Silence the stdlib's stderr line; ``--log-requests`` logs instead."""

    def parse_request(self):
        """Parse the request line and the head in one pass over its lines.

        The stdlib's refusals stay: 400 for a malformed request line or
        version, 505 for HTTP/2 and later, HTTP/0.9 framing for a
        two-word ``GET`` only, the ``//`` path fold, 431 for a head line
        over :data:`_MAX_LINE` bytes or more than :data:`_MAX_HEAD_LINES`
        head lines, and ``Connection``; ``Expect`` waits for
        :meth:`_read_body`.
        ``self.headers`` is a dict keyed by lower-case field name, a
        repeated field's values joined by ``", "`` (RFC 9110 §5.3).

        A head line that is not ``name: value`` — no colon, whitespace
        before the colon, or an obs-fold continuation — is refused with
        400 and the connection closed (RFC 9112 §5).  ``email.parser``
        ended the head at such a line, or unfolded it, and the bytes
        after it were read as the body or the next request.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(
            self.raw_requestline, "iso-8859-1"
        ).rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        if path.startswith("//"):
            # gh-87389: a client reads ``//host/...`` as another origin.
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        self.headers = headers = {}
        readline = self.rfile.readline
        for _ in range(_MAX_HEAD_LINES):
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.partition(b":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                text = line.rstrip(b"\r\n").decode("iso-8859-1")
                self.send_error(400, f"Bad header line ({text!r})")
                return False
            name = name.lower().decode("ascii")
            value = value.strip(b" \t\r\n").decode("iso-8859-1")
            previous = headers.get(name)
            headers[name] = (
                value if previous is None else f"{previous}, {value}"
            )
        else:
            self.send_error(431, "Too many headers")
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        self._expect_continue = (headers.get("expect", "").lower() == "100-continue"
                                 and self.request_version >= "HTTP/1.1")
        return True

    def log_request(self, code="-", size="-"):
        """One structured line per request (``--log-requests``).

        ``_send_payload`` calls this for every response, so each request —
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
        """Send the status line, headers and body as one ``bytes`` write.

        ``wfile`` is unbuffered: flushing the headers, then writing the
        body, sends two small TCP segments, and under Nagle's algorithm
        the second waits for the client's delayed ACK — ~40 ms on every
        keep-alive request.  An HTTP/0.9 request gets the bare body and
        a ``HEAD`` the head alone.
        """
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(payload)
            return
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}"
            f"\r\nServer: {self.version_string()}"
            f"\r\nDate: {_http_date(int(time.time()))}"
            f"\r\nContent-Type: {content_type}"
            f"\r\nContent-Length: {len(payload)}\r\n"
        ]
        # Every response to an identified request — success *or* error —
        # carries the query id, so client logs always correlate.
        query_id = getattr(self, "_query_id", None)
        if query_id is not None:
            lines.append(f"X-Arc-Query-Id: {query_id}\r\n")
        lines.extend(f"{name}: {value}\r\n" for name, value in headers)
        lines.append("\r\n")
        head = "".join(lines).encode("latin-1")
        self.wfile.write(head if self.command == "HEAD" else head + payload)

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
        — so every method drains, even one that ignores its body.  A body
        whose end cannot be known is refused and the socket dropped: a
        ``Transfer-Encoding`` (501, RFC 9112 §6.1) or a ``Content-Length``
        that is not one decimal number (400).  ``Expect: 100-continue``
        is answered only once framing and the size bound accept the body.
        """
        headers = self.headers
        if "transfer-encoding" in headers:
            self._error(
                501,
                "Transfer-Encoding is not supported; send the body with "
                "Content-Length",
                close=True,
            )
            return None
        declared = headers.get("content-length")
        if declared is None:
            return b""
        try:
            length = _body_length(declared)
        except ValueError as exc:
            self._error(400, str(exc), close=True)
            return None
        if length > MAX_BODY_BYTES:
            # Refused *before* reading: draining an attacker-sized body
            # would be the very resource sink the bound exists to prevent.
            self._error(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte limit",
                close=True,
            )
            return None
        if self._expect_continue:
            self.handle_expect_100()
        return self.rfile.read(length)

    def do_GET(self):
        self._request_started = time.perf_counter()
        self._query_id = None
        if self._read_body() is None:
            return
        if self.path not in ("/healthz", "/stats", "/metrics"):
            self._error(404, f"unknown path {self.path!r}")
            return
        server = self.server
        snapshot = server.snapshot()
        no_store = (("Cache-Control", "no-store"),)
        if self.path == "/stats":
            self._send_json(200, snapshot, headers=no_store)
            return
        if self.path == "/metrics":
            text = render_prometheus(
                server.metrics, extra=_metric_rows(snapshot)
            )
            self._send_payload(
                200, text.encode("utf-8"), headers=no_store,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        pool, breakers = snapshot["pool"], snapshot["breakers"]
        degraded_backends = sorted(
            name for name, snap in breakers.items() if snap["state"] == "open"
        )
        saturated = pool["queue_depth"] >= pool["queue_capacity"]
        degraded = bool(degraded_backends) or saturated
        factory = server.factory
        self._send_json(
            503 if degraded else 200,
            {
                "status": "degraded" if degraded else "ok",
                "degraded_backends": degraded_backends,
                "queue_saturated": saturated,
                "breakers": breakers,
                "relations": sorted(factory.catalogs[factory.default].names()),
                "catalogs": factory.names(),
                "backend": server.session.options.backend,
                "workers": pool["workers"],
                "busy": pool["busy"],
                "queue_depth": pool["queue_depth"],
                "coalesced_total": pool["coalesced_total"],
                "requests": snapshot["requests"],
                "uptime_s": snapshot["uptime_s"],
            },
            # A degraded 503 is retriable — advise pollers when to return.
            headers=(("Retry-After", str(RETRY_AFTER_S)),) if degraded else (),
        )

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
        self._query_id = os.urandom(8).hex()
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

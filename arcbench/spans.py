"""Per-layer timing wrappers, installed from the benchmark's own files.

A :class:`Recorder` replaces the public entry point of each layer (or,
where a layer has none, the method the layer above calls) with a wrapper
that times the call and charges its *self* time — duration minus the
durations of wrapped calls made inside it on the same thread — to the
request being served.  Spans of one request share a :class:`Record`; in
the server the worker thread writes into the record of the HTTP request
whose job it runs, matched through the pool's job future.

Nothing here edits the program: ``install`` patches attributes and
``uninstall`` restores them.  Records stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter

_INHERITED = object()

#: Per-layer time metrics: metric -> spans whose self times it sums.
TIME_METRICS = {
    "http.decode_ms": ("http.parse", "http.json_decode"),
    "http.write_ms": ("http.write",),
    "serve.result_body_ms": ("serve.result_body",),
    "serve.encode_ms": ("serve.encode",),
    "coalesce.join_ms": ("coalesce.join",),
    "pool.submit_ms": ("pool.submit",),
    "pool.queue_wait_ms": ("pool.queue_wait",),
    "pool.wakeup_ms": ("pool.wakeup",),
    "session.prepare_ms": ("session.prepare",),
    "frontend.load_ms": ("frontend.load",),
    "dispatch.probe_ms": ("dispatch.probe",),
    "sqlite.compile_ms": ("sqlite.compile",),
    "sqlite.run_ms": ("sqlite.run",),
    "sqlite.catalog_load_ms": ("sqlite.catalog_load",),
    "engine.evaluate_ms": ("engine.evaluate",),
    "decorr.materialize_ms": ("decorr.materialize",),
}

#: Per-layer counters, reported as a mean per request: metric -> count.
COUNT_METRICS = {
    "coalesce.followers": "coalesce.follower",
    "pool.refused": "pool.refused",
    "sqlite.catalog_loads": "stats.catalog_loads",
    "sqlite.retries": "stats.retries",
    "planner.plans_compiled": "stats.plans_compiled",
    "planner.index_probes": "stats.index_probes",
    "planner.rows_enumerated": "stats.rows_enumerated",
    "decorr.index_builds": "stats.index_builds",
    "decorr.lateral_reevals": "stats.lateral_reevals",
}

#: ExecutionStats fields summed into each counter.
_STATS = {
    "stats.retries": ("retries",),
    "stats.plans_compiled": ("plans_compiled",),
    "stats.index_probes": ("index_probes",),
    "stats.rows_enumerated": ("rows_enumerated",),
    "stats.index_builds": ("decorr_index_builds", "band_index_builds"),
    "stats.lateral_reevals": ("lateral_reevals",),
}


class Record:
    """Everything the wrappers saw of one request."""

    __slots__ = ("self_ms", "dur_ms", "counts", "query_id", "latency_ms", "_lock")

    def __init__(self):
        self.self_ms = defaultdict(float)
        self.dur_ms = defaultdict(float)
        self.counts = defaultdict(float)
        self.query_id = None
        self.latency_ms = None
        self._lock = threading.Lock()

    def span(self, name, self_s, dur_s):
        with self._lock:
            self.self_ms[name] += self_s * 1e3
            self.dur_ms[name] += dur_s * 1e3
            self.counts[name] += 1

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def as_dict(self):
        with self._lock:
            return {
                "query_id": self.query_id,
                "self_ms": dict(self.self_ms),
                "dur_ms": dict(self.dur_ms),
                "counts": dict(self.counts),
            }

    @classmethod
    def from_dict(cls, data):
        record = cls()
        record.query_id = data["query_id"]
        record.self_ms.update(data["self_ms"])
        record.dur_ms.update(data["dur_ms"])
        record.counts.update(data["counts"])
        return record


class Recorder:
    """Installs the wrappers and collects one :class:`Record` per request."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        #: id(pool future) -> [record, submitted at, resolved at]
        self._jobs = {}
        self.records = []

    # -- request scope -----------------------------------------------------

    def begin(self):
        record = Record()
        self._local.record = record
        with self._lock:
            self.records.append(record)
        return record

    def end(self):
        self._local.record = None

    def _record(self):
        return getattr(self._local, "record", None)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, before=None, after=None):
        """Wrap *fn* as span *name*.  *before(args)* returns a token handed
        to *after(record, token, args, result)*, which may add counts."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack = recorder._stack()
            stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                record = recorder._record()
                if record is not None:
                    record.span(name, duration - children, duration)
                    if after is not None:
                        after(record, token, args, result)

        return wrapper

    def _patch(self, owner, attr, make):
        # An inherited method is restored by deleting the override.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def _span(self, owner, attr, name, before=None, after=None):
        self._patch(owner, attr, lambda fn: self.timed(name, fn, before, after))

    def install(self, *, server=False):
        """Wrap the session, dispatch, SQLite, engine and decorrelation
        layers; with *server*, also the HTTP, shaping, coalescing and pool
        layers of ``repro serve``."""
        from repro.api import session as api_session
        from repro.backends import exec as backends_exec
        from repro.backends.exec import sqlite_exec
        from repro.engine import decorrelate, evaluator

        def stats_before(args):
            session = args[0].session
            return session.stats.as_dict(), session.catalog_loads

        def stats_after(record, token, args, result):
            session = args[0].session
            stats, loads = token
            now = session.stats.as_dict()
            record.add("stats.catalog_loads", session.catalog_loads - loads)
            for counter, fields in _STATS.items():
                record.add(counter, sum(now[f] - stats[f] for f in fields))
            if result is not None:
                record.add("dispatch.fallback", 1 if result["fallback_reasons"] else 0)
                record.add("dispatch.runs", 1)

        def probe_before(args):
            return args[0].session.probe_hits

        def probe_after(record, token, args, result):
            record.add("dispatch.probe_hit", args[0].session.probe_hits - token)

        self._span(api_session.Session, "prepare", "session.prepare")
        self._span(api_session, "load_query", "frontend.load")
        self._span(api_session.Prepared, "run_info", "session.run",
                   stats_before, stats_after)
        self._span(backends_exec, "run_backend", "dispatch")
        self._span(api_session.SessionContext, "probe", "dispatch.probe",
                   probe_before, probe_after)
        self._span(api_session.SessionContext, "acquire_connection",
                   "sqlite.catalog_load")
        self._span(sqlite_exec, "compile_sql", "sqlite.compile")
        self._span(sqlite_exec.SqliteBackend, "run", "sqlite.run")
        self._span(evaluator.Evaluator, "evaluate", "engine.evaluate")
        self._span(decorrelate.CorrelationSpec, "materialize", "decorr.materialize")
        if server:
            self._install_server()

    def _install_server(self):
        from repro.api import serve
        from repro.errors import PoisonQuery
        from repro.serve import AdmissionError, coalesce, pool

        recorder = self
        handler = serve._Handler

        def open_request(args):
            recorder.begin()

        def close_request(record, token, args, result):
            record.query_id = getattr(args[0], "_query_id", None)
            recorder.end()

        def follower(record, token, args, result):
            if result is not None and not result[1]:
                record.add("coalesce.follower", 1)

        self._span(handler, "parse_request", "http.parse", before=open_request)
        self._span(handler, "do_POST", "http.handle", after=close_request)
        self._span(handler, "_send_payload", "http.write")
        self._span(serve, "_result_body", "serve.result_body")
        self._span(serve.QueryServer, "_run_query", "serve.run_query")
        self._span(coalesce.Coalescer, "join", "coalesce.join", after=follower)
        self._patch(serve, "json", lambda module: _JsonProxy(module, self))

        def make_submit(fn):
            timed = self.timed("pool.submit", fn)

            @functools.wraps(fn)
            def submit(*args, **kwargs):
                try:
                    future = timed(*args, **kwargs)
                except (AdmissionError, PoisonQuery):
                    record = recorder._record()
                    if record is not None:
                        record.add("pool.refused", 1)
                    raise
                with recorder._lock:
                    recorder._jobs[id(future)] = [recorder._record(), perf_counter(), None]
                return future

            return submit

        def make_execute(fn):
            timed = self.timed("pool.execute", fn)

            @functools.wraps(fn)
            def execute(pool_self, worker, job):
                started = perf_counter()
                with recorder._lock:
                    entry = recorder._jobs.get(id(job.future))
                record = entry[0] if entry is not None else None
                if record is not None:
                    waited = started - entry[1]
                    record.span("pool.queue_wait", waited, waited)
                recorder._local.record = record
                try:
                    return timed(pool_self, worker, job)
                finally:
                    recorder._local.record = None

            return execute

        def make_set_result(fn):
            @functools.wraps(fn)
            def set_result(future, result):
                with recorder._lock:
                    entry = recorder._jobs.get(id(future))
                if entry is not None:
                    entry[2] = perf_counter()
                return fn(future, result)

            return set_result

        def make_wait(fn):
            timed = self.timed("pool.wait", fn)

            @functools.wraps(fn)
            def wait(future, timeout=None):
                try:
                    return timed(future, timeout)
                finally:
                    woke = perf_counter()
                    with recorder._lock:
                        entry = recorder._jobs.pop(id(future), None)
                    if entry is not None and entry[0] is not None and entry[2] is not None:
                        entry[0].span("pool.wakeup", woke - entry[2], woke - entry[2])

            return wait

        self._patch(pool.WorkerPool, "submit", make_submit)
        self._patch(pool.WorkerPool, "_execute", make_execute)
        self._patch(pool.Future, "set_result", make_set_result)
        self._patch(pool.Future, "wait", make_wait)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self):
        with self._lock:
            return [record.as_dict() for record in self.records]


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.api.serve``: request
    decoding and response encoding become spans, the rest passes through."""

    def __init__(self, module, recorder):
        self._module = module
        self.loads = recorder.timed("http.json_decode", module.loads)
        self.dumps = recorder.timed("serve.encode", module.dumps)

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- per-layer metrics ---------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(records, *, http):
    """Per-layer metrics from completed request records.

    Time metrics are the median self time per request over the requests
    that crossed the layer (0 when none did).  Counters are means per
    request.  Each record must carry ``latency_ms``, the client-side
    latency of its request.
    """
    metrics = {}
    count = len(records)
    for metric, spans in TIME_METRICS.items():
        values = []
        for record in records:
            if any(span in record.self_ms for span in spans):
                values.append(sum(record.self_ms.get(span, 0.0) for span in spans))
        metrics[metric] = _median(values)
    for metric, counter in COUNT_METRICS.items():
        total = sum(record.counts.get(counter, 0) for record in records)
        metrics[metric] = total / count if count else 0.0

    def ratio(numerator, denominator):
        top = sum(numerator(r) for r in records)
        bottom = sum(denominator(r) for r in records)
        return top / bottom if bottom else 0.0

    metrics["session.prepare_hit_frac"] = ratio(
        lambda r: r.counts.get("session.prepare", 0) - r.counts.get("frontend.load", 0),
        lambda r: r.counts.get("session.prepare", 0),
    )
    metrics["dispatch.probe_hit_frac"] = ratio(
        lambda r: r.counts.get("dispatch.probe_hit", 0),
        lambda r: r.counts.get("dispatch.probe", 0),
    )
    metrics["dispatch.fallback_frac"] = ratio(
        lambda r: r.counts.get("dispatch.fallback", 0),
        lambda r: r.counts.get("dispatch.runs", 0),
    )
    server_ms, unaccounted_ms, attributed = [], [], []
    for record in records:
        if http:
            covered = record.dur_ms.get("http.parse", 0.0) + record.dur_ms.get("http.handle", 0.0)
            server_ms.append(covered)
            unaccounted_ms.append(record.latency_ms - covered)
        else:
            covered = (record.dur_ms.get("session.prepare", 0.0)
                       + record.dur_ms.get("session.run", 0.0))
        attributed.append(covered / record.latency_ms if record.latency_ms else 0.0)
    metrics["http.server_ms"] = _median(server_ms)
    metrics["http.unaccounted_ms"] = _median(unaccounted_ms)
    metrics["trace.attributed_frac"] = _median(attributed)
    metrics["trace.unattributed_frac"] = 1.0 - metrics["trace.attributed_frac"]
    return metrics


"""The worker pool: fixed threads, each owning private warm Sessions.

A :class:`~repro.api.Session` is not thread-safe, so the pool never
shares one: each worker thread owns a bounded :class:`SessionLRU` of
Sessions (one per catalog it has served), built by a
:class:`SessionFactory` from the catalog map.  In-memory SQLite
connections belong to the thread that loaded them (one LRU per thread,
see :mod:`repro.backends.exec.sqlite_exec`), so N workers execute on N
connections and never share a handle.

Jobs are plain callables ``fn(worker) -> result`` submitted through a
**bounded** queue.  :meth:`WorkerPool.submit` never blocks: one admission
decision refuses a job the queue cannot take in time with
:class:`~repro.serve.admission.AdmissionError` (HTTP 429), and a
draining pool refuses with status 503 — overload is refused at the
door, not buffered.  :meth:`WorkerPool.drain` implements graceful
shutdown: stop admitting, let every queued and in-flight job finish,
then join the workers and close their Sessions.  The drain flag flips
under the same lock ``submit`` enqueues under and the stop sentinels go
to the queue *tail*, so no accepted job is ever abandoned behind a
sentinel.

The pool is **self-healing** (PR 10):

* **Supervision** — an exception escaping a worker's job loop (fault
  injection: the ``pool.worker`` failpoint) no longer silently shrinks
  the pool.  The dying thread harvests its sessions' stats into the
  retired totals, answers the in-flight caller with a typed
  :class:`~repro.errors.WorkerCrash`, and respawns itself: the same
  :class:`Worker` slot gets a fresh :class:`SessionLRU` and a new
  thread, so capacity survives any crash (``workers_respawned``).
* **Poison quarantine** — each submitted job may carry a request
  *fingerprint*; a fingerprint whose jobs kill workers
  ``poison_threshold`` times is refused at admission with a typed
  :class:`~repro.errors.PoisonQuery` until its TTL lapses (see
  :mod:`repro.serve.supervise`).
* **Deadline-aware shedding** — admission estimates queue wait from a
  rolling per-worker service-time EWMA and refuses (429) requests whose
  budget — their ``timeout_ms``, else ``shed_threshold_ms`` — would
  already be spent queueing, with ``Retry-After`` derived from the
  estimate.

The pool runs jobs; it does not time them out.  A job bounds itself: the
server arms each query with one Deadline that already includes its hard
wall cap (see :class:`repro.api.serve.QueryServer`).

Observability: the pool exports busy-worker and queue-depth gauges,
per-worker handled counts, respawn/shed counters, and (when
given a registry) an ``arc_worker_seconds`` histogram labelled by worker
index plus an ``arc_pool_service_ewma_ms`` gauge.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict

from ..core.conventions import SET_CONVENTIONS
from ..errors import PoisonQuery, WorkerCrash
from ..util import failpoints
from .admission import AdmissionError
from .supervise import (
    DEFAULT_POISON_THRESHOLD,
    DEFAULT_QUARANTINE_TTL_S,
    Quarantine,
)

#: Default worker count for ``repro serve`` (the CLI flag overrides).
DEFAULT_WORKERS = 4

#: Default bound on queued-but-not-started jobs before 429 refusals.
DEFAULT_QUEUE_DEPTH = 64

#: Warm Sessions a worker retains per catalog before evicting (LRU).
DEFAULT_SESSION_LIMIT = 4

#: Default catalog name when ``POST /query`` omits the ``catalog`` field.
DEFAULT_CATALOG = "default"

#: Smoothing factor for the rolling per-job service-time EWMA.
_EWMA_ALPHA = 0.2

_STOP = object()  # queue sentinel: one per worker, enqueued only by drain()


class Future:
    """The pending result of a submitted job (one-shot, thread-safe)."""

    __slots__ = ("_done", "_result", "_error")

    def __init__(self):
        self._done = threading.Event()
        self._result = None
        self._error = None

    def set_result(self, result):
        self._result = result
        self._done.set()

    def set_error(self, error):
        self._error = error
        self._done.set()

    def wait(self, timeout=None):
        """The job's return value; re-raises what the job raised.

        Raises :class:`TimeoutError` if the job has not finished within
        *timeout* seconds (it keeps running — the pool never abandons an
        accepted job).
        """
        if not self._done.wait(timeout):
            raise TimeoutError("job did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result

    def done(self):
        return self._done.is_set()


class _Job:
    """One accepted unit of work; ``fingerprint`` ties it to the poison
    quarantine."""

    __slots__ = ("fn", "future", "fingerprint")

    def __init__(self, fn, future, fingerprint=None):
        self.fn = fn
        self.future = future
        self.fingerprint = fingerprint


class SessionFactory:
    """Builds warm, pool-owned Sessions from a named-catalog map.

    *catalogs* maps catalog name → :class:`~repro.data.database.Database`;
    *default* names the catalog requests get when they don't ask for one.
    When *metrics* is given, Sessions built here get a metrics-only tracer
    feeding the shared registry — per-phase latency histograms aggregate
    across workers while span records are dropped.  (Their SQLite runs use
    the running worker thread's own connections.)
    """

    def __init__(self, catalogs, conventions=SET_CONVENTIONS, *,
                 externals=None, options=None, default=DEFAULT_CATALOG,
                 metrics=None):
        if default not in catalogs:
            raise LookupError(
                f"default catalog {default!r} missing from "
                f"{sorted(catalogs)}"
            )
        self.catalogs = dict(catalogs)
        self.conventions = conventions
        self.externals = externals
        self.options = options
        self.default = default
        self.metrics = metrics

    @classmethod
    def from_session(cls, session, *, metrics=None, catalogs=None,
                     default=DEFAULT_CATALOG):
        """A factory whose default catalog is *session*'s database.

        Extra named *catalogs* (name → Database) extend the map for
        multi-catalog serving.
        """
        full = {default: session.database}
        if catalogs:
            full.update(catalogs)
        return cls(
            full,
            session.conventions,
            externals=session.externals,
            options=session.options,
            default=default,
            metrics=metrics,
        )

    def names(self):
        return sorted(self.catalogs)

    def has(self, name):
        return name in self.catalogs

    def build(self, catalog=None):
        """A fresh Session over *catalog* (default catalog when None)."""
        from ..api.session import Session

        name = self.default if catalog is None else catalog
        try:
            database = self.catalogs[name]
        except KeyError:
            raise LookupError(
                f"unknown catalog {name!r}; choose from {self.names()}"
            ) from None
        session = Session(
            database,
            self.conventions,
            externals=self.externals,
            options=self.options,
        )
        if self.metrics is not None:
            from ..obs import Tracer

            session.tracer = Tracer(metrics=self.metrics, keep_spans=False)
        return session


class SessionLRU:
    """A bounded catalog-name → Session map; eviction closes the Session.

    Owned by exactly one worker thread — lookups need no lock.  Mutations
    (insert/evict) happen under *lock* only so that observers (``/stats``
    aggregation on handler threads) can take consistent snapshots.
    """

    __slots__ = ("factory", "limit", "evicted", "_sessions", "_lock")

    def __init__(self, factory, limit=DEFAULT_SESSION_LIMIT, *, lock=None):
        self.factory = factory
        self.limit = max(1, limit)
        self.evicted = 0
        self._sessions = OrderedDict()
        self._lock = lock if lock is not None else threading.Lock()

    def get(self, catalog=None):
        """The (possibly freshly built) Session for *catalog*."""
        name = self.factory.default if catalog is None else catalog
        session = self._sessions.get(name)
        if session is not None:
            self._sessions.move_to_end(name)
            return session
        session = self.factory.build(name)
        with self._lock:
            self._sessions[name] = session
            while len(self._sessions) > self.limit:
                # Drops only the prepared queries: the catalog's SQLite
                # connection stays warm in this thread's LRU.
                self._sessions.popitem(last=False)[1].close()
                self.evicted += 1
        return session

    def adopt(self, name, session):
        """Install an externally built Session (the server's warm one)."""
        with self._lock:
            self._sessions[name] = session

    def snapshot(self):
        """A consistent (name, Session) list for cross-thread readers."""
        with self._lock:
            return list(self._sessions.items())

    def close(self):
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __len__(self):
        with self._lock:
            return len(self._sessions)


class Worker:
    """One pool thread's identity and warm state."""

    __slots__ = ("index", "sessions", "handled", "pool")

    def __init__(self, index, pool, session_limit):
        self.index = index
        self.pool = pool
        self.sessions = SessionLRU(
            pool.factory, session_limit, lock=pool._lock
        )
        #: Jobs this worker completed (written by the worker thread only).
        self.handled = 0

    def session_for(self, catalog=None):
        """The worker-private Session for *catalog* (LRU, builds on miss)."""
        before = self.sessions.evicted
        session = self.sessions.get(catalog)
        evicted = self.sessions.evicted - before
        if evicted:
            self.pool._note_evictions(evicted)
        return session


class WorkerPool:
    """Fixed worker threads draining a bounded job queue.

    *adopt* (optional) is a pre-built Session installed as worker 0's
    default-catalog Session — ``repro serve`` passes its warm control
    session so single-worker servers keep the exact session object tests
    and callers hold a reference to.
    """

    def __init__(self, factory, workers=1, queue_depth=DEFAULT_QUEUE_DEPTH,
                 *, session_limit=DEFAULT_SESSION_LIMIT, metrics=None,
                 adopt=None, shed_threshold_ms=None,
                 poison_threshold=DEFAULT_POISON_THRESHOLD,
                 quarantine_ttl_s=DEFAULT_QUARANTINE_TTL_S):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.factory = factory
        self.queue_depth = max(1, queue_depth)
        self.queue = queue.Queue(maxsize=self.queue_depth)
        self.metrics = metrics
        self.shed_threshold_ms = shed_threshold_ms
        self._lock = threading.Lock()
        self._draining = False
        self._drained = threading.Event()
        self.busy = 0
        self.jobs_completed = 0
        self.sessions_evicted = 0
        self.workers_respawned = 0
        self.shed_total = 0
        #: Rolling EWMA of per-job service seconds (under ``_lock``).
        self.service_ewma_s = 0.0
        self._session_limit = session_limit
        #: Session stats harvested from crashed workers (under ``_lock``):
        #: ``{"stats": {...counter sums...}, "catalog_loads": n, ...}``.
        self._retired_stats = {}
        self._retired_cache = [0, 0, 0]  # catalog loads / hits / probe hits
        self.quarantine = Quarantine(
            threshold=poison_threshold, ttl_s=quarantine_ttl_s
        )
        self.workers = [
            Worker(index, self, session_limit) for index in range(workers)
        ]
        if adopt is not None:
            self.workers[0].sessions.adopt(factory.default, adopt)
        self._histogram = None
        self._respawn_counter = None
        self._shed_counter = None
        self._quarantine_counter = None
        self._ewma_gauge = None
        if metrics is not None:
            self._histogram = metrics.histogram(
                "arc_worker_seconds",
                "Job execution seconds per pool worker.",
                labels=("worker",),
            )
            # inc(0) materializes a zero sample so these counters render
            # in /metrics before the first event — scrapers see the
            # series from the first scrape, not only after a crash.
            self._respawn_counter = metrics.counter(
                "arc_worker_respawns_total",
                "Pool workers respawned after a crash.",
            )
            self._respawn_counter.inc(0)
            self._shed_counter = metrics.counter(
                "arc_shed_total",
                "Requests refused because the estimated queue wait "
                "exceeded their deadline budget.",
            )
            self._shed_counter.inc(0)
            self._quarantine_counter = metrics.counter(
                "arc_quarantined_total",
                "Request fingerprints quarantined as poison.",
            )
            self._quarantine_counter.inc(0)
            self._ewma_gauge = metrics.gauge(
                "arc_pool_service_ewma_ms",
                "Rolling EWMA of per-job service time, milliseconds.",
            )
            self._ewma_gauge.set(0.0)
        self._threads = [
            threading.Thread(
                target=self._run, args=(worker,),
                name=f"repro-serve-worker-{worker.index}", daemon=True,
            )
            for worker in self.workers
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, fn, *, timeout_ms=None, fingerprint=None):
        """Enqueue ``fn(worker)``; a :class:`Future` for its result.

        Never blocks.  Raises :class:`AdmissionError` with status 503 once
        draining began, and with status 429 when :meth:`_admit_locked`
        refuses the job.  The drain check and the enqueue share one lock,
        so no job can slip in behind a stop sentinel.

        *timeout_ms* is the job's admission budget (the request's soft
        deadline).  *fingerprint* (see
        :func:`~repro.serve.supervise.poison_fingerprint`) enables poison
        quarantine; a quarantined fingerprint raises
        :class:`~repro.errors.PoisonQuery`.
        """
        job = _Job(fn, Future(), fingerprint)
        with self._lock:
            if self._draining:
                raise AdmissionError(
                    "server is draining and no longer accepts work",
                    status=503,
                )
            if fingerprint is not None:
                remaining = self.quarantine.blocked(fingerprint)
                if remaining is not None:
                    raise PoisonQuery(
                        "this query is quarantined: it crashed "
                        f"{self.quarantine.threshold} worker(s); "
                        f"blocked for another {remaining:.0f} s",
                        retry_after_s=max(1, math.ceil(remaining)),
                    )
            self._admit_locked(timeout_ms)
            # Until drain, every enqueue happens here under this lock and
            # admission just saw room, so put_nowait cannot raise Full.
            self.queue.put_nowait(job)
        return job.future

    def _admit_locked(self, timeout_ms):
        """The one admission decision (caller holds ``_lock``).

        The budget is *timeout_ms*, else ``shed_threshold_ms``.  If the
        estimated queue wait (queued jobs × service-time EWMA / workers)
        would already spend it, the job is shed: 429 with the estimate
        as ``Retry-After``, instead of timing out after queueing.  A full
        queue refuses with 429 regardless of budget.
        """
        depth = self.queue.qsize()
        budget_ms = (
            timeout_ms if timeout_ms is not None else self.shed_threshold_ms
        )
        wait_s = depth * self.service_ewma_s / len(self.workers)
        if budget_ms is not None and wait_s * 1000.0 >= budget_ms:
            self.shed_total += 1
            if self._shed_counter is not None:
                self._shed_counter.inc()
            raise AdmissionError(
                f"estimated queue wait {wait_s * 1000.0:.0f} ms exceeds "
                f"the {budget_ms} ms budget; shed at admission",
                status=429,
                retry_after_s=max(1, math.ceil(wait_s)),
            )
        if depth >= self.queue_depth:
            raise AdmissionError(
                f"job queue is full ({self.queue_depth} deep); "
                "retry shortly",
                status=429,
            )

    # -- the worker loop ---------------------------------------------------

    def _run(self, worker):
        while True:
            item = self.queue.get()
            if item is _STOP:
                break
            try:
                self._execute(worker, item)
            except BaseException as exc:  # noqa: BLE001 - worker is dying
                self._on_worker_death(worker, item, exc)
                return

    def _execute(self, worker, job):
        """Run one job.  Exceptions *from the job callable* go to its
        future; anything escaping this method is a worker crash and is
        handled by :meth:`_on_worker_death`."""
        with self._lock:
            self.busy += 1
        started = time.perf_counter()
        # The failpoint sits OUTSIDE the job's exception fence: an armed
        # ``pool.worker`` spec escapes to _run and kills this worker,
        # exactly like a real defect in the loop itself would.
        failpoints.hit("pool.worker")
        try:
            job.future.set_result(job.fn(worker))
        except BaseException as exc:  # noqa: BLE001 - to the waiter
            job.future.set_error(exc)
        elapsed = time.perf_counter() - started
        worker.handled += 1
        with self._lock:
            self.busy -= 1
            self.jobs_completed += 1
            if self.service_ewma_s <= 0:
                self.service_ewma_s = elapsed
            else:
                self.service_ewma_s += _EWMA_ALPHA * (
                    elapsed - self.service_ewma_s
                )
            ewma = self.service_ewma_s
        if self._histogram is not None:
            self._histogram.observe(elapsed, worker=str(worker.index))
        if self._ewma_gauge is not None:
            self._ewma_gauge.set(round(ewma * 1e3, 3))

    def _on_worker_death(self, worker, job, exc):
        """The dying worker's last act: harvest, answer, respawn.

        Runs on the crashing thread.  Harvests the worker's session stats
        into the retired totals (so ``aggregate_stats`` never loses
        history), closes the sessions, answers the in-flight caller with
        a typed :class:`~repro.errors.WorkerCrash`, notes the kill
        against the job's fingerprint, and starts a replacement thread on
        the same :class:`Worker` slot with a fresh :class:`SessionLRU`.
        """
        harvested = []
        for name, session in worker.sessions.snapshot():
            harvested.append((name, self._harvest(session)))
        worker.sessions.close()
        worker.sessions = SessionLRU(
            self.factory, self._session_limit, lock=self._lock
        )
        with self._lock:
            self.busy -= 1  # _execute's increment; its decrement was skipped
            self.workers_respawned += 1
            for name, stats in harvested:
                self._merge_retired_locked(stats)
        if self._respawn_counter is not None:
            self._respawn_counter.inc()
        crash = WorkerCrash(
            f"worker {worker.index} died while executing this request "
            f"({type(exc).__name__}: {exc}); the pool respawned it"
        )
        crash.__cause__ = exc
        job.future.set_error(crash)
        if job.fingerprint is not None:
            if self.quarantine.note_kill(job.fingerprint):
                if self._quarantine_counter is not None:
                    self._quarantine_counter.inc()
        # The replacement thread reuses this Worker slot; during drain it
        # will consume the sentinel meant for its predecessor, so drain's
        # sentinel arithmetic still balances.  Start BEFORE registering:
        # drain() joins whatever _threads holds, and joining an unstarted
        # thread raises.  The dying thread (this one) stays alive past the
        # registration, so drain's join loop always re-snapshots and
        # picks the replacement up.
        replacement = threading.Thread(
            target=self._run, args=(worker,),
            name=f"repro-serve-worker-{worker.index}", daemon=True,
        )
        replacement.start()
        with self._lock:
            self._threads[worker.index] = replacement

    @staticmethod
    def _harvest(session):
        """A crashed worker Session's counters, as plain dicts."""
        return {
            "stats": dict(session.stats.as_dict()),
            "catalog_loads": session.catalog_loads,
            "catalog_hits": session.catalog_hits,
            "probe_hits": session.probe_hits,
        }

    def _merge_retired_locked(self, harvested):
        for key, value in harvested["stats"].items():
            self._retired_stats[key] = self._retired_stats.get(key, 0) + value
        self._retired_cache[0] += harvested["catalog_loads"]
        self._retired_cache[1] += harvested["catalog_hits"]
        self._retired_cache[2] += harvested["probe_hits"]

    def retired_stats(self):
        """Harvested (stats dict, cache triple) from crashed workers."""
        with self._lock:
            return dict(self._retired_stats), tuple(self._retired_cache)

    # -- lifecycle ---------------------------------------------------------

    def drain(self):
        """Stop admitting, finish queued + in-flight jobs, stop workers.

        Blocks until every worker thread has exited and the worker
        Sessions are closed.  Idempotent: concurrent callers all block
        until the single drain completes.
        """
        with self._lock:
            first = not self._draining
            self._draining = True
        if first:
            # Sentinels go to the queue *tail*: FIFO guarantees every
            # already-accepted job runs before its worker sees one.  A
            # worker that crashes mid-drain is respawned and its
            # replacement consumes the predecessor's sentinel, so one
            # sentinel per slot still stops every thread — but the
            # _threads list mutates under us, so join until stable.
            for _ in self.workers:
                self.queue.put(_STOP)
            while True:
                with self._lock:
                    threads = list(self._threads)
                for thread in threads:
                    thread.join()
                with self._lock:
                    if all(not t.is_alive() for t in self._threads):
                        break
            for worker in self.workers:
                worker.sessions.close()
            self._drained.set()
        else:
            self._drained.wait()

    @property
    def draining(self):
        with self._lock:
            return self._draining

    # -- observability -----------------------------------------------------

    def _note_evictions(self, n):
        with self._lock:
            self.sessions_evicted += n

    def depth(self):
        """Jobs queued but not yet started."""
        return self.queue.qsize()

    def saturated(self):
        """Whether a submission right now would be refused (queue full)."""
        return self.queue.qsize() >= self.queue_depth

    def snapshot(self):
        """Pool gauges for ``/stats`` and ``/healthz``."""
        with self._lock:
            busy = self.busy
            completed = self.jobs_completed
            evicted = self.sessions_evicted
            respawned = self.workers_respawned
            shed = self.shed_total
            ewma = self.service_ewma_s
            draining = self._draining
        return {
            "workers": len(self.workers),
            "busy": busy,
            "draining": draining,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue_depth,
            "jobs_completed": completed,
            "sessions_evicted": evicted,
            "workers_respawned": respawned,
            "shed_total": shed,
            "service_ewma_ms": round(ewma * 1e3, 3),
            "per_worker": [
                {
                    "worker": worker.index,
                    "handled": worker.handled,
                    "sessions": len(worker.sessions),
                }
                for worker in self.workers
            ],
        }

    def sessions(self):
        """Every live worker Session (for stats aggregation)."""
        result = []
        for worker in self.workers:
            for _, session in worker.sessions.snapshot():
                result.append(session)
        return result

    def __repr__(self):
        return (
            f"WorkerPool(workers={len(self.workers)}, "
            f"queue={self.queue.qsize()}/{self.queue_depth}, "
            f"busy={self.busy}, draining={self._draining})"
        )

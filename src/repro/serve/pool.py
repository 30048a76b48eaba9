"""The worker pool: fixed threads, each owning private warm Sessions.

A :class:`~repro.api.Session` is not thread-safe, so the pool never
shares one: each worker slot owns a bounded LRU of Sessions (one per
catalog it has served, see :class:`Worker`), built by a
:class:`SessionFactory` from the catalog map.  In-memory SQLite
connections belong to the thread that loaded them (one LRU per thread,
see :mod:`repro.backends.exec.sqlite_exec`), so N workers execute on N
connections and never share a handle.

Jobs are plain callables ``fn(worker) -> result`` submitted through a
**bounded** queue: a ``queue.SimpleQueue`` whose depth admission checks
under the pool lock.  :meth:`WorkerPool.submit` never blocks: one admission
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
  the pool.  The dying thread closes its Sessions, answers the
  in-flight caller with a typed :class:`~repro.errors.WorkerCrash`, and
  respawns itself: the same :class:`Worker` slot gets a new thread, so
  capacity survives any crash (``workers_respawned``).  The slot's
  counters live on the slot, not on its Sessions, so they survive the
  crash (and any LRU eviction) by construction.
* **Poison quarantine** — each submitted job may carry a request
  *fingerprint*; a fingerprint whose jobs kill workers
  :data:`~repro.serve.supervise.DEFAULT_POISON_THRESHOLD` times is
  refused at admission with a typed
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

Observability: :meth:`WorkerPool.snapshot` reads the pool's plain
fields (busy workers, queue depth, respawns, sheds, the service-time
EWMA) and each slot's handled and evicted counts, and
:meth:`WorkerPool.aggregate_stats` sums the slots' ExecutionStats.
Given a registry, the pool also observes an ``arc_worker_seconds``
histogram labelled by worker index.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import OrderedDict

from ..core.conventions import SET_CONVENTIONS
from ..engine.planner import ExecutionStats
from ..errors import PoisonQuery, WorkerCrash
from ..util import failpoints
from .admission import AdmissionError
from .supervise import Quarantine

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
    """The pending result of a submitted job (one-shot, thread-safe).

    The latch is one lock, held from construction until the job's answer
    is stored: a waiter blocks in C on ``acquire`` and releases at once,
    so the latch stays open for :meth:`done` and later waits.
    """

    __slots__ = ("_latch", "_value", "_failed")

    def __init__(self):
        self._latch = threading.Lock()
        self._latch.acquire()
        self._value = None
        #: None while pending; then whether ``_value`` is an error.
        self._failed = None

    def set_result(self, result):
        self._resolve(result, False)

    def set_error(self, error):
        self._resolve(error, True)

    def _resolve(self, value, failed):
        # The first answer wins: a worker that dies after answering its
        # job (see WorkerPool._on_worker_death) must not release twice.
        if self._failed is None:
            self._value, self._failed = value, failed
            self._latch.release()

    def wait(self, timeout=None):
        """The job's return value; re-raises what the job raised.

        Raises :class:`TimeoutError` if the job has not finished within
        *timeout* seconds (it keeps running — the pool never abandons an
        accepted job).
        """
        if not self._latch.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError("job did not complete in time")
        self._latch.release()
        if self._failed:
            raise self._value
        return self._value

    def done(self):
        return self._failed is not None


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


class Worker:
    """One pool slot: its thread's warm Sessions and its counters.

    The slot outlives its thread: a crashed thread's replacement takes
    the same Worker (see :meth:`WorkerPool._on_worker_death`).  ``stats``
    is the one :class:`~repro.engine.planner.ExecutionStats` that every
    Session the slot builds shares, so the slot's counters survive LRU
    evictions and crashes by construction.  Only the slot's own thread
    writes here; observers on handler threads read the plain counters.
    """

    __slots__ = ("index", "factory", "stats", "sessions", "handled", "evicted")

    def __init__(self, index, factory):
        self.index = index
        self.factory = factory
        self.stats = ExecutionStats()
        #: Warm Sessions by catalog name, least recently used first.
        self.sessions = OrderedDict()
        #: Jobs this slot completed; Sessions its LRU evicted.
        self.handled = 0
        self.evicted = 0

    def session_for(self, catalog=None):
        """The slot's Session for *catalog* (default catalog when None).

        A miss builds one; past :data:`DEFAULT_SESSION_LIMIT` the least
        recent is closed, which drops only its prepared queries: the
        catalog's SQLite connection stays warm in this thread's LRU.
        """
        name = self.factory.default if catalog is None else catalog
        session = self.sessions.get(name)
        if session is not None:
            self.sessions.move_to_end(name)
            return session
        session = self.sessions[name] = self.factory.build(name)
        session.stats = self.stats
        while len(self.sessions) > DEFAULT_SESSION_LIMIT:
            self.sessions.popitem(last=False)[1].close()
            self.evicted += 1
        return session

    def close_sessions(self):
        while self.sessions:
            self.sessions.popitem()[1].close()


class WorkerPool:
    """Fixed worker threads draining a bounded job queue.

    *adopt* (optional) is a pre-built Session installed as worker 0's
    default-catalog Session — ``repro serve`` passes its warm control
    session so single-worker servers keep the exact session object tests
    and callers hold a reference to.  Worker 0 counts into its stats.
    """

    def __init__(self, factory, workers=1, queue_depth=DEFAULT_QUEUE_DEPTH,
                 *, metrics=None, adopt=None, shed_threshold_ms=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.factory = factory
        self.queue_depth = max(1, queue_depth)
        # Unbounded itself: submit() bounds it, checking the depth and
        # enqueueing under one lock.
        self.queue = queue.SimpleQueue()
        self.shed_threshold_ms = shed_threshold_ms
        self._lock = threading.Lock()
        self._draining = False
        self._drained = threading.Event()
        self.busy = 0
        self.workers_respawned = 0
        self.shed_total = 0
        #: Rolling EWMA of per-job service seconds (under ``_lock``).
        self.service_ewma_s = 0.0
        self.quarantine = Quarantine()
        self.workers = [Worker(index, factory) for index in range(workers)]
        if adopt is not None:
            self.workers[0].stats = adopt.stats
            self.workers[0].sessions[factory.default] = adopt
        self._histogram = None
        if metrics is not None:
            self._histogram = metrics.histogram(
                "arc_worker_seconds",
                "Job execution seconds per pool worker.",
                labels=("worker",),
            )
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
            # admission just saw room, so the depth stays bounded.
            self.queue.put(job)
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
            if self.service_ewma_s <= 0:
                self.service_ewma_s = elapsed
            else:
                self.service_ewma_s += _EWMA_ALPHA * (
                    elapsed - self.service_ewma_s
                )
        if self._histogram is not None:
            self._histogram.observe(elapsed, worker=str(worker.index))

    def _on_worker_death(self, worker, job, exc):
        """The dying worker's last act: close, answer, respawn.

        Runs on the crashing thread.  Closes the slot's Sessions (its
        counters stay on the slot), answers the in-flight caller with a
        typed :class:`~repro.errors.WorkerCrash`, notes the kill against
        the job's fingerprint, and starts a replacement thread on the
        same :class:`Worker` slot, which builds fresh Sessions on demand.
        """
        worker.close_sessions()
        with self._lock:
            self.busy -= 1  # _execute's increment; its decrement was skipped
            self.workers_respawned += 1
        crash = WorkerCrash(
            f"worker {worker.index} died while executing this request "
            f"({type(exc).__name__}: {exc}); the pool respawned it"
        )
        crash.__cause__ = exc
        job.future.set_error(crash)
        self.quarantine.note_kill(job.fingerprint)
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
                worker.close_sessions()
            self._drained.set()
        else:
            self._drained.wait()

    @property
    def draining(self):
        with self._lock:
            return self._draining

    # -- observability -----------------------------------------------------

    def depth(self):
        """Jobs queued but not yet started."""
        return self.queue.qsize()

    def snapshot(self):
        """The pool block of ``/stats``: gauges, counters, per-slot rows."""
        with self._lock:
            busy = self.busy
            respawned = self.workers_respawned
            shed = self.shed_total
            ewma = self.service_ewma_s
            draining = self._draining
        per_worker = [
            {
                "worker": worker.index,
                "handled": worker.handled,
                "sessions": len(worker.sessions),
            }
            for worker in self.workers
        ]
        return {
            "workers": len(self.workers),
            "busy": busy,
            "draining": draining,
            "queue_depth": self.queue.qsize(),
            "queue_capacity": self.queue_depth,
            "jobs_completed": sum(row["handled"] for row in per_worker),
            "sessions_evicted": sum(w.evicted for w in self.workers),
            "workers_respawned": respawned,
            "shed_total": shed,
            "service_ewma_ms": round(ewma * 1e3, 3),
            "per_worker": per_worker,
        }

    def aggregate_stats(self):
        """ExecutionStats summed over the worker slots, as a dict."""
        totals = ExecutionStats().as_dict()
        for worker in self.workers:
            for name, value in worker.stats.as_dict().items():
                totals[name] += value
        return totals

    def __repr__(self):
        return (
            f"WorkerPool(workers={len(self.workers)}, "
            f"queue={self.queue.qsize()}/{self.queue_depth}, "
            f"busy={self.busy}, draining={self._draining})"
        )

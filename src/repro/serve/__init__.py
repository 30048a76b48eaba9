"""The concurrency subsystem behind ``repro serve``.

Four small, separately testable pieces that together turn the service
mode into a worker-pool server:

* :mod:`~repro.serve.pool` — a fixed pool of worker threads, each owning
  its own warm :class:`~repro.api.Session` state (per-worker prepared
  LRUs, stats; SQLite connections are per worker thread) built by a
  :class:`~repro.serve.pool.SessionFactory`, with a bounded per-worker
  :class:`~repro.serve.pool.SessionLRU` keyed by catalog name for
  multi-catalog serving;
* :mod:`~repro.serve.coalesce` — an in-flight request coalescer
  (singleflight): N concurrent identical requests fold into one
  execution whose byte-identical response fans back out;
* :mod:`~repro.serve.admission` — typed admission-control errors
  (bounded queue full / shed → 429 + ``Retry-After``, draining → 503);
* :mod:`~repro.serve.supervise` — poison-query quarantine state (request
  fingerprints, kill counts, TTL) behind the pool's self-healing;
* :mod:`~repro.serve.loadgen` — a closed-loop HTTP load generator
  (RPS + p50/p99 latency) used by ``benchmarks/bench_e29_load.py``.

The HTTP front end itself stays in :mod:`repro.api.serve`; this package
holds the transport-agnostic machinery under it.  Nothing here times a
query out: the front end arms each run with one Deadline that includes
the server's hard wall cap, and the engines enforce it.
"""

from .admission import RETRY_AFTER_S, AdmissionError
from .coalesce import Coalescer
from .loadgen import LoadSummary, percentile, run_load
from .pool import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SESSION_LIMIT,
    DEFAULT_WORKERS,
    SessionFactory,
    SessionLRU,
    Worker,
    WorkerPool,
)
from .supervise import (
    DEFAULT_POISON_THRESHOLD,
    DEFAULT_QUARANTINE_TTL_S,
    Quarantine,
    poison_fingerprint,
)

__all__ = [
    "AdmissionError",
    "Coalescer",
    "DEFAULT_POISON_THRESHOLD",
    "DEFAULT_QUARANTINE_TTL_S",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_SESSION_LIMIT",
    "DEFAULT_WORKERS",
    "LoadSummary",
    "Quarantine",
    "RETRY_AFTER_S",
    "SessionFactory",
    "SessionLRU",
    "Worker",
    "WorkerPool",
    "percentile",
    "poison_fingerprint",
    "run_load",
]

"""The concurrency subsystem behind ``repro serve``.

Four small, separately testable pieces that together turn the service
mode into a worker-pool server:

* :mod:`~repro.serve.pool` — a fixed pool of worker slots, each owning
  its own warm :class:`~repro.api.Session` state (per-worker prepared
  LRUs; SQLite connections are per worker thread) built by a
  :class:`~repro.serve.pool.SessionFactory`, a bounded Session LRU keyed
  by catalog name for multi-catalog serving, and one ExecutionStats its
  Sessions share;
* :mod:`~repro.serve.coalesce` — an in-flight request coalescer
  (singleflight): N concurrent identical requests fold into one
  execution whose byte-identical response fans back out;
* :mod:`~repro.serve.admission` — typed admission-control errors
  (bounded queue full / shed → 429 + ``Retry-After``, draining → 503);
* :mod:`~repro.serve.supervise` — poison-query quarantine state (request
  fingerprints, kill counts, TTL) behind the pool's self-healing.

The HTTP front end itself stays in :mod:`repro.api.serve`; this package
holds the transport-agnostic machinery under it.  Nothing here times a
query out: the front end arms each run with one Deadline that includes
the server's hard wall cap, and the engines enforce it.
"""

from .admission import RETRY_AFTER_S, AdmissionError
from .coalesce import Coalescer
from .pool import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SESSION_LIMIT,
    DEFAULT_WORKERS,
    SessionFactory,
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
    "Quarantine",
    "RETRY_AFTER_S",
    "SessionFactory",
    "Worker",
    "WorkerPool",
    "poison_fingerprint",
]

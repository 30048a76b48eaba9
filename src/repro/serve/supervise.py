"""Poison-query quarantine: stop a worker-killing request from eating the pool.

The pool's supervisor attributes every worker death to the request that
was executing when the thread died (see
:meth:`repro.serve.pool.WorkerPool._on_worker_death`).  One crash is
noise — the worker respawns and the caller gets a typed
:class:`~repro.errors.WorkerCrash`.  But the *same request* killing
workers repeatedly is a poison query: retried by a well-meaning client it
would grind every respawned worker down in turn.  The :class:`Quarantine`
counts kills per request **fingerprint** and, at the threshold (default
2), blocks the fingerprint at admission for a TTL — the serving layer
answers a typed 422 :class:`~repro.errors.PoisonQuery` while unrelated
requests keep executing on the respawned capacity.

Fingerprints hash the semantic identity of a request — catalog, query
text, frontend, backend — and deliberately exclude the budget fields:
retrying a crasher with a different ``timeout_ms`` is the same poison.
Release is lazy: the first admission check after the TTL expires drops
the entry (and its kill count — the query earns a clean slate), so no
background thread is needed.
"""

from __future__ import annotations

import hashlib
import threading
import time

#: Worker deaths attributed to one fingerprint before it is quarantined.
DEFAULT_POISON_THRESHOLD = 2

#: Seconds a quarantined fingerprint stays blocked before lazy release.
DEFAULT_QUARANTINE_TTL_S = 300.0


def poison_fingerprint(catalog, query, frontend, backend):
    """A stable hex fingerprint of a request's semantic identity.

    Budget fields (``timeout_ms`` / ``max_rows``) are excluded on
    purpose: they change what the request is *allowed* to cost, not what
    it executes.  The identity's ``repr`` is the hashed text: each field
    is a str or None, whose repr is stable and escapes lone surrogates.
    """
    blob = repr((catalog, query, frontend, backend)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Quarantine:
    """Kill counts and TTL-blocked fingerprints (thread-safe).

    ``note_kill`` is called by the supervisor on the dying worker's
    thread; ``blocked`` is called at admission under the pool lock.  The
    quarantine takes only its own lock and never calls back into the
    pool, so the pool-lock → quarantine-lock order can't deadlock.
    """

    def __init__(self, threshold=DEFAULT_POISON_THRESHOLD,
                 ttl_s=DEFAULT_QUARANTINE_TTL_S, *, clock=time.monotonic):
        self.threshold = max(1, threshold)
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._kills = {}    # fingerprint -> worker deaths attributed
        self._blocked = {}  # fingerprint -> monotonic expiry
        #: Fingerprints ever quarantined / released (monotonic counters).
        self.quarantined_total = 0
        self.released_total = 0

    def note_kill(self, fingerprint):
        """Attribute one worker death; True when this kill quarantines."""
        if fingerprint is None:
            return False
        with self._lock:
            kills = self._kills.get(fingerprint, 0) + 1
            self._kills[fingerprint] = kills
            if kills >= self.threshold and fingerprint not in self._blocked:
                self._blocked[fingerprint] = self._clock() + self.ttl_s
                self.quarantined_total += 1
                return True
        return False

    def blocked(self, fingerprint):
        """Remaining quarantine seconds for *fingerprint*, or None.

        Expired entries release lazily here: the fingerprint and its kill
        count both drop, so a released query must re-offend
        ``threshold`` times before it is quarantined again.
        """
        if fingerprint is None:
            return None
        with self._lock:
            expiry = self._blocked.get(fingerprint)
            if expiry is None:
                return None
            remaining = expiry - self._clock()
            if remaining <= 0:
                del self._blocked[fingerprint]
                self._kills.pop(fingerprint, None)
                self.released_total += 1
                return None
            return remaining

    def snapshot(self):
        """The ``/stats`` quarantine block (lazily releasing the expired)."""
        with self._lock:
            fingerprints = list(self._blocked)
        for fingerprint in fingerprints:
            self.blocked(fingerprint)  # drop the expired
        with self._lock:
            now = self._clock()
            entries = [
                {
                    "fingerprint": fingerprint,
                    "remaining_s": round(expiry - now, 3),
                }
                for fingerprint, expiry in sorted(self._blocked.items())
            ]
            return {
                "size": len(self._blocked),
                "threshold": self.threshold,
                "ttl_s": self.ttl_s,
                "quarantined_total": self.quarantined_total,
                "released_total": self.released_total,
                "entries": entries,
            }

    def __len__(self):
        with self._lock:
            return len(self._blocked)

    def __repr__(self):
        return (
            f"Quarantine(size={len(self)}, threshold={self.threshold}, "
            f"ttl_s={self.ttl_s})"
        )

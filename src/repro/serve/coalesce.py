"""In-flight request coalescing (singleflight).

When N identical requests are in flight at once, executing the query N
times is pure waste: PR 4 made response bodies **byte-identical** for
identical requests, so one execution's serialized body can answer all N.
The :class:`Coalescer` keys in-flight work on the full request identity —
``(catalog, query, frontend, backend, timeout_ms, max_rows)`` at the HTTP
layer — and folds followers onto the leader:

* the **first** caller to :meth:`Coalescer.join` a key becomes the
  *leader*: it executes the request and MUST :meth:`Coalescer.publish`
  the outcome (success or error) exactly once, **even if it crashes** —
  the serving layer publishes in a ``finally`` and substitutes a typed
  500 when the leader died before producing an outcome (exercised by the
  ``pool.leader`` failpoint), so followers are never stranded waiting on
  a flight whose leader is gone;
* every **subsequent** caller while that key is in flight becomes a
  *follower*: it blocks on the entry and receives the leader's outcome
  verbatim (the serving layer adds an ``X-Arc-Coalesced: 1`` header).

``publish`` removes the key *before* waking followers, so a request
arriving after publication starts a fresh flight — coalescing only ever
merges genuinely concurrent work and never serves stale results.

The coalescer stores outcomes opaquely; it never inspects them.  All
state transitions happen under one lock; the uncontended ``join`` is a
dict get + insert, and a flight no follower joins builds no Event.
"""

from __future__ import annotations

import threading


class InFlight:
    """One in-flight execution: the outcome it publishes, and a latch its
    followers wait on.

    Most flights have no follower, so the latch (an Event) is built only
    when the first one joins, under the coalescer's lock; :meth:`resolve`
    runs after the flight left the map, when no follower can still join.
    """

    __slots__ = ("outcome", "followers", "_done")

    def __init__(self):
        self.outcome = None
        self.followers = 0
        self._done = None

    def follow(self):
        """Count one follower (caller holds the coalescer's lock)."""
        self.followers += 1
        if self._done is None:
            self._done = threading.Event()

    def wait(self, timeout=None):
        """Block until the leader publishes; the outcome, or None on timeout."""
        if not self._done.wait(timeout):
            return None
        return self.outcome

    def resolve(self, outcome):
        self.outcome = outcome
        if self._done is not None:
            self._done.set()


class Coalescer:
    """Fold concurrent identical requests into one execution."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = {}
        #: Requests answered from another request's execution (monotonic).
        self.coalesced_total = 0
        #: Leader flights started (monotonic) — for hit-rate accounting.
        self.flights_total = 0

    def join(self, key):
        """Enter the flight for *key*: ``(entry, leader)``.

        The leader executes and must ``publish(key, outcome)`` exactly
        once (use ``try/finally``); followers ``entry.wait(timeout)``.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = self._inflight[key] = InFlight()
                self.flights_total += 1
                return entry, True
            entry.follow()
            self.coalesced_total += 1
            return entry, False

    def publish(self, key, outcome):
        """Resolve the flight for *key*, waking every follower.

        The key leaves the in-flight map before followers wake, so new
        arrivals start a fresh execution instead of reading a completed
        one.
        """
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.resolve(outcome)

    @property
    def inflight(self):
        """Distinct keys currently executing."""
        with self._lock:
            return len(self._inflight)

    def __repr__(self):
        return (
            f"Coalescer(inflight={self.inflight}, "
            f"coalesced={self.coalesced_total})"
        )

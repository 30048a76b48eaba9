"""Deterministic fault injection for chaos testing the serving path.

A *failpoint* is a named site in the execution stack that can be armed to
raise a configured exception when reached.  The chaos suite
(``tests/api/test_chaos_env.py`` and the fault-injection tests) arms them to
prove a robustness invariant: **every injected fault yields either a clean
planner fallback (differentially equal to the reference oracle) or a typed
error — never a hang and never a wrong answer.**

Sites (see :data:`SITES`):

==================  =====================================================
``sqlite.connect``  before a SQLite connection is created/reused
``catalog.load``    inside the catalog table loader
``sql.render``      before an ARC node is rendered to SQL text
``sqlite.execute``  inside the execute-with-retry loop (per attempt)
``pool.worker``     inside a pool worker's job loop, *outside* the
                    per-job exception fence — an armed fault escapes the
                    loop and kills the worker thread (drives the
                    supervisor's respawn and poison-quarantine paths)
``pool.leader``     on a coalescing leader between submitting its job and
                    collecting the outcome (drives the publish-or-fail
                    guarantee toward waiting followers)
==================  =====================================================

Spec grammar: ``kind[*count][:message]``

* ``locked`` — ``sqlite3.OperationalError("database is locked")``: a
  *transient* fault; the retry loop in
  :mod:`repro.backends.exec.sqlite_exec` absorbs up to its attempt budget.
* ``error`` — a non-transient ``sqlite3.OperationalError``: not retried;
  surfaces as ``BackendUnsupported`` and takes the planner fallback.
* ``unsupported`` — ``BackendUnsupported`` directly (capability-style
  refusal at runtime).
* ``boom`` — ``RuntimeError``: an untyped infrastructure fault, for
  exercising the defensive 500 path and the circuit breaker.
* ``*count`` — fire only for the first *count* hits, then pass (drives
  retry-then-succeed paths deterministically).
* ``:message`` — override the exception message.

Activation: the API below, or the ``REPRO_FAILPOINTS`` environment
variable read at import (comma-separated ``site=spec`` entries), e.g.::

    REPRO_FAILPOINTS='sqlite.execute=locked*2,catalog.load=unsupported'

Everything is process-local, deterministic, and free of side effects when
no failpoint is armed: :func:`hit` on an un-armed site is one dict lookup.
Armed sites are hit from concurrent pool workers, so the counted decrement
of ``kind*N`` specs happens under a lock: exactly N hits fire no matter
how many threads race the site (pinned by the thread-safety suite).
"""

from __future__ import annotations

import os
import threading
from collections import Counter

from ..errors import ArcError

#: The instrumented sites, in execution order.
SITES = (
    "sqlite.connect",
    "catalog.load",
    "sql.render",
    "sqlite.execute",
    "pool.worker",
    "pool.leader",
)

#: Spec kinds and the exception each one raises (see :func:`_raise`).
KINDS = ("locked", "error", "unsupported", "boom")

#: site -> [kind, remaining-or-None, message-or-None] (mutable: remaining
#: decrements per hit for count-limited specs).
_ACTIVE = {}

#: Guards _ACTIVE mutations and the counted decrement in :func:`hit`
#: (reentrant: configure() arms sites while already holding it).
_LOCK = threading.RLock()

#: Observability: hits per armed site (including pass-through hits after a
#: count-limited spec is exhausted).
hits = Counter()


class FailpointError(ArcError):
    """A failpoint was configured with an unknown site or malformed spec."""


def parse_spec(text):
    """Parse ``kind[*count][:message]`` into ``(kind, count, message)``."""
    head, sep, message = text.partition(":")
    message = message if sep else None
    kind, sep, count_text = head.partition("*")
    count = None
    if sep:
        try:
            count = int(count_text)
        except ValueError:
            raise FailpointError(
                f"failpoint count must be an integer, got {count_text!r}"
            ) from None
        if count <= 0:
            raise FailpointError(f"failpoint count must be positive, got {count}")
    if kind not in KINDS:
        raise FailpointError(
            f"unknown failpoint kind {kind!r}; choose from {KINDS}"
        )
    return kind, count, message


def activate(site, spec):
    """Arm *site* with *spec* (``kind[*count][:message]``), replacing any
    previous arming of the same site."""
    if site not in SITES:
        raise FailpointError(f"unknown failpoint site {site!r}; sites: {SITES}")
    kind, count, message = parse_spec(spec)
    with _LOCK:
        _ACTIVE[site] = [kind, count, message]


def reset():
    """Disarm every failpoint and clear the hit counters."""
    with _LOCK:
        _ACTIVE.clear()
        hits.clear()


def active():
    """Snapshot of the armed sites: ``{site: "kind[*remaining][:message]"}``."""
    out = {}
    with _LOCK:
        entries = {site: list(spec) for site, spec in _ACTIVE.items()}
    for site, (kind, remaining, message) in entries.items():
        spec = kind
        if remaining is not None:
            spec += f"*{remaining}"
        if message is not None:
            spec += f":{message}"
        out[site] = spec
    return out


def configure(text):
    """Arm failpoints from a ``site=spec,site=spec`` string (env format).

    Replaces the whole active set; an empty/None *text* disarms everything.
    """
    with _LOCK:
        _ACTIVE.clear()
        for entry in (text or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            site, sep, spec = entry.partition("=")
            if not sep:
                raise FailpointError(
                    f"failpoint entry must be site=spec, got {entry!r}"
                )
            activate(site.strip(), spec.strip())


def load_env(environ=None):
    """(Re)load the active set from ``REPRO_FAILPOINTS``."""
    environ = os.environ if environ is None else environ
    configure(environ.get("REPRO_FAILPOINTS", ""))


def _raise(kind, message, site):
    import sqlite3

    if kind == "locked":
        raise sqlite3.OperationalError(message or "database is locked")
    if kind == "error":
        raise sqlite3.OperationalError(
            message or f"injected non-transient fault at {site}"
        )
    if kind == "unsupported":
        # Imported lazily: util must stay import-light and the registry
        # defines BackendUnsupported before it imports the sqlite engine,
        # so this cannot cycle.
        from ..backends.exec.registry import BackendUnsupported

        raise BackendUnsupported(message or f"injected failpoint at {site}")
    raise RuntimeError(message or f"injected fault at {site}")


def hit(site):
    """Reach *site*: raise its armed fault, or return None.

    Count-limited specs (``kind*N``) fire for their first N hits and pass
    afterwards; the site stays listed in :func:`active` with the remaining
    count so tests can assert consumption.  The decrement happens under
    the module lock, so concurrent workers hammering one site consume
    exactly N firings between them; the un-armed fast path stays a single
    lock-free dict lookup.
    """
    if _ACTIVE.get(site) is None:
        return None
    with _LOCK:
        spec = _ACTIVE.get(site)  # re-read: configure()/reset() may race
        if spec is None:
            return None
        hits[site] += 1
        kind, remaining, message = spec
        if remaining is not None:
            if remaining <= 0:
                return None
            spec[1] = remaining - 1
    _raise(kind, message, site)
    return None  # pragma: no cover - _raise always raises


# Arm from the environment at import: `REPRO_FAILPOINTS=... repro serve`
# (and the CI chaos matrix) work without any code change.
load_env()

"""Host-speed probe: a fixed unit of interpreter and SQLite work, timed.

The benchmark's host runs the same single-threaded work at two speeds,
~1.6x apart, in phases from a second to minutes long; a whole run may sit
in a slow phase.  The in-process requests and every set-up are CPU-bound
Python and SQLite work, so their times follow those phases.  :func:`probe`
times a unit of the same kind of work that uses no code of the repo, so
its time moves with the host alone; ``NOMINAL_MS / probe()`` rescales a
latency measured next to the probe to the host's usual (fast) speed.

On a 2-CPU container (py3.11) the probe reads 3.2-3.5 ms in fast phases
and ~5.6 ms in slow ones, and the ratio of a slice's median request
latency to the probe next to it varies ten times less from run to run
than the latency itself.
"""

from __future__ import annotations

import re
import sqlite3
import statistics
import time

#: The probe's time at this host's usual speed; a rescaled latency reads
#: as the latency the host gives at that speed.
NOMINAL_MS = 3.2

_TEXT = " ".join(
    f"select a{i}.x, b{i}.y from t{i} a{i} join u{i} b{i} "
    f"on a{i}.k = b{i}.k where a{i}.z > {i}"
    for i in range(40)
)
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
_REPEATS = 5
_UNITS = 4

_CONN = sqlite3.connect(":memory:")
_CONN.execute("CREATE TABLE t(a, b)")
_CONN.executemany("INSERT INTO t VALUES (?, ?)", [(i % 97, i) for i in range(2000)])


def _unit():
    counts = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = frozenset([tuple(item) for item in ranked] * 5)
    groups = _CONN.execute("SELECT a, count(*), sum(b) FROM t GROUP BY a").fetchall()
    return len(rows) + len(groups)


def probe():
    """Milliseconds for ``_UNITS`` units, the median of ``_REPEATS`` timings."""
    times = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        for _ in range(_UNITS):
            _unit()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def factor(before_ms, after_ms):
    """The rescaling factor for work timed between two probes."""
    return NOMINAL_MS / ((before_ms + after_ms) / 2)

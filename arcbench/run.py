"""ARC request benchmark: one workload, one seed, one measured run.

    python3 arcbench/run.py --workload serve-warm --seed 1 --seconds 24 --trace 0

Sends the requests real callers send through the two public surfaces —
``POST /query`` on a ``repro serve --workers 2`` subprocess, and
``Session.prepare(text, frontend).run_info(backend=...)`` in process, the
call the server's worker makes — as a closed loop (each client waits for
its answer before sending the next request) from this one process, with at
most ``nproc`` client threads and connections.  Every answer is checked
against the expected answers :mod:`oracle` computes before set-up.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``p50_ms``, ``p99_ms`` and ``throughput_rps`` over the faster half of the
run's windows (see :meth:`Tally.fast_half`); ``setup_s``, the
median of ``SETUPS`` cold set-ups (server spawn or Session build, catalog
load, warm-up; the oracle runs before and is not counted); and
``peak_rss_mb`` of the process that holds the system (the server
subprocess for ``serve-warm``).  The in-process workloads run in
``SPEED_SLICE_S`` slices between :mod:`speed` probes and report their
times rescaled to the host's usual speed (see :func:`run_rescaled`), and
every set-up is rescaled by the probes on either side of it; the record
line keeps the raw figures and the factors.  ``serve-warm`` requests are
not rescaled: their time is mostly the server's keep-alive stall, a
timer that does not follow the host's speed.
``--trace 1`` spends half of ``--seconds`` untraced and half with the
:mod:`spans` wrappers installed — in alternating half-second slices in
process, and on a second server started with the wrappers for
``serve-warm`` — and reports the per-layer metrics and the trace overhead
(traced ``p50_ms`` minus untraced ``p50_ms``).

The last line of stdout is the result object the contract asks for; the
line before it, ``arcbench-record {...}``, records the commit, ``nproc``,
Python version, seed, sample count and error share of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

perf_counter = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUPS = 5

#: Client threads (and connections) for serve-warm, capped at ``nproc``.
MAX_CLIENTS = 2

#: ``repro serve --workers``.
SERVE_WORKERS = 2

#: Warm-up rounds allowed until every text has run on every server worker.
WARMUP_ROUNDS = 40

#: The end-to-end metrics pool the faster half of the run's windows of
#: this length (see :meth:`Tally.fast_half`).
WINDOW_S = 1.0
MIN_WINDOWS = 8
MIN_POOLED = 1000

#: Length of each untraced and each traced slice of an in-process trace run.
TRACE_SLICE_S = 0.5

#: Length of each slice between two host-speed probes of an in-process run.
SPEED_SLICE_S = 0.5

#: Bound on any single wait for the server (start-up, one answer, drain).
SERVER_WAIT_S = 60.0

_HEADERS = {"Content-Type": "application/json"}


class BenchmarkError(Exception):
    """The run cannot produce a valid measurement."""


# -- small helpers -----------------------------------------------------------


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def percentile(values, q):
    """The q-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def expected_answers(workload_name, seed, clients):
    """Run :mod:`oracle` in a child process: key -> canonical answer."""
    import oracle

    done = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), "--workload", workload_name,
         "--seed", str(seed), "--clients", str(clients)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"oracle failed:\n{done.stderr}")
    return {key: oracle.from_json(obj) for key, obj in json.loads(done.stdout).items()}


class Tally:
    """What the closed-loop clients of one run saw."""

    def __init__(self):
        #: (completed at, latency ms, seconds spent checking the answer)
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.followers = 0
        self.started = self.ended = perf_counter()
        self.clients = 1
        #: ``[(samples, seconds)]`` when the run was cut into its own
        #: windows (see :func:`run_rescaled`); else ``WINDOW_S`` windows.
        self.windows = None

    @property
    def latencies_ms(self):
        return [latency for _, latency, _ in self.samples]

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @staticmethod
    def merge(tallies):
        total = Tally()
        for tally in tallies:
            total.samples += tally.samples
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.errors += tally.errors[: 5 - len(total.errors)]
            total.followers += tally.followers
        total.started = min(tally.started for tally in tallies)
        total.ended = max(tally.ended for tally in tallies)
        return total

    def _time_windows(self):
        count = int((self.ended - self.started) // WINDOW_S)
        if count < MIN_WINDOWS:
            return [(self.samples, self.ended - self.started)]
        windows = [[] for _ in range(count)]
        for sample in self.samples:
            index = int((sample[0] - self.started) // WINDOW_S)
            if index < count:
                windows[index].append(sample)
        return [(window, WINDOW_S) for window in windows]

    def fast_half(self):
        """``(p50 ms, p99 ms, requests/s, requests pooled)`` over the
        faster half of the run.

        The run is cut into windows (``WINDOW_S`` long, unless it was cut
        already), ranked by each window's median latency; the requests of
        the fastest half of them (more, if needed to reach ``MIN_POOLED``
        requests, so that ten lie beyond ``p99``) are pooled.  The host's
        speed drifts in phases of 1 s to minutes, the slow ones ~60 %
        slower for the same work; the faster half drops the windows of slow
        phases or, in a rescaled run, those that straddle a change of
        phase.  Throughput excludes the generator's
        own answer checks.  A run of fewer than ``MIN_WINDOWS`` windows is
        pooled whole.
        """
        windows = [w for w in (self.windows or self._time_windows()) if w[0]]
        if len(windows) >= MIN_WINDOWS:
            windows.sort(key=lambda w: percentile([s[1] for s in w[0]], 0.5))
            keep = max(1, len(windows) // 2)
            while keep < len(windows) and sum(len(w[0]) for w in windows[:keep]) < MIN_POOLED:
                keep += 1
            windows = windows[:keep]
        pooled = [sample for samples, _ in windows for sample in samples]
        spent = sum(seconds for _, seconds in windows)
        spent -= sum(sample[2] for sample in pooled) / self.clients
        latencies = [sample[1] for sample in pooled]
        return (percentile(latencies, 0.5), percentile(latencies, 0.99),
                len(pooled) / spent, len(pooled))


# -- in-process workloads --------------------------------------------------------


def _session_call(sessions, request):
    session = sessions[request.catalog]
    return session.prepare(request.text, request.frontend).run_info(
        backend=request.backend
    )


def setup_sessions(workload, expected):
    """Fresh catalogs and Sessions, cold SQLite caches, then the warm-up."""
    from repro.api import EvalOptions, Session
    from repro.backends.exec import reset_breakers
    from repro.backends.exec.sqlite_exec import clear_catalog_cache
    from oracle import canonical
    from workloads import conventions

    started = perf_counter()
    clear_catalog_cache()
    reset_breakers()
    sessions = {
        name: Session(db, conventions(kind), options=EvalOptions())
        for name, (db, kind) in workload.catalogs().items()
    }
    for request in workload.warmup():
        answer = canonical(_session_call(sessions, request)["result"])
        if answer != expected[request.key]:
            raise BenchmarkError(f"warm-up answer for {request.key} differs from the oracle")
    return sessions, perf_counter() - started


def run_sessions(workload, sessions, stream, seconds, expected, recorder=None):
    """The single-client closed loop over *stream* for *seconds*."""
    from workloads import Request
    from oracle import canonical

    tally = Tally()
    records = []
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline:
        op = next(stream)
        if not isinstance(op, Request):
            workload.apply_write(op, sessions[op.catalog].database)
            continue
        tally.attempted += 1
        record = recorder.begin() if recorder is not None else None
        sent = perf_counter()
        try:
            info = _session_call(sessions, op)
        except Exception as exc:  # typed refusals and defects both fail the request
            tally.fail(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        finally:
            done = perf_counter()
            if recorder is not None:
                recorder.end()
        if record is not None:
            record.latency_ms = (done - sent) * 1e3
            records.append(record)
        if canonical(info["result"]) != expected[op.key]:
            tally.fail(f"{op.key}: answer differs from the oracle")
        tally.samples.append((done, (done - sent) * 1e3, perf_counter() - done))
    tally.started, tally.ended = started, perf_counter()
    return tally, records


def run_rescaled(workload, sessions, stream, seconds, expected):
    """:func:`run_sessions` in ``SPEED_SLICE_S`` slices, a :mod:`speed`
    probe between each two; ``(tally, speed factors)``.

    Each slice is one window of the tally, its latencies and seconds
    multiplied by the factor of the probes on either side: the times the
    host gives at its usual speed.  ``tally.samples`` keeps the raw ones.
    """
    import speed

    slices, factors = [], []
    before = speed.probe()
    deadline = perf_counter() + seconds
    while (left := deadline - perf_counter()) > 0:
        tally, _ = run_sessions(
            workload, sessions, stream, min(SPEED_SLICE_S, left), expected
        )
        after = speed.probe()
        factor = speed.factor(before, after)
        before = after
        slices.append(tally)
        factors.append(factor)
    total = Tally.merge(slices)
    total.windows = [
        ([(done, latency * factor, check * factor)
          for done, latency, check in tally.samples],
         (tally.ended - tally.started) * factor)
        for tally, factor in zip(slices, factors)
    ]
    return total, factors


def measure_sessions(workload, seconds, trace):
    import speed
    from spans import Recorder, layer_metrics

    expected = expected_answers(workload.name, workload.seed, 1)
    setup_times, raw_setup_times = [], []
    sessions = None
    for _ in range(SETUPS):
        if sessions is not None:
            for session in sessions.values():
                session.close()
        before = speed.probe()
        sessions, elapsed = setup_sessions(workload, expected)
        setup_times.append(elapsed * speed.factor(before, speed.probe()))
        raw_setup_times.append(elapsed)
    stream = workload.stream()
    gc.collect()
    out = {"setup_s": setup_times, "raw_setup_s": raw_setup_times,
           "clients": 1, "peak_connections": 0}
    if not trace:
        out["tally"], out["speed_factors"] = run_rescaled(
            workload, sessions, stream, seconds, expected
        )
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out
    # Untraced and traced slices alternate, so drift in machine speed
    # shows in both halves alike and not in the trace overhead.
    timed, traced, records = [], [], []
    recorder = Recorder()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        tally, _ = run_sessions(workload, sessions, stream, TRACE_SLICE_S, expected)
        timed.append(tally)
        recorder.install()
        try:
            tally, slice_records = run_sessions(
                workload, sessions, stream, TRACE_SLICE_S, expected, recorder
            )
        finally:
            recorder.uninstall()
        traced.append(tally)
        records += slice_records
    out["timed"], out["traced"] = Tally.merge(timed), Tally.merge(traced)
    out["tally"] = Tally.merge([out["timed"], out["traced"]])
    out["layers"] = layer_metrics(records, http=False)
    return out


# -- serve-warm ------------------------------------------------------------------


def write_catalogs(catalogs, directory):
    """CSV files for the server; ``--db`` / ``--catalog`` flags.

    Reads every file back and requires it to equal the generated relation,
    so the server's catalogs are exactly the ones the oracle evaluates.
    """
    from repro.data.csvio import read_csv, write_csv

    flags = []
    for name, (db, _) in catalogs.items():
        specs = []
        for rel_name in db.names():
            path = directory / f"{name}.{rel_name}.csv"
            write_csv(db[rel_name], str(path))
            if read_csv(str(path), rel_name) != db[rel_name]:
                raise BenchmarkError(f"{name}.{rel_name} does not survive CSV")
            specs.append(f"{path}:{rel_name}")
        if name == "default":
            for spec in specs:
                flags += ["--db", spec]
        else:
            flags += ["--catalog", f"{name}=" + ",".join(specs)]
    return flags


class Server:
    """A ``repro serve`` subprocess (optionally with the span wrappers)."""

    def __init__(self, flags, *, traced):
        program = [str(HERE / "serve_traced.py")] if traced else ["-m", "repro", "serve"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, *program, "--port", "0", "--conventions", "sql",
             "--workers", str(SERVE_WORKERS), *flags],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_WAIT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.kill()
            raise BenchmarkError(f"server did not start: {line!r}")
        url = line.split()[2]
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM for the server process")

    def stop(self):
        """SIGTERM (drain), then wait; the server's remaining stdout."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=SERVER_WAIT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError("server did not drain") from None
        if self.proc.returncode != 0:
            raise BenchmarkError(f"server exited {self.proc.returncode}")
        return out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class Connections:
    """Counts the generator's open connections; keeps the peak."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self._lock = threading.Lock()
        self.open = 0
        self.peak = 0

    def connect(self):
        with self._lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
        return http.client.HTTPConnection(self.host, self.port, timeout=SERVER_WAIT_S)

    def close(self, conn):
        conn.close()
        with self._lock:
            self.open -= 1


def _payload(request):
    body = {"query": request.text, "frontend": request.frontend, "backend": request.backend}
    if request.catalog != "default":
        body["catalog"] = request.catalog
    return json.dumps(body).encode("utf-8")


def _post(conn, payload):
    conn.request("POST", "/query", payload, _HEADERS)
    response = conn.getresponse()
    return response, response.read()


def _answer_ok(response, body, expected):
    from oracle import canonical_body

    return response.status == 200 and canonical_body(json.loads(body)) == expected


def _run_threads(targets):
    """Run each target on its own thread; re-raise the first failure."""
    failures = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # reported on the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise BenchmarkError(f"client thread failed: {failures[0]!r}") from failures[0]
    return len(threads)


def warm_server(workload, expected, gauge):
    """Send every text until it has run on every worker.

    Each warm-up request uses its own connection: a fresh connection is
    answered without the keep-alive stall, so warming costs milliseconds.
    """
    seen = {req.key: set() for reqs in workload.client_requests for req in reqs}
    problems = []

    def client(requests):
        for request in requests:
            conn = gauge.connect()
            try:
                response, body = _post(conn, _payload(request))
            finally:
                gauge.close(conn)
            if not _answer_ok(response, body, expected[request.key]):
                problems.append(request.key)
            seen[request.key].add(response.getheader("X-Arc-Worker"))

    for _ in range(WARMUP_ROUNDS):
        _run_threads([
            (lambda reqs=reqs: client(reqs)) for reqs in workload.client_requests
        ])
        if problems:
            raise BenchmarkError(f"warm-up answers differ from the oracle: {problems}")
        if all(len(workers) >= SERVE_WORKERS for workers in seen.values()):
            return True
    return False


def setup_server(flags, workload, expected, *, traced):
    started = perf_counter()
    server = Server(flags, traced=traced)
    try:
        gauge = Connections(server.host, server.port)
        covered = warm_server(workload, expected, gauge)
    except BaseException:
        server.kill()
        raise
    return server, gauge, covered, perf_counter() - started


def run_http(workload, gauge, seconds, expected, query_ids=None):
    """Closed loop: each client thread cycles its texts on one keep-alive
    connection; latency runs from the send to the last body byte."""
    from oracle import canonical_body

    tallies = [Tally() for _ in workload.client_requests]
    barrier = threading.Barrier(len(tallies))
    lock = threading.Lock()

    def client(tally, requests):
        items = [(request, _payload(request)) for request in requests]
        conn = gauge.connect()
        barrier.wait()
        started = perf_counter()
        deadline = started + seconds
        index = 0
        while perf_counter() < deadline:
            request, payload = items[index % len(items)]
            index += 1
            tally.attempted += 1
            sent = perf_counter()
            try:
                response, body = _post(conn, payload)
            except (OSError, http.client.HTTPException) as exc:
                tally.fail(f"{request.key}: {type(exc).__name__}: {exc}")
                gauge.close(conn)
                conn = gauge.connect()
                continue
            done = perf_counter()
            latency_ms = (done - sent) * 1e3
            if query_ids is not None:
                with lock:
                    query_ids[response.getheader("X-Arc-Query-Id")] = latency_ms
            if response.getheader("X-Arc-Coalesced"):
                tally.followers += 1
            if response.status != 200:
                tally.fail(f"{request.key}: HTTP {response.status}: {body[:200]!r}")
            elif canonical_body(json.loads(body)) != expected[request.key]:
                tally.fail(f"{request.key}: answer differs from the oracle")
            tally.samples.append((done, latency_ms, perf_counter() - done))
        tally.started, tally.ended = started, perf_counter()
        gauge.close(conn)

    threads = _run_threads([
        (lambda t=tally, r=requests: client(t, r))
        for tally, requests in zip(tallies, workload.client_requests)
    ])
    total = Tally.merge(tallies)
    total.clients = len(tallies)
    return total, threads


def measure_serve(workload, seconds, trace):
    import speed
    from spans import Record, layer_metrics

    clients = len(workload.client_requests)
    scratch = ROOT / ".arcbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        flags = write_catalogs(workload.catalogs(), scratch)
        expected = expected_answers(workload.name, workload.seed, clients)
        setup_times, raw_setup_times = [], []
        server = None
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            before = speed.probe()
            server, gauge, covered, elapsed = setup_server(
                flags, workload, expected, traced=False
            )
            setup_times.append(elapsed * speed.factor(before, speed.probe()))
            raw_setup_times.append(elapsed)
        out = {"setup_s": setup_times, "raw_setup_s": raw_setup_times,
               "clients": clients, "warm_covered": covered}
        try:
            tally, threads = run_http(
                workload, gauge, seconds / 2 if trace else seconds, expected
            )
            out["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        out["threads"] = threads
        out["peak_connections"] = gauge.peak
        if not trace:
            out["tally"] = tally
            return out
        traced_server, gauge, covered, _ = setup_server(
            flags, workload, expected, traced=True
        )
        query_ids = {}
        try:
            traced, threads = run_http(workload, gauge, seconds / 2, expected, query_ids)
        finally:
            dump = traced_server.stop()
        out["threads"] = max(out["threads"], threads)
        out["peak_connections"] = max(out["peak_connections"], gauge.peak)
        line = next(
            (l for l in dump.splitlines() if l.startswith("arcbench-trace ")), None
        )
        if line is None:
            raise BenchmarkError("the traced server printed no trace")
        records = []
        for data in json.loads(line[len("arcbench-trace "):]):
            record = Record.from_dict(data)
            record.latency_ms = query_ids.get(record.query_id)
            if record.latency_ms is not None:
                records.append(record)
        out["tally"] = Tally.merge([tally, traced])
        out["timed"], out["traced"] = tally, traced
        out["layers"] = layer_metrics(records, http=True)
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass


# -- reporting ---------------------------------------------------------------


def measure(name, seed, seconds, trace):
    from workloads import build

    workload = build(name, seed, min(MAX_CLIENTS, nproc()))
    if name == "serve-warm":
        return measure_serve(workload, seconds, trace)
    return measure_sessions(workload, seconds, trace)


def report(args, out, contract):
    """The record line and the result object (the last stdout line)."""
    tally = out["tally"]
    names = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in names}
    if args.trace:
        values = dict(out["layers"])
        timed_p50 = percentile(out["timed"].latencies_ms, 0.5)
        traced_p50 = percentile(out["traced"].latencies_ms, 0.5)
        values["trace.overhead_ms"] = traced_p50 - timed_p50
    else:
        p50, p99, rate, pooled = tally.fast_half()
        values = {
            "p50_ms": p50,
            "p99_ms": p99,
            "throughput_rps": rate,
            "setup_s": statistics.median(out["setup_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    if set(values) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "clients": out["clients"],
        "client_threads": out.get("threads", 1),
        "peak_connections": out["peak_connections"],
        "samples": len(tally.latencies_ms),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "errors": tally.errors,
        "coalesced_followers": tally.followers,
        "setup_s_each": out["setup_s"],
    }
    if not args.trace:
        record["pooled_samples"] = pooled
    if "raw_setup_s" in out:
        record["raw_setup_s_each"] = out["raw_setup_s"]
    if "speed_factors" in out:
        factors = out["speed_factors"]
        record["speed_factor_median"] = statistics.median(factors)
        record["speed_factor_range"] = [min(factors), max(factors)]
        record["raw_p50_ms"] = percentile(tally.latencies_ms, 0.5)
        record["raw_p99_ms"] = percentile(tally.latencies_ms, 0.99)
    if "warm_covered" in out:
        record["warm_covered"] = out["warm_covered"]
    if args.trace:
        record["timed_p50_ms"] = timed_p50
        record["traced_p50_ms"] = traced_p50
        record["attributed_frac"] = values["trace.attributed_frac"]
        record["unattributed_frac"] = values["trace.unattributed_frac"]
        if args.workload == "serve-warm":
            record["unaccounted_share_of_p50"] = (
                values["http.unaccounted_ms"] / traced_p50 if traced_p50 else 0.0
            )
    problems = []
    limit = nproc()
    if record["client_threads"] > limit or record["peak_connections"] > limit:
        problems.append(f"load shape exceeds nproc={limit}")
    if args.workload == "serve-warm" and tally.followers:
        problems.append(f"{tally.followers} coalesced followers on serve-warm")
    record["load_shape_ok"] = not problems
    print("arcbench-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(values.items())
        },
    }
    print(json.dumps(result), flush=True)
    for problem in problems:
        print(f"arcbench: {problem}", file=sys.stderr)
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"arcbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"arcbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"arcbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = load_contract()
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"arcbench: {exc}", file=sys.stderr)
        return 1
    return report(args, out, contract)


if __name__ == "__main__":
    sys.exit(main())

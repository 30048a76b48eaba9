"""Self-test of the benchmark at a tiny run length (about a minute).

    python3 arcbench/selftest.py

Checks that

* ``BENCHMARK.json`` keeps the contract's shape and ``layers.json`` maps
  exactly its per-layer metrics;
* one ``run.py`` command per workload (including those left out of
  ``BENCHMARK.json``) prints every end-to-end metric by name with its
  unit, and the traced run every per-layer metric;
* the oracle check fails on a deliberately wrong expected answer;
* the closed-form chain oracles agree with the reference backend;
* ``run.py`` exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_contract(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(contract)
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(_NAME.match(name) for name in names), names
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in contract["workloads"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert 1 <= contract["run_seconds"] <= 60
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
    assert [row["metric"] for row in layers] == [m["name"] for m in contract["per_layer"]]


def run_bench(workload, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "arcbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done


def check_run(workload, trace, contract):
    done = run_bench(workload, trace)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == units, (workload, trace, sorted(set(got) ^ set(units)))
    record = json.loads(lines[-2].split(" ", 1)[1])
    for field in ("commit", "nproc", "python", "seed", "samples", "error_frac"):
        assert field in record, field
    return result


def check_wrong_oracle():
    """Corrupt one expected answer that only the timed stream asks for."""
    import run

    real = run.expected_answers

    def corrupted(*args):
        answers = real(*args)
        answers["5:eq_lateral"] = ("truth", "FALSE")
        return answers

    run.expected_answers = corrupted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "session-write", "--seed", "7",
                             "--seconds", "1", "--trace", "0"])
    finally:
        run.expected_answers = real
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0 and not result["correct"] and result["failed"] > 0, result


def check_chain_oracles():
    from oracle import canonical, chain_count, chain_out
    from repro.api import EvalOptions, Session
    from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
    from repro.data import generators
    from repro.workloads import sweeps
    from repro.backends.comprehension import render
    from workloads import chain_count_text

    for seed in range(3):
        db = generators.chain_database(4, 9, domain=4, seed=seed)
        for conventions, text, oracle in (
            (SQL_CONVENTIONS, chain_count_text(4), chain_count),
            (SET_CONVENTIONS, render(sweeps.join_chain_query(4)), chain_out),
        ):
            session = Session(db, conventions, options=EvalOptions(backend="reference"))
            assert canonical(session.prepare(text).run()) == oracle(db, 4), (seed, text)


def check_bare_directory():
    bare = ROOT / ".arcbench-tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "arcbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("session-heavy", 0, cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_contract(contract)
    print("contract ok", flush=True)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    listed = [w["name"] for w in contract["workloads"]]
    assert set(listed) <= set(WORKLOADS), listed
    # Also the workloads left out of BENCHMARK.json: they stay runnable.
    for workload in listed + sorted(set(WORKLOADS) - set(listed)):
        for trace in (0, 1):
            check_run(workload, trace, contract)
            print(f"{workload} trace={trace} ok", flush=True)
    check_wrong_oracle()
    print("wrong expected answer fails the run", flush=True)
    check_chain_oracles()
    print("chain oracles match the reference backend", flush=True)
    check_bare_directory()
    print("bare directory exits non-zero", flush=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

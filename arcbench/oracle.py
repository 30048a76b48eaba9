"""Expected answers for every request key, and the answer comparison.

The expected answer of a key is its text run on the ``reference`` backend.
Two keys use a closed-form count instead, because the nested-loop
reference needs ~25 s (E23 width-4 at 60 rows per relation) and hours
(E29 width-4 at 1,500 rows) on them:

* ``chain_out``: the distinct ``R0.A`` values that start a full join chain,
  found by walking the chain backwards with sets;
* ``chain_count``: the chain's ``count(*)``, by dynamic programming over
  the join keys.

``selftest.py`` checks both against the reference backend on small chains.

Run as a script, this module prints the expected answers of one workload
as JSON; ``run.py`` calls it in a child process, so the oracle's memory
never shows in the measured process's peak RSS::

    python3 arcbench/oracle.py --workload session-heavy --seed 3
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _value(value, null):
    if value is null or value is None:
        return None
    if isinstance(value, float):
        return round(value, 9)
    return value


def canonical(result):
    """A comparable form of a Session result: ``("truth", name)`` or
    ``("rows", Counter of positional row tuples)``.  Column names are
    ignored, so alpha-renamed texts compare equal."""
    from repro.data import NULL, Relation

    if not isinstance(result, Relation):
        return ("truth", result.name)
    rows = Counter()
    for row, mult in result.counter().items():
        rows[tuple(_value(row[attr], NULL) for attr in result.schema)] += mult
    return ("rows", rows)


def canonical_body(body):
    """The same form for a ``POST /query`` response body."""
    if body.get("kind") == "truth":
        return ("truth", body["truth"])
    return ("rows", Counter(tuple(_value(v, None) for v in row) for row in body["rows"]))


def to_json(answer):
    kind, value = answer
    if kind == "truth":
        return {"truth": value}
    return {"rows": sorted(([list(row), mult] for row, mult in value.items()),
                           key=json.dumps)}


def from_json(obj):
    if "truth" in obj:
        return ("truth", obj["truth"])
    return ("rows", Counter({tuple(row): mult for row, mult in obj["rows"]}))


def chain_out(db, width):
    """``{Q(out) | ∃r0 ∈ R0, …[Q.out = r0.A ∧ r0.B = r1.B ∧ …]}`` (sets)."""
    last = db[f"R{width - 1}"]
    alive = {row[last.schema[0]] for row in last}
    for i in range(width - 2, -1, -1):
        first, second = db[f"R{i}"].schema
        alive = {row[first] for row in db[f"R{i}"] if row[second] in alive}
    return ("rows", Counter({(value,): 1 for value in alive}))


def chain_count(db, width):
    """γ∅ ``count(*)`` of the bag join R0 ⋈ R1 ⋈ … on the shared columns."""
    _, second = db["R0"].schema
    weights = Counter()
    for row, mult in db["R0"].counter().items():
        weights[row[second]] += mult
    for i in range(1, width):
        first, second = db[f"R{i}"].schema
        following = Counter()
        for row, mult in db[f"R{i}"].counter().items():
            weight = weights.get(row[first])
            if weight:
                following[row[second]] += weight * mult
        weights = following
    return ("rows", Counter({(sum(weights.values()),): 1}))


def expected_answers(groups):
    """Evaluate every ``(database, conventions, jobs)`` group: key -> answer."""
    from repro.api import EvalOptions, Session
    from workloads import conventions

    answers = {}
    for db, conventions_name, jobs in groups:
        session = Session(
            db, conventions(conventions_name),
            options=EvalOptions(backend="reference"),
        )
        for key, text, frontend, method in jobs:
            if method == "reference":
                answers[key] = canonical(session.prepare(text, frontend).run())
            elif method == "chain_out":
                answers[key] = chain_out(db, 4)
            elif method == "chain_count":
                answers[key] = chain_count(db, 4)
            else:
                raise ValueError(f"unknown oracle method {method!r}")
        session.close()
    return answers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--clients", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.build(args.workload, args.seed, args.clients)
    answers = expected_answers(workload.oracle_groups())
    json.dump({key: to_json(answer) for key, answer in answers.items()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

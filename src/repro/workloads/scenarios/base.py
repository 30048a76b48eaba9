"""Scenario-corpus building blocks: tagged queries over seeded catalogs.

A *scenario* bundles a deterministic catalog generator (retail orders, a
social follow graph, a machine event log, …) with a suite of
:class:`CorpusQuery` items — the same question asked in up to four frontends
(datalog / rel / trc / sql), tagged with the engine features it exercises.
The evaluation harness (:mod:`repro.eval.harness`) runs every
(scenario, query, frontend, backend) cell through the Session API and
differences each result against the reference oracle; scenarios themselves
know nothing about execution.

Determinism is a contract, not an accident: catalogs derive every row from
``random.Random(f"{scenario}:{seed}")`` (string seeding is stable across
processes and ``PYTHONHASHSEED``), generators never iterate over sets or
dicts with non-deterministic order, and :meth:`Scenario.fingerprint` hashes
the canonical JSON of catalog + query texts so CI can assert byte-identical
corpora run-to-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ...data import Database

#: Catalog scale factors; ``small`` is sized for CI smoke runs.
SIZES = {"small": 1, "medium": 4, "large": 16}

#: The feature vocabulary query tags are validated against.
FEATURES = (
    "selection",
    "join",
    "grouping",
    "negation",
    "recursion",
    "correlated",
    "theta-band",
    "null-3vl",
    "externals",
    "having",
)


@dataclass(frozen=True)
class CorpusQuery:
    """One corpus question, phrased in one or more frontends.

    ``texts`` maps frontend name → query text; every text must evaluate to
    the same answer (positionally — frontends disagree on column *names*),
    which the harness and the cross-frontend suite both pin.  ``compare``
    picks the cross-frontend comparison semantics: ``"bag"`` (exact
    multiplicities) or ``"set"`` (distinct rows, for fixpoint-shaped
    answers).
    """

    name: str
    features: tuple
    texts: dict = field(default_factory=dict)
    conventions: str = "sql"
    compare: str = "bag"
    description: str = ""

    def __post_init__(self):
        unknown = [f for f in self.features if f not in FEATURES]
        if unknown:
            raise ValueError(
                f"query {self.name!r} has unknown feature tags {unknown}; "
                f"known: {FEATURES}"
            )
        if self.compare not in ("bag", "set"):
            raise ValueError(f"query {self.name!r}: compare must be bag|set")
        if not self.texts:
            raise ValueError(f"query {self.name!r} has no frontend texts")

    @property
    def frontends(self):
        return tuple(sorted(self.texts))


@dataclass(frozen=True)
class NlCase:
    """One natural-language request scored by execution match.

    ``gold`` is the reference answer as a SQL text (executed on the oracle
    and set-compared against whatever the nl pipeline runs); ``gold=None``
    marks a request the template grammar is *expected* to refuse, so corpus
    accuracy stays an honest measurement rather than a tautology.
    """

    request: str
    gold: str = None
    gold_frontend: str = "sql"


class Scenario:
    """Base class: a named, seeded catalog plus its tagged query suite."""

    name = None
    description = ""

    def catalog(self, size="small", seed=0):
        """Build the scenario :class:`~repro.data.Database` at *size*."""
        raise NotImplementedError

    def queries(self):
        """The scenario's tuple of :class:`CorpusQuery` items."""
        raise NotImplementedError

    def nl_schema(self):
        """A :class:`~repro.nl.SchemaInfo` for the nl pipeline, or None."""
        return None

    def nl_cases(self):
        """Tuple of :class:`NlCase` scored against this scenario."""
        return ()

    # -- determinism ---------------------------------------------------------

    def rng(self, seed):
        """The scenario's seeded generator (process-stable string seeding)."""
        import random

        return random.Random(f"{self.name}:{seed}")

    def scale(self, size):
        try:
            return SIZES[size]
        except KeyError:
            raise ValueError(
                f"unknown size {size!r}; known: {sorted(SIZES)}"
            ) from None

    def corpus_payload(self, size="small", seed=0):
        """Canonical JSON-able form of catalog + query texts (for hashing)."""
        db = self.catalog(size=size, seed=seed)
        relations = {}
        for rel_name in db.names():
            relation = db[rel_name]
            relations[rel_name] = {
                "schema": list(relation.schema), "rows": relation.json_rows(),
            }
        return {
            "scenario": self.name,
            "size": size,
            "seed": seed,
            "catalog": relations,
            "queries": {
                q.name: {
                    "features": sorted(q.features),
                    "conventions": q.conventions,
                    "compare": q.compare,
                    "texts": {fe: q.texts[fe] for fe in sorted(q.texts)},
                }
                for q in self.queries()
            },
        }

    def fingerprint(self, size="small", seed=0):
        """SHA-256 over the canonical corpus payload; stable across runs."""
        payload = json.dumps(
            self.corpus_payload(size=size, seed=seed),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_database(tables):
    """Create a :class:`Database` from ``{name: (schema, rows)}`` pairs."""
    db = Database()
    for name, (schema, rows) in tables.items():
        db.create(name, schema, rows)
    return db

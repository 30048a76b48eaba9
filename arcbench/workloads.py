"""The four request mixes: catalogs, query texts and seeded request streams.

Every workload is a class built from a seed.  Catalog contents are the
same for every seed (``DATA_SEED``), so every seed measures the same work;
the seed draws the request order, the literals and renaming tags of the
texts, and the appended rows.  A workload exposes

* ``catalogs()`` -> ``{name: (Database, conventions name)}``, fresh objects
  on every call, so each repeated set-up starts cold;
* ``oracle_groups()`` -> ``[(database, conventions name, jobs)]`` with
  ``jobs = [(key, text, frontend, method)]``: what :mod:`oracle` evaluates
  to get the expected answer of every request key;
* ``stream()`` -> an endless iterator of :class:`Request` (and, for
  ``session-write``, :class:`Append` / :class:`Reset` writes).
"""

from __future__ import annotations

import itertools
import random
import re
from collections import namedtuple

from repro.backends.comprehension import render
from repro.data import Database, Relation, generators
from repro.workloads import sweeps
from repro.workloads.scenarios import SCENARIOS

#: One query request.  ``key`` names its expected answer in the oracle.
Request = namedtuple("Request", "key catalog text frontend backend")

#: A single-row append to relation ``relation`` of ``catalog``.
Append = namedtuple("Append", "catalog relation row")

#: Restores ``relation`` of ``catalog`` to its base rows (a bulk write).
Reset = namedtuple("Reset", "catalog relation")

#: Generator seed of every catalog.
DATA_SEED = 1

_LETTERS = "ABCDEFGHIJ"

LOG_SCAN = "{Q(A, B) | ∃l ∈ Log[Q.A = l.A ∧ Q.B = l.B]}"

ANCESTOR = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)


def chain_count_text(width):
    """The E21/E29 γ∅ ``count(*)`` over the join chain R0 ⋈ … ⋈ R{width-1}."""
    binds = ", ".join(f"r{i} ∈ R{i}" for i in range(width))
    joins = " ∧ ".join(
        f"r{i}.{_LETTERS[i + 1]} = r{i + 1}.{_LETTERS[i + 1]}"
        for i in range(width - 1)
    )
    return f"{{Q(ct) | ∃{binds}, γ ∅[{joins} ∧ Q.ct = count(*)]}}"


def _corpus_text(scenario, query, frontend):
    for item in SCENARIOS[scenario].queries():
        if item.name == query:
            return item.texts[frontend]
    raise LookupError(f"no corpus query {scenario}.{query}")


# -- literal variation and variable renaming (session-cold) -----------------

#: Corpus string literals and the domain each may be swapped within.
_DOMAINS = {
    "lyon": ("lyon", "oslo", "kyoto", "quito", "tunis"),
    "toys": ("toys", "games", "tools", "books", "garden"),
    "no": ("no", "jp", "fr", "br", "ke"),
    "error": ("boot", "error", "deploy", "probe", "halt"),
}

_TOKEN = re.compile(
    r"'[^']*'|\"[^\"]*\"|[A-Za-z_][A-Za-z0-9_]*|\d+|>=|<=|<>|!=|\s+|."
)

#: Lower-case words of the datalog and rel grammars that are not variables.
_WORDS = frozenset(
    "def and or not exists in is null true false "
    "sum count min max avg average mean".split()
)


def _tokens(text):
    return _TOKEN.findall(text)


def literal_slots(text):
    """The literals of *text* that vary: ``[(token index, alternatives)]``.

    A quoted string from one of the corpus domains varies within its
    domain; an integer right after a comparison varies by ±1.
    """
    tokens = _tokens(text)
    slots = []
    previous = None
    for index, token in enumerate(tokens):
        if token[0] in "'\"" and token[1:-1] in _DOMAINS:
            quote = token[0]
            slots.append((index, tuple(
                f"{quote}{value}{quote}" for value in _DOMAINS[token[1:-1]]
            )))
        elif token.isdigit() and previous in (">=", "<=", "<", ">", "="):
            value = int(token)
            if value >= 2:
                slots.append((index, tuple(str(v) for v in (value - 1, value, value + 1))))
        if not token.isspace():
            previous = token
    return slots


def instantiate(text, choices):
    """*text* with each varying literal replaced by ``choices[i]``."""
    tokens = _tokens(text)
    for (index, alternatives), choice in zip(literal_slots(text), choices):
        tokens[index] = alternatives[choice]
    return "".join(tokens)


def rename_variables(text, frontend, tag):
    """Alpha-rename the variables of *text* by appending ``_<tag>``.

    SQL and TRC: every identifier used as ``name.attr`` is a tuple
    variable.  Datalog and Rel: every lower-case identifier that is not a
    keyword or aggregate.  Quoted strings and attribute names are kept.
    """
    tokens = _tokens(text)
    if frontend in ("sql", "trc"):
        variables = {
            token for token, following in zip(tokens, tokens[1:] + [""])
            if following == "." and token[0].isalpha()
        }
    else:
        variables = {
            token for token in tokens
            if token[0].islower() and token not in _WORDS
        }
    out = []
    for index, token in enumerate(tokens):
        after_dot = index > 0 and tokens[index - 1] == "."
        if token in variables and not after_dot:
            token = f"{token}_{tag}"
        out.append(token)
    return "".join(out)


# -- serve-warm --------------------------------------------------------------


class ServeWarm:
    """Small warm queries over small catalogs, sent to ``repro serve``.

    Each HTTP client cycles its own list of texts.  The lists differ by a
    per-client whitespace suffix, so no two in-flight requests share a
    coalescing key.
    """

    name = "serve-warm"
    conventions = "sql"

    def __init__(self, seed, clients):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.client_requests = [
            self._client_requests(client, rng) for client in range(clients)
        ]

    def catalogs(self):
        chain = generators.chain_database(4, 12, domain=6, seed=DATA_SEED)
        chain.add(generators.binary_relation(
            "Log", 300, domain=1000, seed=DATA_SEED,
        ))
        catalogs = {"default": chain}
        for scenario in ("retail", "social", "eventlog"):
            catalogs[scenario] = SCENARIOS[scenario].catalog(
                size="small", seed=DATA_SEED,
            )
        return {name: (db, self.conventions) for name, db in catalogs.items()}

    def _client_requests(self, client, rng):
        def corpus(scenario, query, frontend):
            text = _corpus_text(scenario, query, frontend)
            choices = [rng.randrange(len(alt)) for _, alt in literal_slots(text)]
            return instantiate(text, choices)

        specs = [
            ("default", chain_count_text(2), "arc", "sqlite"),
            ("default", chain_count_text(2), "arc", "planner"),
            ("default", chain_count_text(4), "arc", "sqlite"),
            ("default", chain_count_text(4), "arc", "planner"),
            # The one answer a few hundred rows long: shaping and JSON.
            ("default", LOG_SCAN, "arc", "sqlite"),
            ("retail", corpus("retail", "customers_in_city", "sql"), "sql", "sqlite"),
            ("retail", corpus("retail", "customers_without_orders", "trc"), "trc", "sqlite"),
            # SQLite refuses NOT IN over a nullable column: planner fallback.
            ("retail", corpus("retail", "price_not_in_toys", "sql"), "sql", "sqlite"),
            ("social", corpus("social", "follower_count_foi", "datalog"), "datalog", "planner"),
            ("social", corpus("social", "users_in_country", "rel"), "rel", "planner"),
            ("eventlog", corpus("eventlog", "events_per_machine_fio", "rel"), "rel", "sqlite"),
            ("eventlog", corpus("eventlog", "error_events", "datalog"), "datalog", "planner"),
        ]
        suffix = " " * (client + 1)
        return [
            Request(f"c{client}.{index}", catalog, text + suffix, frontend, backend)
            for index, (catalog, text, frontend, backend) in enumerate(specs)
        ]

    def oracle_groups(self):
        catalogs = self.catalogs()
        groups = []
        for name, (db, conventions) in catalogs.items():
            jobs = [
                (req.key, req.text, req.frontend, "reference")
                for requests in self.client_requests for req in requests
                if req.catalog == name
            ]
            groups.append((db, conventions, jobs))
        return groups


# -- session-cold --------------------------------------------------------------


#: Corpus cells left out of session-cold: the reference oracle needs
#: ~0.6 s for each of the first two.
_COLD_SKIP = {
    ("social", "reachable"),
    ("social", "younger_followees"),
}

#: Cells that run on SQLite only.  On the planner each takes 40–80 ms;
#: with a ~1 % share of the mix they would sit exactly on ``p99_ms`` and
#: make it jump between runs.
_COLD_SQLITE_ONLY = {
    ("social", "unreciprocated", "sql"),
    ("social", "unreciprocated", "trc"),
    ("social", "mutual_follows", "trc"),
}


class SessionCold:
    """Never-seen texts: corpus queries alpha-renamed, literals varied.

    Every request renames the variables of a medium-size corpus query with
    a fresh tag, so neither the prepared-query LRU nor any cache keyed on
    (whitespace-normalised) text can answer it.  Alpha-renaming does not
    change an answer, so the oracle evaluates one text per (cell, literal
    choice) and every renamed variant is checked against it.
    """

    name = "session-cold"
    conventions = "sql"
    backends = ("sqlite", "planner")

    def __init__(self, seed):
        self.seed = seed
        self.order_seed = random.Random(f"{self.name}:{seed}").randrange(1 << 30)
        self.cells = []
        for scenario in ("retail", "social", "eventlog"):
            for query in SCENARIOS[scenario].queries():
                if (scenario, query.name) in _COLD_SKIP:
                    continue
                for frontend in sorted(query.texts):
                    self.cells.append(
                        (scenario, query.name, frontend, query.texts[frontend])
                    )
        #: Every (cell, backend) pair; a round of requests covers each once.
        self.pairs = [
            (cell, backend)
            for cell in self.cells
            for backend in self.backends
            if backend == "sqlite" or cell[:3] not in _COLD_SQLITE_ONLY
        ]

    def catalogs(self):
        return {
            scenario: (
                SCENARIOS[scenario].catalog(size="medium", seed=DATA_SEED),
                self.conventions,
            )
            for scenario in ("retail", "social", "eventlog")
        }

    @staticmethod
    def _key(scenario, query, frontend, choices):
        return f"{scenario}.{query}.{frontend}:{','.join(map(str, choices))}"

    def oracle_groups(self):
        catalogs = self.catalogs()
        jobs = {scenario: [] for scenario in catalogs}
        for scenario, query, frontend, text in self.cells:
            ranges = [range(len(alt)) for _, alt in literal_slots(text)]
            for choices in itertools.product(*ranges):
                key = self._key(scenario, query, frontend, choices)
                jobs[scenario].append(
                    (key, instantiate(text, choices), frontend, "reference")
                )
        return [
            (db, conventions, jobs[scenario])
            for scenario, (db, conventions) in catalogs.items()
        ]

    def _requests(self, rng, tags):
        pairs = list(self.pairs)
        while True:
            rng.shuffle(pairs)
            for (scenario, query, frontend, text), backend in pairs:
                choices = [rng.randrange(len(alt)) for _, alt in literal_slots(text)]
                renamed = rename_variables(
                    instantiate(text, choices), frontend, next(tags)
                )
                yield Request(
                    self._key(scenario, query, frontend, choices),
                    scenario, renamed, frontend, backend,
                )

    def stream(self):
        tags = (f"t{n}" for n in itertools.count())
        return self._requests(random.Random(self.order_seed), tags)

    def warmup(self):
        """One pass over every cell and backend, under tags the timed
        stream never uses (``w…``), so module imports and catalog loads
        happen in set-up while every timed text stays unseen."""
        tags = (f"w{n}" for n in itertools.count())
        stream = self._requests(random.Random(self.order_seed + 1), tags)
        return list(itertools.islice(stream, len(self.pairs)))


# -- session-heavy -----------------------------------------------------------


class SessionHeavy:
    """Warm prepared queries whose execution dominates.

    Warm costs on a 2-CPU container: E25, E27 and E23 2–4 ms, E29 ~11 ms,
    TC 25–40 ms.  The weights of a 40-request round keep each query under
    half of the run's time (TC ~40 %).  E29 runs at 1,000 rows per
    relation: at E29's own 1,500 rows its cost (~30 ms) crosses TC's as
    the host's speed drifts, and ``p99_ms`` jumped between the two
    queries' tails; now it lies in TC's tail alone.
    """

    name = "session-heavy"

    #: (catalog, text builder, backend, oracle method, requests per round)
    _MIX = (
        ("e23", lambda: render(sweeps.join_chain_query(4)), "planner", "chain_out", 20),
        ("e25", lambda: render(sweeps.correlated_aggregate_query(agg="sum")),
         "planner", "reference", 7),
        ("e27", lambda: render(sweeps.theta_aggregate_query(op="<", agg="sum")),
         "planner", "reference", 7),
        ("tc", lambda: ANCESTOR, "planner", "reference", 3),
        ("e29", lambda: chain_count_text(4), "sqlite", "chain_count", 3),
    )

    def __init__(self, seed):
        self.seed = seed
        self.order_seed = random.Random(f"{self.name}:{seed}").randrange(1 << 30)
        self.requests = [
            Request(catalog, catalog, build(), "arc", backend)
            for catalog, build, backend, _, _ in self._MIX
        ]

    def catalogs(self):
        seed = DATA_SEED
        return {
            "e23": (generators.chain_database(4, 60, domain=30, seed=seed), "set"),
            "e25": (sweeps.correlated_sweep_database(300, 300, seed=seed), "set"),
            "e27": (sweeps.theta_sweep_database(
                300, 300, band_domain=300, seed=seed), "set"),
            "tc": (generators.parent_edges(250, seed=seed, extra_edges=62), "set"),
            "e29": (generators.chain_database(4, 1000, domain=300, seed=seed), "sql"),
        }

    def oracle_groups(self):
        catalogs = self.catalogs()
        methods = {catalog: method for catalog, _, _, method, _ in self._MIX}
        return [
            (db, conventions, [
                (req.key, req.text, req.frontend, methods[req.catalog])
                for req in self.requests if req.catalog == name
            ])
            for name, (db, conventions) in catalogs.items()
        ]

    def stream(self):
        rng = random.Random(self.order_seed)
        weights = {catalog: weight for catalog, _, _, _, weight in self._MIX}
        round_ = [req for req in self.requests for _ in range(weights[req.catalog])]
        while True:
            rng.shuffle(round_)
            yield from round_

    def warmup(self):
        return list(self.requests)


# -- session-write -------------------------------------------------------------


class SessionWrite:
    """Single-row appends to ``S`` interleaved with reads that depend on it.

    A cycle is one append followed by one read of each kind: a small-result
    SQLite aggregate over ``S``, and the eq and θ-band correlated γ∅
    laterals over ``R``/``S`` on the planner.  Every read therefore follows
    a write and pays catalog re-fingerprint and reload, index rebuilds and
    a re-probe.  After ``EPOCH`` appends ``S`` is reset to its base rows,
    so the catalog passes through ``EPOCH + 1`` states, more than the
    SQLite catalog caches hold (8): no state is still cached when it
    recurs, and the oracle needs only ``EPOCH + 1`` catalogs.
    """

    name = "session-write"
    conventions = "sql"
    EPOCH = 16

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        key = rng.randrange(6)
        self.appends = [
            (rng.randrange(6), rng.randrange(120), rng.randrange(50))
            for _ in range(self.EPOCH)
        ]
        self.reads = [
            Request("sqlite_small", "write",
                    f"{{Q(ct, sm) | ∃s ∈ S, γ ∅[s.K0 = {key} ∧ "
                    "Q.ct = count(*) ∧ Q.sm = sum(s.B)]}",
                    "arc", "sqlite"),
            Request("eq_lateral", "write",
                    render(sweeps.correlated_aggregate_query(agg="sum")),
                    "arc", "planner"),
            Request("band_lateral", "write",
                    render(sweeps.theta_aggregate_query(op="<", agg="sum")),
                    "arc", "planner"),
        ]

    def _base(self):
        return sweeps.theta_sweep_database(
            120, 120, eq_arity=1, band_domain=120, seed=DATA_SEED,
        )

    def apply_write(self, op, database):
        """Perform one write of the stream on *database*."""
        if isinstance(op, Append):
            database[op.relation].add(op.row)
        else:
            base = self._base()[op.relation]
            database.add(Relation(op.relation, base.schema, base))

    def catalogs(self):
        return {"write": (self._base(), self.conventions)}

    def oracle_groups(self):
        groups = []
        db = self._base()
        for state in range(self.EPOCH + 1):
            if state:
                db["S"].add(self.appends[state - 1])
            snapshot = Database([db["R"], Relation("S", db["S"].schema, db["S"])])
            jobs = [
                (f"{state}:{req.key}", req.text, req.frontend, "reference")
                for req in self.reads
            ]
            groups.append((snapshot, self.conventions, jobs))
        return groups

    def stream(self):
        """Yields writes and reads; a read's key carries the catalog state."""
        while True:
            for state in range(self.EPOCH + 1):
                if state:
                    yield Append("write", "S", self.appends[state - 1])
                else:
                    yield Reset("write", "S")
                for req in self.reads:
                    yield req._replace(key=f"{state}:{req.key}")

    def warmup(self):
        return [req._replace(key=f"0:{req.key}") for req in self.reads]


WORKLOADS = {
    cls.name: cls for cls in (ServeWarm, SessionCold, SessionHeavy, SessionWrite)
}


def build(name, seed, clients):
    """The workload *name* for *seed*; serve-warm gets *clients* clients."""
    cls = WORKLOADS[name]
    return cls(seed, clients) if cls is ServeWarm else cls(seed)


def conventions(name):
    """The conventions object behind a catalog's conventions name."""
    from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS

    return {"set": SET_CONVENTIONS, "sql": SQL_CONVENTIONS}[name]

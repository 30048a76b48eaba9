"""The SQLite offload engine: execute rendered ARC SQL on ``sqlite3``.

This backend makes the paper's ``ARC → SQL`` direction executable: the node
is rendered through :func:`repro.backends.sql_render.to_sql`, the catalog is
loaded into a SQLite connection, the query runs there (including
``WITH RECURSIVE`` programs, which have no other executable SQL path), and
the result rows are coerced back into a schema-correct
:class:`~repro.data.relation.Relation`.

Catalog mapping
---------------
* values — ``NULL``/int/float/str map onto SQLite's NULL/INTEGER/REAL/TEXT
  (``bool`` stores as 0/1, matching the engine's Python-level ``True == 1``);
  NaN would silently become NULL inside SQLite, so it is rejected up front;
* bag semantics — every duplicate is inserted as its own row (its identity
  is the rowid), so multiplicities survive the round trip; set-convention
  evaluation is *not* offloaded (see the capability probe);
* columns are created without type affinity, so values come back exactly as
  inserted.

Connection cache
----------------
An in-memory connection belongs to the thread that loaded it: each thread
keeps one LRU of loaded catalogs keyed by *fingerprint* — a deterministic
digest of every relation's schema and rows — so repeated calls against an
unchanged catalog reuse the connection instead of reloading.  Connections
keep sqlite3's default ``check_same_thread=True``, so no handle (and no
per-run progress handler installed on it) is ever shared between threads;
the serve pool's workers each execute on their own.  Mutating a relation
changes its fingerprint (the per-relation digest rides the same
derived-result cache that ``Relation.add`` invalidates), which naturally
turns the next call into a cold load.  With ``db_file`` the catalog
persists on disk: the fingerprint is stored in a meta table and the tables
are reloaded only when it changes, so separate processes start warm.

Capability probe
----------------
Each query node compiles once into one weakly cached record
(:func:`_compiled`), which ``capabilities`` and ``run`` both read; a
self-recursive collection is wrapped by the evaluator's own rule,
:func:`repro.engine.fixpoint.recursive_program`.  ``capabilities``
reports (triggering planner fallback in the registry):

* non-SQL conventions — set semantics, two-valued NULL comparisons, or the
  ZERO empty-aggregate convention;
* relations without a stored extension (externals, abstract definitions);
* correlated lateral subqueries that survive the FOI → FIO decorrelation
  lowering (:func:`repro.backends.sql_render.rewrite_for_sql` — which covers
  equality group-by joins, unnesting, and θ-band derived tables joined
  through the projected band key) *and* cannot be inlined as correlated
  scalar subqueries — each reported with the binding variable and the
  specific refusal, which names the correlation predicate (``< on s.A``)
  for θ shapes, since SQLite has no ``LATERAL``;
* ``/`` and ``%`` arithmetic (SQLite integer division/modulo differ from
  the engine's true division / Python modulo);
* negated or sentence-level quantifiers over NULL-bearing sources — SQL's
  EXISTS collapses an UNKNOWN Kleene fold to FALSE, observable under ``¬``
  (see :func:`_three_valued_hazard`);
* recursion SQLite's ``WITH RECURSIVE`` rejects (:func:`_recursion_refusal`)
  and anything ``to_sql`` itself refuses to render.

What still fails inside SQLite surfaces as :class:`BackendUnsupported` at
execution time, takes the same fallback, and counts toward the breaker.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
import weakref
from collections import Counter, OrderedDict, namedtuple
from itertools import chain, groupby
from operator import itemgetter

from ...core import nodes as n
from ...core.validator import strongly_connected
from ...data.relation import Relation
from ...data.values import NULL, Truth, is_null
from ...engine.externals import standard_registry
from ...engine.fixpoint import recursive_program
from ...errors import QueryTimeout, RewriteError
from ...obs import NULL_SPAN
from ...util import failpoints
from ..sql_render import lateral_bindings, rewrite_for_sql, to_sql
from .registry import Backend, BackendUnsupported


_META_TABLE = "__arc_catalog__"
_CACHE_LIMIT = 8

#: Execute-retry policy for *transient* ``sqlite3.OperationalError``
#: ("database is locked" / "busy"): bounded attempts with deterministic
#: exponential backoff, so a briefly contended file catalog answers instead
#: of failing over.  Non-transient errors are never retried.
_RETRY_ATTEMPTS = 3
_RETRY_BASE_S = 0.01

#: SQLite VM instructions between progress-handler callbacks.  Small enough
#: that a runaway ``WITH RECURSIVE`` notices its deadline within
#: milliseconds; large enough to stay invisible on the warm serve path.
_PROGRESS_STRIDE = 4096

#: Rows per fetch between deadline checks.  Each fetched row takes the GIL
#: back, which a busy Python thread can hold off for milliseconds per row,
#: and the progress handler counts VM instructions, not that wait: beside
#: a busy thread, 4096 instructions of a streaming ``WITH RECURSIVE`` took
#: 0.36–1.27 s to fetch on a 2-CPU host.  So a deadline-armed fetch also
#: reads the clock once per this many rows.
_FETCH_ROWS = 32


class _ThreadCache(threading.local):
    """The calling thread's fingerprint → in-memory connection LRU."""

    def __init__(self):
        self.connections = OrderedDict()


_thread = _ThreadCache()


class _FingerprintOwner:
    """Weak-referenceable key for the per-relation fingerprint cache."""


_FP_OWNER = _FingerprintOwner()

_NULL_TYPES = frozenset([type(NULL)])
_STRING_TYPES = frozenset([str])


# ---------------------------------------------------------------------------
# Value mapping
# ---------------------------------------------------------------------------


def _to_sqlite(value, relation_name):
    if is_null(value):
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value:
            raise BackendUnsupported(
                f"relation {relation_name!r} contains NaN, which SQLite "
                "stores as NULL"
            )
        return value
    raise BackendUnsupported(
        f"relation {relation_name!r} contains a {type(value).__name__} "
        "value; SQLite holds NULL/int/float/str only"
    )


def _fp_token(value, relation_name):
    if is_null(value):
        return b"\x00N"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + value.hex().encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    raise BackendUnsupported(
        f"relation {relation_name!r} contains a {type(value).__name__} "
        "value; SQLite holds NULL/int/float/str only"
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def relation_fingerprint(relation):
    """Deterministic digest of a relation's schema and rows (cached).

    The cache rides :meth:`Relation.derived_put`, which every mutation
    (``add``/``extend_new``) drops, so a stale fingerprint is impossible.
    """
    cached = relation.derived_get(_FP_OWNER, "fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(repr(tuple(relation.schema)).encode("utf-8"))
    # Each distinct row's copies sit side by side in the canonical order.
    for values, copies in groupby(relation.sorted_values()):
        digest.update(b"\x00" + str(sum(1 for _ in copies)).encode())
        for value in values:
            digest.update(b"\x01" + _fp_token(value, relation.name))
    return relation.derived_put(_FP_OWNER, "fingerprint", digest.hexdigest())


def catalog_fingerprint(database):
    """Deterministic digest of the whole catalog (relation names + contents)."""
    digest = hashlib.sha256()
    for name in database.names():
        digest.update(name.encode("utf-8") + b"\x00")
        digest.update(relation_fingerprint(database[name]).encode("ascii"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Catalog loading
# ---------------------------------------------------------------------------


def _quote(identifier):
    return '"' + str(identifier).replace('"', '""') + '"'


def _check_identifiers(database):
    """SQLite identifiers are case-insensitive; reject colliding catalogs."""
    seen = {}
    for name in database.names():
        folded = name.lower()
        if folded == _META_TABLE.lower():
            raise BackendUnsupported(
                f"relation name {name!r} is reserved for the catalog "
                "fingerprint meta table"
            )
        if folded in seen:
            raise BackendUnsupported(
                f"relation names {seen[folded]!r} and {name!r} collide "
                "case-insensitively in SQLite"
            )
        seen[folded] = name
        relation = database[name]
        attrs = {}
        for attr in relation.schema:
            folded_attr = attr.lower()
            if folded_attr in attrs:
                raise BackendUnsupported(
                    f"attributes {attrs[folded_attr]!r} and {attr!r} of "
                    f"{name!r} collide case-insensitively in SQLite"
                )
            attrs[folded_attr] = attr


def _load_catalog(conn, database):
    """Create and populate one table per catalog relation (bag layout)."""
    failpoints.hit("catalog.load")
    _check_identifiers(database)
    for name in database.names():
        relation = database[name]
        columns = ", ".join(_quote(attr) for attr in relation.schema)
        try:
            conn.execute(f"create table {_quote(name)} ({columns})")
        except sqlite3.Error as exc:
            raise BackendUnsupported(
                f"SQLite rejected the schema of {name!r} ({exc})"
            ) from exc
        placeholders = ", ".join("?" for _ in relation.schema)
        rows = [
            tuple(_to_sqlite(row[attr], name) for attr in relation.schema)
            for row in relation  # bag iteration: one insert per duplicate
        ]
        if rows:
            conn.executemany(
                f"insert into {_quote(name)} values ({placeholders})", rows
            )
    conn.commit()


def connect_catalog(database, *, db_file=None):
    """``(conn, loaded)``: a SQLite connection holding *database*.

    In-memory connections come from the calling thread's LRU, so *loaded*
    is False on a warm hit; a cold load is cached only once complete, and
    the least recent connection beyond ``_CACHE_LIMIT`` is closed.  With
    *db_file* a fresh connection to the file is returned — the caller
    closes it — and the tables are reloaded (``loaded=True``) only when the
    stored fingerprint disagrees with the catalog's.
    """
    failpoints.hit("sqlite.connect")
    fingerprint = catalog_fingerprint(database)
    if db_file is None:
        connections = _thread.connections
        conn = connections.get(fingerprint)
        if conn is not None:
            connections.move_to_end(fingerprint)
            return conn, False
        conn = sqlite3.connect(":memory:")
        try:
            _load_catalog(conn, database)
        except BaseException:
            conn.close()
            raise
        connections[fingerprint] = conn
        while len(connections) > _CACHE_LIMIT:
            connections.popitem(last=False)[1].close()
        return conn, True

    conn = sqlite3.connect(db_file)
    try:
        stored = conn.execute(
            f"select fingerprint from {_quote(_META_TABLE)}"
        ).fetchone()
    except sqlite3.Error:
        stored = None
    if stored is not None and stored[0] == fingerprint:
        return conn, False
    try:
        for (table,) in conn.execute(
            "select name from sqlite_master where type = 'table'"
        ).fetchall():
            if not table.startswith("sqlite_"):
                conn.execute(f"drop table {_quote(table)}")
        _load_catalog(conn, database)
        conn.execute(f"create table {_quote(_META_TABLE)} (fingerprint text)")
        conn.execute(
            f"insert into {_quote(_META_TABLE)} values (?)", (fingerprint,)
        )
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn, True


def clear_catalog_cache():
    """Close and drop the calling thread's cached connections (cold start)."""
    connections = _thread.connections
    while connections:
        connections.popitem(last=False)[1].close()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


def _relation_has_null(relation):
    """Whether any stored value is NULL (cached until the relation mutates)."""
    cached = relation.derived_get(_FP_OWNER, "has_null")
    if cached is None:
        cached = any(
            any(is_null(value) for value in row._values.values())
            for row in relation.iter_distinct()
        )
        relation.derived_put(_FP_OWNER, "has_null", cached)
    return cached


def _three_valued_hazard(prepared, database):
    """Reason SQL's two-valued EXISTS could diverge from the Kleene fold.

    SQL renders ``∃`` as EXISTS, which collapses an UNKNOWN-only fold to
    FALSE.  In a positive WHERE context that collapse is unobservable
    (UNKNOWN and FALSE both drop the row), but under ``¬`` — or as a
    sentence's top-level answer — it flips the result.  UNKNOWN needs a
    NULL to arise, so the hazard requires both an *exposed* quantifier and
    a NULL source: stored NULLs, NULL literals, or a non-count aggregate
    (NULL over an empty group).
    """
    found = n.facts(prepared)
    exposed = found.negated_quantifier or isinstance(prepared, n.Sentence) or (
        isinstance(prepared, n.Program)
        and isinstance(prepared.resolve_main(), n.Sentence)
    )
    if not exposed:
        return None
    if found.null_literal:
        return (
            "NULL literal under a negated/top-level quantifier "
            "(EXISTS collapses UNKNOWN)"
        )
    if any(not agg.func.startswith("count") for agg in found.aggregates):
        return (
            "non-count aggregate under a negated/top-level quantifier "
            "(empty groups yield NULL; EXISTS collapses UNKNOWN)"
        )
    if database is not None:
        nullable = sorted(
            name
            for name in set(found.relation_refs)
            if name in database and _relation_has_null(database[name])
        )
        if nullable:
            return (
                f"relations {nullable} contain NULLs under a negated/"
                "top-level quantifier (EXISTS collapses UNKNOWN)"
            )
    return None


def _column_types(relation):
    """attr -> the set of value types stored in that column, NULL aside
    (cached until the relation mutates)."""
    cached = relation.derived_get(_FP_OWNER, "column_types")
    if cached is None:
        rows = [row._values for row in relation.iter_distinct()]
        cached = {
            attr: frozenset(map(type, map(itemgetter(attr), rows))) - _NULL_TYPES
            for attr in relation.schema
        }
        relation.derived_put(_FP_OWNER, "column_types", cached)
    return cached


#: Stand for a string literal, and for a number no column holds (a
#: numeric literal or a count/sum/avg), among the attribute names that can
#: reach an expression's value (no attribute has either name).
_STRING_LITERAL = "'"
_NUMBER = "#"

#: The comparisons SQLite decides by its own order across types.
_ORDERING_OPS = frozenset(["<", "<=", ">", ">="])


def _reads(exprs):
    """Attribute names whose values can reach the value of *exprs*, plus
    :data:`_STRING_LITERAL` and :data:`_NUMBER`.  ``count``/``sum``/
    ``avg`` yield numbers, so their arguments do not reach it."""
    names, stack = set(), list(exprs)
    while stack:
        sub = stack.pop()
        if isinstance(sub, n.Attr):
            names.add(sub.attr)
        elif isinstance(sub, n.Const):
            if isinstance(sub.value, str):
                names.add(_STRING_LITERAL)
            elif not is_null(sub.value):
                names.add(_NUMBER)
        elif isinstance(sub, n.AggCall) and not sub.func.startswith(("min", "max")):
            names.add(_NUMBER)
        else:
            stack.extend(sub.children())
    return names


def _cast_reads(prepared):
    """The attribute names (see :func:`_reads`) under SQLite's silent casts
    and cross-type orderings, followed through head assignments of derived
    and defined collections: (names that can reach a sum/avg or arithmetic
    operand, names that can reach a min/max argument, (op, left names,
    right names) of each ordering comparison)."""
    found = n.facts(prepared)
    numeric, ordered, feeds = set(), set(), {}
    for _, left, right in found.arithmetic:
        numeric |= _reads([left, right])
    for agg in found.aggregates:
        if agg.func.startswith(("sum", "avg")):
            numeric |= _reads([agg.arg])
        elif agg.func.startswith(("min", "max")):
            ordered |= _reads([agg.arg])
    for op, left, right in found.comparisons:
        if op != "=":
            continue
        for target, source in ((left, right), (right, left)):
            if isinstance(target, n.Attr) and target.var in found.heads:
                feeds.setdefault(target.attr, set()).update(_reads([source]))

    def closed(names):
        frontier = list(names)
        while frontier:
            for name in feeds.get(frontier.pop(), ()):
                if name not in names:
                    names.add(name)
                    frontier.append(name)
        return frozenset(names)

    return (
        closed(numeric),
        closed(ordered),
        tuple(
            (op, closed(_reads([left])), closed(_reads([right])))
            for op, left, right in found.comparisons
            if op in _ORDERING_OPS
        ),
    )


def _text_cast_hazard(prepared, cast_reads, database):
    """Reason SQLite's silent text handling could answer where the engine
    raises a typed error or answers FALSE.

    SQLite reads a string as a number (``'x'`` as 0) in ``sum``/``avg``
    and arithmetic, and orders text after every number in ``min``/``max``
    and in ``<``/``<=``/``>``/``>=``; the engine raises over a non-numeric
    operand and over values ``min``/``max`` cannot compare, and answers
    FALSE to an ordering between a string and a number.  Like
    :func:`_three_valued_hazard` the check reads the data: a stored column
    is a hazard when such an argument can read it (*cast_reads*) and it
    holds a string — for ``min``/``max``, a string beside a number;
    for an ordering, a string where the other operand can read a number.
    """
    numeric, ordered, orderings = cast_reads
    if _STRING_LITERAL in numeric:
        return (
            "a string literal under sum/avg or arithmetic "
            "(SQLite reads it as a number)"
        )
    texts, numbers = {_STRING_LITERAL: "a string literal"}, {_NUMBER}
    if database is not None and (numeric or ordered or orderings):
        for name in sorted(set(n.facts(prepared).relation_refs)):
            if name not in database:
                continue
            for attr, types in _column_types(database[name]).items():
                if types - _STRING_TYPES:
                    numbers.add(attr)
                if str not in types:
                    continue
                if attr in numeric:
                    return (
                        f"column {name}.{attr} holds text under sum/avg or "
                        "arithmetic (SQLite reads it as a number)"
                    )
                if attr in ordered and len(types) > 1:
                    return (
                        f"column {name}.{attr} mixes text and numbers under "
                        "min/max (SQLite orders them; the engine refuses)"
                    )
                texts.setdefault(attr, f"column {name}.{attr}")
    for op, left, right in orderings:
        for text_side, number_side in ((left, right), (right, left)):
            text = sorted(texts.keys() & text_side)
            if text and not numbers.isdisjoint(number_side):
                return (
                    f"{op} compares text ({texts[text[0]]}) with a number "
                    "(SQLite orders text after every number; the engine "
                    "answers FALSE)"
                )
    return None


#: The external relations (Section 2.13) of a compile with no session: the
#: standard registry, which every Session evaluates with by default.
_EXTERNAL_NAMES = frozenset(standard_registry().names())

#: SQLite's compiled form of one query node; its first three fields say
#: what it was compiled for.  ``node`` is None when it is the key itself:
#: an entry holding its own key would never expire.
_Compiled = namedtuple(
    "_Compiled", "names decorrelate externals node laterals sql refusal cast_reads"
)

#: query node -> its :class:`_Compiled` record.
_COMPILED = weakref.WeakKeyDictionary()


def _compiled(node, database, decorrelate, externals=None):
    """*node*'s weakly cached compile record.  It reads the catalog only
    through relation names, so row mutations keep it warm.  The probe
    builds it with the session's *externals*, which decide the recursion
    wrap; a run passes None and keeps the registry the record was built
    with (the standard one if none was)."""
    names = frozenset(database.names()) if database is not None else frozenset()
    record = _COMPILED.get(node)
    if externals is None:
        externals = _EXTERNAL_NAMES if record is None else record.externals
    if record is not None and record[:3] == (names, decorrelate, externals):
        return record
    program = recursive_program(node, names, externals)
    if decorrelate:
        executable, laterals = rewrite_for_sql(node if program is None else program)
    else:
        # A copy of the wrap: the wrap itself holds *node*, this entry's key.
        executable = node if program is None else n.clone(program)
        laterals = tuple(
            (binding.var, "decorrelation disabled (--no-decorrelate)")
            for binding in lateral_bindings(executable)
        )
    reason = _recursion_refusal(executable)
    sql, refusal = None, reason and f"SQLite's recursive CTE cannot run {reason}"
    if refusal is None:
        try:
            sql = to_sql(executable)
        except RewriteError as exc:
            refusal = f"not renderable as SQL ({exc})"
    record = _COMPILED[node] = _Compiled(
        names, decorrelate, externals, None if executable is node else executable,
        laterals, sql, refusal, _cast_reads(executable),
    )
    return record


def _recursion_refusal(executable):
    """Why SQLite's ``WITH RECURSIVE`` cannot run *executable*'s recursion:
    it runs non-recursive selects, then selects that each read the CTE
    once, in their FROM and without grouping, and no CTEs recurse through
    each other.  Recursion through negation or aggregation, which the
    fixpoint rejects, fails this too, so the planner raises its error."""
    if not isinstance(executable, n.Program):
        return None
    definitions = executable.definitions
    graph = {
        name: [ref for ref in n.facts(definition).relation_refs if ref in definitions]
        for name, definition in definitions.items()
    }
    for component in strongly_connected(graph):
        name = component[0]
        if len(component) > 1:
            return f"mutual recursion across definitions {sorted(component)}"
        if name not in graph[name]:
            continue
        body = definitions[name].body
        branches = body.children_list if isinstance(body, n.Or) else [body]
        reads = [n.facts(branch).relation_refs.count(name) for branch in branches]
        if 0 not in reads:
            return f"recursion in {name} with no base branch"
        for branch, count in zip(branches, reads):
            if count > 1:
                return f"nonlinear recursion: a branch reads {name} {count} times"
            read_in_from = isinstance(branch, n.Quantifier) and name in [
                b.source.name for b in branch.bindings if isinstance(b.source, n.RelationRef)
            ]
            if count and not (read_in_from and branch.grouping is None):
                return f"a branch reading {name} in a subquery or under grouping"
    return None


def compile_sql(node, database, *, decorrelate=True):
    """Compile *node* for SQLite: ``(executable node, SQL text)``.

    Reads *node*'s compile record (:func:`_compiled`), so a prepared query
    that stays alive — a :class:`repro.api.Session` ``Prepared`` —
    compiles exactly once and re-runs render-free.  Raises
    :class:`BackendUnsupported` when SQLite cannot run the node.
    """
    try:
        failpoints.hit("sql.render")
    except sqlite3.Error as exc:
        # A sqlite-flavored fault at render time can only mean "cannot
        # produce SQL" — surface it as the typed refusal so the registry
        # falls back instead of leaking a raw OperationalError.
        raise BackendUnsupported(f"SQL render failed ({exc})") from exc
    record = _compiled(node, database, decorrelate)
    if record.refusal is not None:
        raise BackendUnsupported(record.refusal)
    return (node if record.node is None else record.node), record.sql


def _is_transient(exc):
    """Whether an ``OperationalError`` is worth retrying (lock contention)."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def execute_with_retry(conn, sql, *, stats_obj=None, sleep=time.sleep,
                       tracer=None):
    """Execute *sql* with bounded deterministic-backoff retries.

    Transient ``sqlite3.OperationalError`` ("database is locked"/"busy")
    retries up to :data:`_RETRY_ATTEMPTS` times, sleeping
    ``_RETRY_BASE_S * 2**attempt`` between attempts (*sleep* injectable for
    tests).  Each retry increments ``stats_obj.retries`` when an
    :class:`~repro.engine.planner.ExecutionStats` is supplied (and records a
    ``sqlite.retry`` event when a *tracer* is).  The ``sqlite.execute``
    failpoint fires once per attempt, so a ``locked*2`` spec
    deterministically drives the retry-then-succeed path.
    """
    last_exc = None
    for attempt in range(_RETRY_ATTEMPTS):
        try:
            failpoints.hit("sqlite.execute")
            return conn.execute(sql)
        except sqlite3.OperationalError as exc:
            if not _is_transient(exc):
                raise
            last_exc = exc
            if attempt + 1 < _RETRY_ATTEMPTS:
                if stats_obj is not None:
                    stats_obj.retries += 1
                if tracer is not None:
                    tracer.event(
                        "sqlite.retry", attempt=attempt + 1, error=str(exc)
                    )
                sleep(_RETRY_BASE_S * 2**attempt)
    raise last_exc


class SqliteBackend(Backend):
    """Render through ``to_sql`` and execute on a loaded SQLite catalog."""

    name = "sqlite"

    def capabilities(self, node, conventions, database=None, *, decorrelate=True,
                     externals=None):
        problems = []
        if not conventions.is_bag:
            problems.append("set semantics (SQL evaluates bags)")
        if not conventions.three_valued:
            problems.append("two-valued NULL comparisons (SQLite is 3VL)")
        if conventions.empty_aggregate.value != "null":
            problems.append(
                "ZERO empty-aggregate convention (SQLite returns NULL)"
            )
        record = _compiled(node, database, decorrelate, externals)
        prepared = node if record.node is None else record.node
        found = n.facts(prepared)
        defined = prepared.definitions if isinstance(prepared, n.Program) else ()
        missing = sorted(
            {
                name
                for name in found.relation_refs
                if name not in defined and name not in record.names
            }
        )
        if missing:
            problems.append(
                f"relations {missing} have no stored extension "
                "(external/abstract access patterns cannot be offloaded)"
            )
        for op, _, _ in found.arithmetic:
            if op in ("/", "%"):
                problems.append(
                    f"arithmetic {op!r} (SQLite integer division/modulo "
                    "differ from the engine's semantics)"
                )
        for var, reason in record.laterals:
            problems.append(
                f"correlated lateral binding {var!r} needs LATERAL, which "
                f"SQLite lacks: {reason}"
            )
        for hazard in (
            _three_valued_hazard(prepared, database),
            _text_cast_hazard(prepared, record.cast_reads, database),
        ):
            if hazard:
                problems.append(hazard)
        if not problems:
            try:
                compile_sql(node, database, decorrelate=decorrelate)
            except BackendUnsupported as exc:
                problems.append(str(exc))
        return list(dict.fromkeys(problems))

    def run(self, node, context):
        database, deadline, tracer = context.database, context.deadline, context.tracer
        db_file = context.options.db_file
        with NULL_SPAN if tracer is None else tracer.span("sql.compile"):
            prepared, sql = compile_sql(
                node, database, decorrelate=context.options.decorrelate
            )
        try:
            conn = context.acquire_connection()
        except sqlite3.Error as exc:
            # Connection/catalog-load faults are infrastructure refusals:
            # surface them typed so the registry can fall back cleanly.
            raise BackendUnsupported(
                f"SQLite connection failed ({exc})"
            ) from exc
        armed = deadline is not None and deadline.timeout_ms is not None
        if armed:
            # Nonzero return aborts the VM, which surfaces as
            # OperationalError("interrupted") — mapped to QueryTimeout
            # below, *before* the generic BackendUnsupported wrap (a
            # timed-out query must not fall back and run away again).
            conn.set_progress_handler(
                lambda: 1 if deadline.expired() else 0, _PROGRESS_STRIDE
            )
        try:
            with NULL_SPAN if tracer is None else tracer.span(
                "sqlite.execute"
            ) as span:
                try:
                    cursor = execute_with_retry(
                        conn, sql, stats_obj=context.stats, tracer=tracer
                    )
                    if deadline is None:
                        raw = cursor.fetchall()
                    else:
                        raw = []
                        while chunk := cursor.fetchmany(_FETCH_ROWS):
                            deadline.count_rows(len(chunk))
                            deadline.check()
                            raw.extend(chunk)
                except sqlite3.Error as exc:
                    if armed and deadline.expired():
                        raise QueryTimeout(
                            f"query exceeded its {deadline.timeout_ms} ms "
                            "deadline (aborted inside SQLite)"
                        ) from exc
                    raise BackendUnsupported(
                        f"SQLite rejected the rendered query ({exc})"
                    ) from exc
                span.tag(rows=len(raw))
        finally:
            if armed:
                conn.set_progress_handler(None, 0)
            if db_file is not None:
                conn.close()
        return _shape_result(prepared, raw)


def _shape_result(prepared, raw):
    """Coerce the cursor rows back into the node's result type."""
    main = prepared.resolve_main() if isinstance(prepared, n.Program) else prepared
    if isinstance(main, n.Sentence):
        # SQL's EXISTS is two-valued: an UNKNOWN-only sentence collapses to
        # FALSE, which is exactly how SQL itself answers the rendered query.
        return Truth.TRUE if raw and raw[0][0] else Truth.FALSE
    head = main.head
    attrs = tuple(head.attrs)
    # Cursor rows are plain tuples of primitives, which hash at C speed:
    # counting them gives the value-backed answer's rows directly, and
    # no Tuple is built unless a caller reads the rows by name.
    counts = Counter(raw)
    # One cursor: every row is as wide as the first.
    width = len(next(iter(counts), attrs))
    if width != len(attrs):
        raise BackendUnsupported(
            f"SQLite returned {width} columns for head "
            f"{head.name}({', '.join(attrs)})"
        )
    if None in chain.from_iterable(counts):
        counts = {
            tuple([NULL if v is None else v for v in values])
            if None in values else values: mult
            for values, mult in counts.items()
        }
    return Relation._adopt_values(head.name, attrs, counts)

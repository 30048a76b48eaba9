"""ARC abstract syntax: the node vocabulary of the Abstract Relational Calculus.

These nodes are the *language-independent* representation the paper calls for
(Section 2): a small, reusable operator vocabulary in which binding, scoping,
and grouping structure is explicit.  Every frontend (comprehension syntax,
SQL, Datalog, TRC, Rel) parses into these nodes, every modality (ALT text,
higraph, comprehension text, SQL) renders out of them, and the evaluator
interprets them directly under a :class:`~repro.core.conventions.Conventions`.

Design notes
------------
* Nodes are plain dataclasses with **identity-based hashing** (``eq=False``)
  so linker/validator annotations can live in side tables keyed by node.
  Structural equality is a separate, explicit operation
  (:func:`structurally_equal`), used by tests and canonicalization.
* A :class:`Collection` is the paper's central construct: a head plus a body
  formula; head attributes receive values only through *assignment
  predicates* (strict scoping, Section 2.1).
* A :class:`Quantifier` introduces one or more bindings, an optional grouping
  operator (``γ keys`` or ``γ∅``), and an optional join-annotation tree for
  outer joins (Section 2.11).
* :class:`Program` holds defined relations (views / IDBs / recursive
  definitions, Fig. 14) next to a main query.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from ..data.values import is_null


AGGREGATE_FUNCTIONS = (
    "sum",
    "count",
    "avg",
    "min",
    "max",
    "sumdistinct",
    "countdistinct",
    "avgdistinct",
)

COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")
JOIN_KINDS = ("inner", "left", "full")


class Node:
    """Base class for every ARC AST node."""

    def children(self):
        """Child nodes, as a list in deterministic (field) order."""
        out = []
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                out.extend(item for item in value if isinstance(item, Node))
        return out

    def walk(self):
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def label(self):
        """Short label for this node (used by ALT rendering and debugging)."""
        return type(self).__name__

    def __repr__(self):
        parts = [f"{name}={getattr(self, name)!r}" for name in _field_names(type(self))]
        return f"{type(self).__name__}({', '.join(parts)})"


@functools.cache
def _field_names(cls):
    """The dataclass field names of *cls*, computed once per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class Expr(Node):
    """Marker base class for value expressions."""


@dataclass(eq=False, repr=False)
class Attr(Expr):
    """Attribute reference ``var.attr`` (a range variable's named attribute)."""

    var: str
    attr: str

    def label(self):
        return f"{self.var}.{self.attr}"


@dataclass(eq=False, repr=False)
class Const(Expr):
    """A literal constant (int, float, str, bool, or NULL)."""

    value: object

    def label(self):
        return repr(self.value)


@dataclass(eq=False, repr=False)
class Arith(Expr):
    """Binary arithmetic over expressions; NULL propagates per convention."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ARITHMETIC_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def label(self):
        return self.op


@dataclass(eq=False, repr=False)
class AggCall(Expr):
    """Aggregate term, e.g. ``sum(r.B)`` or ``count(s.d)``.

    Aggregates appear as *operands in predicates* (Section 2.5).  The
    argument may be any scalar expression over the grouping scope's
    variables (``sum(a.val * b.val)`` in the matrix example); ``arg=None``
    means "count rows" (SQL ``COUNT(*)``).
    """

    func: str
    arg: Expr | None

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.arg is None and self.func != "count":
            raise ValueError(f"aggregate {self.func!r} requires an argument")

    @property
    def distinct(self):
        return self.func.endswith("distinct")

    def label(self):
        return f"{self.func}(...)" if self.arg is not None else "count(*)"


# ---------------------------------------------------------------------------
# Formulas (predicates and logical structure)
# ---------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class Formula(Node):
    """Marker base class for boolean-valued formulas."""


@dataclass(eq=False, repr=False)
class Comparison(Formula):
    """A predicate ``left op right``.

    Three roles (distinguished by the linker, not by the syntax):

    * **comparison predicate** — both sides over bound range variables;
    * **assignment predicate** — ``H.attr = expr`` where ``H`` is the head of
      the enclosing collection (the paper's explicit head assignments);
    * **aggregation predicate** — either side contains an :class:`AggCall`
      (may simultaneously be an assignment, Fig. 4, or a comparison, Fig. 9).
    """

    left: Expr
    op: str
    right: Expr

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def has_aggregate(self):
        return bool(facts(self).aggregates)

    def label(self):
        return self.op


@dataclass(eq=False, repr=False)
class IsNull(Formula):
    """``expr IS [NOT] NULL`` — explicit two-valued null test (Fig. 11)."""

    expr: Expr
    negated: bool = False

    def label(self):
        return "is not null" if self.negated else "is null"


@dataclass(eq=False, repr=False)
class BoolConst(Formula):
    """A constant truth value (used for vacuous bodies, e.g. ``ON true``)."""

    value: bool

    def label(self):
        return "true" if self.value else "false"


@dataclass(eq=False, repr=False)
class And(Formula):
    """Conjunction of any number of formulas."""

    children_list: list = field(default_factory=list)

    def label(self):
        return "AND ∧"


@dataclass(eq=False, repr=False)
class Or(Formula):
    """Disjunction; also models union of multiple Datalog rules (Fig. 10)."""

    children_list: list = field(default_factory=list)

    def label(self):
        return "OR ∨"


@dataclass(eq=False, repr=False)
class Not(Formula):
    """Negation; scopes are explicit so the higraph can draw negation regions."""

    child: Formula

    def label(self):
        return "NOT ¬"


# ---------------------------------------------------------------------------
# Bindings, grouping, joins, quantification
# ---------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class RelationRef(Node):
    """Reference to a relation by name.

    Whether the name denotes a base, intensional (defined), or external
    relation is resolved by the linker against the program and the external
    registry — the syntax is uniform, matching the paper's "everything is a
    relation" stance (Section 2.13).
    """

    name: str

    def label(self):
        return self.name


@dataclass(eq=False, repr=False)
class Binding(Node):
    """A range variable bound to a relation or to a nested collection.

    ``r ∈ R`` or ``x ∈ {X(sm) | ...}`` — the latter gives lateral /
    correlated nesting (Section 2.4): the nested collection may reference
    bindings introduced *earlier* in the same scope and in enclosing scopes.
    """

    var: str
    source: Node  # RelationRef | Collection

    def label(self):
        if isinstance(self.source, RelationRef):
            return f"BINDING: {self.var} ∈ {self.source.name}"
        return f"BINDING: {self.var} ∈ "


@dataclass(eq=False, repr=False)
class Grouping(Node):
    """The grouping operator ``γ`` with its key attributes.

    ``keys=()`` is the explicit ``γ∅`` ("group by true"): a single group over
    the whole scope — crucially, **one group even over empty input**, which
    is exactly what distinguishes the correct and incorrect count-bug
    rewrites (Section 3.2).
    """

    keys: tuple = ()

    def label(self):
        if not self.keys:
            return "GROUPING: ∅"
        return "GROUPING: " + ", ".join(k.label() for k in self.keys)


@dataclass(eq=False, repr=False)
class JoinExpr(Node):
    """Marker base for join-annotation trees (Section 2.11)."""


@dataclass(eq=False, repr=False)
class JoinVar(JoinExpr):
    """Leaf of a join annotation: one of the scope's range variables."""

    var: str

    def label(self):
        return self.var


@dataclass(eq=False, repr=False)
class JoinConst(JoinExpr):
    """Literal leaf: a singleton virtual unary table holding one constant
    (the ``inner(11, s)`` device of Fig. 12)."""

    value: object

    def label(self):
        return repr(self.value)


@dataclass(eq=False, repr=False)
class Join(JoinExpr):
    """Interior node: ``inner`` is k-ary, ``left``/``full`` binary."""

    kind: str
    children_list: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {self.kind!r}")
        if self.kind in ("left", "full") and len(self.children_list) != 2:
            raise ValueError(f"{self.kind} join annotation must be binary")

    def label(self):
        return f"JOIN: {self.kind}"


@dataclass(eq=False, repr=False)
class Quantifier(Formula):
    """Existential quantification introducing bindings (and optional γ / joins).

    The body formula is evaluated once per combination of bindings (the
    conceptual nested-loop strategy, Section 2.3).  The presence of any
    aggregation predicate in the directly-owned predicates turns the scope
    into a *grouping scope* and requires ``grouping`` to be present
    (validator-enforced).
    """

    bindings: list = field(default_factory=list)
    body: Formula = None
    grouping: Grouping | None = None
    join: JoinExpr | None = None

    def label(self):
        return "QUANTIFIER ∃"


# ---------------------------------------------------------------------------
# Collections, sentences, programs
# ---------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class Head(Node):
    """Output relation declaration ``Q(A, B, ...)`` of a collection."""

    name: str
    attrs: tuple = ()

    def label(self):
        return f"HEAD: {self.name}({','.join(self.attrs)})"


@dataclass(eq=False, repr=False)
class Collection(Formula):
    """``{ Head | body }`` — the declarative specification of a relation.

    Heads are *clean* (Section 2.1): body variables never appear in the head;
    instead assignment predicates ``Head.attr = expr`` populate the output.
    A Collection can appear as a query, as a binding source (nested
    comprehension = lateral join), or as a defined relation in a program.
    """

    head: Head = None
    body: Formula = None

    def label(self):
        return "COLLECTION"


@dataclass(eq=False, repr=False)
class Sentence(Node):
    """A boolean query — a body with no head (Fig. 9, integrity constraints)."""

    body: Formula = None

    def label(self):
        return "SENTENCE"


@dataclass(eq=False, repr=False)
class Program(Node):
    """A set of defined relations plus a main query.

    ``definitions`` maps relation names to their defining Collections;
    definitions may reference each other and themselves (recursion,
    Section 2.9 — least-fixed-point semantics).  ``main`` is a Collection,
    Sentence, or the name of a definition.
    """

    definitions: dict = field(default_factory=dict)
    main: object = None

    def children(self):
        out = list(self.definitions.values())
        if isinstance(self.main, Node):
            out.append(self.main)
        return out

    def resolve_main(self):
        """Return the main query node (dereferencing a name if needed)."""
        if isinstance(self.main, str):
            return self.definitions[self.main]
        return self.main

    def label(self):
        return "PROGRAM"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def structurally_equal(a, b):
    """Exact structural equality (same node types, fields, and child order).

    Variable *names* matter here; use
    :func:`repro.analysis.canonical.canonicalize` first for name-insensitive
    pattern equality.
    """
    if type(a) is not type(b):
        return False
    if not isinstance(a, Node):
        return a == b
    for name in _field_names(type(a)):
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, Node) or isinstance(vb, Node):
            if not structurally_equal(va, vb):
                return False
        elif isinstance(va, (list, tuple)) and isinstance(vb, (list, tuple)):
            if len(va) != len(vb):
                return False
            for ia, ib in zip(va, vb):
                if isinstance(ia, Node) or isinstance(ib, Node):
                    if not structurally_equal(ia, ib):
                        return False
                elif ia != ib:
                    return False
        elif isinstance(va, dict) and isinstance(vb, dict):
            if set(va) != set(vb):
                return False
            for key in va:
                if not structurally_equal(va[key], vb[key]):
                    return False
        elif va != vb:
            return False
    return True


def clone(node):
    """Deep-copy an AST subtree (new node identities, same structure)."""
    return transform(node, lambda rebuilt: rebuilt)


def transform(node, fn):
    """Rebuild the tree bottom-up, applying *fn* to every (rebuilt) node.

    *fn* receives a freshly cloned node whose children have already been
    transformed, and returns a replacement node (or the same node).
    """
    if not isinstance(node, Node):
        return node
    kwargs = {}
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            kwargs[name] = transform(value, fn)
        elif isinstance(value, list):
            kwargs[name] = [transform(v, fn) if isinstance(v, Node) else v for v in value]
        elif isinstance(value, tuple):
            kwargs[name] = tuple(
                transform(v, fn) if isinstance(v, Node) else v for v in value
            )
        elif isinstance(value, dict):
            kwargs[name] = {
                k: transform(v, fn) if isinstance(v, Node) else v for k, v in value.items()
            }
        else:
            kwargs[name] = value
    rebuilt = type(node)(**kwargs)
    return fn(rebuilt)


class Facts(NamedTuple):
    """What a subtree holds, merged from its children's (see :func:`facts`)."""

    relation_refs: tuple  # RelationRef names, in pre-order
    heads: frozenset  # head names of every Collection
    aggregates: tuple  # AggCall nodes, in pre-order
    null_literal: bool  # some Const is NULL
    negated_quantifier: bool  # some Quantifier or Collection sits under a Not
    # Operands, not the nodes: a record that held its own node (the key
    # of its weak cache entry) would keep that entry alive forever.
    arithmetic: tuple  # (op, left, right) of each Arith, in pre-order
    comparisons: tuple  # (op, left, right) of each Comparison, in pre-order
    vars: frozenset  # the variable of every Attr
    free: frozenset  # the Attr variables no enclosed scope binds
    join_vars: frozenset  # JoinVar leaves
    join_consts: frozenset  # JoinConst leaf values
    scoped: bool  # some Quantifier or Collection occurs


_FACTS = weakref.WeakKeyDictionary()
_NONE = frozenset()
_EMPTY = Facts((), _NONE, (), False, False, (), (), _NONE, _NONE, _NONE, _NONE, False)


def _names(name):
    return frozenset((name,))


def _attr_facts(attr):
    names = _names(attr.var)
    return Facts((), _NONE, (), False, False, (), (), names, names, _NONE, _NONE, False)


# Childless nodes: their records are shared or built on demand, never
# cached, so the many Attr and Const leaves of a live AST cost no entry.
_LEAVES = {
    Attr: _attr_facts,
    Const: lambda c: _EMPTY._replace(null_literal=True) if is_null(c.value) else _EMPTY,
    RelationRef: lambda r: _EMPTY._replace(relation_refs=(r.name,)),
    JoinVar: lambda j: _EMPTY._replace(join_vars=_names(j.var)),
    JoinConst: lambda j: _EMPTY._replace(join_consts=_names(j.value)),
    Head: lambda h: _EMPTY,
    BoolConst: lambda b: _EMPTY,
}


def facts(node):
    """The :class:`Facts` of *node*'s subtree.

    Static questions about a query (which relations it reads, which
    variables it uses or leaves free, whether an aggregate or a NULL
    literal occurs, ...) all read this record.  One post-order walk records
    every subtree it has not seen, each record merged from its children's,
    so ``facts(sub)`` after ``facts(root)`` walks nothing.  Records are
    weakly cached per node, which treats an analysed AST as immutable — as
    every other per-node cache of the engine does.  Leaves are not cached
    (:data:`_LEAVES`), nor is an AggCall, whose record lists the node itself
    among its aggregates and would keep its own weak key alive.
    """
    leaf = _LEAVES.get(type(node))
    found = leaf(node) if leaf is not None else _FACTS.get(node)
    if found is not None:
        return found
    order, stack, made = [], [node], {}
    while stack:
        sub = stack.pop()
        kids = sub.children()
        order.append((sub, kids))
        for kid in kids:
            leaf = _LEAVES.get(type(kid))
            found = leaf(kid) if leaf is not None else _FACTS.get(kid)
            if found is None:
                stack.append(kid)
            else:
                made[id(kid)] = found
    for sub, kids in reversed(order):
        found = made[id(sub)] = _combine(sub, [made[id(k)] for k in kids])
        if type(sub) is not AggCall:
            _FACTS[sub] = found
    return found


def _combine(node, records):
    """*node*'s record: its children's *records* (in ``children()``
    order) merged, plus what *node* itself adds."""
    found = functools.reduce(_merge, records, _EMPTY)
    kind = type(node)
    if kind is Comparison or kind is Arith:
        field = "comparisons" if kind is Comparison else "arithmetic"
        own = ((node.op, node.left, node.right),)
        return _set(found, field, own + getattr(found, field))
    if kind is AggCall:
        return _set(found, "aggregates", (node,) + found.aggregates)
    if kind is Not:
        return _set(found, "negated_quantifier", True) if found.scoped else found
    if kind is Collection:
        head = _names(node.head.name)
        return found._replace(
            heads=_union(found.heads, head), free=_without(found.free, head), scoped=True
        )
    if kind is Quantifier:
        # A binding's source sees the bindings before it (lateral nesting);
        # the body and the grouping keys see them all.
        scope = [binding.var for binding in node.bindings]
        free = (_without(r.free, scope[:i]) for i, r in enumerate(records))
        return found._replace(free=functools.reduce(_union, free, _NONE), scoped=True)
    return found


def _set(record, field, value):
    """``record._replace(field=value)``, without its keyword machinery."""
    index = Facts._fields.index(field)
    return tuple.__new__(Facts, (*record[:index], value, *record[index + 1 :]))


# A merged field is one of its parts whenever the other adds nothing to it
# (``t + ()`` is ``t``), so most records share their fields with the
# records below them; below the first binder ``free`` stays ``vars``.
def _merge(a, b):
    if a is _EMPTY or b is _EMPTY:
        return b if a is _EMPTY else a
    names = _union(a.vars, b.vars)
    shared = a.free is a.vars and b.free is b.vars
    return Facts(
        a.relation_refs + b.relation_refs,
        _union(a.heads, b.heads),
        a.aggregates + b.aggregates,
        a.null_literal or b.null_literal,
        a.negated_quantifier or b.negated_quantifier,
        a.arithmetic + b.arithmetic,
        a.comparisons + b.comparisons,
        names,
        names if shared else _union(a.free, b.free),
        _union(a.join_vars, b.join_vars),
        _union(a.join_consts, b.join_consts),
        a.scoped or b.scoped,
    )


def _union(a, b):
    return a if b <= a else b if a <= b else a | b


def _without(names, bound):
    return names if names.isdisjoint(bound) else names.difference(bound)


def vars_used(node):
    """All range-variable names referenced by attributes in the subtree."""
    return facts(node).vars


def conjuncts(formula):
    """Flatten a formula into its top-level conjuncts."""
    if isinstance(formula, And):
        result = []
        for child in formula.children_list:
            result.extend(conjuncts(child))
        return result
    if formula is None:
        return []
    return [formula]


def make_and(formulas):
    """Build a conjunction, collapsing trivial cases."""
    flat = []
    for f in formulas:
        flat.extend(conjuncts(f))
    flat = [f for f in flat if not (isinstance(f, BoolConst) and f.value)]
    if not flat:
        return BoolConst(True)
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def make_or(formulas):
    formulas = list(formulas)
    if not formulas:
        return BoolConst(False)
    if len(formulas) == 1:
        return formulas[0]
    flat = []
    for f in formulas:
        if isinstance(f, Or):
            flat.extend(f.children_list)
        else:
            flat.append(f)
    return Or(flat)

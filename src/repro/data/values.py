"""Value domain for the relational substrate.

The ARC evaluator works over ordinary Python scalars (``int``, ``float``,
``str``, ``bool``) extended with a single missing-value marker ``NULL`` and a
three-valued logic (Kleene) used wherever the active conventions say
comparisons involving ``NULL`` are *unknown* rather than false.

The paper treats null handling as a *convention* (Section 2.6/2.10): the same
relational pattern can be interpreted under SQL-style three-valued logic or
under a two-valued logic with explicit ``IS NULL`` predicates.  This module
supplies both the marker and the truth algebra so the evaluator can honour
either convention.
"""

from __future__ import annotations

import enum
from functools import total_ordering

from ..errors import EvaluationError


class _NullType:
    """Singleton marker for a missing value (SQL ``NULL``).

    ``NULL`` is distinct from Python ``None`` so that ``None`` can keep its
    usual "no argument" meaning in APIs.  ``NULL`` compares equal only to
    itself at the *Python* level (so relations can be hashed and dedupe
    correctly, mirroring SQL's grouping behaviour where NULLs fall into one
    group), while *query-level* comparisons go through :func:`compare` and
    return :data:`Truth.UNKNOWN`.  Being a singleton, it keeps the default
    identity equality, so ``NULL in row`` costs no Python call per cell.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NULL"

    def __bool__(self):
        return False

    def __hash__(self):
        return hash("__arc_null__")

    def __reduce__(self):
        return (_NullType, ())


NULL = _NullType()


def is_null(value):
    """Return True when *value* is the SQL-style ``NULL`` marker."""
    return isinstance(value, _NullType)


@total_ordering
class Truth(enum.Enum):
    """Kleene three-valued truth values, ordered FALSE < UNKNOWN < TRUE.

    The ordering makes the fold for quantifiers natural: existential
    quantification is a ``max`` over rows and universal quantification a
    ``min`` (Section 2.10 of the paper; standard SQL semantics).
    """

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    def __lt__(self, other):
        if not isinstance(other, Truth):
            return NotImplemented
        return self.value < other.value

    def __bool__(self):
        """Truthiness collapses to two-valued logic: only TRUE is truthy.

        This mirrors SQL's rule that a WHERE clause keeps a row only when the
        condition is TRUE (UNKNOWN filters the row out).
        """
        return self is Truth.TRUE

    @staticmethod
    def of(value):
        """Lift a Python bool (or NULL) into the three-valued domain."""
        if is_null(value):
            return Truth.UNKNOWN
        return Truth.TRUE if value else Truth.FALSE


TRUE = Truth.TRUE
FALSE = Truth.FALSE
UNKNOWN = Truth.UNKNOWN


def t_not(t):
    """Kleene negation."""
    if t is Truth.TRUE:
        return Truth.FALSE
    if t is Truth.FALSE:
        return Truth.TRUE
    return Truth.UNKNOWN


def t_and(*ts):
    """Kleene conjunction of any number of truth values (min)."""
    result = Truth.TRUE
    for t in ts:
        if t is Truth.FALSE:
            return Truth.FALSE
        if t is Truth.UNKNOWN:
            result = Truth.UNKNOWN
    return result


def t_or(*ts):
    """Kleene disjunction of any number of truth values (max)."""
    result = Truth.FALSE
    for t in ts:
        if t is Truth.TRUE:
            return Truth.TRUE
        if t is Truth.UNKNOWN:
            result = Truth.UNKNOWN
    return result


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare(left, op, right, *, three_valued=True):
    """Compare two values under the given operator, yielding a :class:`Truth`.

    Under three-valued logic (the SQL convention) any comparison touching
    ``NULL`` is UNKNOWN.  Under two-valued logic, ``NULL`` participates as an
    ordinary domain value: ``NULL = NULL`` is TRUE and ``NULL`` is distinct
    from every other value (the convention used by null-free languages such
    as Soufflé, and by the paper's two-valued rewrite in Fig. 11).
    """
    if op not in _COMPARATORS:
        raise ValueError(f"unknown comparison operator {op!r}")
    if is_null(left) or is_null(right):
        if three_valued:
            return Truth.UNKNOWN
        if op in ("=",):
            return Truth.of(is_null(left) and is_null(right))
        if op in ("<>", "!="):
            return Truth.of(not (is_null(left) and is_null(right)))
        # Ordering against NULL in two-valued mode: NULL sorts before
        # everything, mirroring a total order extension.
        left_key = (0, 0) if is_null(left) else (1, left)
        right_key = (0, 0) if is_null(right) else (1, right)
        try:
            return Truth.of(_COMPARATORS[op](left_key, right_key))
        except TypeError:
            return Truth.FALSE
    try:
        return Truth.of(_COMPARATORS[op](left, right))
    except TypeError:
        # Heterogeneous comparisons (e.g. str vs int) are FALSE for ordering
        # and handled structurally for (in)equality.
        if op == "=":
            return Truth.FALSE
        if op in ("<>", "!="):
            return Truth.TRUE
        return Truth.FALSE


def arithmetic(op, left, right):
    """Evaluate a binary arithmetic operator; NULL propagates (SQL convention).

    An operand that is not a number raises an :class:`EvaluationError`
    naming the operator and the value (Python would concatenate or repeat
    a string, or raise a ``TypeError``).
    """
    if is_null(left) or is_null(right):
        return NULL
    if not (isinstance(left, (int, float)) and isinstance(right, (int, float))):
        culprit = right if isinstance(left, (int, float)) else left
        raise EvaluationError(f"arithmetic {op} over a non-numeric value: {culprit!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return NULL
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return NULL
        return left % right
    raise ValueError(f"unknown arithmetic operator {op!r}")


def sort_key(value):
    """Total-order key over the heterogeneous value domain (NULL first)."""
    if is_null(value):
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (2, "", value)
    return (3, str(value), 0)

"""Named relational-pattern detectors.

The paper's stated goal is a *shared vocabulary*: "It lets us point at a
query in Soufflé and say 'FOI aggregation'" (Section 4).  These detectors
implement that vocabulary over linked ARC queries:

* **FIO aggregation** — grouping and aggregation in the same scope as the
  head assignments (SQL GROUP BY, Fig. 4);
* **FOI aggregation** — a correlated nested collection with a grouping
  scope whose keys come *from the outside in* (Klug/Hella/Soufflé, Fig. 5);
* **semijoin** — a nested existential scope with no head assignments;
* **antijoin** — a negated existential scope (NOT EXISTS / NOT IN);
* **division** — doubly nested negation (the relational division /
  unique-set family, Fig. 17);
* **correlated lateral** — a nested collection referencing outer bindings;
* **aggregate test** — an aggregation *comparison* predicate (an aggregate
  used as a test rather than a value, the count-bug diagnostic).
"""

from __future__ import annotations

from ..core import nodes as n


def detect_patterns(root):
    """Return the set of pattern names present in *root*."""
    found = set()
    head_names = set()
    if isinstance(root, n.Program):
        for definition in root.definitions.values():
            found |= detect_patterns(definition)
        main = root.resolve_main()
        if isinstance(main, n.Node) and main not in set(root.definitions.values()):
            found |= detect_patterns(main)
        return found
    if isinstance(root, n.Collection):
        head_names.add(root.head.name)
        _scan(root.body, found, head_names, negation_depth=0, in_nested=False)
        if _is_recursive(root):
            found.add("recursion")
    elif isinstance(root, n.Sentence):
        _scan(root.body, found, head_names, negation_depth=0, in_nested=False)
    return found


def _scan(formula, found, head_names, *, negation_depth, in_nested):
    if formula is None:
        return
    if isinstance(formula, n.Quantifier):
        _scan_quantifier(formula, found, head_names, negation_depth, in_nested)
        return
    if isinstance(formula, (n.And, n.Or)):
        if isinstance(formula, n.Or):
            found.add("disjunction")
        for child in formula.children_list:
            _scan(child, found, head_names, negation_depth=negation_depth, in_nested=in_nested)
        return
    if isinstance(formula, n.Not):
        if isinstance(formula.child, n.Quantifier):
            found.add("antijoin")
        if negation_depth >= 1:
            found.add("division")
        _scan(
            formula.child,
            found,
            head_names,
            negation_depth=negation_depth + 1,
            in_nested=in_nested,
        )
        return
    if isinstance(formula, n.Comparison):
        if formula.has_aggregate():
            assigns = any(
                isinstance(side, n.Attr) and side.var in head_names
                for side in (formula.left, formula.right)
            )
            if not assigns:
                found.add("aggregate-test")
        return
    if isinstance(formula, n.Collection):
        head_names = head_names | {formula.head.name}
        _scan(formula.body, found, head_names, negation_depth=negation_depth, in_nested=True)


def _scan_quantifier(quant, found, head_names, negation_depth, in_nested):
    has_aggregate = any(
        isinstance(c, n.Comparison) and c.has_aggregate()
        for c in n.conjuncts(quant.body)
    )
    if quant.grouping is not None and has_aggregate:
        if in_nested and _is_correlated(quant, head_names):
            found.add("foi-aggregation")
        else:
            found.add("fio-aggregation")
    if quant.join is not None:
        if any(
            isinstance(j, n.Join) and j.kind in ("left", "full")
            for j in quant.join.walk()
        ):
            found.add("outer-join")
    for binding in quant.bindings:
        if isinstance(binding.source, n.Collection):
            found.add("lateral")
            if n.facts(binding.source).free:
                found.add("correlated-lateral")
            nested_heads = head_names | {binding.source.head.name}
            _scan(
                binding.source.body,
                found,
                nested_heads,
                negation_depth=negation_depth,
                in_nested=True,
            )
    for conjunct in n.conjuncts(quant.body):
        if isinstance(conjunct, n.Quantifier):
            if not _assigns_any_head(conjunct, head_names):
                found.add("semijoin")
            _scan_quantifier(conjunct, found, head_names, negation_depth, in_nested)
        else:
            _scan(
                conjunct,
                found,
                head_names,
                negation_depth=negation_depth,
                in_nested=in_nested,
            )


def _assigns_any_head(quant, head_names):
    return any(
        op == "=" and isinstance(side, n.Attr) and side.var in head_names
        for op, *sides in n.facts(quant).comparisons
        for side in sides
    )


def _is_correlated(quant, head_names=()):
    return not n.facts(quant).free <= set(head_names)


def _is_recursive(collection):
    return collection.head.name in n.facts(collection).relation_refs

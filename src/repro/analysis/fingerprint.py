"""Pattern fingerprints: compact identifiers for relational patterns.

A fingerprint is a stable hash of a query's canonical form.  Two queries
share a fingerprint iff their relational patterns are identical up to
variable naming, conjunct order, and comparison orientation — the paper's
notion of the *relational pattern* of a query (Section 1).

The ``anonymize_relations`` flag produces shape fingerprints that also
ignore relation names, so the same pattern over different schemas matches
(e.g. recognizing "FOI aggregation" regardless of the tables involved).
"""

from __future__ import annotations

import hashlib

from .canonical import canonical_text


def fingerprint(node, *, anonymize_relations=False):
    """A 16-hex-digit stable fingerprint of the query's relational pattern."""
    text = canonical_text(node, anonymize_relations=anonymize_relations)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def same_pattern(node_a, node_b, *, anonymize_relations=False):
    """True when the two queries have the identical relational pattern."""
    return fingerprint(node_a, anonymize_relations=anonymize_relations) == fingerprint(
        node_b, anonymize_relations=anonymize_relations
    )


def pattern_summary(node):
    """Human-readable feature summary of the query's pattern.

    Counts the pattern-relevant features: scopes, bindings, nesting depth,
    grouping scopes, negations, disjunctions, aggregates, outer joins.
    Useful as a cheap similarity pre-filter and for corpus statistics.
    """
    from ..core import nodes as n

    features = {
        "scopes": 0,
        "bindings": 0,
        "nested_collections": 0,
        "grouping_scopes": 0,
        "empty_groupings": 0,
        "negations": 0,
        "disjunctions": 0,
        "aggregates": 0,
        "outer_joins": 0,
        "comparisons": 0,
        "max_depth": 0,
    }

    def visit(item, depth):
        features["max_depth"] = max(features["max_depth"], depth)
        if isinstance(item, n.Quantifier):
            features["scopes"] += 1
            features["bindings"] += len(item.bindings)
            if item.grouping is not None:
                features["grouping_scopes"] += 1
                if not item.grouping.keys:
                    features["empty_groupings"] += 1
            if item.join is not None:
                features["outer_joins"] += sum(
                    1
                    for j in item.join.walk()
                    if isinstance(j, n.Join) and j.kind in ("left", "full")
                )
            for binding in item.bindings:
                if isinstance(binding.source, n.Collection):
                    features["nested_collections"] += 1
                    visit(binding.source.body, depth + 1)
            visit(item.body, depth + 1)
            return
        if isinstance(item, n.Not):
            features["negations"] += 1
            visit(item.child, depth + 1)
            return
        if isinstance(item, n.Or):
            features["disjunctions"] += 1
            for child in item.children_list:
                visit(child, depth)
            return
        if isinstance(item, n.And):
            for child in item.children_list:
                visit(child, depth)
            return
        if isinstance(item, n.Comparison):
            features["comparisons"] += 1
            features["aggregates"] += len(n.facts(item).aggregates)
            return
        if isinstance(item, n.Collection):
            visit(item.body, depth)

    root = node
    if isinstance(node, n.Program):
        for definition in node.definitions.values():
            visit(definition.body, 0)
        main = node.resolve_main()
        if isinstance(main, n.Node) and main not in set(node.definitions.values()):
            root = main
        else:
            return features
    if isinstance(root, n.Collection):
        visit(root.body, 0)
    elif isinstance(root, n.Sentence):
        visit(root.body, 0)
    else:
        visit(root, 0)
    return features

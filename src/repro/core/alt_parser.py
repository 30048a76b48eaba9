"""Parsing the ALT text modality back into an ARC AST.

The paper's modalities are "mechanically inter-translatable representations
of the same language" (Section 1).  :mod:`repro.core.alt` renders an AST as
the box-drawing ALT; this module is the inverse, so the machine-facing
modality is genuinely lossless::

    parse_alt(render_alt(query))  ≡  query      (structurally)

The higraph modality remains render-only by design: it is the human-facing
*view* of the same linked structure.
"""

from __future__ import annotations

from ..errors import ParseError
from . import nodes as n
from .parser import _Parser

_BRANCH_MARKS = ("├─ ", "└─ ")
_LEVEL_WIDTH = 3  # every nesting level adds "│  " or "   "


class _AltNode:
    __slots__ = ("label", "children")

    def __init__(self, label):
        self.label = label
        self.children = []


def parse_alt(text):
    """Parse ALT box-drawing text into a Collection, Sentence, or Program."""
    tree = _parse_tree(text)
    return _convert_root(tree)


def _parse_tree(text):
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty ALT text")
    # The LINKS overlay section (if present) is informational only.
    if "LINKS:" in lines:
        lines = lines[: lines.index("LINKS:")]
    root = _AltNode(lines[0].strip())
    stack = [(0, root)]  # (depth, node)
    for line in lines[1:]:
        depth, label = _split_line(line)
        node = _AltNode(label)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack:
            raise ParseError(f"ALT line has no parent: {line!r}")
        stack[-1][1].children.append(node)
        stack.append((depth, node))
    return root


def _split_line(line):
    for mark in _BRANCH_MARKS:
        index = line.find(mark)
        if index >= 0:
            depth = index // _LEVEL_WIDTH + 1
            return depth, line[index + len(mark) :].strip()
    raise ParseError(f"not an ALT branch line: {line!r}")


# ---------------------------------------------------------------------------
# Conversion to AST nodes
# ---------------------------------------------------------------------------


def _convert_root(node):
    if node.label == "PROGRAM":
        definitions = {}
        main = None
        for child in node.children:
            if child.label.startswith("DEFINE: "):
                name = child.label[len("DEFINE: ") :]
                definitions[name] = _convert_collection(child.children[0])
            elif child.label.startswith("MAIN: "):
                main = child.label[len("MAIN: ") :]
            elif child.label == "MAIN:":
                main = _convert_root(child.children[0])
        return n.Program(definitions, main)
    if node.label == "COLLECTION":
        return _convert_collection(node)
    if node.label == "SENTENCE":
        return n.Sentence(_convert_formula(node.children[0]))
    raise ParseError(f"unexpected ALT root {node.label!r}")


def _convert_collection(node):
    if node.label != "COLLECTION":
        raise ParseError(f"expected COLLECTION, got {node.label!r}")
    head_node = node.children[0]
    if not head_node.label.startswith("HEAD: "):
        raise ParseError(f"expected HEAD line, got {head_node.label!r}")
    head = _parse_head(head_node.label[len("HEAD: ") :])
    body_children = node.children[1:]
    if len(body_children) != 1:
        raise ParseError("COLLECTION must have exactly one body subtree")
    return n.Collection(head, _convert_formula(body_children[0]))


def _parse_head(text):
    name, _, attrs_text = text.partition("(")
    if not attrs_text.endswith(")"):
        raise ParseError(f"malformed head {text!r}")
    attrs_text = attrs_text[:-1]
    attrs = tuple(a.strip() for a in attrs_text.split(",") if a.strip())
    return n.Head(name.strip(), attrs)


def _convert_formula(node):
    label = node.label
    if label.startswith("QUANTIFIER"):
        return _convert_quantifier(node)
    if label.startswith("AND"):
        return n.And([_convert_formula(c) for c in node.children])
    if label.startswith("OR"):
        return n.Or([_convert_formula(c) for c in node.children])
    if label.startswith("NOT"):
        return n.Not(_convert_formula(node.children[0]))
    if label.startswith("PREDICATE: "):
        return _parse_predicate(label[len("PREDICATE: ") :])
    if label == "COLLECTION":
        return _convert_collection(node)
    raise ParseError(f"unexpected ALT formula node {label!r}")


def _convert_quantifier(node):
    bindings = []
    grouping = None
    join = None
    body = None
    for child in node.children:
        label = child.label
        if label.startswith("BINDING: "):
            bindings.append(_convert_binding(child, label[len("BINDING: ") :]))
        elif label.startswith("GROUPING: "):
            grouping = _parse_grouping(label[len("GROUPING: ") :])
        elif label.startswith("JOIN: "):
            join = _parse_join(label[len("JOIN: ") :])
        else:
            if body is not None:
                raise ParseError("quantifier has more than one body subtree")
            body = _convert_formula(child)
    if body is None:
        raise ParseError("quantifier has no body")
    return n.Quantifier(bindings, body, grouping, join)


def _convert_binding(node, text):
    var, separator, source = text.partition("∈")
    if not separator:
        raise ParseError(f"malformed binding {text!r}")
    var = var.strip()
    source = source.strip()
    if source:
        return n.Binding(var, n.RelationRef(source))
    # Nested collection: the source is the child subtree.
    if not node.children or node.children[0].label != "COLLECTION":
        raise ParseError(f"binding {var!r} has no source")
    return n.Binding(var, _convert_collection(node.children[0]))


def _parse_grouping(text):
    if text.strip() in ("∅", "empty"):
        return n.Grouping(())
    keys = []
    for part in text.split(","):
        keys.append(_parse_expr(part.strip()))
    return n.Grouping(tuple(keys))


def _parse_join(text):
    parser = _Parser(text)
    return parser._parse_join_annotation()


def _parse_predicate(text):
    if text == "true":
        return n.BoolConst(True)
    if text == "false":
        return n.BoolConst(False)
    parser = _Parser(text)
    predicate = parser._parse_predicate()
    parser._expect_end()
    return predicate


def _parse_expr(text):
    parser = _Parser(text)
    expr = parser._parse_expr()
    parser._expect_end()
    return expr

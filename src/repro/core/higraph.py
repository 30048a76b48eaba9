"""The diagrammatic higraph modality: Relational Diagrams for humans.

Harel higraphs combine *nesting* (scopes become regions) with *linking*
(predicates become edges).  The paper (Section 2.2, Figs. 2b, 4b, 5c, 12b,
20, 21d-f) renders ARC queries as Relational Diagrams:

* each collection and each quantifier scope is a **region**; negation draws
  a (negated) region; a grouping scope has a **double-lined boundary**;
* relations appear as **table nodes** listing their attributes; grouped
  attributes are highlighted;
* join/selection predicates are **edges** between attribute ports (or a
  port and a literal); assignment predicates are **decorated arrows** into
  head attributes; aggregation edges are labelled with the aggregate;
* the optional side of an outer join carries an **empty-circle marker**.

Two renderers are provided: a deterministic ASCII outline (used by tests
and terminals) and an SVG renderer (nested rectangles) for documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from ..errors import ArcError
from . import nodes as n
from .linker import link


@dataclass
class TableNode:
    """A relation occurrence: range variable over a (possibly nested) source."""

    id: str
    var: str
    relation: str  # relation name, or "" for an anonymous nested collection
    attrs: tuple = ()
    grouped_attrs: tuple = ()  # subset of attrs used as grouping keys
    optional: bool = False  # on the optional side of an outer join


@dataclass
class HeadNode:
    """The output table of a collection region."""

    id: str
    name: str
    attrs: tuple = ()


@dataclass
class LiteralNode:
    """A selection constant (e.g. ``= 0``) attached near a table."""

    id: str
    text: str


@dataclass
class Edge:
    """A reference edge between ports: (node id, attr-or-None) pairs."""

    source: tuple
    target: tuple
    kind: str  # "join" | "selection" | "assignment" | "aggregation"
    label: str = ""  # comparison operator or aggregate name


@dataclass
class Region:
    """A nested scope region."""

    id: str
    kind: str  # "canvas" | "collection" | "quantifier" | "negation"
    double_border: bool = False  # grouping scope
    head: HeadNode | None = None
    tables: list = field(default_factory=list)
    literals: list = field(default_factory=list)
    children: list = field(default_factory=list)


@dataclass
class Higraph:
    """A complete diagram: the region tree plus the edge set."""

    root: Region
    edges: list = field(default_factory=list)

    def all_regions(self):
        stack = [self.root]
        while stack:
            region = stack.pop()
            yield region
            stack.extend(region.children)

    def all_tables(self):
        for region in self.all_regions():
            yield from region.tables


def build_higraph(root, *, database=None):
    """Build the higraph for an ARC Collection or Sentence.

    ``database`` (optional) supplies schemas so table nodes can list all
    attributes; without it, tables list only the attributes the query uses.
    """
    builder = _Builder(database)
    return builder.build(root)


class _Builder:
    def __init__(self, database):
        self._database = database
        self._ids = count(1)
        self._node_of_var = {}  # var -> TableNode or HeadNode id
        self._edges = []

    def _next_id(self, prefix):
        return f"{prefix}{next(self._ids)}"

    def build(self, root):
        if isinstance(root, n.Program):
            # Diagram every definition plus the main query side by side
            # (abstract relations appear as their own collapsed modules,
            # Section 2.13.2).
            canvas = Region(self._next_id("region"), "canvas")
            for definition in root.definitions.values():
                self._collection_region(definition, canvas, link(definition))
            main = root.resolve_main()
            if isinstance(main, n.Collection) and main not in set(
                root.definitions.values()
            ):
                self._collection_region(main, canvas, link(main))
            elif isinstance(main, n.Sentence):
                self._formula_region(main.body, canvas, link(main))
            return Higraph(canvas, self._edges)
        linked = link(root)
        canvas = Region(self._next_id("region"), "canvas")
        if isinstance(root, n.Collection):
            self._collection_region(root, canvas, linked)
        elif isinstance(root, n.Sentence):
            self._formula_region(root.body, canvas, linked)
        else:
            raise ArcError(f"cannot diagram a {type(root).__name__}")
        return Higraph(canvas, self._edges)

    # -- regions ---------------------------------------------------------------

    def _collection_region(self, coll, parent, linked):
        region = Region(self._next_id("region"), "collection")
        region.head = HeadNode(
            self._next_id("head"), coll.head.name, tuple(coll.head.attrs)
        )
        self._node_of_var[coll.head.name] = region.head.id
        parent.children.append(region)
        self._formula_region(coll.body, region, linked)
        return region

    def _formula_region(self, formula, region, linked):
        if formula is None:
            return
        if isinstance(formula, n.Quantifier):
            self._quantifier_region(formula, region, linked)
            return
        if isinstance(formula, n.And):
            for child in formula.children_list:
                self._formula_region(child, region, linked)
            return
        if isinstance(formula, n.Or):
            for child in formula.children_list:
                branch = Region(self._next_id("region"), "disjunct")
                region.children.append(branch)
                self._formula_region(child, branch, linked)
            return
        if isinstance(formula, n.Not):
            negation = Region(self._next_id("region"), "negation")
            region.children.append(negation)
            self._formula_region(formula.child, negation, linked)
            return
        if isinstance(formula, n.Comparison):
            self._predicate_edge(formula, region, linked)
            return
        if isinstance(formula, n.IsNull):
            port = self._port(formula.expr, region)
            literal = LiteralNode(
                self._next_id("lit"),
                "is not null" if formula.negated else "is null",
            )
            region.literals.append(literal)
            if port is not None:
                self._edges.append(Edge(port, (literal.id, None), "selection"))
            return
        if isinstance(formula, n.BoolConst):
            return
        if isinstance(formula, n.Collection):
            self._collection_region(formula, region, linked)
            return
        raise ArcError(f"cannot diagram formula {type(formula).__name__}")

    def _quantifier_region(self, quant, parent, linked):
        region = Region(self._next_id("region"), "quantifier")
        grouping_attrs = {}
        if quant.grouping is not None:
            region.double_border = True
            for key in quant.grouping.keys:
                if isinstance(key, n.Attr):
                    grouping_attrs.setdefault(key.var, set()).add(key.attr)
        parent.children.append(region)
        optional_vars = self._optional_vars(quant.join)
        for binding in quant.bindings:
            if isinstance(binding.source, n.Collection):
                nested = self._collection_region(binding.source, region, linked)
                self._node_of_var[binding.var] = nested.head.id
                continue
            attrs = self._schema_attrs(binding, quant)
            table = TableNode(
                self._next_id("table"),
                binding.var,
                binding.source.name,
                attrs=tuple(attrs),
                grouped_attrs=tuple(sorted(grouping_attrs.get(binding.var, ()))),
                optional=binding.var in optional_vars,
            )
            region.tables.append(table)
            self._node_of_var[binding.var] = table.id
        self._formula_region(quant.body, region, linked)

    def _optional_vars(self, join):
        """Variables on the optional (null-padded) side of an outer join."""
        optional = set()

        def walk(node, is_optional):
            if isinstance(node, n.JoinVar):
                if is_optional:
                    optional.add(node.var)
                return
            if isinstance(node, n.JoinConst):
                return
            if node.kind == "left":
                walk(node.children_list[0], is_optional)
                walk(node.children_list[1], True)
            elif node.kind == "full":
                walk(node.children_list[0], True)
                walk(node.children_list[1], True)
            else:
                for child in node.children_list:
                    walk(child, is_optional)

        if join is not None:
            walk(join, False)
        return optional

    def _schema_attrs(self, binding, quant):
        name = binding.source.name
        if self._database is not None and name in self._database:
            return self._database[name].schema
        # Fall back to the attributes the scope actually references.
        used = sorted(
            {
                node.attr
                for node in quant.walk()
                if isinstance(node, n.Attr) and node.var == binding.var
            }
        )
        return used

    # -- edges ----------------------------------------------------------------------

    def _predicate_edge(self, predicate, region, linked):
        kind = "join"
        label = predicate.op
        if linked.is_assignment(predicate):
            kind = "aggregation" if predicate.has_aggregate() else "assignment"
        elif predicate.has_aggregate():
            kind = "aggregation"
        source = self._port(predicate.left, region)
        target = self._port(predicate.right, region)
        if predicate.has_aggregate():
            agg = n.facts(predicate).aggregates[0]
            label = f"{agg.func} {predicate.op}" if kind != "assignment" else agg.func
        if source is None and target is None:
            return
        if source is None or target is None:
            port = source if source is not None else target
            constant = predicate.right if source is not None else predicate.left
            literal = LiteralNode(
                self._next_id("lit"), f"{predicate.op} {_const_text(constant)}"
            )
            region.literals.append(literal)
            self._edges.append(Edge(port, (literal.id, None), "selection", predicate.op))
            return
        self._edges.append(Edge(source, target, kind, label))

    def _port(self, expr, region):
        """The (node id, attr) port for an expression side, or None for
        constants / computed expressions (which become literal boxes)."""
        if isinstance(expr, n.Attr):
            node_id = self._node_of_var.get(expr.var)
            if node_id is None:
                return None
            return (node_id, expr.attr)
        if isinstance(expr, n.AggCall) and isinstance(expr.arg, n.Attr):
            return self._port(expr.arg, region)
        for node in expr.walk() if isinstance(expr, n.Node) else ():
            if isinstance(node, n.Attr):
                return self._port(node, region)
        return None


def _const_text(expr):
    if isinstance(expr, n.Const):
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        return repr(expr.value)
    from .alt import _expr_text

    return _expr_text(expr)


# ---------------------------------------------------------------------------
# ASCII renderer
# ---------------------------------------------------------------------------


def render_ascii(higraph):
    """Deterministic indented outline of the diagram (regions, tables, edges)."""
    lines = []
    node_names = {}
    for region in higraph.all_regions():
        for table in region.tables:
            node_names[table.id] = table.var
        if region.head is not None:
            node_names[region.head.id] = region.head.name
        for literal in region.literals:
            node_names[literal.id] = literal.text

    def describe(region, indent):
        pad = "  " * indent
        border = "══" if region.double_border else "──"
        lines.append(f"{pad}[{region.kind} {border}]")
        if region.head is not None:
            lines.append(f"{pad}  {region.head.name}({', '.join(region.head.attrs)}) <head>")
        for table in region.tables:
            attrs = []
            for attr in table.attrs:
                attrs.append(f"{attr}*" if attr in table.grouped_attrs else attr)
            marker = " ○" if table.optional else ""
            lines.append(
                f"{pad}  {table.var}: {table.relation}({', '.join(attrs)}){marker}"
            )
        for literal in region.literals:
            lines.append(f"{pad}  «{literal.text}»")
        for child in region.children:
            describe(child, indent + 1)

    describe(higraph.root, 0)
    if higraph.edges:
        lines.append("edges:")
        for edge in higraph.edges:
            source = _port_text(edge.source, node_names)
            target = _port_text(edge.target, node_names)
            arrow = {
                "assignment": "◄──",
                "aggregation": "◄══",
                "join": "───",
                "selection": "···",
            }[edge.kind]
            label = f" [{edge.label}]" if edge.label else ""
            lines.append(f"  {source} {arrow} {target}{label}")
    return "\n".join(lines)


def _port_text(port, names):
    node_id, attr = port
    name = names.get(node_id, node_id)
    return f"{name}.{attr}" if attr else name


# ---------------------------------------------------------------------------
# SVG renderer
# ---------------------------------------------------------------------------

_ROW_HEIGHT = 18
_PAD = 10


def render_svg(higraph):
    """Render the diagram as a standalone SVG document (nested rectangles)."""
    body = []
    positions = {}

    def layout(region, x, y):
        """Place a region; returns (width, height)."""
        cursor_y = y + _PAD + _ROW_HEIGHT
        inner_width = 160
        if region.head is not None:
            positions[region.head.id] = (x + _PAD, cursor_y)
            cursor_y += _ROW_HEIGHT * (1 + len(region.head.attrs))
        for table in region.tables:
            positions[table.id] = (x + _PAD, cursor_y)
            cursor_y += _ROW_HEIGHT * (1 + len(table.attrs)) + _PAD
        for literal in region.literals:
            positions[literal.id] = (x + _PAD, cursor_y)
            cursor_y += _ROW_HEIGHT
        for child in region.children:
            width, height = layout(child, x + _PAD, cursor_y)
            inner_width = max(inner_width, width + 2 * _PAD)
            cursor_y += height + _PAD
        return inner_width + 2 * _PAD, cursor_y - y + _PAD

    width, height = layout(higraph.root, 0, 0)

    def draw(region, x, y):
        nonlocal body
        w, h = layout_cache[region.id]
        style = "fill:none;stroke:#333"
        body.append(f'<rect x="{x}" y="{y}" width="{w}" height="{h}" rx="6" style="{style}"/>')
        if region.double_border:
            body.append(
                f'<rect x="{x+3}" y="{y+3}" width="{w-6}" height="{h-6}" rx="5" style="{style}"/>'
            )
        if region.kind == "negation":
            body.append(
                f'<text x="{x+4}" y="{y+14}" font-size="12" fill="#a00">¬</text>'
            )

    # A second pass computes per-region sizes for drawing.
    layout_cache = {}

    def cache_layout(region, x, y):
        start_y = y
        cursor_y = y + _PAD + _ROW_HEIGHT
        inner_width = 160
        if region.head is not None:
            cursor_y += _ROW_HEIGHT * (1 + len(region.head.attrs))
        for table in region.tables:
            cursor_y += _ROW_HEIGHT * (1 + len(table.attrs)) + _PAD
        for literal in region.literals:
            cursor_y += _ROW_HEIGHT
        for child in region.children:
            w, h = cache_layout(child, x + _PAD, cursor_y)
            inner_width = max(inner_width, w + 2 * _PAD)
            cursor_y += h + _PAD
        size = (inner_width + 2 * _PAD, cursor_y - start_y + _PAD)
        layout_cache[region.id] = size
        return size

    cache_layout(higraph.root, 0, 0)

    def draw_tree(region, x, y):
        draw(region, x, y)
        cursor_y = y + _PAD + _ROW_HEIGHT
        if region.head is not None:
            cursor_y = _draw_table(
                body, x + _PAD, cursor_y, region.head.name, region.head.attrs, (), False, head=True
            )
        for table in region.tables:
            label = f"{table.relation} {table.var}" if table.var != table.relation else table.relation
            cursor_y = _draw_table(
                body, x + _PAD, cursor_y, label, table.attrs, table.grouped_attrs, table.optional
            )
            cursor_y += _PAD
        for literal in region.literals:
            body.append(
                f'<text x="{x+_PAD}" y="{cursor_y+12}" font-size="12">{_escape(literal.text)}</text>'
            )
            cursor_y += _ROW_HEIGHT
        for child in region.children:
            w, h = layout_cache[child.id]
            draw_tree(child, x + _PAD, cursor_y)
            cursor_y += h + _PAD

    draw_tree(higraph.root, 0, 0)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width+20}" '
        f'height="{height+20}" font-family="sans-serif">'
        + "".join(body)
        + "</svg>"
    )
    return svg


def _draw_table(body, x, y, label, attrs, grouped, optional, *, head=False):
    width = 110
    height = _ROW_HEIGHT * (1 + len(attrs))
    style = "fill:#fff;stroke:#000" if not head else "fill:#eef;stroke:#000"
    body.append(f'<rect x="{x}" y="{y}" width="{width}" height="{height}" style="{style}"/>')
    body.append(
        f'<text x="{x+4}" y="{y+13}" font-size="12" font-weight="bold">{_escape(label)}</text>'
    )
    row_y = y + _ROW_HEIGHT
    for attr in attrs:
        fill = "#ddd" if attr in grouped else "none"
        body.append(
            f'<rect x="{x}" y="{row_y}" width="{width}" height="{_ROW_HEIGHT}" '
            f'style="fill:{fill};stroke:#888"/>'
        )
        body.append(f'<text x="{x+4}" y="{row_y+13}" font-size="11">{_escape(attr)}</text>')
        row_y += _ROW_HEIGHT
    if optional:
        body.append(
            f'<circle cx="{x+width}" cy="{y}" r="5" style="fill:#fff;stroke:#000"/>'
        )
    return row_y


def _escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )

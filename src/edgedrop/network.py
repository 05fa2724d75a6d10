"""Network instances: acyclic graphs with sources, terminals and demands.

An instance fixes the topology and the per-edge alphabet cardinalities.  Rates
are carried as cardinalities throughout; ``log2(size) / blocklength`` is only
ever derived for display.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Mapping

from .errors import DomainError, PreconditionError


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    alphabet_size: int


@dataclass(frozen=True)
class Source:
    node: str
    alphabet_size: int


@dataclass(frozen=True)
class NetworkInstance:
    """A directed acyclic network with sources, terminals and a demand matrix.

    ``demands[i][j]`` is 1 when terminal j wants source i.  Well-formedness is
    checked by ``validate_instance``, which reports violations instead of
    raising.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[Source, ...]
    terminals: tuple[str, ...]
    demands: tuple[tuple[int, ...], ...]

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _in_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.head in out:
                out[e.head].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in out.items()}

    @cached_property
    def _out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.tail in out:
                out[e.tail].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in out.items()}

    @cached_property
    def _source_index(self) -> dict[str, int]:
        return {s.node: i for i, s in enumerate(self.sources)}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise DomainError(f"unknown edge id {edge_id!r}") from None

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        """Incoming edges of a node, sorted by edge id."""
        return self._in_edges.get(node, ())

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._out_edges.get(node, ())

    def is_source_node(self, node: str) -> bool:
        return node in self._source_index

    def source_index(self, node: str) -> int:
        try:
            return self._source_index[node]
        except KeyError:
            raise DomainError(f"node {node!r} is not a source") from None

    def demanded_sources(self, terminal: str) -> tuple[int, ...]:
        """Indices of sources this terminal demands, in source order."""
        try:
            j = self.terminals.index(terminal)
        except ValueError:
            raise DomainError(f"unknown terminal {terminal!r}") from None
        return tuple(i for i in range(len(self.sources)) if self.demands[i][j])


def validate_instance(inst: NetworkInstance) -> list[str]:
    """Well-formedness report; an empty list means the instance is valid."""
    problems = []
    nodes = set(inst.nodes)
    if len(nodes) != len(inst.nodes):
        problems.append("duplicate node ids")
    seen_edges = set()
    for e in inst.edges:
        if e.id in seen_edges:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_edges.add(e.id)
        if e.tail not in nodes:
            problems.append(f"edge {e.id!r} tail {e.tail!r} is not a node")
        if e.head not in nodes:
            problems.append(f"edge {e.id!r} head {e.head!r} is not a node")
        if e.alphabet_size < 1:
            problems.append(f"edge {e.id!r} alphabet size must be >= 1")
    source_nodes = [s.node for s in inst.sources]
    if len(set(source_nodes)) != len(source_nodes):
        problems.append("duplicate source nodes")
    for s in inst.sources:
        if s.node not in nodes:
            problems.append(f"source node {s.node!r} is not a node")
        elif inst.in_edges(s.node):
            problems.append(f"source node {s.node!r} has incoming edges")
        if s.alphabet_size < 1:
            problems.append(f"source {s.node!r} alphabet size must be >= 1")
    for t in inst.terminals:
        if t not in nodes:
            problems.append(f"terminal {t!r} is not a node")
        elif inst.out_edges(t):
            problems.append(f"terminal {t!r} has outgoing edges")
    overlap = set(source_nodes) & set(inst.terminals)
    if overlap:
        problems.append(f"nodes are both source and terminal: {sorted(overlap)}")
    if len(inst.demands) != len(inst.sources):
        problems.append("demand matrix must have one row per source")
    else:
        for i, row in enumerate(inst.demands):
            if len(row) != len(inst.terminals):
                problems.append(f"demand row {i} must have one entry per terminal")
            elif any(v not in (0, 1) for v in row):
                problems.append(f"demand row {i} has entries outside {{0,1}}")
        if all(len(row) == len(inst.terminals) for row in inst.demands):
            for j, t in enumerate(inst.terminals):
                if not any(row[j] for row in inst.demands):
                    problems.append(f"terminal {t!r} demands no source")
    if _topological_nodes(inst) is None:
        problems.append("graph has a directed cycle")
    return problems


def _topological_nodes(inst: NetworkInstance) -> list[str] | None:
    """Deterministic node topological order, or None if there is a cycle."""
    indeg = {v: 0 for v in inst.nodes}
    for e in inst.edges:
        if e.head in indeg and e.tail in indeg:
            indeg[e.head] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for e in inst.out_edges(v):
            if e.head not in indeg:
                continue
            indeg[e.head] -= 1
            if indeg[e.head] == 0:
                ready.append(e.head)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(inst.nodes):
        return None
    return order


def topological_order(inst: NetworkInstance) -> list[Edge]:
    """Edges ordered so each appears after every edge into its tail node.

    Deterministic: nodes are ordered by a smallest-id-first topological sort
    and edges by (tail position, edge id).
    """
    nodes = _topological_nodes(inst)
    if nodes is None:
        raise PreconditionError("instance graph has a directed cycle")
    pos = {v: i for i, v in enumerate(nodes)}
    return sorted(inst.edges, key=lambda e: (pos[e.tail], e.id))


def remove_edge(inst: NetworkInstance, edge_id: str) -> NetworkInstance:
    """The same instance without one edge; nodes and demands are unchanged."""
    inst.edge(edge_id)
    return NetworkInstance(
        nodes=inst.nodes,
        edges=tuple(e for e in inst.edges if e.id != edge_id),
        sources=inst.sources,
        terminals=inst.terminals,
        demands=inst.demands,
    )


def instance_to_dict(inst: NetworkInstance) -> dict:
    return {
        "nodes": list(inst.nodes),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "alphabet_size": e.alphabet_size}
            for e in inst.edges
        ],
        "sources": [
            {"node": s.node, "alphabet_size": s.alphabet_size} for s in inst.sources
        ],
        "terminals": list(inst.terminals),
        "demands": [list(row) for row in inst.demands],
    }


def require_int(value, what: str) -> int:
    """The value itself if it is an integer; JSON floats, booleans and
    strings are rejected, never coerced."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def indented_json(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, without the
    pure-Python encoder that ``json`` falls back to when it indents.

    ``newline`` is the line break plus the indent of the enclosing level.
    A list of plain ints is one join, and a rectangular list of non-empty
    int rows (a decoder table) one ``%`` over a repeated row template.
    Other containers recurse; other scalars go through ``json.dumps``, and
    non-str keys are converted or rejected as ``json`` does them.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    # f-strings copy a large body once, where a chain of + copies it per term.
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        items = [f"{_json_key(k)}: {indented_json(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{sep.join(items)}{newline}}}"
    kinds = set(map(type, obj))
    if kinds == {int}:
        return f"[{inner}{sep.join(map(int.__repr__, obj))}{newline}]"
    if kinds == {list} and len(widths := set(map(len, obj))) == 1:
        entries = tuple(itertools.chain.from_iterable(obj))
        if set(map(type, entries)) == {int}:  # false for rows of width zero
            row_inner = inner + "  "
            row = "[" + row_inner + ("," + row_inner).join(["%d"] * widths.pop()) + inner + "]"
            return f"[{inner}{sep.join([row] * len(obj))}{newline}]" % entries
    return f"[{inner}{sep.join([indented_json(v, inner) for v in obj])}{newline}]"


def _json_key(key) -> str:
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def parse_instance(data: Mapping) -> NetworkInstance:
    """Build an instance from the dict format of ``instance_to_dict``."""
    try:
        inst = NetworkInstance(
            nodes=tuple(str(v) for v in data["nodes"]),
            edges=tuple(
                Edge(
                    str(e["id"]),
                    str(e["tail"]),
                    str(e["head"]),
                    require_int(e["alphabet_size"], "edge alphabet size"),
                )
                for e in data["edges"]
            ),
            sources=tuple(
                Source(str(s["node"]), require_int(s["alphabet_size"], "source alphabet size"))
                for s in data["sources"]
            ),
            terminals=tuple(str(t) for t in data["terminals"]),
            demands=tuple(
                tuple(require_int(v, "demand entry") for v in row) for row in data["demands"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed instance data: {exc}") from None
    return inst


def load_instance(path: str) -> NetworkInstance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(json.load(fh))


def save_instance(inst: NetworkInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(indented_json(instance_to_dict(inst)) + "\n")

"""Network codes with explicit tables and their exhaustive evaluation.

A code fixes per-edge local encoder tables and per-terminal decoder tables,
held as read-only integer arrays.  The global table enumerates every source
tuple, records all edge messages and classifies each tuple as good (decoded
correctly by all terminals) or bad; it is built column by column, one
vectorized gather per edge and per decoder.  Error fractions are exact
rationals.

Every table is indexed by dense tuple index: mixed radix over the input
alphabets, the last input varying fastest.  ``pack`` and ``index_digits``
are the one place that converts between such an index and its symbols.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, MalformedCodeError, ResourceError
from .network import (
    Edge,
    NetworkInstance,
    Source,
    _frozen,
    field,
    int_table,
    json_bytes,
    load_json,
    require,
    topological_order,
    validate_instance,
)

DEFAULT_ENUM_CAP = 1 << 24


def index_digits(indices, sizes: Sequence[int]) -> list:
    """Per-coordinate symbols of dense indices ``0..prod(sizes)-1``, the last
    coordinate varying fastest; the inverse of ``pack``.

    Ints give ints and arrays give one int64 array per coordinate.
    """
    rem = indices
    if not isinstance(rem, (int, np.integer)):
        rem = np.asarray(rem, dtype=np.int64)
    out = []
    for s in reversed(sizes):
        out.append(rem % s)
        rem = rem // s
    return out[::-1]


def pack(digits, sizes: Sequence[int]):
    """Dense index of per-coordinate symbols, the last coordinate varying
    fastest; the inverse of ``index_digits``.

    Digits are ints or int64 arrays that broadcast together; no digits give 0.
    """
    idx = 0
    for d, s in zip(digits, sizes):
        idx = idx * s + d
    return idx


def product_indices(subsets: Sequence[Sequence[int]], sizes: Sequence[int]) -> np.ndarray:
    """Dense indices of a product of symbol sets, in ``itertools.product`` order."""
    return np.ravel(pack(np.ix_(*subsets), sizes))


def checked_subsets(
    subsets: Sequence[Sequence[int]], sizes: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """One non-empty symbol subset per source, in a list or tuple, each
    taken by ``int_table`` (a set, a range or an iterator listed first),
    sorted and deduplicated and inside its source alphabet."""
    if not isinstance(subsets, (list, tuple)) or len(subsets) != len(sizes):
        raise DomainError("one subset per source is required")
    out = []
    for size, sub in zip(sizes, subsets):
        if isinstance(sub, (set, frozenset, range, Iterator)):
            sub = list(sub)
        ss = tuple(np.unique(int_table(sub, 1, "subset")).tolist())
        if not ss:
            raise DomainError("subsets must be non-empty")
        if any(not 0 <= v < size for v in ss):
            raise DomainError("subset symbol outside its source alphabet")
        out.append(ss)
    return tuple(out)


def tabulate(sizes: Sequence[int], fn: Callable[..., int]) -> tuple[int, ...]:
    """Freeze a function of one symbol per size into a flat table."""
    return tuple(fn(*combo) for combo in itertools.product(*[range(s) for s in sizes]))


def total_map(values, size: int, what: str) -> np.ndarray:
    """A map over the dense indices ``0..size-1``: ``int_table`` of a flat
    integer table of ``size`` entries."""
    arr = int_table(values, 1, what)
    if arr.shape != (size,):
        raise DomainError(f"{what} must be a flat sequence of {size} integers")
    return arr


@dataclass(frozen=True, eq=False)
class NetworkCode:
    """Explicit local encoder and decoder tables for one instance.

    Encoder tables are flat, indexed by the dense tuple index (``pack``) of
    the tail's incoming messages, edges sorted by id; for an edge leaving a
    source node the input is the source symbol itself.  Decoder tables map
    the terminal's incoming messages, same ordering, to the tuple of
    demanded source symbols in source order: one row per input, one column
    per demanded source.
    Tables are taken as ``network.int_table`` takes them and stored as its
    read-only int64 arrays.  Codes compare by identity; two codes hold the
    same tables when their ``json_bytes`` are equal.
    """

    blocklength: int
    source_alphabets: tuple[int, ...]
    edge_alphabets: dict[str, int]
    encoders: dict[str, np.ndarray]
    decoders: dict[str, np.ndarray]

    def __post_init__(self):
        encoders = {k: int_table(t, 1, f"edge {k!r} encoder") for k, t in self.encoders.items()}
        decoders = {k: int_table(t, 2, f"terminal {k!r} decoder") for k, t in self.decoders.items()}
        object.__setattr__(self, "encoders", encoders)
        object.__setattr__(self, "decoders", decoders)


def input_sizes(inst: NetworkInstance, code: NetworkCode, node: str) -> list[int]:
    """Alphabet sizes of the inputs of a node's tables, in table order: a
    source node reads its source symbol, any other node its in-edges."""
    if inst.is_source_node(node):
        return [code.source_alphabets[inst.source_index(node)]]
    return [code.edge_alphabets[f.id] for f in inst.in_edges(node)]


def reindex_consumer(
    inst: NetworkInstance, code: NetworkCode, edge_id: str, index
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The code's encoder and decoder tables, with every table the edge's
    head reads it through re-indexed along that input.

    An integer ``index`` fixes the edge's message to one symbol and drops the
    input; an array maps each new message w to old message ``index[w]``.
    Decoder rows ride along as a trailing axis.
    """
    head = inst.edge(edge_id).head
    sizes = tuple(input_sizes(inst, code, head))
    pos = [f.id for f in inst.in_edges(head)].index(edge_id)

    def along(table: np.ndarray) -> np.ndarray:
        grid = table.reshape(sizes + table.shape[1:])
        return np.take(grid, index, axis=pos).reshape((-1,) + table.shape[1:])

    encoders = dict(code.encoders)
    for e in inst.out_edges(head):
        encoders[e.id] = along(code.encoders[e.id])
    decoders = dict(code.decoders)
    if head in inst.terminals:
        decoders[head] = along(code.decoders[head])
    return encoders, decoders


def relay_instance(
    source_sizes: Sequence[int], edge_size: int, edge_table: Sequence[int]
) -> tuple[NetworkInstance, NetworkCode]:
    """Single-relay network carrying one function of all the sources.

    Source i feeds the relay over ``ci`` and the terminal directly over
    ``di``; the relay emits ``edge_table`` (dense over source tuples, last
    source fastest) on edge ``"e"``.  The decoder repeats the direct
    messages, so the code is zero-error and the joint distribution of the
    sources and the edge message is exactly the table's.
    """
    sizes = list(source_sizes)
    k = len(sizes)
    if not 1 <= k <= 9:
        raise DomainError("between one and nine sources are supported")
    total = math.prod(sizes)
    relay = total_map(edge_table, total, "edge table")
    if relay.size and (relay.min() < 0 or relay.max() >= edge_size):
        raise DomainError("edge table maps outside the edge alphabet")
    edges = []
    for i in range(k):
        edges.append(Edge(f"c{i + 1}", f"s{i + 1}", "u", sizes[i]))
        edges.append(Edge(f"d{i + 1}", f"s{i + 1}", "t", sizes[i]))
    edges.append(Edge("e", "u", "t", edge_size))
    inst = NetworkInstance(
        nodes=tuple(f"s{i + 1}" for i in range(k)) + ("u", "t"),
        edges=tuple(edges),
        sources=tuple(Source(f"s{i + 1}", sizes[i]) for i in range(k)),
        terminals=("t",),
        demands=tuple((1,) for _ in range(k)),
    )
    encoders = {}
    for i in range(k):
        identity_table = _frozen(np.arange(sizes[i], dtype=np.int64))
        encoders[f"c{i + 1}"] = identity_table
        encoders[f"d{i + 1}"] = identity_table
    encoders["e"] = relay
    # Decoder inputs sort as d1..dk then e; it repeats the direct messages.
    tuples = np.stack(index_digits(np.arange(total), sizes), axis=1)
    code = NetworkCode(
        blocklength=1,
        source_alphabets=tuple(sizes),
        edge_alphabets={e.id: e.alphabet_size for e in edges},
        encoders=encoders,
        decoders={"t": _frozen(np.repeat(tuples, edge_size, axis=0))},
    )
    return inst, code


def _outside(table: np.ndarray, size: int) -> bool:
    return bool(table.size) and (table.min() < 0 or table.max() >= size)


def validate_code(inst: NetworkInstance, code: NetworkCode) -> list[str]:
    """Structural report for a code against its instance; empty means valid.

    The instance is checked first: the code checks assume a valid one, so
    an invalid instance is reported by its own problems alone.
    """
    problems = validate_instance(inst)
    if problems:
        return problems
    if code.blocklength < 1:
        problems.append(f"blocklength must be >= 1, got {code.blocklength}")
    if len(code.source_alphabets) != len(inst.sources):
        problems.append("one source alphabet per instance source is required")
    for i, (size, src) in enumerate(zip(code.source_alphabets, inst.sources)):
        if size != src.alphabet_size:
            problems.append(
                f"source {i} alphabet {size} does not match instance size {src.alphabet_size}"
            )
    for e in inst.edges:
        if e.id not in code.edge_alphabets:
            problems.append(f"edge {e.id!r} has no alphabet")
        elif code.edge_alphabets[e.id] != e.alphabet_size:
            problems.append(
                f"edge {e.id!r} alphabet {code.edge_alphabets[e.id]} does not match "
                f"instance size {e.alphabet_size}"
            )
    edge_ids = {e.id for e in inst.edges}
    if set(code.edge_alphabets) - edge_ids:
        problems.append("code has alphabets for unknown edges")
    if set(code.encoders) - edge_ids:
        problems.append("code has encoder tables for unknown edges")
    if set(code.decoders) - set(inst.terminals):
        problems.append("code has decoder tables for unknown terminals")
    # The table sizes and ranges below are read off the alphabets; once one
    # is missing, only the presence of each table is checked.
    alphabets_known = len(code.source_alphabets) >= len(inst.sources) and all(
        e.id in code.edge_alphabets for e in inst.edges
    )
    for e in inst.edges:
        table = code.encoders.get(e.id)
        if table is None:
            problems.append(f"edge {e.id!r} has no encoder table")
            continue
        if not alphabets_known:
            continue
        want = math.prod(input_sizes(inst, code, e.tail))
        if len(table) != want:
            problems.append(f"edge {e.id!r} encoder has {len(table)} entries, expected {want}")
        elif _outside(table, code.edge_alphabets[e.id]):
            problems.append(f"edge {e.id!r} encoder maps outside its alphabet")
    for t in inst.terminals:
        table = code.decoders.get(t)
        if table is None:
            problems.append(f"terminal {t!r} has no decoder table")
            continue
        if not alphabets_known:
            continue
        want = math.prod(input_sizes(inst, code, t))
        demanded = inst.demanded_sources(t)
        if len(table) != want:
            problems.append(f"terminal {t!r} decoder has {len(table)} entries, expected {want}")
            continue
        if table.shape[1] != len(demanded):
            problems.append(f"terminal {t!r} decoder outputs wrong arity")
        elif any(
            _outside(table[:, col], code.source_alphabets[i]) for col, i in enumerate(demanded)
        ):
            problems.append(f"terminal {t!r} decoder maps outside source alphabets")
    return problems


class GlobalCodeTable:
    """Exhaustive evaluation of a code over every source tuple.

    ``rows`` is an N x E matrix, source tuples in dense index order and
    edges in instance order, of the narrowest unsigned dtype that holds
    every message; each edge's column is contiguous.  ``correct[t]`` marks
    the tuples terminal t decodes correctly and ``good`` is their
    conjunction.  All arrays are read-only.
    """

    def __init__(
        self,
        inst: NetworkInstance,
        code: NetworkCode,
        rows: np.ndarray,
        correct: Mapping[str, np.ndarray],
    ):
        self.inst = inst
        self.code = code
        self.source_sizes = tuple(code.source_alphabets)
        self.rows = _frozen(rows)
        self.correct = {t: _frozen(mask) for t, mask in correct.items()}
        good = np.ones(len(rows), dtype=bool)
        for mask in self.correct.values():
            good &= mask
        self.good = _frozen(good)
        self._edge_pos = {e.id: i for i, e in enumerate(inst.edges)}

    @property
    def num_tuples(self) -> int:
        return len(self.rows)

    def edge_values(self, edge_id: str) -> np.ndarray:
        """One edge's message for every source tuple, as an array."""
        try:
            return self.rows[:, self._edge_pos[edge_id]]
        except KeyError:
            raise DomainError(f"unknown edge ids {[edge_id]}") from None

    @property
    def error(self) -> Fraction:
        """Exact bad fraction over all source tuples."""
        bad = self.num_tuples - int(np.count_nonzero(self.good))
        return Fraction(bad, self.num_tuples)

    def terminal_error(self, terminal: str) -> Fraction:
        if terminal not in self.correct:
            raise DomainError(f"unknown terminal {terminal!r}")
        wrong = self.num_tuples - int(np.count_nonzero(self.correct[terminal]))
        return Fraction(wrong, self.num_tuples)


def build_global_table(
    inst: NetworkInstance,
    code: NetworkCode,
    enum_cap: int | None = None,
) -> GlobalCodeTable:
    """Enumerate all source tuples; raises ResourceError beyond the cap.

    Edges are evaluated in one topological order for all tuples at once:
    each encoder is gathered at the dense index of its inputs, and
    each decoder the same way.
    """
    problems = validate_code(inst, code)
    if problems:
        raise MalformedCodeError("; ".join(problems))
    cap = DEFAULT_ENUM_CAP if enum_cap is None else enum_cap
    total = math.prod(code.source_alphabets)
    if total > cap:
        raise ResourceError(f"source tuple space is above the cap of {cap}")
    sources = index_digits(np.arange(total), code.source_alphabets)
    values: dict[str, np.ndarray] = {}

    def gathered_index(node: str) -> np.ndarray:
        """Dense index of the node's incoming messages, per tuple."""
        digits = [values[f.id] for f in inst.in_edges(node)]
        if not digits:  # a node without inputs reads entry 0 of its table
            return np.zeros(total, dtype=np.int64)
        return pack(digits, input_sizes(inst, code, node))

    for e in topological_order(inst):
        if inst.is_source_node(e.tail):
            idx = sources[inst.source_index(e.tail)]
        else:
            idx = gathered_index(e.tail)
        values[e.id] = code.encoders[e.id][idx]
    widest = max((int(v.max()) for v in values.values() if v.size), default=0)
    rows = np.empty((total, len(inst.edges)), dtype=np.min_scalar_type(widest), order="F")
    for pos, e in enumerate(inst.edges):
        rows[:, pos] = values[e.id]
    correct = {}
    for t in inst.terminals:
        decoded = code.decoders[t][gathered_index(t)]
        ok = np.ones(total, dtype=bool)
        for col, i in enumerate(inst.demanded_sources(t)):
            ok &= decoded[:, col] == sources[i]
        correct[t] = ok
    return GlobalCodeTable(inst, code, rows, correct)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of checking a code against an error and rate target.

    Source uniformity and encoder determinism hold by construction for table
    codes; they are echoed here so a report stands alone.
    """

    verdict: bool
    target_eps: Fraction
    target_cardinalities: tuple[int, ...]
    blocklength: int
    num_tuples: int
    error: Fraction
    per_terminal_error: dict[str, Fraction]
    decoding_ok: dict[str, bool]
    rate_ok: tuple[bool, ...]
    capacity_ok: dict[str, bool]
    source_cardinalities: tuple[int, ...]
    uniform_sources: str = "by construction"
    deterministic_encoding: str = "by construction"


def check_feasibility(
    table: GlobalCodeTable, target_eps: Fraction, target_cardinalities: Sequence[int]
) -> FeasibilityReport:
    """Check the table's code against targets; all comparisons are exact.

    Decoding must succeed on a fraction strictly above ``1 - eps`` per
    terminal; a target of exactly zero demands a correct fraction of one.
    Rate targets are cardinalities: each source alphabet must be at least as
    large as its target.
    """
    if target_eps < 0 or target_eps >= 1:
        raise DomainError("target eps must satisfy 0 <= eps < 1")
    inst, code = table.inst, table.code
    if len(target_cardinalities) != len(inst.sources):
        raise DomainError("one rate target per source is required")
    per_terminal = {t: table.terminal_error(t) for t in inst.terminals}
    if target_eps == 0:
        decoding_ok = {t: err == 0 for t, err in per_terminal.items()}
    else:
        decoding_ok = {t: 1 - err > 1 - target_eps for t, err in per_terminal.items()}
    rate_ok = tuple(
        size >= want for size, want in zip(code.source_alphabets, target_cardinalities)
    )
    capacity_ok = {
        e.id: code.edge_alphabets[e.id] <= e.alphabet_size for e in inst.edges
    }
    verdict = all(decoding_ok.values()) and all(rate_ok) and all(capacity_ok.values())
    return FeasibilityReport(
        verdict=verdict,
        target_eps=target_eps,
        target_cardinalities=tuple(target_cardinalities),
        blocklength=code.blocklength,
        num_tuples=table.num_tuples,
        error=table.error,
        per_terminal_error=per_terminal,
        decoding_ok=decoding_ok,
        rate_ok=rate_ok,
        capacity_ok=capacity_ok,
        source_cardinalities=tuple(code.source_alphabets),
    )


def parse_code(data: Mapping) -> NetworkCode:
    return NetworkCode(
        blocklength=field(data, "blocklength", int, "code"),
        source_alphabets=tuple(
            require(v, int, "source alphabet") for v in field(data, "source_alphabets", list, "code")
        ),
        edge_alphabets={
            k: require(v, int, "edge alphabet")
            for k, v in field(data, "edge_alphabets", dict, "code").items()
        },
        encoders=field(data, "encoders", dict, "code"),
        decoders=field(data, "decoders", dict, "code"),
    )


def _code_tables(data):
    """Where a code file keeps its tables: encoder lists and decoder rows."""
    for key, ndim in (("encoders", 1), ("decoders", 2)):
        if isinstance(data.get(key), dict):
            yield from ((table, ndim) for table in data[key].values())


def load_code(path: str) -> NetworkCode:
    """Read a code file: ``parse_code`` of its JSON, with the tables of a
    large file read straight into arrays by ``load_json``.

    Either way the same files are accepted, with the same values, and the
    same ones refused with the same errors.
    """
    return parse_code(load_json(path, _code_tables))


def save_code(code: NetworkCode, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(json_bytes(code, end=b"\n"))

"""Network codes with explicit tables and their exhaustive evaluation.

A code fixes per-edge local encoder tables and per-terminal decoder tables.
The global table enumerates every source tuple, records all edge messages and
classifies each tuple as good (decoded correctly by all terminals) or bad.
Error fractions are exact rationals; floats appear only in entropy reports.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError, MalformedCodeError, PreconditionError, ResourceError
from .network import Edge, NetworkInstance, Source, topological_order

DEFAULT_ENUM_CAP = 1 << 24
ENUM_CAP_ENV = "EDGEDROP_ENUM_CAP"


def default_enum_cap() -> int:
    value = os.environ.get(ENUM_CAP_ENV)
    if value is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"{ENUM_CAP_ENV} must be an integer, got {value!r}") from None


def mixed_radix_index(values: Sequence[int], sizes: Sequence[int]) -> int:
    """Dense index of a tuple, last coordinate varying fastest."""
    idx = 0
    for v, s in zip(values, sizes):
        idx = idx * s + v
    return idx


def index_to_values(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def tabulate(sizes: Sequence[int], fn: Callable[..., int]) -> tuple[int, ...]:
    """Freeze a function of one symbol per size into a flat table."""
    return tuple(fn(*combo) for combo in itertools.product(*[range(s) for s in sizes]))


@dataclass(frozen=True)
class NetworkCode:
    """Explicit local encoder and decoder tables for one instance.

    Encoder tables are flat, indexed in mixed-radix order over the tail's
    incoming edges sorted by edge id; for an edge leaving a source node the
    input is the source symbol itself.  Decoder tables map the terminal's
    incoming messages, same ordering, to the tuple of demanded source symbols
    in source order.
    """

    blocklength: int
    source_alphabets: tuple[int, ...]
    edge_alphabets: dict[str, int]
    encoders: dict[str, tuple[int, ...]]
    decoders: dict[str, tuple[tuple[int, ...], ...]]


def encoder_input_sizes(inst: NetworkInstance, code: NetworkCode, edge_id: str) -> list[int]:
    """Alphabet sizes of an encoder's inputs, in table order."""
    e = inst.edge(edge_id)
    if inst.is_source_node(e.tail):
        return [code.source_alphabets[inst.source_index(e.tail)]]
    return [code.edge_alphabets[f.id] for f in inst.in_edges(e.tail)]


def decoder_input_sizes(inst: NetworkInstance, code: NetworkCode, terminal: str) -> list[int]:
    return [code.edge_alphabets[f.id] for f in inst.in_edges(terminal)]


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
    if len(edge_table) != math.prod(sizes):
        raise DomainError(
            f"edge table has {len(edge_table)} entries, expected {math.prod(sizes)}"
        )
    if any(not 0 <= v < edge_size for v in edge_table):
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
    encoders: dict[str, tuple[int, ...]] = {}
    for i in range(k):
        identity_table = tuple(range(sizes[i]))
        encoders[f"c{i + 1}"] = identity_table
        encoders[f"d{i + 1}"] = identity_table
    encoders["e"] = tuple(edge_table)
    # Decoder inputs sort as d1..dk then e; it repeats the direct messages.
    rows = []
    for combo in itertools.product(*([range(s) for s in sizes] + [range(edge_size)])):
        rows.append(tuple(combo[:k]))
    code = NetworkCode(
        blocklength=1,
        source_alphabets=tuple(sizes),
        edge_alphabets={e.id: e.alphabet_size for e in edges},
        encoders=encoders,
        decoders={"t": tuple(rows)},
    )
    return inst, code


def validate_code(inst: NetworkInstance, code: NetworkCode) -> list[str]:
    """Structural report for a code against its instance; empty means valid."""
    problems = []
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
    if set(code.edge_alphabets) - {e.id for e in inst.edges}:
        problems.append("code has alphabets for unknown edges")
    for e in inst.edges:
        table = code.encoders.get(e.id)
        if table is None:
            problems.append(f"edge {e.id!r} has no encoder table")
            continue
        want = math.prod(encoder_input_sizes(inst, code, e.id))
        if len(table) != want:
            problems.append(f"edge {e.id!r} encoder has {len(table)} entries, expected {want}")
        elif any(not 0 <= v < code.edge_alphabets[e.id] for v in table):
            problems.append(f"edge {e.id!r} encoder maps outside its alphabet")
    for t in inst.terminals:
        table = code.decoders.get(t)
        if table is None:
            problems.append(f"terminal {t!r} has no decoder table")
            continue
        want = math.prod(decoder_input_sizes(inst, code, t))
        demanded = inst.demanded_sources(t)
        if len(table) != want:
            problems.append(f"terminal {t!r} decoder has {len(table)} entries, expected {want}")
            continue
        for row in table:
            if len(row) != len(demanded):
                problems.append(f"terminal {t!r} decoder outputs wrong arity")
                break
            if any(
                not 0 <= v < code.source_alphabets[i] for v, i in zip(row, demanded)
            ):
                problems.append(f"terminal {t!r} decoder maps outside source alphabets")
                break
    return problems


def evaluate_global(
    inst: NetworkInstance, code: NetworkCode, x: Sequence[int]
) -> tuple[int, ...]:
    """Messages on every edge for one source tuple, in instance edge order."""
    if len(x) != len(inst.sources):
        raise DomainError(f"expected {len(inst.sources)} source symbols")
    for v, size in zip(x, code.source_alphabets):
        if not 0 <= v < size:
            raise DomainError(f"source symbol {v} outside alphabet of size {size}")
    values: dict[str, int] = {}
    for e in topological_order(inst):
        table = code.encoders.get(e.id)
        if table is None:
            raise MalformedCodeError(f"edge {e.id!r} has no encoder table")
        if inst.is_source_node(e.tail):
            idx = x[inst.source_index(e.tail)]
        else:
            ins = inst.in_edges(e.tail)
            sizes = [code.edge_alphabets[f.id] for f in ins]
            idx = mixed_radix_index([values[f.id] for f in ins], sizes)
        if idx >= len(table):
            raise MalformedCodeError(f"edge {e.id!r} encoder is missing entry {idx}")
        v = table[idx]
        if not 0 <= v < code.edge_alphabets[e.id]:
            raise MalformedCodeError(f"edge {e.id!r} encoder maps outside its alphabet")
        values[e.id] = v
    return tuple(values[e.id] for e in inst.edges)


def decode_outputs(
    inst: NetworkInstance, code: NetworkCode, edge_values: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Each terminal's decoder output for one vector of edge messages."""
    by_id = {e.id: v for e, v in zip(inst.edges, edge_values)}
    out = {}
    for t in inst.terminals:
        table = code.decoders.get(t)
        if table is None:
            raise MalformedCodeError(f"terminal {t!r} has no decoder table")
        ins = inst.in_edges(t)
        sizes = [code.edge_alphabets[f.id] for f in ins]
        idx = mixed_radix_index([by_id[f.id] for f in ins], sizes)
        if idx >= len(table):
            raise MalformedCodeError(f"terminal {t!r} decoder is missing entry {idx}")
        out[t] = tuple(table[idx])
    return out


class GlobalCodeTable:
    """Exhaustive evaluation of a code over every source tuple."""

    def __init__(
        self,
        inst: NetworkInstance,
        code: NetworkCode,
        rows: Sequence[tuple[int, ...]],
        wrong_terminals: Sequence[tuple[str, ...]],
    ):
        self.inst = inst
        self.code = code
        self.source_sizes = tuple(code.source_alphabets)
        self.rows = tuple(rows)
        self.wrong_terminals = tuple(wrong_terminals)
        self.good = tuple(not w for w in self.wrong_terminals)
        self._edge_pos = {e.id: i for i, e in enumerate(inst.edges)}

    @property
    def num_tuples(self) -> int:
        return len(self.rows)

    def index_to_tuple(self, idx: int) -> tuple[int, ...]:
        return index_to_values(idx, self.source_sizes)

    def edge_column(self, edge_id: str) -> tuple[int, ...]:
        pos = self._edge_pos[edge_id]
        return tuple(row[pos] for row in self.rows)

    def bad_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.good) if not g]

    @property
    def error(self) -> Fraction:
        """Exact bad fraction over all source tuples."""
        return Fraction(len(self.bad_indices()), self.num_tuples)

    def terminal_error(self, terminal: str) -> Fraction:
        wrong = sum(1 for w in self.wrong_terminals if terminal in w)
        return Fraction(wrong, self.num_tuples)


def build_global_table(
    inst: NetworkInstance,
    code: NetworkCode,
    enum_cap: int | None = None,
) -> GlobalCodeTable:
    """Enumerate all source tuples; raises ResourceError beyond the cap."""
    problems = validate_code(inst, code)
    if problems:
        raise MalformedCodeError("; ".join(problems))
    cap = enum_cap if enum_cap is not None else default_enum_cap()
    total = math.prod(code.source_alphabets)
    if total > cap:
        raise ResourceError(
            f"source tuple space has {total} elements, above the cap of {cap}"
        )
    sizes = tuple(code.source_alphabets)
    demanded = {t: inst.demanded_sources(t) for t in inst.terminals}
    rows = []
    wrongs = []
    for idx in range(total):
        x = index_to_values(idx, sizes)
        row = evaluate_global(inst, code, x)
        outputs = decode_outputs(inst, code, row)
        wrong = tuple(
            t
            for t in inst.terminals
            if outputs[t] != tuple(x[i] for i in demanded[t])
        )
        rows.append(row)
        wrongs.append(wrong)
    return GlobalCodeTable(inst, code, rows, wrongs)


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

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "target_eps": str(self.target_eps),
            "target_cardinalities": list(self.target_cardinalities),
            "blocklength": self.blocklength,
            "num_tuples": self.num_tuples,
            "error": str(self.error),
            "per_terminal_error": {t: str(v) for t, v in sorted(self.per_terminal_error.items())},
            "decoding_ok": dict(sorted(self.decoding_ok.items())),
            "rate_ok": list(self.rate_ok),
            "capacity_ok": dict(sorted(self.capacity_ok.items())),
            "source_cardinalities": list(self.source_cardinalities),
            "uniform_sources": self.uniform_sources,
            "deterministic_encoding": self.deterministic_encoding,
        }


def check_feasibility(
    inst: NetworkInstance,
    code: NetworkCode,
    target_eps: Fraction,
    target_cardinalities: Sequence[int],
    table: GlobalCodeTable | None = None,
    enum_cap: int | None = None,
) -> FeasibilityReport:
    """Check the code against targets; all comparisons are exact.

    Decoding must succeed on a fraction strictly above ``1 - eps`` per
    terminal; a target of exactly zero demands a correct fraction of one.
    Rate targets are cardinalities: each source alphabet must be at least as
    large as its target.
    """
    if target_eps < 0 or target_eps >= 1:
        raise DomainError("target eps must satisfy 0 <= eps < 1")
    if len(target_cardinalities) != len(inst.sources):
        raise DomainError("one rate target per source is required")
    if table is None:
        table = build_global_table(inst, code, enum_cap=enum_cap)
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


def joint_entropy(
    table: GlobalCodeTable,
    sources: Sequence[int] = (),
    edges: Sequence[str] = (),
) -> float:
    """Entropy in bits of selected source and edge variables, in bits.

    The distribution is induced by a uniform source tuple; probabilities are
    integer counts over the table, so the result is exact up to float
    rounding.  Callers compare entropies with a tolerance of 1e-9 bits.
    """
    for i in sources:
        if not 0 <= i < len(table.source_sizes):
            raise DomainError(f"unknown source index {i}")
    positions = [table._edge_pos[e] if e in table._edge_pos else None for e in edges]
    if any(p is None for p in positions):
        missing = [e for e, p in zip(edges, positions) if p is None]
        raise DomainError(f"unknown edge ids {missing}")
    counts = Counter()
    for idx, row in enumerate(table.rows):
        x = table.index_to_tuple(idx)
        key = tuple(x[i] for i in sources) + tuple(row[p] for p in positions)
        counts[key] += 1
    n = table.num_tuples
    return sum(c / n * math.log2(n / c) for c in counts.values())


def code_to_dict(code: NetworkCode) -> dict:
    return {
        "blocklength": code.blocklength,
        "source_alphabets": list(code.source_alphabets),
        "edge_alphabets": dict(sorted(code.edge_alphabets.items())),
        "encoders": {e: list(t) for e, t in sorted(code.encoders.items())},
        "decoders": {
            t: [list(row) for row in rows] for t, rows in sorted(code.decoders.items())
        },
    }


def parse_code(data: Mapping) -> NetworkCode:
    try:
        return NetworkCode(
            blocklength=int(data["blocklength"]),
            source_alphabets=tuple(int(v) for v in data["source_alphabets"]),
            edge_alphabets={str(k): int(v) for k, v in data["edge_alphabets"].items()},
            encoders={str(k): tuple(int(v) for v in t) for k, t in data["encoders"].items()},
            decoders={
                str(k): tuple(tuple(int(v) for v in row) for row in rows)
                for k, rows in data["decoders"].items()
            },
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"malformed code data: {exc}") from None


def load_code(path: str) -> NetworkCode:
    with open(path, encoding="utf-8") as fh:
        return parse_code(json.load(fh))


def save_code(code: NetworkCode, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code), fh, indent=2, sort_keys=True)
        fh.write("\n")

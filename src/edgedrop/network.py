"""Network instances: acyclic graphs with sources, terminals and demands.

An instance fixes the topology and the per-edge alphabet cardinalities.  Rates
are carried as cardinalities throughout; ``log2(size) / blocklength`` is only
ever derived for display.  The module also holds the JSON writer behind every
report and file the workbench writes, ``json_text``, which writes a
``Fraction`` as its ``str`` and a dataclass record as its fields and makes
the text of a large table only block by block as it is written, the reader
of every input file, ``load_json``, the checks every field read from one
goes through, ``field`` and ``require``, and the one gate every integer
table from a file or a library caller goes through, ``int_table``.
``read_once`` reads a command's input files before their parse, so that each
is opened once and its digest names the bytes that ``load_json`` parsed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import threading
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DomainError, Int64RangeError, PreconditionError


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

    @cached_property
    def _node_order(self) -> list[str] | None:
        """A node topological order (Kahn's, from the sources in node order),
        or None if there is a cycle; found once for both
        ``validate_instance`` and ``topological_order``."""
        indeg = {v: 0 for v in self.nodes}
        for e in self.edges:
            if e.head in indeg and e.tail in indeg:
                indeg[e.head] += 1
        order = [v for v, d in indeg.items() if d == 0]
        for v in order:  # grows as the loop runs
            for e in self.out_edges(v):
                if e.head in indeg:
                    indeg[e.head] -= 1
                    if indeg[e.head] == 0:
                        order.append(e.head)
        return order if len(order) == len(indeg) else None  # a repeated node is not a cycle

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
    source_nodes = [s.node for s in inst.sources]
    for what, names in (
        ("node", inst.nodes),
        ("edge", [e.id for e in inst.edges]),
        ("source", source_nodes),
        ("terminal", inst.terminals),
    ):
        problems += [f"duplicate {what} {n!r}" for n, k in Counter(names).items() if k > 1]
    nodes = set(inst.nodes)
    for e in inst.edges:
        if e.tail not in nodes:
            problems.append(f"edge {e.id!r} tail {e.tail!r} is not a node")
        if e.head not in nodes:
            problems.append(f"edge {e.id!r} head {e.head!r} is not a node")
        if e.alphabet_size < 1:
            problems.append(f"edge {e.id!r} alphabet size must be >= 1")
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
    if inst._node_order is None:
        problems.append("graph has a directed cycle")
    return problems


def topological_order(inst: NetworkInstance) -> list[Edge]:
    """Edges ordered so each appears after every edge into its tail node.

    Deterministic: nodes are ordered by ``NetworkInstance._node_order`` and
    edges by (tail position, edge id).
    """
    nodes = inst._node_order
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


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def require(value, kind: type, what: str, must: str | None = None):
    """The value itself if it has the JSON type ``kind``: ``dict``, ``list``
    (or an array that ``load_json`` read), ``str`` or ``int``, which JSON
    floats and booleans are not.  Anything else is rejected, never coerced:
    "<what> must be a list, got 5", or "must <must>" where that says more."""
    if type(value) is kind or kind is list and isinstance(value, np.ndarray):
        return value
    raise DomainError(f"{what} must {must or 'be ' + _JSON_TYPES[kind]}, got {value!r}")


def field(data: dict, key: str, kind: type, where: str, must: str | None = None):
    """``data[key]``, checked by ``require``.  ``where`` names the object
    ``data`` describes; the messages read "<where> description is missing
    'key'" and "<where> 'key' must be a list, got 5"."""
    if key not in data:
        raise DomainError(f"{where} description is missing {key!r}")
    value = data[key]  # the message is made only for a value that fails
    return value if type(value) is kind else require(value, kind, f"{where} {key!r}", must)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def int_table(data, ndim: int, what: str) -> np.ndarray:
    """Integer data from a file or a library caller in the workbench's table
    form: a read-only int64 array of ``ndim`` dimensions.  Every table the
    workbench takes in is made here.

    A read-only int64 array is shared, and any other integer array copied
    once.  A list or tuple is checked entry by entry by ``_int_entries``.
    Anything else is refused with DomainError, never coerced: booleans,
    floats, strings, None, mappings, ragged rows, values outside int64
    (``Int64RangeError``) and the wrong number of dimensions.
    """
    if isinstance(data, (list, tuple)):
        return _int_entries(data, ndim, what)
    if not isinstance(data, np.ndarray):
        raise DomainError(f"{what} must be a list")
    if data.dtype.kind not in "iu":
        raise DomainError(f"{what} entries must be integers, got {data.dtype} values")
    if data.ndim != ndim:
        raise DomainError(f"{what} must have {ndim} dimensions, got {data.ndim}")
    if data.dtype == np.int64 and not data.flags.writeable:
        return data
    if data.dtype == np.uint64 and data.size and data.max() > np.iinfo(np.int64).max:
        raise Int64RangeError(f"{what} entries must fit in 64 bits")
    return _frozen(data.astype(np.int64))


def _int_entries(data: list | tuple, ndim: int, what: str) -> np.ndarray:
    """``int_table`` of a list or tuple: Python ints or numpy integer
    scalars, or for ``ndim`` 2 rows of them of one length, each row a list,
    a tuple or a 1-D array."""
    width = 0
    if ndim == 2:
        rows = set(map(type, data))
        if not rows <= {list, tuple, np.ndarray} or np.ndarray in rows and any(
            type(r) is np.ndarray and r.ndim != 1 for r in data
        ):
            raise DomainError(f"{what} rows must be lists")
        widths = set(map(len, data))
        if len(widths) > 1:
            raise DomainError(f"{what} has rows of different lengths")
        width = widths.pop() if widths else 0

    def entries():
        return itertools.chain.from_iterable(data) if ndim == 2 else iter(data)

    kinds = set(map(type, entries()))
    if not kinds <= {int} and not all(k is int or issubclass(k, np.integer) for k in kinds):
        bad = next(v for v in entries() if not (type(v) is int or isinstance(v, np.integer)))
        raise DomainError(f"{what} entries must be integers, got {bad!r}")
    count = len(data) * width if ndim == 2 else len(data)
    try:
        arr = np.fromiter(entries(), dtype=np.int64, count=count)
    except OverflowError:
        raise Int64RangeError(f"{what} entries must fit in 64 bits") from None
    return _frozen(arr.reshape(len(data), width) if ndim == 2 else arr)


@dataclass(frozen=True)
class BlockText:
    """Bytes made block by block as they are iterated, whose length is known
    without making them: the ``pieces`` of a text and, between each two of
    them, the text of one of the ``tables``, an ``(array, newline)`` that
    ``_int_array_json`` writes."""

    pieces: list[bytes]
    tables: list[tuple[np.ndarray, str]]

    def __iter__(self) -> Iterator[bytes]:
        yield self.pieces[0]
        for table, piece in zip(self.tables, self.pieces[1:]):
            yield from _int_array_json(*table)
            yield piece

    def __len__(self) -> int:
        return sum(map(len, self.pieces)) + sum(_int_array_length(*t) for t in self.tables)


def json_text(obj, end: bytes = b"") -> BlockText:
    """The ASCII bytes of ``json.dumps(obj, indent=2, sort_keys=True)``,
    followed by ``end``, with numpy arrays written as their ``tolist()``;
    every report and file the workbench writes is made here.  Two rules
    extend ``json``: a ``Fraction`` is written as the string ``str(f)``, as
    every exact rational is reported, and a dataclass instance as the
    object of its declared fields (``dataclasses.fields``), which leaves
    out cached properties and copies no table.

    ``_json_text`` writes the text of everything but the large int64 arrays
    into one skeleton ``str`` up front, with a NUL where each such array goes;
    it is encoded once and split at its NULs.  The text of each array is
    made ``_WRITE_ROWS`` rows at a time only as the text is read, so no
    block outlives its write, and a text with no such array is one block.
    Nothing else writes a NUL: strings and keys escape it as ``\\u0000``.
    An int costs no call into ``json``: it is written as ``int.__repr__``,
    as ``json`` writes it.  Each array block is stripped of its digit
    slots' padding by one memchr-based ``bytes.replace``.
    """
    tables: list[tuple[np.ndarray, str]] = []
    pieces = _json_text(obj, "\n", tables).encode("ascii").split(b"\0")
    pieces[-1] += end
    return BlockText(pieces, tables)


def _json_text(obj, newline: str, tables: list) -> str:
    """The skeleton text of ``obj`` for ``json_text``, without the
    pure-Python encoder that ``json`` falls back to when it indents.

    ``newline`` is the line break plus the indent of the enclosing level.
    An int64 array of one or two dimensions and at least ``_ARRAY_ENTRIES``
    entries, none negative, is left to ``_int_array_json``: a NUL here, the
    array and ``newline`` appended to ``tables``; any other array is written
    as its ``tolist()``.  The tables the workbench writes hold no negative
    entry.  A list of plain ints is one join, and
    a rectangular list of non-empty int rows one ``%`` over a repeated row
    template.  Other containers recurse, a dataclass record as the dict of
    its fields.  An exact ``int`` is its ``int.__repr__``, as ``json``
    writes it, a ``Fraction`` its ``str``; other scalars, bools and int
    subclasses among them, go through ``json.dumps``, and non-str keys are
    converted or rejected as ``json`` does them.
    """
    if type(obj) is int:  # never a bool
        return int.__repr__(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.ndarray):
        big = obj.dtype == np.int64 and obj.ndim in (1, 2) and obj.size >= _ARRAY_ENTRIES
        if not big or obj.min() < 0:
            return _json_text(obj.tolist(), newline, tables)
        tables.append((obj, newline))
        return "\0"
    if not isinstance(obj, (list, tuple, dict)):
        # int and float first: Fraction's isinstance check goes through ABCMeta.
        names = None if isinstance(obj, (int, float)) or obj is None else _field_names(type(obj))
        if names is None:
            return f'"{obj}"' if isinstance(obj, Fraction) else json.dumps(obj)
        obj = {name: getattr(obj, name) for name in names}
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    # f-strings copy a large body once, where a chain of + copies it per term.
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        items = [f"{_json_key(k)}: {_json_text(v, inner, tables)}" for k, v in sorted(obj.items())]
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
    return f"[{inner}{sep.join([_json_text(v, inner, tables) for v in obj])}{newline}]"


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The declared fields of a dataclass, which ``_json_text`` writes; None
    for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


# Arrays are written this many rows (entries of a 1-D array) at a time, so
# that no buffer is as large as a table.
_WRITE_ROWS = 1 << 12
# Smaller arrays take the list path: its cost grows by some 0.2 us an
# entry, while the array path costs some 25 us in numpy calls whatever the
# size, so the two meet near 100 entries.
_ARRAY_ENTRIES = 128


def _row_template(arr: np.ndarray, newline: str) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 text of one row of ``_int_array_json``'s blocks, with a
    NUL-padded slot as wide as the array's widest entry where each entry
    goes, and the columns of the slots' digits, one row of them a slot."""
    digits = len(str(int(arr.max())))
    width = arr.shape[1] if arr.ndim == 2 else 1
    # A row is head, then each entry's slot, separated by sep, then tail;
    # the first row's head starts with "[" where the others have ",".
    inner = newline + "  "
    head, sep, tail = "," + inner, "", ""
    if arr.ndim == 2:
        entry = inner + "  "
        head, sep, tail = head + "[" + entry, "," + entry, inner + "]"
    slot = "\0" * digits
    template = np.frombuffer((head + slot + (sep + slot) * (width - 1) + tail).encode(), np.uint8)
    starts = len(head) + np.arange(width) * (len(slot) + len(sep))
    return template, starts[:, None] + np.arange(digits)


def _int_array_length(arr: np.ndarray, newline: str) -> int:
    """The length of ``_int_array_json``'s bytes: templates less slots, plus digits."""
    template, digit_cols = _row_template(arr, newline)
    return len(arr) * (template.size - digit_cols.size) + _decimal_length(arr) + len(newline) + 1


def _int_array_json(arr: np.ndarray, newline: str) -> Iterator[bytes]:
    """The bytes of ``_json_text(arr.tolist(), newline, [])`` for an array
    that it leaves here, in blocks of ``_WRITE_ROWS`` rows, each made when
    it is asked for: a uint8 array that repeats ``_row_template``, whose
    slots numpy arithmetic fills with ASCII digits.  One ``bytes.replace``
    strips the slots' NUL padding; it searches with ``memchr`` and copies
    the runs between NULs, where ``bytes.translate`` maps byte by byte and
    takes about twice as long on a block."""
    template, digit_cols = _row_template(arr, newline)
    digits = digit_cols.shape[1]
    rows = arr.reshape(len(arr), -1)
    for i in range(0, len(rows), _WRITE_ROWS):
        values = rows[i : i + _WRITE_ROWS]
        block = np.empty((len(values), len(template)), np.uint8)
        block[:] = template
        if digits <= 4:
            small = _small_digits()[values].view(np.uint8).reshape(values.shape + (4,))
            block[:, digit_cols] = small[..., 4 - digits :]
        else:
            block[:, digit_cols] = _decimal_digits(values, digits)
        if i == 0:
            block[0, 0] = ord("[")
        yield block.tobytes().replace(b"\0", b"")
    yield (newline + "]").encode("ascii")


def _decimal_digits(values: np.ndarray, digits: int) -> np.ndarray:
    """The ASCII digits of non-negative integers below ``10**digits``, by
    division: one more axis of ``digits`` bytes, right-aligned, NUL-padded."""
    out = np.empty(values.shape + (digits,), np.uint8)
    out[..., -1] = values % 10 + ord("0")
    for k in range(1, digits):
        q = values // 10**k
        out[..., -1 - k] = np.where(q > 0, q % 10 + ord("0"), 0)
    return out


@cache
def _small_digits() -> np.ndarray:
    """``_decimal_digits`` of 0 to 9999 at four digits, built on first use,
    each entry's four bytes viewed as one uint32 so that a lookup is one
    gather."""
    return _decimal_digits(np.arange(10**4), 4).view(np.uint32).ravel()


def _json_key(key) -> str:
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


# Files at least this large have their integer tables read from the bytes.
# The checks cost some 20 us a table whatever its size, which ``json`` beats
# below about 2.5 KiB of code file; from 4 KiB up they are faster (the
# measurement is in CHANGES.md).
FAST_READ_BYTES = 1 << 12

# A table's whitespace is deleted; its numbers are its text without
# brackets, and its delimiters its text without digits.
_WHITESPACE = b" \t\n\r"
_NOT_NUMBERS = _WHITESPACE + b"[]"
_NOT_DELIMS = _WHITESPACE + b"0123456789"
# Table text is translated this many bytes at a time, so that no buffer
# but the file itself is as large as a table with its whitespace.
_CHUNK = 1 << 22
# ``_number_starts`` and ``_row_joins`` read this many bytes at a time,
# which keeps their temporaries in cache: twice as fast as whole 2.5 MB
# tables on 2 vCPUs.
_SCAN_CHUNK = 1 << 18


def _translated(raw: bytes, first: int, last: int, table: bytes | None, delete: bytes) -> bytes:
    """``raw[first:last].translate(table, delete)``, ``_CHUNK`` bytes at a time."""
    return b"".join(
        raw[i : min(i + _CHUNK, last)].translate(table, delete) for i in range(first, last, _CHUNK)
    )


def _number_starts(raw: bytes, first: int, last: int) -> int:
    """How many runs of digits start in ``raw[first:last]``, one at
    ``first`` included, chunk by chunk (each chunk reaches one byte into the
    next, which counts its own starts)."""
    starts = int(raw[first : first + 1].isdigit())
    for i in range(first, last, _SCAN_CHUNK):
        u = np.frombuffer(raw, dtype=np.uint8, count=min(_SCAN_CHUNK + 1, last - i), offset=i)
        num = u - ord("0") < 10
        starts += int(np.count_nonzero(num[1:] > num[:-1]))
    return starts


def _row_joins(text: bytes, first: int, last: int) -> int:
    """How many times ``],[`` occurs in ``text[first:last]``, chunk by chunk
    (each chunk reaches two bytes into the next, which counts its own).
    ``bytes.count`` holds the GIL; this scan releases it and is faster: on
    the 2.5 to 3.0 MB decoders of the benchmark's 2^14- and 2^16-tuple
    codes, 0.7-1.2 ms against 3.3-3.7 ms (median of 15 calls, 2 vCPUs)."""
    joins = 0
    for i in range(first, last, _SCAN_CHUNK):
        u = np.frombuffer(text, dtype=np.uint8, count=min(_SCAN_CHUNK + 2, last - i), offset=i)
        join = u[:-2] == ord("]")
        join &= u[1:-1] == ord(",")
        join &= u[2:] == ord("[")
        joins += int(np.count_nonzero(join))
    return joins


# Tables whose bytes span at least this many are converted by two threads.
# A worker converts the front share of the numbers and counts its digits
# while this thread runs the checks; this thread then converts and counts
# the rest, and the front array grows in place to hold both.
# ``np.fromstring`` and the numpy scans release the GIL.  A thread start
# and join cost some 40 us.  Median of 7 x 20 reads on 2 vCPUs of rows of
# three numbers below 16, serial against a whole-table worker, two runs:
# compact 17.8 KiB 198-205 against 269-274 us, 21.5 KiB 244-289 against
# 276-324, 35.6 KiB 497-593 against 434-440, 71.1 KiB 1180 against 802-841;
# indented (indent=2) 52.9 KiB 386 against 419-464, 105.9 KiB 754-765
# against 681-700.  The compact layout broke even near 25 KiB and the
# indented one, whose checks scan all its bytes, near 90 KiB.
PARALLEL_PARSE_BYTES = 1 << 15
# The share of a threaded table's numbers that the worker converts: they are
# cut at the first comma from this fraction of their bytes on.  The checks
# before this thread's conversion take about a third of the time that
# converting every number takes.  On the 2.5 MB decoders of the benchmark's
# 2^14- and 2^16-tuple codes, shares of 0.6, 2/3, 0.7 and 0.75 read within
# 1.8 ms of each other in two runs (medians of 90 interleaved reads, 10.4
# to 20.1 ms), and 0.5 was 0.4 to 3.5 ms slower than 2/3.  Two designs
# lost: both threads claiming many small chunks from the two ends, since
# between chunks the worker needs the GIL, which this thread holds for
# milliseconds inside ``bytes.translate``; and a conversion in numpy alone,
# 2.5 times slower than ``np.fromstring``.
_WORKER_SHARE = 2 / 3


def _parse(numbers, out: list) -> None:
    """The worker's conversion: append the uint64 values of comma-separated
    ``numbers`` and how many digits they take viewed as int64, or the
    exception raised, for the caller to raise once its checks pass.
    Unsigned conversion is faster; a number of 2**63 or more then reads as
    negative, or past 2**64 as whatever the conversion makes of it, and
    either needs fewer digits than its text holds, which the caller's digit
    count refuses."""
    try:
        values = np.fromstring(numbers, dtype=np.uint64, sep=",")
        out += (values, _decimal_length(values.view(np.int64)))
    except Exception as exc:
        out.append(exc)


def _shape(delims: bytes, numbers: bytes) -> tuple[int, ...] | None:
    """The shape that a table's brackets and commas ``delims`` spell, or
    None: ``[`` ``,`` * (n - 1) ``]`` is a list of n, and ``[`` rows ``]``,
    each row ``[`` ``,`` * (w - 1) ``]`` and rows joined by ``,``, is rows
    of w.  Lengths are compared before the rows are spelled, so a deep or
    ragged text costs memory in proportion to its length.  A row ``[]``
    spells what ``[5]`` does; it is empty where ``numbers`` is all commas."""
    nested = delims.startswith(b"[[")
    row = delims[1 : delims.index(b"]") + 1] if nested else delims
    if row != b"[" + b"," * (len(row) - 2) + b"]":
        return None
    width = len(row) - 1
    if width == 1 and numbers.count(b",") == len(numbers):
        width = 0
    if not nested:
        return (width,)
    rows, rest = divmod(len(delims) - 1, len(row) + 1)
    if rest or not delims.startswith(memoryview((row + b",") * rows)[:-1], 1):
        return None
    return (rows, width)


def _decimal_length(values: np.ndarray) -> int:
    """How many digits the int64 ``values`` take in decimal, a negative
    value counted as one."""
    total = values.size
    top = int(values.max())
    power = 10
    while power <= top:
        total += int(np.count_nonzero(values >= power))
        power *= 10
    return total


def _int_table_text(raw: bytes, first: int, last: int) -> np.ndarray | None:
    """The read-only int64 array that the JSON table ``raw[first:last]``
    spells, if it is a table of integers.

    A 1-D list, or a 2-D list of equally long rows, of non-negative JSON
    integers below 2**63 is proven by whole-buffer byte operations and
    converted by ``np.fromstring``; any other text gives None and is
    left to ``json``.  With its whitespace deleted, the text's delimiters
    spell the shape, rows meet bracket to bracket and no number is empty;
    where whitespace was, none split a number.  The values then need as
    many digits as the text holds, which a number with a leading zero, or
    of 2**63 or more, does not.  A table whose bytes span at least
    ``PARALLEL_PARSE_BYTES`` is converted by two threads, each counting the
    digits of its share: a worker converts the numbers up to a comma
    ``_WORKER_SHARE`` of the way in while this thread runs the checks, and
    this thread converts the rest once they pass.  The worker is joined
    before this returns or raises, and a conversion error of either share
    is raised only once the checks before the digit count have passed.
    """
    if last - first < 2 or not raw.startswith(b"[", first) or not raw.endswith(b"]", first, last):
        return None
    # An indented table is mostly whitespace, deleted in one pass that the
    # others read; the passes over a compact table read its bytes.
    text, lo, hi = raw, first, last
    if raw[first + 1] in _WHITESPACE:
        text = _translated(raw, first, last, None, _WHITESPACE)
        lo, hi = 0, len(text)
    numbers = _translated(text, lo, hi, None, _NOT_NUMBERS)
    # Each thread reads its share through a uint8 view, which
    # ``np.fromstring`` takes as it takes bytes, so neither share is copied.
    # A conversion reads a number up to the byte that ends it, which lies
    # inside ``numbers``: the worker's view ends before a comma, and bytes
    # end with a NUL.
    front: list = []
    worker = None
    cut = 0
    if last - first >= PARALLEL_PARSE_BYTES:
        cut = numbers.find(b",", int(len(numbers) * _WORKER_SHARE)) + 1
    if cut:
        share = np.frombuffer(numbers, dtype=np.uint8, count=cut - 1)
        worker = threading.Thread(target=_parse, args=(share, front))
        worker.start()
        del share
    try:
        shape = _shape(_translated(text, lo, hi, None, _NOT_DELIMS), numbers)
        if shape is None:
            return None
        count = math.prod(shape)
        # Without whitespace, the text is its numbers and two brackets around
        # them and around each row.
        brackets = 2 + 2 * shape[0] if len(shape) == 2 else 2
        spaced = len(numbers) + brackets < last - first
        if len(shape) == 2:
            if text is raw and spaced:
                text = _translated(raw, first, last, None, _WHITESPACE)
                lo, hi = 0, len(text)
            # Rows meet bracket to bracket, so no digit lies outside a row.
            if not (
                text.startswith(b"[[", lo)
                and text.endswith(b"]]", lo, hi)
                and _row_joins(text, lo, hi) == shape[0] - 1
            ):
                return None
        del text
        if not count:
            return _frozen(np.empty(shape, dtype=np.int64))
        # A run of digits starts each number, so none is empty; where
        # whitespace was deleted, as many start in the bytes, so none split.
        if _number_starts(numbers, 0, len(numbers)) != count:
            return None
        if spaced and _number_starts(raw, first, last) != count:
            return None
        digits = len(numbers) - (count - 1)
        # This thread converts the numbers past the cut, or all of them.
        share = np.frombuffer(numbers, dtype=np.uint8, offset=cut) if cut else numbers
        del numbers  # not alive beside the digit count's temporaries
        values = np.fromstring(share, dtype=np.uint64, sep=",")
        del share
        seen = _decimal_length(values.view(np.int64))
    finally:
        if worker is not None:
            worker.join()
    if worker is not None:
        if isinstance(front[0], Exception):
            raise front[0]
        head, head_digits = front
        # The front grows in place to hold the back; only the back is copied.
        head.resize(head.size + values.size, refcheck=False)
        head[head.size - values.size :] = values
        values, seen = head, seen + head_digits
    if values.size != count or seen != digits:
        return None
    return _frozen(values.view(np.int64).reshape(shape))


TableSlots = Callable[[object], Iterable[tuple[object, int]]]


def _read_tables(raw: bytes, tables: TableSlots):
    """``json.loads`` of UTF-8 bytes with their integer tables read as arrays,
    or None when no table was read that way, ``json`` refuses the text or
    the text is not an object.

    A table is looked for after each colon, up to the next quote or brace.
    Each one ``_int_table_text`` reads is replaced by the token ``NaN`` in a
    skeleton text; ``json`` decodes it and ``parse_constant`` hands back the
    arrays in order.  The text may contain neither ``NaN`` nor
    ``Infinity``, so a ``NaN`` that ``json`` does not see as a constant lay
    inside a string and the text is refused.  Only the text between the
    tables read is searched for them: a table's text holds no letter.
    Arrays that ``tables(data)`` does not name, with their dimension,
    become the lists ``json`` gives.
    """
    pieces: list[bytes] = []
    arrays: list[np.ndarray] = []
    done = 0
    colon = raw.find(b":")
    while colon >= 0:
        end = raw.find(b'"', colon)
        end = len(raw) if end < 0 else end
        brace = raw.find(b"}", colon, end)
        end = end if brace < 0 else brace
        first = raw.find(b"[", colon, end)
        last = raw.rfind(b"]", colon, end) + 1
        if first >= 0 and last > first and not raw[colon + 1 : first].strip(_WHITESPACE):
            arr = _int_table_text(raw, first, last)
            if arr is not None:
                pieces += (raw[done:first], b"NaN")
                arrays.append(arr)
                done = last
        colon = raw.find(b":", end)
    if not arrays:
        return None
    pieces.append(raw[done:])
    if any(b"NaN" in text or b"Infinity" in text for text in pieces[::2]):
        return None
    queue = iter(arrays)
    try:
        out = json.loads(b"".join(pieces).decode("utf-8"), parse_constant=lambda _: next(queue))
    except (ValueError, RecursionError):
        return None
    if next(queue, None) is not None or not isinstance(out, dict):
        return None
    placed = {id(t) for t, ndim in tables(out) if isinstance(t, np.ndarray) and t.ndim == ndim}
    stack = [out]
    while stack:
        node = stack.pop()
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(value, np.ndarray):
                if id(value) not in placed:
                    node[key] = value.tolist()
            elif isinstance(value, (dict, list)):
                stack.append(value)
    return out


# Input files that ``read_once`` read ahead of their parse, by path.
_READ_AHEAD: dict[str, bytes] = {}

# Files at least this large are hashed on a second thread while the command
# parses them; ``hashlib`` releases the GIL.  sha256 runs at about 2 GB/s on
# 2 vCPUs, so a 2.6 MB code file takes 1.4 ms against some 100 us for a
# thread start and join.  At 256 KiB a 514 KB code file was threaded too and
# its command's peak RSS rose by 1 MB; from 1 MiB up it did not move.
THREAD_HASH_BYTES = 1 << 20


def _digest(raw: bytes, out: list) -> None:
    """Append the sha256 hex digest of ``raw``, or the exception hashing
    raised, for the thread that joins this one to raise."""
    try:
        out.append(hashlib.sha256(raw).hexdigest())
    except Exception as exc:
        out.append(exc)


@contextmanager
def read_once(paths: Iterable[str]) -> Iterator[dict[str, str]]:
    """Read each file in ``paths`` once, in order, and yield the dict that
    holds its ``sha256:<hex>`` digest by path once the block ends.  Inside
    the block ``load_json`` takes a file's bytes from here instead of
    opening it again, so a digest names exactly the bytes that were parsed;
    a file never parsed is still read and hashed.  The bytes are dropped
    when they are parsed or when the block ends.

    A file of at least ``THREAD_HASH_BYTES`` is hashed on a worker thread
    that starts as soon as it is read, so the hash runs beside the parse.
    Every worker is joined as the block ends, whether it ends by an
    exception or not; the digests are filled in only after that join, and
    an exception raised in a worker is raised from there.
    """
    hashed: dict[str, list] = {}
    workers = []
    digests: dict[str, str] = {}
    try:
        for path in paths:
            if path not in hashed:
                with open(path, "rb") as fh:
                    raw = _READ_AHEAD[path] = fh.read()
                out: list = []
                if len(raw) >= THREAD_HASH_BYTES:
                    worker = threading.Thread(target=_digest, args=(raw, out))
                    worker.start()
                    workers.append(worker)
                else:
                    _digest(raw, out)
                hashed[path] = out
                del raw  # dropped once parsed, like the bytes in _READ_AHEAD
        yield digests
    finally:
        _READ_AHEAD.clear()
        for worker in workers:
            worker.join()
        for path, (digest,) in hashed.items():
            if isinstance(digest, Exception):
                raise digest
            digests[path] = "sha256:" + digest


def load_json(path: str, tables: TableSlots | None = None) -> dict:
    """The JSON object in a UTF-8 file, with its integer tables read as
    arrays; every input file of the workbench is read here.

    ``tables(data)`` names the values that are tables, each with its
    dimension (1, or 2 for rows).  In a file of at least ``FAST_READ_BYTES``
    each of them that is a JSON list of non-negative integers, or of equally
    long rows of them, comes back as a read-only int64 array; everything
    else is what ``json`` gives, and a file that the byte checks cannot prove well formed
    is decoded by ``json`` alone.  A file that is not UTF-8, not JSON,
    nested deeper than ``json`` can decode, or not an object is a
    DomainError that names the path.
    """
    raw = _READ_AHEAD.pop(path, None)
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    data = None
    if tables is not None and len(raw) >= FAST_READ_BYTES:
        data = _read_tables(raw, tables)
    if data is None:
        try:
            text = raw.decode("utf-8")
            if "\r" in text:  # a text-mode read's newlines, which json's error positions count
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            data = json.loads(text)
        except UnicodeDecodeError:
            raise DomainError(f"{path}: not UTF-8 text") from None
        except ValueError as exc:  # json.JSONDecodeError, or an integer too long to convert
            raise DomainError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise DomainError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object")
    return data


def parse_instance(data: Mapping) -> NetworkInstance:
    """Build an instance from its file form, the fields of ``NetworkInstance``,
    ``Edge`` and ``Source`` as ``json_text`` writes them.

    Names are JSON strings, and alphabet sizes and demands JSON integers;
    anything else is a DomainError that names the field.
    """

    def entries(key: str, kind: type, name: str) -> list:
        """The list ``data[key]``, each entry checked as ``kind``."""
        values = field(data, key, list, "instance")
        if not set(map(type, values)) <= {kind}:  # entries are named only when one fails
            for i, v in enumerate(values):
                require(v, kind, f"{name} {i}")
        return values

    edges = []
    for i, e in enumerate(entries("edges", dict, "edge")):
        where = f"edge {i}"
        ends = field(e, "id", str, where), field(e, "tail", str, where), field(e, "head", str, where)
        edges.append(Edge(*ends, field(e, "alphabet_size", int, where)))
    sources = []
    for i, s in enumerate(entries("sources", dict, "source")):
        where = f"source {i}"
        sources.append(Source(field(s, "node", str, where), field(s, "alphabet_size", int, where)))
    rows = entries("demands", list, "demand row")
    demands = tuple(tuple(require(v, int, "demand entry") for v in row) for row in rows)
    return NetworkInstance(
        nodes=tuple(entries("nodes", str, "node")),
        edges=tuple(edges),
        sources=tuple(sources),
        terminals=tuple(entries("terminals", str, "terminal")),
        demands=demands,
    )


def load_instance(path: str) -> NetworkInstance:
    return parse_instance(load_json(path))


def save_instance(inst: NetworkInstance, path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(json_text(inst, b"\n"))

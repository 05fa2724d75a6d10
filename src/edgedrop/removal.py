"""Certified removal of a single edge from a verified network code.

The sufficient condition checked here works through an auxiliary partition of
the source tuple space.  A partition qualifies when (a) the candidate edge
carries a constant message on every part, (b) every part is a product of
per-source symbol sets, and (c) some part is large enough per source and
contains few enough badly decoded tuples.  Restricting the code to such a
part removes the edge: its constant message is hardwired into every consumer,
and each source keeps a guaranteed fraction of its alphabet.

All inequalities are checked in exact integer or rational form; every emitted
certificate is re-verified by running the restricted code through
``check_feasibility``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Sequence

import numpy as np

from .codes import (
    FeasibilityReport,
    GlobalCodeTable,
    NetworkCode,
    build_global_table,
    check_feasibility,
    checked_subsets,
    index_digits,
    pack,
    product_indices,
    reindex_consumer,
)
from .errors import DomainError, InternalCheckError, PreconditionError
from .network import NetworkInstance, _frozen, int_table, remove_edge

Label = Hashable


def _dense(values) -> tuple[list, np.ndarray]:
    """Sorted distinct values and, per entry, the rank of its value.

    A list or tuple of strings or of tuples (hashable and mutually sortable)
    is ranked through a dict; anything else is an integer table, taken by
    ``int_table``, and ranked by ``np.unique``.
    """
    if not (isinstance(values, (list, tuple)) and set(map(type, values)) <= {str, tuple}):
        keys, ranks = np.unique(int_table(values, 1, "labels"), return_inverse=True)
        return keys.tolist(), ranks
    first: dict = {}
    ids = [first.setdefault(v, len(first)) for v in values]
    keys = list(first)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    return [keys[j] for j in order], rank[np.asarray(ids, dtype=np.int64)]


class SourcePartition:
    """A partition of the source tuple space, one label per tuple.

    Labels are integers, taken by ``network.int_table``, or mutually
    sortable strings or tuples; ``keys`` lists them sorted and ``ids[idx]``
    is the position in ``keys`` of tuple idx's label.  ``members`` gives one
    part as a sorted tuple index array.
    Built-in constructors cover the common shapes: per-tuple singletons, a
    single part, products of per-source classes, and the level sets of one
    edge's message.
    """

    def __init__(self, source_sizes: Sequence[int], labels: Sequence[Label]):
        self.source_sizes = tuple(source_sizes)
        self.keys, self.ids = _dense(labels)
        total = math.prod(source_sizes)
        if len(self.ids) != total:
            raise DomainError(f"expected {total} labels, got {len(self.ids)}")

    @classmethod
    def singletons(cls, source_sizes: Sequence[int]) -> "SourcePartition":
        return cls(source_sizes, np.arange(math.prod(source_sizes)))

    @classmethod
    def whole(cls, source_sizes: Sequence[int]) -> "SourcePartition":
        return cls(source_sizes, np.zeros(math.prod(source_sizes), dtype=np.int64))

    @classmethod
    def from_source_classes(
        cls, source_sizes: Sequence[int], classes: Sequence[Sequence[int]]
    ) -> "SourcePartition":
        """Product partition: the label is the tuple of per-source class ids.

        ``classes``, a list or tuple, holds one class map per source:
        ``classes[i][v]`` is the class id of symbol v of source i.  Every part
        of such a partition is automatically a product set.
        """
        if not isinstance(classes, (list, tuple)) or len(classes) != len(source_sizes):
            raise DomainError("one class assignment per source is required")
        dense = [_dense(cls_map) for cls_map in classes]
        for size, (_, rank) in zip(source_sizes, dense):
            if len(rank) != size:
                raise DomainError("class assignment does not cover a source alphabet")
        radices = [len(keys) for keys, _ in dense]
        total = math.prod(source_sizes)
        # Tuples of class ids sort like their packed ranks, so partitioning by
        # the packed key orders the parts exactly as their labels.
        digits = index_digits(np.arange(total), source_sizes)
        ids = pack([rank[d] for (_, rank), d in zip(dense, digits)], radices)
        part = cls(source_sizes, _frozen(ids))
        ranks = [r.tolist() for r in index_digits(part.keys, radices)]
        part.keys = [
            tuple(keys[r] for (keys, _), r in zip(dense, combo)) for combo in zip(*ranks)
        ]
        return part

    @classmethod
    def from_edge_values(cls, table: GlobalCodeTable, edge_id: str) -> "SourcePartition":
        return cls(table.source_sizes, table.edge_values(edge_id))

    def members(self, label: Label) -> np.ndarray:
        """Sorted tuple indices of the part labeled ``label``."""
        try:
            position = self.keys.index(label)
        except ValueError:
            raise DomainError(f"unknown partition label {label!r}") from None
        return np.flatnonzero(self.ids == position)

    @cached_property
    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.ids, minlength=len(self.keys))

    @cached_property
    def projection_sizes(self) -> np.ndarray:
        """Parts x sources matrix of per-source projection cardinalities.

        Each (part, symbol) pair that occurs is counted once, found by a
        sort: a values-only ``np.unique`` hashes, several times slower.
        """
        n_parts = len(self.keys)
        out = np.zeros((n_parts, len(self.source_sizes)), dtype=np.int64)
        digits = index_digits(np.arange(len(self.ids)), self.source_sizes)
        for i, (d, s) in enumerate(zip(digits, self.source_sizes)):
            pairs = np.sort(self.ids * s + d)
            first = np.ones(len(pairs), dtype=bool)
            np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
            out[:, i] = np.bincount(pairs[first] // s, minlength=n_parts)
        return out

    def projections(self, label: Label) -> list[tuple[int, ...]]:
        """Per-source sorted symbol sets appearing in one part."""
        digits = index_digits(self.members(label), self.source_sizes)
        return [tuple(np.unique(d).tolist()) for d in digits]


def fiber_edge_values(
    table: GlobalCodeTable, edge_id: str, part: SourcePartition
) -> dict[Label, int] | None:
    """The induced label-to-message map, or None if any part sees two values.

    Existence of this map is exactly the requirement that the partition
    determines the edge message.
    """
    if part.source_sizes != table.source_sizes:
        raise DomainError("partition and table cover different source spaces")
    column = table.edge_values(edge_id)
    induced = np.zeros(len(part.keys), dtype=column.dtype)
    induced[part.ids] = column
    if not np.array_equal(induced[part.ids], column):
        return None
    return dict(zip(part.keys, induced.tolist()))


def fibers_are_products(part: SourcePartition) -> bool:
    """Whether every part equals the product of its per-source projections.

    A part is always contained in that product, so comparing cardinalities is
    an exact check.
    """
    return bool(np.array_equal(part.part_sizes, part.projection_sizes.prod(axis=1)))


def _witness_holds(
    projection_sizes: Sequence[int],
    source_sizes: Sequence[int],
    bad: int,
    size: int,
    divisor: int,
    eps: Fraction,
) -> bool:
    """The witness condition on one part, from its counts.

    Every source keeps at least a 1/divisor share of its alphabet
    (``|projection| * divisor >= |alphabet|``), and the badly decoded
    fraction ``bad / size`` vanishes at eps zero and stays strictly below
    eps otherwise.
    """
    if any(p * divisor < a for p, a in zip(projection_sizes, source_sizes)):
        return False
    if eps == 0:
        return bad == 0
    # Strictly below eps, cross-multiplied to stay in integers: the restricted
    # code must beat the target error, not merely meet it, or the feasibility
    # re-check on the certificate could not confirm it.
    return bad * eps.denominator < eps.numerator * size


def find_witness(
    table: GlobalCodeTable,
    edge_id: str,
    part: SourcePartition,
    eps: Fraction,
) -> Label | None:
    """Smallest label whose part passes the witness bounds, or None.

    The divisor is the edge alphabet size; eps must lie in [0, 1).
    """
    if eps < 0 or eps >= 1:
        raise DomainError("eps must satisfy 0 <= eps < 1")
    edge_size = table.inst.edge(edge_id).alphabet_size
    bad = np.bincount(part.ids[~table.good], minlength=len(part.keys)).tolist()
    for y, proj, b, size in zip(
        part.keys, part.projection_sizes.tolist(), bad, part.part_sizes.tolist()
    ):
        if _witness_holds(proj, table.source_sizes, b, size, edge_size, eps):
            return y
    return None


@dataclass(frozen=True)
class RemovalCertificate:
    """Evidence that one edge was removed from a verified code.

    ``restricted_alphabets`` lists, per source, the surviving symbols in their
    original labels; the restricted code relabels them densely in this order.
    ``promised_cardinalities`` is what the sufficient condition guarantees;
    ``achieved_cardinalities`` is what the restriction actually kept.
    ``edge_support_sizes`` gives each kept edge's symbols in use as
    ``{"restricted": r, "original": o}``, the shape its report spells.  The
    embedded feasibility report is the re-verification of the restricted code
    on the instance without the edge.
    """

    edge_id: str
    witness_label: Label
    edge_constant: int
    eps: Fraction
    restricted_alphabets: tuple[tuple[int, ...], ...]
    promised_cardinalities: tuple[int, ...]
    achieved_cardinalities: tuple[int, ...]
    edge_support_sizes: dict[str, dict[str, int]]
    feasibility: FeasibilityReport


@dataclass(frozen=True)
class RemovalResult:
    instance: NetworkInstance
    code: NetworkCode
    certificate: RemovalCertificate


def _restrict_to_part(
    table: GlobalCodeTable,
    edge_id: str,
    keep: Sequence[Sequence[int]],
    divisor: int,
    witness_label: Label,
    eps: Fraction,
) -> RemovalResult:
    """Shared restriction engine for every removal route, on the table's code.

    The part is the product of ``keep``, one sorted, distinct symbol set per
    source.  The edge message must be constant on it, and it must pass the
    witness bounds for ``divisor`` and eps; the promise, per source, is a
    cardinality of ``ceil(|alphabet| / divisor)``.  The restricted code
    keeps the original alphabets on surviving edges, relabels each source's
    surviving symbols densely, and hardwires the removed edge's constant
    into every encoder and decoder that consumed it.
    """
    keep = [np.asarray(ks, dtype=np.int64) for ks in keep]
    indices = product_indices(keep, table.source_sizes)
    constants = np.unique(table.edge_values(edge_id)[indices])
    if len(constants) != 1:
        raise PreconditionError("edge message is not constant on the part")
    constant = int(constants[0])
    bad = len(indices) - int(np.count_nonzero(table.good[indices]))
    if not _witness_holds(
        [len(ks) for ks in keep], table.source_sizes, bad, len(indices), divisor, eps
    ):
        raise PreconditionError("part fails the witness bounds")
    promised = tuple(-(-size // divisor) for size in table.source_sizes)

    # relabel[i][old] is the dense new label of a kept symbol of source i.
    relabel = []
    for size, ks in zip(table.source_sizes, keep):
        lut = np.zeros(size, dtype=np.int64)
        lut[ks] = np.arange(len(ks))
        relabel.append(lut)
    source_alphabets = tuple(len(ks) for ks in keep)
    # The restricted instance also shrinks the source alphabet declarations.
    inst, code = table.inst, table.code
    inst2 = replace(
        remove_edge(inst, edge_id),
        sources=tuple(
            replace(s, alphabet_size=size) for s, size in zip(inst.sources, source_alphabets)
        ),
    )
    reencoded, redecoded = reindex_consumer(inst, code, edge_id, constant)
    encoders = {}
    for e in inst2.edges:
        if inst.is_source_node(e.tail):
            encoders[e.id] = code.encoders[e.id][keep[inst.source_index(e.tail)]]
        else:
            encoders[e.id] = reencoded[e.id]
    decoders = {}
    for t in inst.terminals:
        picked = redecoded[t]
        # A decoded symbol that fell outside the kept set cannot be the true
        # symbol of a kept tuple; any in-range stand-in (here 0) is sound.
        rows = np.empty_like(picked)
        for col, i in enumerate(inst.demanded_sources(t)):
            rows[:, col] = relabel[i][picked[:, col]]
        decoders[t] = rows

    code2 = NetworkCode(
        blocklength=code.blocklength,
        source_alphabets=source_alphabets,
        edge_alphabets={e.id: code.edge_alphabets[e.id] for e in inst2.edges},
        encoders=encoders,
        decoders=decoders,
    )
    table2 = build_global_table(inst2, code2)
    report = check_feasibility(table2, eps, promised)
    if not report.verdict:
        raise InternalCheckError(
            "restricted code failed its feasibility re-verification"
        )
    support_sizes = {
        e.id: {
            "restricted": len(np.unique(table2.edge_values(e.id))),
            "original": code.edge_alphabets[e.id],
        }
        for e in inst2.edges
    }
    if any(s["restricted"] > s["original"] for s in support_sizes.values()):
        raise InternalCheckError("restricted edge support exceeds original alphabet")
    certificate = RemovalCertificate(
        edge_id=edge_id,
        witness_label=witness_label,
        edge_constant=constant,
        eps=eps,
        restricted_alphabets=tuple(tuple(ks.tolist()) for ks in keep),
        promised_cardinalities=promised,
        achieved_cardinalities=source_alphabets,
        edge_support_sizes=support_sizes,
        feasibility=report,
    )
    return RemovalResult(inst2, code2, certificate)


def restrict_code(
    table: GlobalCodeTable,
    edge_id: str,
    part: SourcePartition,
    witness_label: Label,
    eps: Fraction,
) -> RemovalResult:
    """Remove the edge by restricting to the chosen part of the partition.

    The partition must determine the edge message and have product parts, and
    the chosen part must pass the witness bounds for eps against the edge
    alphabet.
    """
    if fiber_edge_values(table, edge_id, part) is None:
        raise PreconditionError("partition does not determine the edge message")
    if not fibers_are_products(part):
        raise PreconditionError("partition has a non-product part")
    return _restrict_to_part(
        table, edge_id, part.projections(witness_label),
        table.inst.edge(edge_id).alphabet_size, witness_label, eps,
    )


def restrict_to_product(
    table: GlobalCodeTable,
    edge_id: str,
    subsets: Sequence[Sequence[int]],
    eps: Fraction,
) -> RemovalResult:
    """Apply the restriction engine to a declared product-set witness."""
    return _restrict_to_part(
        table, edge_id, checked_subsets(subsets, table.source_sizes),
        table.inst.edge(edge_id).alphabet_size, "product", eps,
    )


def remove_by_edge_value(table: GlobalCodeTable, edge_id: str) -> RemovalResult | None:
    """Zero-error removal using the edge's own message as the partition.

    Only defined for codes whose exhaustive error is exactly zero.  If the
    message level sets are products, the largest one (ties to the smallest
    message value) is scaled right by averaging: it holds at least
    ``|tuples| / |edge alphabet|`` tuples, which forces the per-source size
    bound as well.  Returns None when the level sets are not products.
    """
    if table.error != 0:
        raise PreconditionError("edge-value removal requires an exhaustively zero-error code")
    part = SourcePartition.from_edge_values(table, edge_id)
    if not fibers_are_products(part):
        return None
    # Labels are sorted, so the first largest part has the smallest message.
    best_pos = int(np.argmax(part.part_sizes))
    best = part.keys[best_pos]
    size = int(part.part_sizes[best_pos])
    edge_size = table.inst.edge(edge_id).alphabet_size
    if size * edge_size < table.num_tuples:
        raise InternalCheckError("largest level set beats averaging; enumeration bug")
    if not _witness_holds(
        part.projection_sizes[best_pos].tolist(), table.source_sizes, 0, size,
        edge_size, Fraction(0),
    ):
        raise InternalCheckError("averaging failed to produce a valid witness part")
    return _restrict_to_part(
        table, edge_id, part.projections(best), edge_size, best, Fraction(0)
    )

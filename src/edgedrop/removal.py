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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from .codes import (
    FeasibilityReport,
    GlobalCodeTable,
    NetworkCode,
    build_global_table,
    check_feasibility,
    index_to_values,
    mixed_radix_index,
)
from .errors import DomainError, InternalCheckError, PreconditionError
from .network import NetworkInstance, Source, remove_edge

Label = Hashable


class SourcePartition:
    """A partition of the source tuple space, one label per tuple.

    Labels must be mutually sortable (ints, or tuples of ints); parts are
    exposed as sorted tuple indices.  Built-in constructors cover the common
    shapes: per-tuple singletons, a single part, products of per-source
    classes, and the level sets of one edge's message.
    """

    def __init__(self, source_sizes: Sequence[int], labels: Sequence[Label]):
        total = math.prod(source_sizes)
        if len(labels) != total:
            raise DomainError(f"expected {total} labels, got {len(labels)}")
        self.source_sizes = tuple(source_sizes)
        self.labels = tuple(labels)
        parts: dict[Label, list[int]] = {}
        for idx, y in enumerate(self.labels):
            parts.setdefault(y, []).append(idx)
        self.parts = {y: tuple(ids) for y, ids in parts.items()}

    @classmethod
    def singletons(cls, source_sizes: Sequence[int]) -> "SourcePartition":
        return cls(source_sizes, range(math.prod(source_sizes)))

    @classmethod
    def whole(cls, source_sizes: Sequence[int]) -> "SourcePartition":
        return cls(source_sizes, [0] * math.prod(source_sizes))

    @classmethod
    def from_source_classes(
        cls, source_sizes: Sequence[int], classes: Sequence[Sequence[int]]
    ) -> "SourcePartition":
        """Product partition: the label is the tuple of per-source class ids.

        ``classes[i][v]`` is the class id of symbol v of source i.  Every part
        of such a partition is automatically a product set.
        """
        if len(classes) != len(source_sizes):
            raise DomainError("one class assignment per source is required")
        for size, cls_map in zip(source_sizes, classes):
            if len(cls_map) != size:
                raise DomainError("class assignment does not cover a source alphabet")
        labels = []
        for combo in itertools.product(*[range(s) for s in source_sizes]):
            labels.append(tuple(cls_map[v] for cls_map, v in zip(classes, combo)))
        return cls(source_sizes, labels)

    @classmethod
    def from_edge_values(cls, table: GlobalCodeTable, edge_id: str) -> "SourcePartition":
        return cls(table.source_sizes, table.edge_column(edge_id))

    def sorted_labels(self) -> list[Label]:
        return sorted(self.parts)

    def part_tuples(self, label: Label) -> list[tuple[int, ...]]:
        return [index_to_values(i, self.source_sizes) for i in self.parts[label]]

    def projections(self, label: Label) -> list[tuple[int, ...]]:
        """Per-source sorted symbol sets appearing in one part."""
        seen = [set() for _ in self.source_sizes]
        for x in self.part_tuples(label):
            for i, v in enumerate(x):
                seen[i].add(v)
        return [tuple(sorted(s)) for s in seen]


def fiber_edge_values(
    table: GlobalCodeTable, edge_id: str, part: SourcePartition
) -> dict[Label, int] | None:
    """The induced label-to-message map, or None if any part sees two values.

    Existence of this map is exactly the requirement that the partition
    determines the edge message.
    """
    if part.source_sizes != table.source_sizes:
        raise DomainError("partition and table cover different source spaces")
    column = table.edge_column(edge_id)
    out: dict[Label, int] = {}
    for y, ids in part.parts.items():
        values = {column[i] for i in ids}
        if len(values) != 1:
            return None
        out[y] = values.pop()
    return out


def fibers_are_products(part: SourcePartition) -> bool:
    """Whether every part equals the product of its per-source projections.

    A part is always contained in that product, so comparing cardinalities is
    an exact check.
    """
    for y, ids in part.parts.items():
        sizes = [len(p) for p in part.projections(y)]
        if len(ids) != math.prod(sizes):
            return False
    return True


def _witness_ok(
    table: GlobalCodeTable, indices: Sequence[int], divisor: int, eps: Fraction
) -> bool:
    """The witness condition on one set of tuple indices.

    Every source keeps at least a 1/divisor share of its alphabet
    (``|projection| * divisor >= |alphabet|``), and the badly decoded
    fraction vanishes at eps zero and stays strictly below eps otherwise.
    """
    seen = [set() for _ in table.source_sizes]
    for idx in indices:
        for i, v in enumerate(index_to_values(idx, table.source_sizes)):
            seen[i].add(v)
    if any(len(s) * divisor < size for s, size in zip(seen, table.source_sizes)):
        return False
    bad = sum(1 for i in indices if not table.good[i])
    if eps == 0:
        return bad == 0
    # Strictly below eps, cross-multiplied to stay in integers: the restricted
    # code must beat the target error, not merely meet it, or the feasibility
    # re-check on the certificate could not confirm it.
    return bad * eps.denominator < eps.numerator * len(indices)


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
    for y in part.sorted_labels():
        if _witness_ok(table, part.parts[y], edge_size, eps):
            return y
    return None


@dataclass(frozen=True)
class RemovalCertificate:
    """Evidence that one edge was removed from a verified code.

    ``restricted_alphabets`` lists, per source, the surviving symbols in their
    original labels; the restricted code relabels them densely in this order.
    ``promised_cardinalities`` is what the sufficient condition guarantees;
    ``achieved_cardinalities`` is what the restriction actually kept.  The
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
    edge_support_sizes: dict[str, tuple[int, int]]
    feasibility: FeasibilityReport

    def to_dict(self) -> dict:
        return {
            "edge_id": self.edge_id,
            "witness_label": list(self.witness_label)
            if isinstance(self.witness_label, tuple)
            else self.witness_label,
            "edge_constant": self.edge_constant,
            "eps": str(self.eps),
            "restricted_alphabets": [list(a) for a in self.restricted_alphabets],
            "promised_cardinalities": list(self.promised_cardinalities),
            "achieved_cardinalities": list(self.achieved_cardinalities),
            "edge_support_sizes": {
                e: {"restricted": r, "original": o}
                for e, (r, o) in sorted(self.edge_support_sizes.items())
            },
            "feasibility": self.feasibility.to_dict(),
        }


@dataclass(frozen=True)
class RemovalResult:
    instance: NetworkInstance
    code: NetworkCode
    certificate: RemovalCertificate


def _insert_at(values: tuple, pos: int, value) -> tuple:
    return values[:pos] + (value,) + values[pos:]


def _restrict_to_part(
    inst: NetworkInstance,
    code: NetworkCode,
    table: GlobalCodeTable,
    edge_id: str,
    part_indices: Sequence[int],
    divisor: int,
    witness_label: Label,
    eps: Fraction,
) -> RemovalResult:
    """Shared restriction engine for every removal route.

    The part must be a product set on which the edge message is constant,
    and it must pass the witness bounds for ``divisor`` and eps; the promise,
    per source, is a cardinality of ``ceil(|alphabet| / divisor)``.  The
    restricted code keeps the original alphabets on surviving edges,
    relabels each source's surviving symbols densely, and hardwires the
    removed edge's constant into every encoder and decoder that consumed it.
    """
    tuples = [index_to_values(i, table.source_sizes) for i in part_indices]
    keep = [tuple(sorted({x[i] for x in tuples})) for i in range(len(table.source_sizes))]
    if len(tuples) != math.prod(len(k) for k in keep):
        raise PreconditionError("part is not a product of per-source symbol sets")
    column = table.edge_column(edge_id)
    constants = {column[i] for i in part_indices}
    if len(constants) != 1:
        raise PreconditionError("edge message is not constant on the part")
    constant = constants.pop()
    if not _witness_ok(table, part_indices, divisor, eps):
        raise PreconditionError("part fails the witness bounds")
    promised = tuple(-(-size // divisor) for size in table.source_sizes)

    relabel = [{old: new for new, old in enumerate(ks)} for ks in keep]
    source_alphabets = tuple(len(ks) for ks in keep)
    # The restricted instance also shrinks the source alphabet declarations.
    stripped = remove_edge(inst, edge_id)
    inst2 = NetworkInstance(
        nodes=stripped.nodes,
        edges=stripped.edges,
        sources=tuple(
            Source(s.node, size) for s, size in zip(stripped.sources, source_alphabets)
        ),
        terminals=stripped.terminals,
        demands=stripped.demands,
    )

    encoders = {}
    for e in inst2.edges:
        old_table = code.encoders[e.id]
        if inst.is_source_node(e.tail):
            i = inst.source_index(e.tail)
            encoders[e.id] = tuple(old_table[old] for old in keep[i])
            continue
        old_ins = inst.in_edges(e.tail)
        new_ins = inst2.in_edges(e.tail)
        if len(old_ins) == len(new_ins):
            encoders[e.id] = tuple(old_table)
            continue
        pos = [f.id for f in old_ins].index(edge_id)
        old_sizes = [code.edge_alphabets[f.id] for f in old_ins]
        new_sizes = [code.edge_alphabets[f.id] for f in new_ins]
        entries = []
        for combo in itertools.product(*[range(s) for s in new_sizes]):
            full = _insert_at(combo, pos, constant)
            entries.append(old_table[mixed_radix_index(full, old_sizes)])
        encoders[e.id] = tuple(entries)

    decoders = {}
    for t in inst.terminals:
        old_rows = code.decoders[t]
        old_ins = inst.in_edges(t)
        new_ins = inst2.in_edges(t)
        demanded = inst.demanded_sources(t)
        if len(old_ins) == len(new_ins):
            picked = old_rows
        else:
            pos = [f.id for f in old_ins].index(edge_id)
            old_sizes = [code.edge_alphabets[f.id] for f in old_ins]
            new_sizes = [code.edge_alphabets[f.id] for f in new_ins]
            picked = []
            for combo in itertools.product(*[range(s) for s in new_sizes]):
                full = _insert_at(combo, pos, constant)
                picked.append(old_rows[mixed_radix_index(full, old_sizes)])
        rows = []
        for row in picked:
            # A decoded symbol that fell outside the kept set cannot be the
            # true symbol of a kept tuple; any in-range stand-in is sound.
            rows.append(
                tuple(
                    relabel[i].get(v, 0) for v, i in zip(row, demanded)
                )
            )
        decoders[t] = tuple(rows)

    code2 = NetworkCode(
        blocklength=code.blocklength,
        source_alphabets=source_alphabets,
        edge_alphabets={e.id: code.edge_alphabets[e.id] for e in inst2.edges},
        encoders=encoders,
        decoders=decoders,
    )
    table2 = build_global_table(inst2, code2)
    report = check_feasibility(inst2, code2, eps, promised, table=table2)
    if not report.verdict:
        raise InternalCheckError(
            "restricted code failed its feasibility re-verification"
        )
    support_sizes = {
        e.id: (len(set(table2.edge_column(e.id))), code.edge_alphabets[e.id])
        for e in inst2.edges
    }
    if any(r > o for r, o in support_sizes.values()):
        raise InternalCheckError("restricted edge support exceeds original alphabet")
    certificate = RemovalCertificate(
        edge_id=edge_id,
        witness_label=witness_label,
        edge_constant=constant,
        eps=eps,
        restricted_alphabets=tuple(keep),
        promised_cardinalities=promised,
        achieved_cardinalities=source_alphabets,
        edge_support_sizes=support_sizes,
        feasibility=report,
    )
    return RemovalResult(inst2, code2, certificate)


def restrict_code(
    inst: NetworkInstance,
    code: NetworkCode,
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
    if witness_label not in part.parts:
        raise DomainError(f"unknown partition label {witness_label!r}")
    return _restrict_to_part(
        inst, code, table, edge_id, part.parts[witness_label],
        inst.edge(edge_id).alphabet_size, witness_label, eps,
    )


def _product_indices(
    table: GlobalCodeTable, subsets: Sequence[Sequence[int]]
) -> list[int]:
    """Dense indices of the product of per-source symbol subsets."""
    if len(subsets) != len(table.source_sizes):
        raise DomainError("one subset per source is required")
    for size, sub in zip(table.source_sizes, subsets):
        if not sub:
            raise DomainError("subsets must be non-empty")
        if any(not 0 <= v < size for v in sub):
            raise DomainError("subset symbol outside its source alphabet")
    return [
        mixed_radix_index(x, table.source_sizes)
        for x in itertools.product(*[sorted(set(s)) for s in subsets])
    ]


def product_set_witness(
    table: GlobalCodeTable,
    edge_id: str,
    subsets: Sequence[Sequence[int]],
    eps: Fraction,
) -> bool:
    """Whether a declared product set certifies removal directly.

    Checks that the edge message is constant on the product and that the
    product passes the witness bounds for eps against the edge alphabet.
    """
    indices = _product_indices(table, subsets)
    column = table.edge_column(edge_id)
    if len({column[i] for i in indices}) != 1:
        return False
    return _witness_ok(table, indices, table.inst.edge(edge_id).alphabet_size, eps)


def restrict_to_product(
    inst: NetworkInstance,
    code: NetworkCode,
    table: GlobalCodeTable,
    edge_id: str,
    subsets: Sequence[Sequence[int]],
    eps: Fraction,
) -> RemovalResult:
    """Apply the restriction engine to a declared product-set witness."""
    return _restrict_to_part(
        inst, code, table, edge_id, _product_indices(table, subsets),
        inst.edge(edge_id).alphabet_size, "product", eps,
    )


def remove_by_edge_value(
    inst: NetworkInstance,
    code: NetworkCode,
    table: GlobalCodeTable,
    edge_id: str,
) -> RemovalResult | None:
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
    best = max(part.sorted_labels(), key=lambda y: (len(part.parts[y]), -y))
    edge_size = inst.edge(edge_id).alphabet_size
    if len(part.parts[best]) * edge_size < table.num_tuples:
        raise InternalCheckError("largest level set beats averaging; enumeration bug")
    if not _witness_ok(table, part.parts[best], edge_size, Fraction(0)):
        raise InternalCheckError("averaging failed to produce a valid witness part")
    return _restrict_to_part(
        inst, code, table, edge_id, part.parts[best], edge_size, best, Fraction(0),
    )

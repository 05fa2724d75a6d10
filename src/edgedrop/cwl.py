"""Coordinate-wise linear structure on global encoding functions.

A global encoding function is coordinate-wise linear (CWL) when, after fixing
a group structure on each source alphabet, it is a homomorphism from their
direct product onto a group structure carried by its own image.  Such
structure certifies edge removal directly: grouping each source's symbols by
their single-coordinate image yields a partition whose parts are products,
determine the edge message, and are all the same size, so averaging always
produces a usable witness part.

A piecewise variant covers functions that agree with a (possibly different)
CWL function on each part of a product-set partition of the domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .codes import (
    GlobalCodeTable,
    NetworkCode,
    build_global_table,
    checked_subsets,
    index_digits,
    input_sizes,
    joint_counts,
    pack,
    product_indices,
    reindex_consumer,
    relay_instance,
    total_map,
)
from .errors import DomainError, InternalCheckError, PreconditionError
from .groups import (
    TABLE_VERIFY_BOUND,
    CyclicGroup,
    FiniteGroup,
    ProductGroup,
    TableGroup,
    is_homomorphism,
    subgroup,
)
from .network import NetworkInstance, _frozen, int_table
from .removal import (
    RemovalResult,
    SourcePartition,
    _restrict_to_part,
    _witness_holds,
    fiber_edge_values,
)

if TYPE_CHECKING:
    from .groupcodes import GroupCharacterization


@dataclass(frozen=True, eq=False)
class CwlWitness:
    """A verified homomorphism witnessing coordinate-wise linearity.

    ``edge_support[k]`` is the edge symbol carried by edge group element k,
    and ``hom`` maps each dense source tuple index to an edge group element.
    Both are taken as ``network.int_table`` takes a flat table; ``hom`` is
    stored as its read-only int64 array and the support as a tuple of ints.
    """

    source_groups: tuple[FiniteGroup, ...]
    edge_group: FiniteGroup
    edge_support: tuple[int, ...]
    hom: np.ndarray

    def __post_init__(self):
        support = int_table(self.edge_support, 1, "witness edge support")
        hom = total_map(self.hom, math.prod(self.source_sizes), "witness homomorphism")
        object.__setattr__(self, "edge_support", tuple(support.tolist()))
        object.__setattr__(self, "hom", hom)

    @property
    def source_sizes(self) -> tuple[int, ...]:
        return tuple(g.order for g in self.source_groups)

    def phi_table(self) -> np.ndarray:
        """The encoding function as edge symbols over dense tuple indices."""
        return np.asarray(self.edge_support, dtype=np.int64)[self.hom]


def _fibers(phi, sizes: Sequence[int]) -> SourcePartition:
    """The level sets of an encoding function over ``sizes``: ``phi`` is a
    dense integer table or already the ``SourcePartition`` of its level
    sets, whose ``keys`` are the sorted image."""
    sizes = tuple(sizes)
    if isinstance(phi, SourcePartition):
        if phi.source_sizes != sizes:
            raise DomainError(f"encoding function is over {phi.source_sizes}, expected {sizes}")
        return phi
    return SourcePartition(sizes, total_map(phi, math.prod(sizes), "encoding function"))


def check_cwl(
    phi,
    source_groups: Sequence[FiniteGroup],
    edge_group: FiniteGroup,
    edge_support: Sequence[int],
) -> CwlWitness | None:
    """Verify the homomorphism law from the product of the source groups.

    ``phi`` maps source tuples to edge symbols, as a dense integer sequence
    or the ``SourcePartition`` of its level sets.  The support must list one
    edge symbol per edge group element; a witness exists only if the image
    of phi is exactly that symbol set and ``groups.is_homomorphism`` (the
    law on the product's generators) holds for the induced map.
    """
    if not source_groups:
        raise DomainError("at least one source group is required")
    f = _fibers(phi, [g.order for g in source_groups])
    support = tuple(edge_support)
    if len(support) != edge_group.order:
        raise DomainError(
            f"support lists {len(support)} symbols for a group of order {edge_group.order}"
        )
    if len(set(support)) != len(support):
        raise DomainError("support symbols must be distinct")
    if sorted(support) != f.keys:
        return None
    # Sorted position k of a symbol is its position order[k] in the support.
    phi_k = np.argsort(np.asarray(support), kind="stable")[f.ids]
    if not is_homomorphism(phi_k, ProductGroup(source_groups), edge_group):
        return None
    return CwlWitness(
        source_groups=tuple(source_groups),
        edge_group=edge_group,
        edge_support=support,
        hom=phi_k,
    )


def derive_edge_group(
    phi, source_groups: Sequence[FiniteGroup]
) -> tuple[TableGroup, tuple[int, ...]] | None:
    """Induce the image group structure from the source groups, if one exists.

    phi is CWL exactly when it is a homomorphism onto some group on its
    image, and that group is then the quotient of the product by ker phi:
    its table holds phi(a * b) for one representative a, b of each pair of
    symbols.  That candidate table is built in one ``op_array`` call,
    ``TableGroup`` proves its group axioms (a DomainError there means the
    products form no group, so phi is not CWL), and ``is_homomorphism``
    proves phi a homomorphism onto it.  Returns the verified table group on
    the sorted image together with that image, or None when phi is not CWL.
    ``phi`` is taken as ``check_cwl`` takes it.  Fibers of unequal sizes
    give None at any image size; an image above ``TABLE_VERIFY_BOUND``
    symbols with equal fibers raises DomainError before any table is
    allocated.
    """
    product = ProductGroup(source_groups)
    f = _fibers(phi, [g.order for g in source_groups])
    if f.part_sizes.min() != f.part_sizes.max():
        return None  # a homomorphism's fibers are cosets of its kernel
    if len(f.keys) > TABLE_VERIFY_BOUND:
        raise DomainError(
            f"edge images above {TABLE_VERIFY_BOUND} symbols are not accepted"
        )
    _, reps = np.unique(f.ids, return_index=True)  # one tuple per symbol
    table = _frozen(f.ids[product.op_array(reps[:, None], reps)])
    try:
        group = TableGroup(table)
    except DomainError:  # the products form no group
        return None
    if not is_homomorphism(f.ids, product, group):
        return None
    return group, tuple(f.keys)


def certify_cwl(
    phi,
    source_groups: Sequence[FiniteGroup],
    edge: tuple[FiniteGroup, Sequence[int]] | None = None,
) -> CwlWitness | None:
    """Certify phi as CWL over the source groups; None when it is not.

    With ``edge = (edge_group, edge_support)`` the given structure is
    checked.  Without it the structure is derived and then re-verified by
    ``check_cwl``; a derived structure that fails that check is a bug and
    raises ``InternalCheckError``.
    """
    f = _fibers(phi, [g.order for g in source_groups])
    if edge is not None:
        return check_cwl(f, source_groups, *edge)
    derived = derive_edge_group(f, source_groups)
    if derived is None:
        return None
    witness = check_cwl(f, source_groups, *derived)
    if witness is None:
        raise InternalCheckError("derived edge structure failed re-verification")
    return witness


def _coordinate_class_ids(w: CwlWitness) -> list[np.ndarray]:
    """Per source, the class id of each symbol, ids in first-occurrence order.

    Symbol v of source i is classed by its single-coordinate image: the
    witness value at the tuple that is v at coordinate i and the identity
    elsewhere, one gather per source.
    """
    e = [g.identity for g in w.source_groups]
    out = []
    for i, g in enumerate(w.source_groups):
        swept = e[:i] + [np.arange(g.order, dtype=np.int64)] + e[i + 1:]
        images = w.hom[pack(swept, w.source_sizes)]
        _, first, ids = np.unique(images, return_index=True, return_inverse=True)
        out.append(np.argsort(np.argsort(first))[ids])
    return out


def witness_partition(w: CwlWitness) -> SourcePartition:
    """Product partition labeling each tuple by its per-source class ids."""
    return SourcePartition.from_source_classes(w.source_sizes, _coordinate_class_ids(w))


def cwl_remove(
    table: GlobalCodeTable,
    edge_id: str,
    w: CwlWitness,
    eps: Fraction,
) -> RemovalResult | None:
    """Remove a CWL edge through its coordinate class partition.

    The witness part is the one with the best good fraction (ties to the
    lexicographically smallest label); averaging over the equal-sized parts
    guarantees it meets the code's own error fraction, and the class sizes
    guarantee ``|kept| * |edge support| >= |alphabet|`` per source.  Returns
    None when even that part fails the witness bounds for eps.
    """
    column = table.edge_values(edge_id)
    if w.source_sizes != table.source_sizes or not np.array_equal(w.phi_table(), column):
        raise PreconditionError("witness does not match the edge's encoding function")
    part = witness_partition(w)
    if fiber_edge_values(table, edge_id, part) is None:
        raise InternalCheckError("class partition fails to determine the edge message")
    if len(np.unique(part.part_sizes)) != 1:
        raise InternalCheckError("class partition parts are not equal-sized")
    good = np.bincount(part.ids[table.good], minlength=len(part.keys))
    best_pos = int(np.argmax(good))  # ties to the smallest label
    best = part.keys[best_pos]
    error = table.error
    good = int(good[best_pos])
    part_size = int(part.part_sizes[best_pos])
    # Averaging: good fraction of the best part is at least 1 - error.
    if good * error.denominator < (error.denominator - error.numerator) * part_size:
        raise InternalCheckError("best part misses the averaging guarantee")
    support_size = len(w.edge_support)
    keep = part.projections(best)
    kept_sizes = [len(ks) for ks in keep]
    if any(k * support_size < size for k, size in zip(kept_sizes, table.source_sizes)):
        raise InternalCheckError("kept symbols fall below the support bound")
    edge_size = table.inst.edge(edge_id).alphabet_size
    bad = part_size - good
    if not _witness_holds(kept_sizes, table.source_sizes, bad, part_size, edge_size, eps):
        return None
    return _restrict_to_part(table, edge_id, keep, edge_size, best, eps)


@dataclass(frozen=True, eq=False)
class CwlPiece:
    """One declared piece: per-source symbol sets and the matching function,
    a read-only int64 array over dense tuple indices."""

    subsets: tuple[tuple[int, ...], ...]
    phi: np.ndarray
    witness: CwlWitness


@dataclass(frozen=True)
class PiecewiseCwl:
    """A function that agrees with a CWL function exactly on each piece.

    All pieces share the source groups and the edge symbol set; each piece's
    own group operation on its image may differ (the shared set only bounds
    the rate arithmetic).
    """

    source_groups: tuple[FiniteGroup, ...]
    edge_support: tuple[int, ...]
    pieces: tuple[CwlPiece, ...]


def check_piecewise(
    phi,
    source_groups: Sequence[FiniteGroup],
    edge_support: Sequence[int],
    pieces: Sequence[tuple[Sequence[Sequence[int]], object]],
) -> PiecewiseCwl | None:
    """Validate a declared piecewise-CWL structure for phi.

    Each piece declares per-source symbol subsets (their product is the
    piece) and a candidate function.  Structural defects (subsets out of
    range, pieces that overlap or fail to cover) raise DomainError naming
    offending tuples; semantic failures (a piece that is not CWL over the
    shared groups, symbols outside the shared support, or agreement that is
    not exact) return None.
    """
    sizes = [g.order for g in source_groups]
    total = math.prod(sizes)
    values = total_map(phi, total, "encoding function")
    if not pieces:
        raise DomainError("at least one piece is required")
    member_sets = []
    cleaned = []
    for subsets, piece_phi in pieces:
        subs = checked_subsets(subsets, sizes)
        member_sets.append(product_indices(subs, sizes))
        cleaned.append((subs, total_map(piece_phi, total, "piece function")))
    counts = np.bincount(np.concatenate(member_sets), minlength=total)
    offending = np.flatnonzero(counts != 1)
    if offending.size:
        shown = list(zip(*(d.tolist() for d in index_digits(offending[:5], sizes))))
        raise DomainError(f"pieces must partition the tuple space; offending tuples: {shown}")
    support_set = set(edge_support)
    out_pieces = []
    for (subs, piece_values), members in zip(cleaned, member_sets):
        witness = certify_cwl(piece_values, source_groups)
        if witness is None or not set(witness.edge_support) <= support_set:
            return None
        # Members ascend: the subsets are sorted and deduplicated.
        if not np.array_equal(np.flatnonzero(values == piece_values), members):
            return None
        out_pieces.append(CwlPiece(subs, piece_values, witness))
    return PiecewiseCwl(
        source_groups=tuple(source_groups),
        edge_support=tuple(edge_support),
        pieces=tuple(out_pieces),
    )


def piecewise_remove(
    table: GlobalCodeTable,
    edge_id: str,
    pw: PiecewiseCwl,
) -> RemovalResult:
    """Zero-error removal through a piecewise-CWL edge function.

    Picks the largest piece (at least a 1/K fraction of the tuple space,
    ties to the smallest piece index), then per source the class of that
    piece's function holding the most piece symbols (ties to the smallest
    class index).  The kept symbols per source number at least
    ``|alphabet| / (|support| * K)``, checked in integer form, and the
    restricted code is re-verified at zero error.
    """
    if table.error != 0:
        raise PreconditionError(
            "piecewise removal requires an exhaustively zero-error code"
        )
    sizes = table.source_sizes
    if tuple(g.order for g in pw.source_groups) != sizes:
        raise PreconditionError("piecewise structure does not match the source space")
    column = table.edge_values(edge_id)
    for piece in pw.pieces:
        members = product_indices(piece.subsets, sizes)
        if not np.array_equal(column[members], piece.phi[members]):
            raise PreconditionError(
                "piecewise structure does not match the edge's encoding function"
            )
    k_count = len(pw.pieces)
    piece_sizes = [math.prod(len(s) for s in p.subsets) for p in pw.pieces]
    best_piece = max(range(k_count), key=lambda k: (piece_sizes[k], -k))
    if piece_sizes[best_piece] * k_count < table.num_tuples:
        raise InternalCheckError("largest piece beats averaging; enumeration bug")
    piece = pw.pieces[best_piece]

    kept = []
    divisor = len(pw.edge_support) * k_count
    for size, ids, subset in zip(sizes, _coordinate_class_ids(piece.witness), piece.subsets):
        # The class holding the most piece symbols; argmax ties to the
        # smallest class id.
        subset = np.asarray(subset, dtype=np.int64)
        in_piece = ids[subset]
        n_classes = int(ids.max()) + 1
        best_class = int(np.argmax(np.bincount(in_piece, minlength=n_classes)))
        members = subset[in_piece == best_class]
        # Averaging within the piece: the best class holds at least
        # |subset| / #classes piece symbols.
        if len(members) * n_classes < len(subset):
            raise InternalCheckError("best class misses the per-source averaging bound")
        if len(members) * divisor < size:
            raise InternalCheckError("kept symbols fall below the piecewise bound")
        kept.append(members)

    indices = product_indices(kept, sizes)
    if len(np.unique(column[indices])) != 1:
        raise InternalCheckError("edge message is not constant on the kept product")
    label = (best_piece,) + tuple(int(m[0]) for m in kept)
    return _restrict_to_part(table, edge_id, kept, divisor, label, Fraction(0))


@dataclass(frozen=True)
class BalancedRelabeling:
    """Relabeling that turns a balanced map into a projection homomorphism.

    Domain element a gets the pair label (position within its fiber, fiber
    index); the map then reads off the second coordinate.
    """

    domain_labels: dict
    codomain_labels: dict
    fiber_size: int
    codomain_size: int
    witness: CwlWitness


def relabel_balanced(g: Mapping, codomain: Sequence | None = None) -> BalancedRelabeling:
    """Exhibit a balanced map as CWL after relabeling both sides.

    ``g`` must hit every declared codomain value equally often; otherwise a
    PreconditionError names an offending fiber.  The witness is the second
    projection from the product of two cyclic groups.
    """
    if not g:
        raise DomainError("the map must have a non-empty domain")
    domain = sorted(g)
    cod = sorted(set(codomain)) if codomain is not None else sorted(set(g.values()))
    extra = set(g.values()) - set(cod)
    if extra:
        raise DomainError(f"map values outside the declared codomain: {sorted(extra)}")
    q = len(cod)
    if len(domain) % q != 0:
        raise PreconditionError(
            f"codomain size {q} does not divide domain size {len(domain)}"
        )
    k = len(domain) // q
    fibers = {b: [a for a in domain if g[a] == b] for b in cod}
    for b, fiber in fibers.items():
        if len(fiber) != k:
            raise PreconditionError(
                f"fiber of {b!r} has {len(fiber)} elements, expected {k}"
            )
    domain_labels = {}
    for j, b in enumerate(cod):
        for i, a in enumerate(fibers[b]):
            domain_labels[a] = (i, j)
    codomain_labels = {b: j for j, b in enumerate(cod)}
    phi = [j for _ in range(k) for j in range(q)]
    witness = check_cwl(
        phi, [CyclicGroup(k), CyclicGroup(q)], CyclicGroup(q), tuple(range(q))
    )
    if witness is None:
        raise InternalCheckError("projection failed its own CWL check")
    projection = witness.phi_table().tolist()
    for a in domain:
        i, j = domain_labels[a]
        if codomain_labels[g[a]] != projection[i * q + j]:
            raise InternalCheckError("relabeled map disagrees with the projection")
    return BalancedRelabeling(
        domain_labels=domain_labels,
        codomain_labels=codomain_labels,
        fiber_size=k,
        codomain_size=q,
        witness=witness,
    )


def characterize_witness(w: CwlWitness) -> GroupCharacterization:
    """Group characterization induced by a CWL witness, verified exactly.

    The carrier is the product of the source groups; source i's subgroup
    pins coordinate i to its identity, and the edge subgroup is the kernel
    of the witness homomorphism.  The realized variables are materialized
    through an explicit relay network, and every subset of them must obey
    the uniform coset law: exactly ``|G| / |intersection|`` joint values,
    each on exactly ``|intersection|`` tuples.  That is the entropy
    ``log2(|G| / |intersection|)``, decided on integer counts.
    """
    from .groupcodes import GroupCharacterization

    product = ProductGroup(w.source_groups)
    sizes = w.source_sizes
    total = product.order
    digits = index_digits(np.arange(total), sizes)
    subgroups = {
        f"s{i + 1}": subgroup(product, d == g.identity)
        for i, (g, d) in enumerate(zip(w.source_groups, digits))
    }
    subgroups["e"] = subgroup(product, w.hom == w.edge_group.identity)
    gc = GroupCharacterization(product, subgroups)

    edge_size = max(w.edge_support) + 1
    inst, code = relay_instance(sizes, edge_size, w.phi_table())
    table = build_global_table(inst, code)
    columns = dict(zip(subgroups, digits + [table.edge_values("e")]))
    for r in range(len(columns) + 1):
        for alpha in itertools.combinations(columns, r):
            meet = gc.meet_order(alpha)
            counts = joint_counts([columns[k] for k in alpha], total)
            if (counts != meet).any():
                raise InternalCheckError(
                    f"variables {alpha} take {counts.size} joint values with counts "
                    f"{counts.min()}..{counts.max()}, the coset law needs "
                    f"{total // meet} values on {meet} tuples each"
                )
    return gc


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the bounded CWL search."""

    max_group_assignments: int = 64
    max_table_rewrites: int = 1
    max_relabels_per_order: int = 0


@dataclass(frozen=True)
class CwlSearchResult:
    code: NetworkCode
    witness: CwlWitness
    rewritten: bool


def _invariant_factors(n: int) -> list[tuple[int, ...]]:
    """Every abelian type of order n as its invariant factors, largest first.

    By the fundamental theorem, each type is one chain of factors above 1
    with product n, each dividing the one before it.  The chains are grown
    over the divisors of n and sorted shortest first, then ascending, so
    ``(n,)`` leads; order 1 has the one empty chain.
    """
    if n < 1:
        raise DomainError(f"group order must be >= 1, got {n}")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)} - {1})

    def chains(rest: int, bound: int):
        if rest == 1:
            yield ()
        for d in divisors:
            if rest % d == 0 and bound % d == 0:
                yield from ((d, *tail) for tail in chains(rest // d, d))

    return sorted(chains(n, n), key=lambda fs: (len(fs), fs))


def abelian_structures(n: int) -> list[FiniteGroup]:
    """Every abelian group of order n, one per isomorphism type.

    Z_n comes first; every other type is the product of cyclic groups on
    its invariant factors, largest first (``_invariant_factors``).  For a
    prime power these are its prime-power factors, so Z8 is followed by
    Z4 x Z2 and Z2 x Z2 x Z2; order 12 gives Z12 and Z6 x Z2.
    """
    return [
        CyclicGroup(n) if len(fs) <= 1 else ProductGroup([CyclicGroup(f) for f in fs])
        for fs in _invariant_factors(n)
    ]


def _relabeled(group: FiniteGroup, perm: Sequence[int]) -> TableGroup:
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.argsort(perm)
    return TableGroup(_frozen(perm[group.op_array(inv[:, None], inv)]))


def _source_candidates(n: int, relabels: int, limit: int) -> list[FiniteGroup]:
    """The first ``limit`` candidate groups for a source of n symbols: the
    abelian structures, then each structure relabeled by the first
    ``relabels`` permutations after the identity in lexicographic order.
    Only the candidates returned are built."""
    base = abelian_structures(n)
    # Each structure and its relabelings, at most n!; islice takes no stop
    # above sys.maxsize, which a budget or relabel count may pass.
    per = _candidate_count(n, relabels) // len(base)
    relabeled = (
        _relabeled(g, perm)
        for g in base
        for perm in itertools.islice(itertools.permutations(range(n)), 1, per)
    )
    return list(itertools.islice(itertools.chain(base, relabeled), min(limit, len(base) * per)))


def _candidate_count(n: int, relabels: int) -> int:
    """The number of candidates for a source of n symbols with no limit: one
    per abelian type of ``_invariant_factors(n)``, times one plus its
    relabelings, counted without building any group."""
    perms = 1  # n!, or the first partial product above relabels
    for k in range(2, n + 1):
        perms *= k
        if perms > relabels:
            break
    return len(_invariant_factors(n)) * (1 + max(0, min(relabels, perms - 1)))


def _rewrite_full_information(
    inst: NetworkInstance, code: NetworkCode, edge_id: str
) -> NetworkCode | None:
    """Replace the edge message with its encoder's full input, if it fits.

    Consumers recover the original message by composing the old encoder
    table, so every other edge message and every decoding outcome is
    unchanged.
    """
    total = math.prod(input_sizes(inst, code, inst.edge(edge_id).tail))
    edge_size = code.edge_alphabets[edge_id]
    if total > edge_size:
        return None
    # old_value[w] is the original message behind rewritten message w.
    old_value = np.full(edge_size, code.encoders[edge_id][0], dtype=np.int64)
    old_value[:total] = code.encoders[edge_id]
    encoders, decoders = reindex_consumer(inst, code, edge_id, old_value)
    encoders[edge_id] = np.concatenate(
        [np.arange(total, dtype=np.int64), np.zeros(edge_size - total, dtype=np.int64)]
    )
    return NetworkCode(
        blocklength=code.blocklength,
        source_alphabets=code.source_alphabets,
        edge_alphabets=dict(code.edge_alphabets),
        encoders=encoders,
        decoders=decoders,
    )


def cwl_search(
    table: GlobalCodeTable, edge_id: str, budget: SearchBudget = SearchBudget()
) -> CwlSearchResult | None:
    """Bounded search for a CWL certificate on one edge of the table's code.

    First tries to certify the code's own encoding function under candidate
    source group assignments (abelian structures, optionally relabeled); the
    edge group is always induced, never enumerated.  If that fails, rewrites
    the edge to carry strictly more information with exact downstream
    compensation and retries.  Both phases share the assignment budget;
    results are deterministic for a fixed budget.  The assignments are
    tried in product order, the last source varying fastest, and only the
    candidates within the budget left are built.
    """
    assignments_left = max(0, budget.max_group_assignments)
    relabels = budget.max_relabels_per_order

    def try_table(cand: GlobalCodeTable, rewritten: bool):
        nonlocal assignments_left
        phi = SourcePartition.from_edge_values(cand, edge_id)
        counts = [_candidate_count(n, relabels) for n in cand.source_sizes]
        if phi.part_sizes.min() != phi.part_sizes.max():
            # Every assignment would fail derive_edge_group's coset test, so
            # none is built; the budget is charged as if each had been tried.
            assignments_left = max(0, assignments_left - math.prod(counts))
            return None
        # The first k assignments use the first ceil(k / later) candidates of
        # a source, where later counts the assignments of the sources after it.
        later = math.prod(counts)
        candidates = []
        for n, count in zip(cand.source_sizes, counts):
            later //= count
            candidates.append(_source_candidates(n, relabels, -(-assignments_left // later)))
        tried = min(assignments_left, math.prod(map(len, candidates)))
        for assignment in itertools.islice(itertools.product(*candidates), tried):
            assignments_left -= 1
            witness = certify_cwl(phi, assignment)
            if witness is not None:
                return CwlSearchResult(cand.code, witness, rewritten)
        return None

    found = try_table(table, rewritten=False)
    if found is not None or budget.max_table_rewrites <= 0 or assignments_left <= 0:
        return found
    rewritten_code = _rewrite_full_information(table.inst, table.code, edge_id)
    if rewritten_code is None:
        return None
    # The rewritten code has the same tuple space, which the table has enumerated.
    table2 = build_global_table(table.inst, rewritten_code, enum_cap=table.num_tuples)
    if not np.array_equal(table2.good, table.good):
        raise InternalCheckError("rewrite changed decoding outcomes")
    return try_table(table2, rewritten=True)

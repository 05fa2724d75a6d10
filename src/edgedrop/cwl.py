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
from typing import Mapping, Sequence

import numpy as np

from .codes import (
    GlobalCodeTable,
    NetworkCode,
    build_global_table,
    checked_subsets,
    encoder_input_sizes,
    index_digits,
    index_to_values,
    joint_counts,
    mixed_radix_index,
    product_indices,
    relay_instance,
    select_input,
    total_map,
)
from .errors import DomainError, InternalCheckError, PreconditionError
from .groupcodes import GroupCharacterization
from .groups import (
    TABLE_VERIFY_BOUND,
    CyclicGroup,
    FiniteGroup,
    TableGroup,
    direct_product,
    is_homomorphism,
    respects_generators,
    subgroup,
)
from .network import NetworkInstance
from .removal import (
    RemovalResult,
    SourcePartition,
    _restrict_to_part,
    _witness_ok,
    fiber_edge_values,
)


@dataclass(frozen=True, eq=False)
class CwlWitness:
    """A verified homomorphism witnessing coordinate-wise linearity.

    ``edge_support[k]`` is the edge symbol carried by edge group element k,
    and ``hom`` maps each dense source tuple index to an edge group element;
    given as any integer sequence, it is stored as a read-only int64 array.
    """

    source_groups: tuple[FiniteGroup, ...]
    edge_group: FiniteGroup
    edge_support: tuple[int, ...]
    hom: np.ndarray

    def __post_init__(self):
        hom = total_map(self.hom, math.prod(self.source_sizes), "witness homomorphism")
        object.__setattr__(self, "hom", hom)

    @property
    def source_sizes(self) -> tuple[int, ...]:
        return tuple(g.order for g in self.source_groups)

    def phi_table(self) -> np.ndarray:
        """The encoding function as edge symbols over dense tuple indices."""
        return np.asarray(self.edge_support, dtype=np.int64)[self.hom]


@dataclass(frozen=True)
class EdgeFunction:
    """An encoding function over dense tuple indices, keyed by its image.

    ``support`` is the sorted image, ``ids[t]`` the position in it of tuple
    t's symbol, and ``reps[k]`` the first tuple carrying symbol k.  Built
    once per edge column, it serves every group assignment tried on it.
    """

    sizes: tuple[int, ...]
    support: tuple[int, ...]
    ids: np.ndarray
    reps: np.ndarray

    @classmethod
    def of(cls, phi, sizes: Sequence[int]) -> EdgeFunction:
        """``phi`` as a dense integer sequence or an EdgeFunction."""
        sizes = tuple(sizes)
        if isinstance(phi, EdgeFunction):
            if phi.sizes != sizes:
                raise DomainError(f"encoding function is over {phi.sizes}, expected {sizes}")
            return phi
        values = total_map(phi, math.prod(sizes), "encoding function")
        support, reps, ids = np.unique(values, return_index=True, return_inverse=True)
        return cls(sizes, tuple(support.tolist()), ids, reps)


def check_cwl(
    phi,
    source_groups: Sequence[FiniteGroup],
    edge_group: FiniteGroup,
    edge_support: Sequence[int],
) -> CwlWitness | None:
    """Verify the homomorphism law from the product of the source groups.

    ``phi`` maps source tuples to edge symbols, as a dense integer sequence
    or an ``EdgeFunction``.  The support must list one edge symbol per edge
    group element; a witness exists only if the image of phi is exactly
    that symbol set and ``groups.is_homomorphism`` (the law on the product's
    generators) holds for the induced map.
    """
    if not source_groups:
        raise DomainError("at least one source group is required")
    f = EdgeFunction.of(phi, [g.order for g in source_groups])
    support = tuple(edge_support)
    if len(support) != edge_group.order:
        raise DomainError(
            f"support lists {len(support)} symbols for a group of order {edge_group.order}"
        )
    if len(set(support)) != len(support):
        raise DomainError("support symbols must be distinct")
    if tuple(sorted(support)) != f.support:
        return None
    # Sorted position k of a symbol is its position order[k] in the support.
    phi_k = np.argsort(np.asarray(support), kind="stable")[f.ids]
    if not is_homomorphism(phi_k, direct_product(source_groups), edge_group):
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

    The image carries a group operation compatible with phi exactly when
    phi(a * b) depends on phi(a) and phi(b) alone; the induced operation is
    then the quotient structure and is unique.  Row phi(a) of its table is
    read off the products ``a * b`` of one representative a per symbol, and
    must be well defined in the right operand.  The generator law
    phi(x * g) == table[phi(x), phi(g)] for every x and generator g then
    shows, by induction on word length, that phi(x * y) depends on phi(x)
    alone, so every element of a class gives the same row and the pairwise
    condition holds.  Returns the verified table group on the sorted image
    together with that image, or None exactly when the pairwise condition
    fails.  Images above ``TABLE_VERIFY_BOUND`` symbols raise DomainError
    before any table is allocated.
    """
    product = direct_product(source_groups)
    f = EdgeFunction.of(phi, [g.order for g in source_groups])
    if len(f.support) > TABLE_VERIFY_BOUND:
        raise DomainError(
            f"edge images above {TABLE_VERIFY_BOUND} symbols are not accepted"
        )
    fiber_sizes = np.bincount(f.ids)
    if fiber_sizes.min() != fiber_sizes.max():
        return None  # a homomorphism's fibers are cosets of its kernel
    ids = np.arange(product.order)
    tbl = np.empty((len(f.support), len(f.support)), dtype=np.int64)
    for row, a in zip(tbl, f.reps.tolist()):
        want = f.ids[product.op_array(a, ids)]
        row[f.ids] = want
        if not np.array_equal(row[f.ids], want):
            return None
    if not respects_generators(f.ids, product, lambda a, b: tbl[a, b]):
        return None
    return TableGroup(tbl), f.support


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
    f = EdgeFunction.of(phi, [g.order for g in source_groups])
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
    sizes = w.source_sizes
    identity = mixed_radix_index([g.identity for g in w.source_groups], sizes)
    out = []
    for i, g in enumerate(w.source_groups):
        symbols = np.arange(g.order, dtype=np.int64)
        images = w.hom[identity + (symbols - g.identity) * math.prod(sizes[i + 1:])]
        _, first, ids = np.unique(images, return_index=True, return_inverse=True)
        out.append(np.argsort(np.argsort(first))[ids])
    return out


def coordinate_classes(w: CwlWitness) -> list[list[list[int]]]:
    """Per source, the symbol classes sharing a single-coordinate image,
    ordered by first occurrence, members ascending."""
    out = []
    for ids in _coordinate_class_ids(w):
        members = np.argsort(ids, kind="stable")
        out.append([c.tolist() for c in np.split(members, np.cumsum(np.bincount(ids))[:-1])])
    return out


def classes_equal_sized(classes: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Whether, for each source, all coordinate classes have the same size."""
    return all(len({len(c) for c in per_source}) == 1 for per_source in classes)


def witness_partition(w: CwlWitness) -> SourcePartition:
    """Product partition labeling each tuple by its per-source class ids."""
    return SourcePartition.from_source_classes(w.source_sizes, _coordinate_class_ids(w))


def cwl_remove(
    inst: NetworkInstance,
    code: NetworkCode,
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
    for proj, size in zip(part.projections(best), table.source_sizes):
        if len(proj) * support_size < size:
            raise InternalCheckError("kept symbols fall below the support bound")
    edge_size = inst.edge(edge_id).alphabet_size
    if not _witness_ok(table, part.parts[best], edge_size, eps):
        return None
    return _restrict_to_part(
        inst, code, table, edge_id, part.parts[best], edge_size, best, eps
    )


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
        shown = [index_to_values(i, sizes) for i in offending[:5].tolist()]
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
    inst: NetworkInstance,
    code: NetworkCode,
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
    return _restrict_to_part(
        inst, code, table, edge_id, indices, divisor, label, Fraction(0),
    )


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
    product = direct_product(w.source_groups)
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


def _integer_partitions(e: int) -> list[tuple[int, ...]]:
    if e == 0:
        return [()]
    out = []
    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + [part])
    rec(e, e, [])
    return out


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_structures(n: int) -> list[FiniteGroup]:
    """Every abelian group of order n, one per isomorphism type.

    The plain cyclic group comes first; other types are products of cyclic
    prime-power factors in descending order.
    """
    if n < 1:
        raise DomainError(f"group order must be >= 1, got {n}")
    if n == 1:
        return [CyclicGroup(1)]
    per_prime = []
    for p, e in _prime_factorization(n):
        per_prime.append([[p ** part for part in parts] for parts in _integer_partitions(e)])
    combos = []
    for pick in itertools.product(*per_prime):
        factors = sorted((f for group in pick for f in group), reverse=True)
        combos.append(tuple(factors))
    combos.sort(key=lambda fs: (len(fs), fs))
    out: list[FiniteGroup] = []
    for factors in combos:
        if len(factors) == 1:
            out.append(CyclicGroup(factors[0]))
        else:
            out.append(direct_product([CyclicGroup(f) for f in factors]))
    return out


def _relabeled(group: FiniteGroup, perm: Sequence[int]) -> TableGroup:
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.argsort(perm)
    return TableGroup(perm[group.op_array(inv[:, None], inv)])


def _source_candidates(n: int, relabels: int) -> list[FiniteGroup]:
    base = abelian_structures(n)
    if relabels <= 0:
        return base
    out = list(base)
    for g in base:
        taken = 0
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            out.append(_relabeled(g, perm))
            taken += 1
            if taken >= relabels:
                break
    return out


def _rewrite_full_information(
    inst: NetworkInstance, code: NetworkCode, edge_id: str
) -> NetworkCode | None:
    """Replace the edge message with its encoder's full input, if it fits.

    Consumers recover the original message by composing the old encoder
    table, so every other edge message and every decoding outcome is
    unchanged.
    """
    in_sizes = encoder_input_sizes(inst, code, edge_id)
    total = math.prod(in_sizes)
    edge_size = code.edge_alphabets[edge_id]
    if total > edge_size:
        return None
    head = inst.edge(edge_id).head
    # old_value[w] is the original message behind rewritten message w.
    old_value = np.full(edge_size, code.encoders[edge_id][0], dtype=np.int64)
    old_value[:total] = code.encoders[edge_id]
    ins = inst.in_edges(head)
    sizes = [code.edge_alphabets[f.id] for f in ins]
    pos = [f.id for f in ins].index(edge_id)

    encoders = dict(code.encoders)
    encoders[edge_id] = np.concatenate(
        [np.arange(total, dtype=np.int64), np.zeros(edge_size - total, dtype=np.int64)]
    )
    for e in inst.out_edges(head):
        encoders[e.id] = select_input(code.encoders[e.id], sizes, pos, old_value)
    decoders = dict(code.decoders)
    if head in inst.terminals:
        decoders[head] = select_input(code.decoders[head], sizes, pos, old_value)
    return NetworkCode(
        blocklength=code.blocklength,
        source_alphabets=code.source_alphabets,
        edge_alphabets=dict(code.edge_alphabets),
        encoders=encoders,
        decoders=decoders,
    )


def cwl_search(
    inst: NetworkInstance,
    code: NetworkCode,
    edge_id: str,
    budget: SearchBudget = SearchBudget(),
    enum_cap: int | None = None,
) -> CwlSearchResult | None:
    """Bounded search for a CWL certificate on one edge.

    First tries to certify the code's own encoding function under candidate
    source group assignments (abelian structures, optionally relabeled); the
    edge group is always induced, never enumerated.  If that fails, rewrites
    the edge to carry strictly more information with exact downstream
    compensation and retries.  Both phases share the assignment budget;
    results are deterministic for a fixed budget.  Both tables honour
    ``enum_cap``.
    """
    table = build_global_table(inst, code, enum_cap=enum_cap)
    assignments_left = budget.max_group_assignments

    def try_code(cand_code: NetworkCode, cand_table: GlobalCodeTable, rewritten: bool):
        nonlocal assignments_left
        phi = EdgeFunction.of(cand_table.edge_values(edge_id), cand_table.source_sizes)
        candidates = [
            _source_candidates(n, budget.max_relabels_per_order)
            for n in cand_table.source_sizes
        ]
        for assignment in itertools.product(*candidates):
            if assignments_left <= 0:
                return None
            assignments_left -= 1
            witness = certify_cwl(phi, assignment)
            if witness is not None:
                return CwlSearchResult(cand_code, witness, rewritten)
        return None

    found = try_code(code, table, rewritten=False)
    if found is not None:
        return found
    rewrites_left = budget.max_table_rewrites
    if rewrites_left > 0 and assignments_left > 0:
        rewritten_code = _rewrite_full_information(inst, code, edge_id)
        if rewritten_code is not None:
            table2 = build_global_table(inst, rewritten_code, enum_cap=enum_cap)
            if not np.array_equal(table2.good, table.good):
                raise InternalCheckError("rewrite changed decoding outcomes")
            found = try_code(rewritten_code, table2, rewritten=True)
            if found is not None:
                return found
    return None

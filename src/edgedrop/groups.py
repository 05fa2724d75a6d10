"""Exact arithmetic for small finite groups.

Elements are dense integer ids ``0..order-1``.  Every group computes through
one primitive, ``op_array``, over broadcast int64 id arrays: cyclic groups
with modular arithmetic, product groups on dense tuple indices
(``codes.pack``: the last factor varies fastest, matching
``itertools.product``), so a product of source groups numbers its elements
as a code table numbers its source tuples, and arbitrary groups through
explicit Cayley tables that are verified eagerly on construction.

Every group also names a generating set, ``generators()``, and the proofs
below run on it instead of on all of G; a group offers nothing else, and no
inverse is ever taken.  In a finite group every element is a product of
generators (inverses are products too), so a law that holds for every
x and every generator g holds for all pairs by induction on word length:
``is_homomorphism`` checks f(x * g) = f(x) * f(g), ``is_subgroup`` and
``generated_subgroup`` close sets by right multiplication with generators,
and Cayley tables are proved associative by Light's test on generators.
Each of these costs ``|G| * |gens|`` products where the pairwise form costs
``|G|**2``.  Groups are not assumed commutative anywhere; ``is_abelian`` is
a queryable property.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codes import index_digits, pack, total_map
from .errors import DomainError, Int64RangeError, PreconditionError
from .network import field, int_table, require

# Cayley tables are refused beyond this order so that every table held by the
# workbench has had its group axioms verified.
TABLE_VERIFY_BOUND = 512

# Group descriptions may nest products at most this deep.  Realistic groups
# need a few levels; a bound far below the interpreter's recursion limit
# keeps every recursive walk of a group, and of a report echoing it, safe.
MAX_GROUP_NESTING = 32


class FiniteGroup:
    """Base class: a finite group on element ids 0..order-1.

    Subclasses implement ``op_array``, which takes int64 id arrays or Python
    ints, broadcasts like numpy arithmetic and leaves id checks to its
    callers, plus ``generators`` and ``describe``.
    """

    order: int
    identity: int
    is_abelian: bool

    def op_array(self, a, b):
        """The products ``a * b``, elementwise over broadcast ids."""
        raise NotImplementedError

    def generators(self) -> list[int]:
        """Element ids whose products reach every element of the group."""
        raise NotImplementedError

    def _check_id(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise DomainError(f"element id {a} outside group of order {self.order}")

    def op(self, a: int, b: int) -> int:
        self._check_id(a)
        self._check_id(b)
        return int(self.op_array(a, b))

    def describe(self) -> dict:
        """Serializable structural description of this group."""
        raise NotImplementedError


class CyclicGroup(FiniteGroup):
    """Integers 0..n-1 under addition mod n."""

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"cyclic group order must be >= 1, got {n}")
        self.order = n
        self.identity = 0

    def op_array(self, a, b):
        return (a + b) % self.order

    def generators(self) -> list[int]:
        return [1 % self.order]

    @cached_property
    def is_abelian(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": "cyclic", "order": self.order}


class ProductGroup(FiniteGroup):
    """Direct product of finite groups.  The id of an element is the dense
    tuple index (``codes.pack``) of its factor ids over ``sizes``, the factor
    orders."""

    def __init__(self, factors: Sequence[FiniteGroup]):
        if not factors:
            raise DomainError("direct product needs at least one factor")
        self.factors = tuple(factors)
        self.sizes = tuple(g.order for g in self.factors)
        self.order = math.prod(self.sizes)
        self.identity = pack([g.identity for g in self.factors], self.sizes)

    def op_array(self, a, b):
        pairs = zip(self.factors, index_digits(a, self.sizes), index_digits(b, self.sizes))
        return pack([g.op_array(x, y) for g, x, y in pairs], self.sizes)

    def generators(self) -> list[int]:
        """Each factor's generators, embedded with the identity elsewhere."""
        e = [g.identity for g in self.factors]
        return [
            pack(e[:i] + [x] + e[i + 1:], self.sizes)
            for i, g in enumerate(self.factors)
            for x in g.generators()
        ]

    @cached_property
    def is_abelian(self) -> bool:
        return all(g.is_abelian for g in self.factors)

    def describe(self) -> dict:
        return {
            "kind": "product",
            "order": self.order,
            "factors": [g.describe() for g in self.factors],
        }


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table, verified on construction.

    The table is taken as ``network.int_table`` takes a 2-D table.
    """

    def __init__(self, table: Sequence[Sequence[int]]):
        arr = int_table(table, 2, "Cayley table")
        n = len(arr)
        if n < 1:
            raise DomainError("empty Cayley table")
        if n > TABLE_VERIFY_BOUND:
            raise DomainError(
                f"Cayley tables above order {TABLE_VERIFY_BOUND} are not accepted"
            )
        if arr.shape != (n, n):
            raise DomainError(f"Cayley table must be {n}x{n}")
        if arr.min() < 0 or arr.max() >= n:
            raise DomainError("Cayley table entries must be element ids 0..order-1")
        self.order = n
        self._table = arr
        self.identity = self._find_identity()
        self._check_inverses()
        self._generators = _greedy_generators(self)
        self._check_associativity()

    def _find_identity(self) -> int:
        ids = np.arange(self.order)
        t = self._table
        both = (t == ids).all(axis=1) & (t == ids[:, None]).all(axis=0)
        if not both.any():
            raise DomainError("Cayley table has no two-sided identity")
        return int(np.argmax(both))

    def _check_inverses(self) -> None:
        hits = self._table == self.identity
        inv = np.argmax(hits, axis=1)
        ok = (hits.sum(axis=1) == 1) & (self._table[inv, np.arange(self.order)] == self.identity)
        if not ok.all():
            raise DomainError(f"element {int(np.argmin(ok))} has no two-sided inverse")

    def _check_associativity(self) -> None:
        """Light's test: (x * a) * y == x * (a * y) for every generator a.

        The elements a that pass for all x, y are closed under products, and
        the closure that picked the generators reaches every element as a
        product of them, so this proves associativity without assuming it.
        """
        t = self._table
        for a in self._generators:
            if not np.array_equal(t[t[:, a]], t[:, t[a]]):
                raise DomainError("Cayley table is not associative")

    def op_array(self, a, b):
        return self._table[a, b]

    def generators(self) -> list[int]:
        return list(self._generators)

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self._table == self._table.T).all())

    def describe(self) -> dict:
        return {
            "kind": "table",
            "order": self.order,
            "table": self._table.tolist(),
        }


def group_from_description(desc: Mapping) -> FiniteGroup:
    """Rebuild a group from the dict format produced by ``describe``.

    Orders and Cayley table entries must be JSON integers; floats, booleans
    and strings are rejected, never coerced.  A missing or mistyped field is
    a DomainError that names it, and so are products nested more than
    ``MAX_GROUP_NESTING`` deep and a product's or a table's declared
    ``order`` that is not the order of the group built.
    """

    def build(desc, depth: int) -> FiniteGroup:
        kind = field(require(desc, dict, "group description"), "kind", str, "group")
        where = f"{kind} group"
        if kind == "cyclic":
            return CyclicGroup(field(desc, "order", int, where))
        if kind == "product":
            if depth == MAX_GROUP_NESTING:
                raise DomainError(
                    f"group description nests products more than {MAX_GROUP_NESTING} deep"
                )
            factors = field(desc, "factors", list, where)
            g = ProductGroup([build(d, depth + 1) for d in factors])
        elif kind == "table":
            g = TableGroup(field(desc, "table", list, where))
        else:
            raise DomainError(f"unknown group kind {kind!r}")
        if "order" in desc and field(desc, "order", int, where) != g.order:
            raise DomainError(f"declared order does not match the {kind} group's order")
        return g

    return build(desc, 0)


def _id_array(group: FiniteGroup, ids: Iterable[int]) -> np.ndarray:
    """Element ids as ``int_table`` gives them, each checked against the
    group; a set, a range or an iterator of ids is listed first."""
    if isinstance(ids, (set, frozenset, range, Iterator)):
        ids = list(ids)
    try:
        out = int_table(ids, 1, "element ids")
    except Int64RangeError:
        raise DomainError(f"an element id is outside group of order {group.order}") from None
    if out.size:
        group._check_id(int(out.min()))
        group._check_id(int(out.max()))
    return out


def _indicator(group: FiniteGroup, ids) -> np.ndarray:
    inside = np.zeros(group.order, dtype=bool)
    inside[ids] = True
    return inside


def _extend_closure(
    group: FiniteGroup,
    inside: np.ndarray,
    gens: list[int],
    g: int,
    within: np.ndarray | None = None,
) -> bool:
    """Grow ``inside`` in place to its closure under ``gens + [g]``.

    ``inside`` must hold the identity and be closed under right
    multiplication by ``gens``; ``g`` is appended to ``gens``.  Each round
    multiplies the elements reached last by every generator and by the
    powers g, g^2, g^4, ... squared so far, so <g> of order m takes about
    log2(m) rounds.  Those powers lie in the group being generated, and each
    product is a reached element times a product of generators, so every
    element reached is a product of generators and no commutativity is
    assumed.  Returns False, leaving the closure partial, as soon as an
    element outside ``within`` is reached.
    """
    gens.append(g)
    all_gens = np.asarray(gens, dtype=np.int64)
    frontier = np.flatnonzero(inside)
    powers = np.array([g], dtype=np.int64)
    step = powers  # old members need only the new generator
    while True:
        reached = np.unique(group.op_array(frontier[:, None], step))
        frontier = reached[~inside[reached]]
        if within is not None and not within[frontier].all():
            return False
        if not frontier.size:
            return True
        inside[frontier] = True
        square = group.op_array(powers[-1], powers[-1])
        if not (powers == square).any():
            powers = np.append(powers, square)
        step = np.concatenate([all_gens, powers[1:]])


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """Smallest ids outside the closure of those picked before them."""
    inside = _indicator(group, group.identity)
    gens: list[int] = []
    while not inside.all():
        _extend_closure(group, inside, gens, int(np.argmin(inside)))
    return gens


@dataclass(frozen=True, eq=False)
class SubgroupHandle:
    """A subgroup of a parent group, proved once by ``is_subgroup`` or by the
    closure in ``generated_subgroup``: the read-only membership flag of every
    element of the parent, and members whose products reach all of it."""

    parent: FiniteGroup
    mask: np.ndarray
    generators: tuple[int, ...]

    def __post_init__(self):
        self.mask.flags.writeable = False
        # Lagrange, as a cheap sanity assertion on the verified subgroup.
        assert self.parent.order % self.order == 0

    @cached_property
    def order(self) -> int:
        return int(np.count_nonzero(self.mask))


def is_subgroup(group: FiniteGroup, members) -> SubgroupHandle | None:
    """The member set as a verified handle, or None when it is not a subgroup.

    ``members`` is a boolean mask over the group or element ids (checked
    against the group; repeats collapse).  Starting from H = {e}, the
    smallest member s outside H gives the next H = <H, s>; the set is a
    subgroup exactly when every such H stays inside it and the last one
    equals it.  Each step at least doubles |H|; the s taken generate it.
    """
    if isinstance(members, np.ndarray) and members.dtype == bool:
        wanted = members
    else:
        wanted = _indicator(group, _id_array(group, members))
    if not wanted[group.identity]:
        return None
    inside = _indicator(group, group.identity)
    gens: list[int] = []
    while not np.array_equal(inside, wanted):
        if not _extend_closure(group, inside, gens, int(np.argmax(wanted & ~inside)), wanted):
            return None
    return SubgroupHandle(group, inside, tuple(gens))


def subgroup(group: FiniteGroup, members) -> SubgroupHandle:
    """Wrap a member set (ids or a mask, see ``is_subgroup``) as a verified
    subgroup handle."""
    handle = is_subgroup(group, members)
    if handle is None:
        raise PreconditionError("member set is not a subgroup")
    return handle


def generated_subgroup(group: FiniteGroup, generators: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing the generators (closure by products).

    In a finite group the products of the generators already contain their
    inverses, so the closure multiplies by the generators alone; a set
    holding the identity and closed under them is a subgroup, so the
    closure is the handle's proof.
    """
    inside = _indicator(group, group.identity)
    gens: list[int] = []
    for g in _id_array(group, generators).tolist():
        if not inside[g]:
            _extend_closure(group, inside, gens, g)
    return SubgroupHandle(group, inside, tuple(gens))


def subgroup_product(group: FiniteGroup, parts: Sequence[SubgroupHandle]) -> SubgroupHandle:
    """Internal product of subgroups of an abelian parent.

    For abelian groups the set of products is the subgroup generated by the
    parts' generators.
    """
    if not group.is_abelian:
        raise PreconditionError("subgroup products are only taken in abelian groups")
    if any(h.parent is not group for h in parts):
        raise PreconditionError("subgroup has a different parent group")
    return generated_subgroup(group, [s for h in parts for s in h.generators])


def coset_labels(group: FiniteGroup, sub: SubgroupHandle) -> np.ndarray:
    """Dense left-coset label of every element, ordered by smallest representative.

    xH is the orbit of x under right multiplication by the generators of H,
    which the handle carries.  Each generator s gives one permutation
    x -> x * s (one ``op_array`` call); pointer doubling along it spreads
    the smallest id over every cycle, and rounds over all generators repeat
    until no label moves.
    """
    if sub.parent is not group and sub.parent.describe() != group.describe():
        raise PreconditionError("handle is not a subgroup of this group")
    ids = np.arange(group.order)
    steps = [group.op_array(ids, s) for s in sub.generators]
    doublings = (sub.order - 1).bit_length()  # 2**doublings >= the order of s
    smallest = ids
    while True:
        before = smallest
        for step in steps:
            for _ in range(doublings):
                smallest = np.minimum(smallest, smallest[step])
                step = step[step]
        if np.array_equal(smallest, before):
            return np.unique(smallest, return_inverse=True)[1]


def is_homomorphism(f, dom: FiniteGroup, cod: FiniteGroup) -> bool:
    """Check f(x op g) == f(x) op f(g) for every x and every generator g.

    Every element is a product of generators, so induction on word length
    gives f(x op y) == f(x) op f(y) for all pairs from ``|G| * |gens|``
    products, in one ``op_array`` call on each side.  f(e) == e is checked
    explicitly, which covers a domain whose generating set is empty.
    """
    vals = _id_array(cod, total_map(f, dom.order, "map"))
    gens = np.asarray(dom.generators(), dtype=np.int64)
    x = np.arange(dom.order)[:, None]
    return bool(vals[dom.identity] == cod.identity) and np.array_equal(
        vals[dom.op_array(x, gens)], cod.op_array(vals[x], vals[gens])
    )


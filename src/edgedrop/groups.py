"""Exact arithmetic for small finite groups.

Elements are dense integer ids ``0..order-1``.  Every group computes through
one primitive, ``op_array``, over broadcast int64 id arrays: cyclic groups
with modular arithmetic, product groups with mixed-radix digits (the last
factor varies fastest, matching ``itertools.product``), and arbitrary groups
through explicit Cayley tables that are verified eagerly on construction.
The checks below apply it one left operand at a time, so none of them holds
a ``|G| x |G|`` array.  Groups are not assumed commutative anywhere;
``is_abelian`` is a queryable property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codes import _json_table
from .errors import DomainError, PreconditionError
from .network import require_int

# Cayley tables are refused beyond this order so that every table held by the
# workbench has had its group axioms verified.
TABLE_VERIFY_BOUND = 512


class FiniteGroup:
    """Base class: a finite group on element ids 0..order-1.

    Subclasses implement ``op_array`` and ``inverse_array``; both take int64
    id arrays or Python ints, broadcast like numpy arithmetic, and leave id
    checks to their callers.
    """

    order: int
    identity: int
    is_abelian: bool

    def op_array(self, a, b):
        """The products ``a * b``, elementwise over broadcast ids."""
        raise NotImplementedError

    def inverse_array(self, a):
        """The inverses of the given ids, elementwise."""
        raise NotImplementedError

    def _check_id(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise DomainError(f"element id {a} outside group of order {self.order}")

    def op(self, a: int, b: int) -> int:
        self._check_id(a)
        self._check_id(b)
        return int(self.op_array(a, b))

    def inverse(self, a: int) -> int:
        self._check_id(a)
        return int(self.inverse_array(a))

    def elements(self) -> range:
        return range(self.order)

    def describe(self) -> dict:
        """Serializable structural description of this group."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(FiniteGroup):
    """Integers 0..n-1 under addition mod n."""

    def __init__(self, n: int):
        if n < 1:
            raise DomainError(f"cyclic group order must be >= 1, got {n}")
        self.order = n
        self.identity = 0

    def op_array(self, a, b):
        return (a + b) % self.order

    def inverse_array(self, a):
        return (-a) % self.order

    @cached_property
    def is_abelian(self) -> bool:
        return True

    def describe(self) -> dict:
        return {"kind": "cyclic", "order": self.order}


class ProductGroup(FiniteGroup):
    """Direct product of finite groups with mixed-radix element ids."""

    def __init__(self, factors: Sequence[FiniteGroup]):
        if not factors:
            raise DomainError("direct product needs at least one factor")
        self.factors = tuple(factors)
        self.order = 1
        self._strides = []
        for g in reversed(self.factors):
            self._strides.insert(0, self.order)
            self.order *= g.order
        self.identity = self.encode(tuple(g.identity for g in self.factors))

    def encode(self, values: Sequence[int]) -> int:
        """Mixed-radix id of a factor-value tuple (last factor fastest)."""
        if len(values) != len(self.factors):
            raise DomainError(
                f"expected {len(self.factors)} coordinates, got {len(values)}"
            )
        idx = 0
        for v, g in zip(values, self.factors):
            if not 0 <= v < g.order:
                raise DomainError(f"coordinate {v} outside factor of order {g.order}")
            idx = idx * g.order + v
        return idx

    def decode(self, a: int) -> tuple[int, ...]:
        self._check_id(a)
        return tuple(a // s % g.order for g, s in zip(self.factors, self._strides))

    def op_array(self, a, b):
        out = 0
        for g, s in zip(self.factors, self._strides):
            out = out * g.order + g.op_array(a // s % g.order, b // s % g.order)
        return out

    def inverse_array(self, a):
        out = 0
        for g, s in zip(self.factors, self._strides):
            out = out * g.order + g.inverse_array(a // s % g.order)
        return out

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
    """Group given by an explicit Cayley table, verified on construction."""

    def __init__(self, table: Sequence[Sequence[int]]):
        n = len(table)
        if n < 1:
            raise DomainError("empty Cayley table")
        if n > TABLE_VERIFY_BOUND:
            raise DomainError(
                f"Cayley tables above order {TABLE_VERIFY_BOUND} are not accepted"
            )
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != (n, n):
            raise DomainError(f"Cayley table must be {n}x{n}")
        if arr.min() < 0 or arr.max() >= n:
            raise DomainError("Cayley table entries must be element ids 0..order-1")
        self.order = n
        self._table = arr
        self.identity = self._find_identity()
        self._inverses = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        ids = np.arange(self.order)
        for e in range(self.order):
            if (self._table[e] == ids).all() and (self._table[:, e] == ids).all():
                return e
        raise DomainError("Cayley table has no two-sided identity")

    def _find_inverses(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=np.int64)
        for a in range(self.order):
            hits = np.flatnonzero(self._table[a] == self.identity)
            if hits.size != 1 or self._table[hits[0], a] != self.identity:
                raise DomainError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        return inv

    def _check_associativity(self) -> None:
        t = self._table
        # Row-chunked check of t[t[a, b], c] == t[a, t[b, c]] for all triples.
        for a in range(self.order):
            lhs = t[t[a]]
            rhs = t[a][t]
            if not (lhs == rhs).all():
                raise DomainError("Cayley table is not associative")

    def op_array(self, a, b):
        return self._table[a, b]

    def inverse_array(self, a):
        return self._inverses[a]

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self._table == self._table.T).all())

    def describe(self) -> dict:
        return {
            "kind": "table",
            "order": self.order,
            "table": self._table.tolist(),
        }


def make_cyclic(n: int) -> CyclicGroup:
    """Cyclic group of order n."""
    return CyclicGroup(n)


def direct_product(factors: Sequence[FiniteGroup]) -> ProductGroup:
    """Direct product of the given factor groups."""
    return ProductGroup(factors)


def group_from_description(desc: Mapping) -> FiniteGroup:
    """Rebuild a group from the dict format produced by ``describe``.

    Orders and Cayley table entries must be JSON integers; floats, booleans
    and strings are rejected, never coerced.
    """
    if not isinstance(desc, Mapping) or "kind" not in desc:
        raise DomainError("group description must be a mapping with a 'kind' key")
    kind = desc["kind"]
    if kind == "cyclic":
        return make_cyclic(require_int(desc["order"], "cyclic group order"))
    if kind == "product":
        return direct_product([group_from_description(d) for d in desc["factors"]])
    if kind == "table":
        g = TableGroup(_json_table(desc["table"], 2, "Cayley table"))
        if "order" in desc and require_int(desc["order"], "group order") != g.order:
            raise DomainError("declared order does not match table size")
        return g
    raise DomainError(f"unknown group kind {kind!r}")


def _id_array(group: FiniteGroup, ids: Iterable[int]) -> np.ndarray:
    """Element ids as an int64 array, each checked against the group."""
    out = np.fromiter(ids, dtype=np.int64)
    if out.size:
        group._check_id(int(out.min()))
        group._check_id(int(out.max()))
    return out


def _indicator(group: FiniteGroup, ids) -> np.ndarray:
    inside = np.zeros(group.order, dtype=bool)
    inside[ids] = True
    return inside


def is_subgroup(group: FiniteGroup, members: Iterable[int]) -> bool:
    """Whether the member set is closed, contains the identity and inverses."""
    s = _id_array(group, members)
    inside = _indicator(group, s)
    return bool(
        inside[group.identity]
        and inside[group.inverse_array(s)].all()
        and all(inside[group.op_array(a, s)].all() for a in s)
    )


@dataclass(frozen=True)
class SubgroupHandle:
    """A verified subgroup of a parent group."""

    parent: FiniteGroup
    members: frozenset[int]

    def __post_init__(self):
        if not is_subgroup(self.parent, self.members):
            raise PreconditionError("member set is not a subgroup")
        # Lagrange, as a cheap sanity assertion on the verified subgroup.
        assert self.parent.order % len(self.members) == 0

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


def subgroup(group: FiniteGroup, members: Iterable[int]) -> SubgroupHandle:
    """Wrap a member set as a verified subgroup handle."""
    return SubgroupHandle(group, frozenset(members))


def generated_subgroup(group: FiniteGroup, generators: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing the generators (closure by products).

    In a finite group the products of the generators already contain their
    inverses, so the closure multiplies by the generators alone.
    """
    gens = _id_array(group, generators)
    inside = _indicator(group, group.identity)
    frontier = np.array([group.identity])
    while frontier.size:
        reached = np.unique(group.op_array(frontier[:, None], gens))
        frontier = reached[~inside[reached]]
        inside[frontier] = True
    return SubgroupHandle(group, frozenset(np.flatnonzero(inside).tolist()))


def intersection(h1: SubgroupHandle, h2: SubgroupHandle) -> SubgroupHandle:
    """Intersection of two subgroups of the same parent."""
    if h1.parent is not h2.parent:
        raise PreconditionError("subgroups have different parent groups")
    return SubgroupHandle(h1.parent, h1.members & h2.members)


def subgroup_product(group: FiniteGroup, parts: Sequence[SubgroupHandle]) -> SubgroupHandle:
    """Internal product of subgroups of an abelian parent.

    For abelian groups the set of products is itself a subgroup; the result is
    still verified by the handle constructor.
    """
    if not group.is_abelian:
        raise PreconditionError("subgroup products are only taken in abelian groups")
    members = np.array([group.identity])
    for h in parts:
        if h.parent is not group:
            raise PreconditionError("subgroup has a different parent group")
        inside = _indicator(group, [])
        for m in h.sorted_members:
            inside[group.op_array(members, m)] = True
        members = np.flatnonzero(inside)
    return SubgroupHandle(group, frozenset(members.tolist()))


def coset_labels(group: FiniteGroup, sub: SubgroupHandle) -> np.ndarray:
    """Dense left-coset label of every element, ordered by smallest representative."""
    if sub.parent is not group and not is_subgroup(group, sub.members):
        raise PreconditionError("handle is not a subgroup of this group")
    members = np.array(sub.sorted_members, dtype=np.int64)
    labels = np.full(group.order, -1, dtype=np.int64)
    count = 0
    for g in range(group.order):
        if labels[g] < 0:
            labels[group.op_array(g, members)] = count
            count += 1
    return labels


def cosets(group: FiniteGroup, sub: SubgroupHandle) -> list[list[int]]:
    """Left cosets of the subgroup, ordered by smallest representative."""
    labels = coset_labels(group, sub)
    by_label = np.argsort(labels, kind="stable")
    return [c.tolist() for c in np.split(by_label, np.cumsum(np.bincount(labels))[:-1])]


def _as_total_map(f, size: int) -> list[int]:
    """Normalize a map given as a sequence or mapping into a dense list."""
    if isinstance(f, Mapping):
        vals = []
        for a in range(size):
            if a not in f:
                raise DomainError(f"map is missing element {a}")
            vals.append(f[a])
        return vals
    vals = list(f)
    if len(vals) != size:
        raise DomainError(f"map covers {len(vals)} elements, expected {size}")
    return vals


def is_homomorphism(f, dom: FiniteGroup, cod: FiniteGroup) -> bool:
    """Exhaustively check f(a op b) == f(a) op f(b), one left operand a at a time."""
    vals = _id_array(cod, _as_total_map(f, dom.order))
    ids = np.arange(dom.order)
    return all(
        np.array_equal(vals[dom.op_array(a, ids)], cod.op_array(vals[a], vals))
        for a in dom.elements()
    )


def kernel(f, dom: FiniteGroup, cod: FiniteGroup) -> SubgroupHandle:
    """Kernel of a verified homomorphism."""
    if not is_homomorphism(f, dom, cod):
        raise PreconditionError("map is not a homomorphism")
    vals = np.asarray(_as_total_map(f, dom.order))
    return SubgroupHandle(dom, frozenset(np.flatnonzero(vals == cod.identity).tolist()))


def fibers(f, dom: FiniteGroup) -> dict[int, list[int]]:
    """Preimage classes of a total map on the group, keyed by value."""
    vals = _as_total_map(f, dom.order)
    out: dict[int, list[int]] = {}
    for a in dom.elements():
        out.setdefault(vals[a], []).append(a)
    return out

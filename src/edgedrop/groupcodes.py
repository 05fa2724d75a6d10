"""Codes characterized by a finite group and one subgroup per variable.

For a uniform group element g, the variable attached to subgroup ``G_f``
realizes the left coset ``g G_f``; every joint entropy is then
``log2(|G| / |intersection|)``.  Cosets are relabeled densely (ordered by
smallest representative) whenever such a code is bridged to an explicit
network code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .codes import GlobalCodeTable, NetworkCode, build_global_table, pack, relay_instance
from .errors import DomainError, InternalCheckError, PreconditionError, ResourceError
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    coset_labels,
    group_from_description,
    subgroup,
    subgroup_product,
)
from .network import NetworkInstance, field, load_json, require
from .removal import RemovalResult, SourcePartition, fiber_edge_values, find_witness, restrict_code

GROUP_ORDER_CAP = 1 << 20


def _check_order_cap(group: FiniteGroup) -> None:
    if group.order > GROUP_ORDER_CAP:
        raise ResourceError(f"group order is above the cap of {GROUP_ORDER_CAP}")


@dataclass(frozen=True)
class GroupCharacterization:
    """A finite group with named subgroups, one per network variable."""

    group: FiniteGroup
    subgroups: dict[str, SubgroupHandle]

    def __post_init__(self):
        _check_order_cap(self.group)
        for name, h in self.subgroups.items():
            if h.parent is not self.group:
                raise PreconditionError(f"subgroup {name!r} has a different parent group")

    def handle(self, key: str) -> SubgroupHandle:
        try:
            return self.subgroups[key]
        except KeyError:
            raise DomainError(f"unknown variable {key!r}") from None

    def meet(self, keys: Sequence[str]) -> np.ndarray:
        """Membership flag of every element in the intersection of the named
        subgroups (all of G for no keys)."""
        inside = np.ones(self.group.order, dtype=bool)
        for k in keys:
            inside &= self.handle(k).mask
        return inside

    def meet_order(self, keys: Sequence[str]) -> int:
        return int(np.count_nonzero(self.meet(keys)))

    @cached_property
    def _realize_maps(self) -> dict[str, np.ndarray]:
        return {}

    def realize_map(self, key: str) -> np.ndarray:
        """Dense coset label for every group element, for one variable."""
        if key not in self._realize_maps:
            self._realize_maps[key] = gc_realize_subgroup(self.group, self.handle(key))
        return self._realize_maps[key]

    def variable_size(self, key: str) -> int:
        return self.group.order // self.handle(key).order


def normalized_sources(gc: GroupCharacterization, source_keys: Sequence[str]) -> bool:
    """Whether the source subgroups intersect in the identity alone."""
    return gc.meet_order(source_keys) == 1


def independent_sources(gc: GroupCharacterization, source_keys: Sequence[str]) -> bool:
    """Whether the source variables are jointly uniform on their product.

    The joint variable ranges over cosets of the intersection subgroup, so
    its alphabet has order // |intersection| values; independence means that
    count equals the product of the individual alphabet sizes.
    """
    total = 1
    for k in source_keys:
        total *= gc.variable_size(k)
    joint = gc.group.order // gc.meet_order(source_keys)
    return total == joint


def materialize(
    gc: GroupCharacterization, source_keys: Sequence[str], edge_key: str
) -> tuple[NetworkInstance, NetworkCode]:
    """Explicit instance and code realizing the characterized variables.

    Each source feeds a relay that emits the characterized edge message, and
    also feeds the terminal directly so decoding is zero-error; the edge
    message appears on edge ``"e"``.  Requires normalized, independent
    sources so that every combination of source symbols names exactly one
    group element.
    """
    if len(source_keys) > 9:
        raise DomainError("at most nine sources are supported by the naming scheme")
    if not normalized_sources(gc, source_keys):
        raise PreconditionError("source subgroups must intersect in the identity alone")
    if not independent_sources(gc, source_keys):
        raise PreconditionError("source variables must be jointly uniform")
    # Each element's tuple of source coset labels, as a dense tuple index.
    sizes = [gc.variable_size(k) for k in source_keys]
    index = pack([gc.realize_map(k) for k in source_keys], sizes)
    if np.unique(index).size != gc.group.order:
        raise InternalCheckError("source labels fail to separate group elements")
    relay = np.empty(gc.group.order, dtype=np.int64)
    relay[index] = gc.realize_map(edge_key)
    return relay_instance(sizes, gc.variable_size(edge_key), relay)


@dataclass(frozen=True)
class AbelianRemovalPlan:
    """Partition and certificate produced for an abelian characterization.

    ``checks`` records the verified facts: the auxiliary subgroup sits inside
    the edge subgroup, the per-part entropy split log2|G'| = sum of
    log2(|G'| / m_i) holds (it does exactly when the integer identity
    |G'|**(k-1) = prod m_i does, so both split keys report that identity),
    and the per-source size bound holds in cross-multiplied integer form.
    """

    edge_key: str
    source_keys: tuple[str, ...]
    g_prime: SubgroupHandle
    complements: tuple[SubgroupHandle, ...]
    table: GlobalCodeTable
    partition: SourcePartition
    checks: dict[str, bool]
    removal: RemovalResult


def abelian_removal_plan(
    gc: GroupCharacterization,
    edge_key: str,
    source_keys: Sequence[str],
    enum_cap: int | None = None,
) -> AbelianRemovalPlan:
    """Zero-error removal partition for an abelian group characterization.

    The auxiliary subgroup is the product over sources of the edge subgroup
    intersected with every other source's subgroups; its cosets partition the
    source tuple space, determine the edge message, split into products, and
    pass the witness bounds with eps = 0.  The materialized code's table
    honours ``enum_cap``.
    """
    if not gc.group.is_abelian:
        raise PreconditionError("this removal route requires an abelian group")
    if not normalized_sources(gc, source_keys):
        raise PreconditionError("source subgroups must intersect in the identity alone")
    if not independent_sources(gc, source_keys):
        raise PreconditionError("source variables must be jointly uniform")
    group = gc.group
    g_e = gc.handle(edge_key)
    complements = []
    for i in range(len(source_keys)):
        others = gc.meet([k for j, k in enumerate(source_keys) if j != i])
        complements.append(subgroup(group, g_e.mask & others))
    g_prime = subgroup_product(group, complements)

    k = len(source_keys)
    inter_with_sources = [
        int(np.count_nonzero(g_prime.mask & gc.handle(key).mask)) for key in source_keys
    ]
    split = g_prime.order ** (k - 1) == math.prod(inter_with_sources)
    checks = {
        "edge_determined": not (g_prime.mask & ~g_e.mask).any(),
        "product_split_exact": split,
        "product_split_numeric": split,
        "size_bound": all(
            g_prime.order * gc.handle(key).order >= g_e.order * m
            for key, m in zip(source_keys, inter_with_sources)
        ),
    }
    if not all(checks.values()):
        raise InternalCheckError(f"auxiliary subgroup failed verification: {checks}")

    table = build_global_table(*materialize(gc, source_keys, edge_key), enum_cap=enum_cap)
    labels = np.empty(group.order, dtype=np.int64)
    index = pack([gc.realize_map(k) for k in source_keys], table.source_sizes)
    labels[index] = coset_labels(group, g_prime)
    labels.flags.writeable = False  # shared by the partition, not copied
    part = SourcePartition(table.source_sizes, labels)

    if not fiber_edge_values(table, "e", part):
        raise InternalCheckError("coset partition fails to determine the edge message")
    witness = find_witness(table, "e", part, Fraction(0))
    if witness is None:
        raise InternalCheckError("coset partition has no witness part at eps = 0")
    removal = restrict_code(table, "e", part, witness, Fraction(0))
    return AbelianRemovalPlan(
        edge_key=edge_key,
        source_keys=tuple(source_keys),
        g_prime=g_prime,
        complements=tuple(complements),
        table=table,
        partition=part,
        checks=checks,
        removal=removal,
    )


def gc_realize_subgroup(group: FiniteGroup, sub: SubgroupHandle) -> np.ndarray:
    """Dense left-coset label of every element for an ad hoc subgroup, read-only."""
    labels = coset_labels(group, sub)
    labels.flags.writeable = False
    return labels


@dataclass(frozen=True)
class TerminalDecision:
    """Dichotomy outcome for one terminal's demand.

    Either a zero-error decoder exists (the incoming coset refines the
    demanded coset) or every decoder errs on at least ``1 - 1/q`` of the
    elements, with q at least 2.
    """

    in_key: str
    source_key: str
    kind: str  # "zero_error" or "high_error"
    decoder: dict[int, int] | None
    q: int | None
    min_error: Fraction | None

    def to_dict(self) -> dict:
        """The fields, but the decoder keyed by strings: callers index it by
        integer, and the report sorts its keys as strings ("10" before "2")."""
        decoder = None if self.decoder is None else {str(k): v for k, v in self.decoder.items()}
        return {**vars(self), "decoder": decoder}


def _coset_overlap(
    gc: GroupCharacterization, in_key: str, source_key: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every (incoming coset, demanded coset) pair that shares elements, as
    the incoming label and the number of shared elements, sorted by
    incoming label.  Only the pairs that occur are counted, so the work is
    O(|G| log |G|) however many cosets there are."""
    cols = gc.variable_size(source_key)
    pairs = gc.realize_map(in_key) * cols + gc.realize_map(source_key)
    met, counts = np.unique(pairs, return_counts=True)
    return met // cols, counts


def _best_error(rows: np.ndarray, counts: np.ndarray) -> Fraction:
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return 1 - Fraction(int(np.maximum.reduceat(counts, starts).sum()), int(counts.sum()))


def zero_error_upgrade(
    gc: GroupCharacterization, demands: Sequence[tuple[str, str]]
) -> list[TerminalDecision]:
    """Per-terminal dichotomy between exact decoding and constant error.

    ``demands`` pairs the variable observed by a terminal with the source it
    must reproduce.  When the observed subgroup is contained in the source
    subgroup, the emitted decoder is verified to never err.  Otherwise the
    observed coset meets exactly q demanded cosets, each equally often, so no
    decoder can beat a correct fraction of 1/q; this conditional uniformity
    is verified on the coset overlap counts.
    """
    out = []
    for in_key, source_key in demands:
        order = gc.handle(in_key).order
        meet = gc.meet_order([in_key, source_key])
        if meet == order:  # the observed subgroup lies inside the demanded one
            in_map, src_map = gc.realize_map(in_key), gc.realize_map(source_key)
            decoder = np.empty(gc.variable_size(in_key), dtype=np.int64)
            decoder[in_map] = src_map
            if not np.array_equal(decoder[in_map], src_map):
                raise InternalCheckError("zero-error decoder failed verification")
            out.append(
                TerminalDecision(
                    in_key, source_key, "zero_error", dict(enumerate(decoder.tolist())), None, None
                )
            )
            continue
        q = order // meet
        rows, counts = _coset_overlap(gc, in_key, source_key)
        per_row = np.bincount(rows, minlength=gc.variable_size(in_key))
        if (per_row != q).any() or (counts != meet).any():
            raise InternalCheckError("incoming coset is not uniform over demanded cosets")
        min_error = 1 - Fraction(1, q)
        if q < 2 or min_error < Fraction(1, 2):
            raise InternalCheckError("non-contained subgroup produced q < 2")
        if _best_error(rows, counts) != min_error:
            raise InternalCheckError("best decoder error disagrees with 1 - 1/q")
        out.append(
            TerminalDecision(in_key, source_key, "high_error", None, q, min_error)
        )
    return out


def parse_characterization(data: Mapping) -> GroupCharacterization:
    group = group_from_description(field(data, "group", dict, "characterization"))
    _check_order_cap(group)
    subs = {}
    for name, members in field(data, "subgroups", dict, "characterization").items():
        members = require(members, list, f"subgroup {name!r}")
        subs[name] = subgroup(group, [require(m, int, "subgroup member") for m in members])
    return GroupCharacterization(group, subs)


def load_characterization(path: str) -> GroupCharacterization:
    return parse_characterization(load_json(path))

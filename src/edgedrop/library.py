"""Bundled instances, permutation code families, and identity verifiers.

The butterfly pair exercises edge removal end to end on a linear bottleneck.
The permutation families machine-check the decoding identities of two known
relay schemes over Z_{mw} and Z_{m^(alpha+1)}, including the reassignment
that turns selected relay functions linear, and the Dougherty identity set
is verified over a parametric cyclic alphabet with an optional brute-force
search for the auxiliary map t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .codes import DEFAULT_ENUM_CAP, NetworkCode, tabulate
from .cwl import check_cwl
from .errors import DomainError, InternalCheckError, PreconditionError, ResourceError
from .groups import CyclicGroup
from .network import Edge, NetworkInstance, Source

T_SEARCH_CAP = 1 << 20


def butterfly() -> tuple[NetworkInstance, NetworkCode]:
    """The nine-edge butterfly with binary alphabets and an XOR bottleneck.

    Both terminals demand both sources; the code is zero-error and every
    edge carries one bit.
    """
    edges = (
        Edge("a1", "s1", "u1", 2),
        Edge("a2", "s2", "u2", 2),
        Edge("b1", "u1", "m", 2),
        Edge("b2", "u2", "m", 2),
        Edge("bottleneck", "m", "r", 2),
        Edge("c1", "r", "t1", 2),
        Edge("c2", "r", "t2", 2),
        Edge("d1", "u1", "t1", 2),
        Edge("d2", "u2", "t2", 2),
    )
    inst = NetworkInstance(
        nodes=("s1", "s2", "u1", "u2", "m", "r", "t1", "t2"),
        edges=edges,
        sources=(Source("s1", 2), Source("s2", 2)),
        terminals=("t1", "t2"),
        demands=((1, 1), (1, 1)),
    )
    identity2 = (0, 1)
    code = NetworkCode(
        blocklength=1,
        source_alphabets=(2, 2),
        edge_alphabets={e.id: e.alphabet_size for e in edges},
        encoders={
            "a1": identity2,
            "a2": identity2,
            "b1": identity2,
            "b2": identity2,
            "bottleneck": tabulate([2, 2], lambda x, y: x ^ y),
            "c1": identity2,
            "c2": identity2,
            "d1": identity2,
            "d2": identity2,
        },
        decoders={
            # Inputs sort as (c1, d1); x2 is recovered from the ring sum.
            "t1": tuple(
                (d, c ^ d) for c, d in itertools.product(range(2), range(2))
            ),
            "t2": tuple(
                (c ^ d, d) for c, d in itertools.product(range(2), range(2))
            ),
        },
    )
    return inst, code


def butterfly4() -> tuple[NetworkInstance, NetworkCode]:
    """Butterfly variant with size-4 sources and a one-bit bottleneck.

    The bottleneck carries the parity of the source sum; each terminal
    additionally receives the other source's high bit over a cross edge, so
    the code stays zero-error at two bits per source.
    """
    edges = (
        Edge("a1", "s1", "u1", 4),
        Edge("a2", "s2", "u2", 4),
        Edge("b1", "u1", "m", 2),
        Edge("b2", "u2", "m", 2),
        Edge("bottleneck", "m", "r", 2),
        Edge("c1", "r", "t1", 2),
        Edge("c2", "r", "t2", 2),
        Edge("d1", "u1", "t1", 4),
        Edge("d2", "u2", "t2", 4),
        Edge("h1", "u1", "t2", 2),
        Edge("h2", "u2", "t1", 2),
    )
    inst = NetworkInstance(
        nodes=("s1", "s2", "u1", "u2", "m", "r", "t1", "t2"),
        edges=edges,
        sources=(Source("s1", 4), Source("s2", 4)),
        terminals=("t1", "t2"),
        demands=((1, 1), (1, 1)),
    )
    identity4 = (0, 1, 2, 3)
    code = NetworkCode(
        blocklength=1,
        source_alphabets=(4, 4),
        edge_alphabets={e.id: e.alphabet_size for e in edges},
        encoders={
            "a1": identity4,
            "a2": identity4,
            "b1": tabulate([4], lambda x: x % 2),
            "b2": tabulate([4], lambda x: x % 2),
            "bottleneck": tabulate([2, 2], lambda x, y: x ^ y),
            "c1": (0, 1),
            "c2": (0, 1),
            "d1": identity4,
            "d2": identity4,
            "h1": tabulate([4], lambda x: x // 2),
            "h2": tabulate([4], lambda x: x // 2),
        },
        decoders={
            # Inputs sort as (c1, d1, h2); the missing low bit is the
            # bottleneck parity corrected by the known source's low bit.
            "t1": tuple(
                (d, 2 * h + (c ^ (d % 2)))
                for c, d, h in itertools.product(range(2), range(4), range(2))
            ),
            "t2": tuple(
                (2 * h + (c ^ (d % 2)), d)
                for c, d, h in itertools.product(range(2), range(4), range(2))
            ),
        },
    )
    return inst, code


@dataclass(frozen=True)
class PermutationFamily:
    """Explicit bijections on Z_modulus, indexed from 1 in reports."""

    modulus: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for l, perm in enumerate(self.perms, start=1):
            if sorted(perm) != list(range(self.modulus)):
                raise DomainError(f"permutation {l} is not a bijection on the ring")

    def inverse(self, l: int) -> tuple[int, ...]:
        perm = self.perms[l - 1]
        inv = [0] * self.modulus
        for a, b in enumerate(perm):
            inv[b] = a
        return tuple(inv)


def n2_permutations(m: int, w: int) -> PermutationFamily:
    """The w block-rotation permutations on Z_{mw}.

    Writing a = q*m + r with 0 <= r < m, permutation l advances r by one
    (mod m) inside the block q = l and fixes everything else; since q never
    reaches w, the last permutation is the identity.
    """
    if m < 2:
        raise DomainError(f"block size must be >= 2, got {m}")
    if w < 1:
        raise DomainError(f"at least one block is required, got {w}")
    modulus = m * w
    perms = []
    for l in range(1, w + 1):
        table = []
        for a in range(modulus):
            q, r = divmod(a, m)
            table.append(q * m + (r + 1) % m if q == l else a)
        perms.append(tuple(table))
    family = PermutationFamily(modulus, tuple(perms))
    if family.perms[w - 1] != tuple(range(modulus)):
        raise InternalCheckError("last permutation is not the identity")
    return family


@dataclass(frozen=True)
class N2Report:
    """Outcome of the relay-scheme identity check over Z_{mw}."""

    modulus: int
    assignment: tuple[int, ...]
    checked: int
    violations: tuple[str, ...]
    linear_slots: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "assignment": list(self.assignment),
            "checked": self.checked,
            "violations": list(self.violations),
            "linear_slots": list(self.linear_slots),
            "ok": self.ok,
        }


def n2_code_check(
    m: int,
    w: int,
    assignment=None,
    perms=None,
    cap: int | None = None,
) -> N2Report:
    """Verify the relay scheme's decoding identities for every source tuple.

    Slot l carries ``e = pi(z) + sum of x_j`` beside ``e_i = pi(z) + sum
    over j != i`` and ``e_0 = sum of x_j``; decoding recovers each x_i as
    ``e - e_i`` and z by inverting pi on ``e - e_0``.  Both identities
    depend on a source tuple only through z, one source symbol and the sum
    of the others, so enumerating those three ring values is exhaustive for
    any number of sources at once.

    ``assignment`` maps each slot to the permutation it uses (1-based,
    default slot l uses permutation l); assigning the identity permutation
    w keeps decoding valid and makes the slot's relay functions linear,
    which is confirmed through check_cwl over cyclic groups.  ``perms``
    substitutes raw permutation tables, letting deliberately broken ones
    surface as reported violations.
    """
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    checked = w * (m * w) ** 3
    if checked > cap:
        raise ResourceError(f"identity check needs {checked} cases, cap is {cap}")
    family = n2_permutations(m, w)
    modulus = family.modulus
    tables = tuple(tuple(p) for p in perms) if perms is not None else family.perms
    if len(tables) != w:
        raise DomainError(f"expected {w} permutation tables, got {len(tables)}")
    for l, table in enumerate(tables, start=1):
        if len(table) != modulus or any(not 0 <= v < modulus for v in table):
            raise DomainError(f"permutation {l} is not total on the ring")
    if assignment is None:
        assignment = tuple(range(1, w + 1))
    else:
        assignment = tuple(assignment)
        if len(assignment) != w or any(not 1 <= l <= w for l in assignment):
            raise DomainError("assignment must pick one permutation per slot")

    violations = []
    for slot in range(1, w + 1):
        pi = tables[assignment[slot - 1] - 1]
        preimages: dict[int, list[int]] = {}
        for z in range(modulus):
            preimages.setdefault(pi[z], []).append(z)
        for z in range(modulus):
            if preimages[pi[z]] != [z]:
                violations.append(
                    f"slot {slot}: z recovery ambiguous at z={z} "
                    f"(preimages {preimages[pi[z]]})"
                )
            for others in range(modulus):
                for x in range(modulus):
                    ei = (pi[z] + others) % modulus
                    e = (pi[z] + others + x) % modulus
                    e0 = (others + x) % modulus
                    if (e - ei) % modulus != x:
                        violations.append(
                            f"slot {slot}: source recovery fails at z={z}, x={x}"
                        )
                    if (e - e0) % modulus != pi[z]:
                        violations.append(
                            f"slot {slot}: z image mismatch at z={z}"
                        )
            if len(violations) >= 8:
                return N2Report(modulus, assignment, checked, tuple(violations), ())

    ring = CyclicGroup(modulus)
    full = tuple(range(modulus))
    linear = []
    for slot in range(1, w + 1):
        if assignment[slot - 1] != w:
            continue
        # With pi the identity all three relay functions are ring sums of
        # their aggregated inputs.
        e_fn = tabulate([modulus, modulus], lambda z, s: (z + s) % modulus)
        pair = check_cwl(e_fn, [ring, ring], ring, full)
        solo = check_cwl(full, [ring], ring, full)
        if pair is not None and solo is not None:
            linear.append(slot)
        else:
            violations.append(f"slot {slot}: identity-assigned relay is not linear")
    return N2Report(modulus, assignment, checked, tuple(violations), tuple(linear))


def n3_permutations(m: int, alpha: int, cap: int | None = None) -> PermutationFamily:
    """Identity and base-m digit rotation on Z_{m^(alpha+1)}, whose order
    may not exceed ``cap``."""
    if m < 2:
        raise DomainError(f"digit base must be >= 2, got {m}")
    if alpha < 1:
        raise DomainError(f"at least two digits are required, got alpha={alpha}")
    cap = DEFAULT_ENUM_CAP if cap is None else cap
    # With m >= 2 the order is at least 2^(alpha+1), so a large alpha is
    # refused before the power is taken.
    if alpha + 1 > cap.bit_length() or m ** (alpha + 1) > cap:
        raise ResourceError(f"ring of order {m}^{alpha + 1} is above the cap of {cap}")
    modulus = m ** (alpha + 1)
    rotation = []
    for a in range(modulus):
        digits = []
        rest = a
        for _ in range(alpha + 1):
            digits.append(rest % m)
            rest //= m
        rotated = digits[alpha]
        for i in range(alpha):
            rotated += m ** (i + 1) * digits[i]
        rotation.append(rotated)
    return PermutationFamily(modulus, (tuple(range(modulus)), tuple(rotation)))


@dataclass(frozen=True)
class N3Report:
    """Outcome of the two-coordinate injectivity check on Z_{m^(alpha+1)}."""

    m: int
    s: int
    alpha: int
    injective: bool
    collision: tuple[int, int, tuple[int, int]] | None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "s": self.s,
            "alpha": self.alpha,
            "injective": self.injective,
            "collision": list(self.collision) if self.collision else None,
        }


def n3_injectivity(m: int, s: int, alpha: int, cap: int | None = None) -> N3Report:
    """Exhaustively check injectivity of a ↦ (m·a, s·m^alpha·rot(a)).

    Both coordinates are taken mod m^(alpha+1) with rot the base-m digit
    rotation; s must be coprime to m, which the underlying argument relies
    on.  Returns the first colliding pair when injectivity fails.  The
    m^(alpha+1) ring elements are enumerated only when ``cap`` allows them.
    """
    family = n3_permutations(m, alpha, cap)
    if s < 1:
        raise DomainError(f"multiplier must be >= 1, got {s}")
    if math.gcd(m, s) != 1:
        raise PreconditionError(f"multiplier {s} shares a factor with base {m}")
    modulus = family.modulus
    rotation = family.perms[1]
    seen: dict[tuple[int, int], int] = {}
    for a in range(modulus):
        image = ((m * a) % modulus, (s * m ** alpha * rotation[a]) % modulus)
        if image in seen:
            return N3Report(m, s, alpha, False, (seen[image], a, image))
        seen[image] = a
    return N3Report(m, s, alpha, True, None)


DOUGHERTY_IDENTITIES = ("n40", "n41", "n42", "n43", "n44", "n45", "n46")


@dataclass(frozen=True)
class DoughertyReport:
    """Outcome of the Dougherty decoding-identity check over Z_q.

    ``identities`` pairs each identity name with whether it held and the
    first counterexample tuple (a, b, c, d, e) otherwise; ``discovered``
    lists every map t passing all identities when a search ran.
    """

    alphabet_size: int
    t: tuple[int, ...] | None
    identities: tuple[tuple[str, bool, tuple[int, ...] | None], ...]
    discovered: tuple[tuple[int, ...], ...] | None

    @property
    def ok(self) -> bool:
        return bool(self.identities) and all(h for _, h, _ in self.identities)

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "t": list(self.t) if self.t is not None else None,
            "identities": [
                {"name": n, "holds": h, "counterexample": list(c) if c else None}
                for n, h, c in self.identities
            ],
            "discovered": [list(t) for t in self.discovered]
            if self.discovered is not None
            else None,
        }


def _dougherty_failures(q: int, t: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """First counterexample per identity, evaluating the substituted messages."""
    failures: dict[str, tuple[int, ...]] = {}
    for combo in itertools.product(range(q), repeat=5):
        a, b, c, d, e = combo
        e19 = (a + b + t[c]) % q
        e20 = (c + d + e) % q
        e31 = (a + b) % q
        e32 = (a + t[c]) % q
        e33 = (b + t[c]) % q
        e34 = (c + d) % q
        e35 = (c + e) % q
        e36 = (d + e) % q
        checks = (
            ("n40", c == t[(e19 - e31) % q]),
            ("n41", b == (e19 - e32) % q),
            ("n42", a == (e19 - e33) % q),
            ("n43", c == (e33 + e32 - e31 + t[(e34 + e35 - e36) % q]) % q),
            ("n44", e == (e20 - e34) % q),
            ("n45", d == (e20 - e35) % q),
            ("n46", c == (e20 - e36) % q),
        )
        for name, holds in checks:
            if not holds and name not in failures:
                failures[name] = combo
        if len(failures) == len(DOUGHERTY_IDENTITIES):
            break
    return failures


def dougherty_identity_check(
    alphabet_size: int,
    t=None,
    with_t_search: bool = False,
    enum_cap: int | None = None,
    search_cap: int = T_SEARCH_CAP,
) -> DoughertyReport:
    """Check the seven decoding identities of the modified Dougherty code.

    Messages are rebuilt from their definitions over Z_q for every tuple
    (a, b, c, d, e); the identities then constrain only the auxiliary map
    t, which must satisfy t(t(c)) = c and 2t(c) + t(2c) = c.  ``t`` is
    never assumed: pass one to check it, or set ``with_t_search`` to
    brute-force all q^q candidates (filtered by the two pointwise
    constraints, survivors re-checked exhaustively).
    """
    q = alphabet_size
    if q < 2:
        raise DomainError(f"alphabet size must be >= 2, got {q}")
    if t is None and not with_t_search:
        raise DomainError("a map t is required unless a search is requested")
    cap = DEFAULT_ENUM_CAP if enum_cap is None else enum_cap
    if q ** 5 > cap:
        raise ResourceError(f"identity check needs {q ** 5} cases, cap is {cap}")

    identities: tuple = ()
    fixed = None
    if t is not None:
        fixed = tuple(t)
        if len(fixed) != q or any(not 0 <= v < q for v in fixed):
            raise DomainError("t must be total on the alphabet")
        failures = _dougherty_failures(q, fixed)
        identities = tuple(
            (name, name not in failures, failures.get(name))
            for name in DOUGHERTY_IDENTITIES
        )

    discovered = None
    if with_t_search:
        if q ** q > search_cap:
            raise ResourceError(f"t search needs {q ** q} candidates, cap is {search_cap}")
        found = []
        for cand in itertools.product(range(q), repeat=q):
            if any(cand[cand[c]] != c for c in range(q)):
                continue
            if any((2 * cand[c] + cand[(2 * c) % q]) % q != c for c in range(q)):
                continue
            if not _dougherty_failures(q, cand):
                found.append(cand)
        discovered = tuple(found)
    return DoughertyReport(q, fixed, identities, discovered)

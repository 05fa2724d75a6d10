"""Bundled instances, permutation code families, and identity verifiers.

The butterfly family exercises edge removal end to end on a linear bottleneck.
The permutation families machine-check the decoding identities of two known
relay schemes over Z_{mw} and Z_{m^(alpha+1)}, including the reassignment
that turns selected relay functions linear, and the Dougherty identity set
is verified over a parametric cyclic alphabet with an optional brute-force
search for the auxiliary map t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .codes import DEFAULT_ENUM_CAP, NetworkCode, index_digits, pack, tabulate
from .errors import DomainError, InternalCheckError, PreconditionError, ResourceError
from .network import Edge, NetworkInstance, Source

T_SEARCH_CAP = 1 << 20


def butterfly(n: int = 2) -> tuple[NetworkInstance, NetworkCode]:
    """The butterfly with size-n sources and a one-bit bottleneck.

    Edge ``bi`` carries ``xi mod 2`` and the bottleneck their XOR; when
    n > 2, cross edges ``hi`` carry ``xi div 2`` to the far terminal, so
    both terminals decode both sources with zero error.  ``butterfly()``
    is the binary case study, ``butterfly(4)`` the wide one.
    """
    if n < 2 or n % 2:
        raise DomainError(f"source alphabet {n} must be even and at least 2")
    q = 2
    edges = [
        Edge("a1", "s1", "u1", n),
        Edge("a2", "s2", "u2", n),
        Edge("b1", "u1", "m", q),
        Edge("b2", "u2", "m", q),
        Edge("bottleneck", "m", "r", q),
        Edge("c1", "r", "t1", q),
        Edge("c2", "r", "t2", q),
        Edge("d1", "u1", "t1", n),
        Edge("d2", "u2", "t2", n),
    ]
    identity, low = tuple(range(n)), tabulate([n], lambda x: x % q)
    encoders = {
        "a1": identity,
        "a2": identity,
        "b1": low,
        "b2": low,
        "bottleneck": tabulate([q, q], lambda x, y: (x + y) % q),
        "c1": tuple(range(q)),
        "c2": tuple(range(q)),
        "d1": identity,
        "d2": identity,
    }
    high = []
    if n > q:
        high = [n // q]
        edges += [Edge("h1", "u1", "t2", n // q), Edge("h2", "u2", "t1", n // q)]
        encoders["h1"] = encoders["h2"] = tabulate([n], lambda x: x // q)

    def far(c, d, h=0):
        # The far source: its high part from the cross edge, its low part
        # the bottleneck sum less the near source's low part.
        return q * h + (c - d) % q

    inst = NetworkInstance(
        nodes=("s1", "s2", "u1", "u2", "m", "r", "t1", "t2"),
        edges=tuple(edges),
        sources=(Source("s1", n), Source("s2", n)),
        terminals=("t1", "t2"),
        demands=((1, 1), (1, 1)),
    )
    code = NetworkCode(
        blocklength=1,
        source_alphabets=(n, n),
        edge_alphabets={e.id: e.alphabet_size for e in edges},
        encoders=encoders,
        # Inputs sort as (c, d, h) at either terminal.
        decoders={
            "t1": tabulate([q, n, *high], lambda c, d, *h: (d, far(c, d, *h))),
            "t2": tabulate([q, n, *high], lambda c, d, *h: (far(c, d, *h), d)),
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
    ok: bool = field(init=False)  # no violations; a field, so the report carries it

    def __post_init__(self):
        object.__setattr__(self, "ok", not self.violations)


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

    from .cwl import check_cwl
    from .groups import CyclicGroup

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
    # The rotation moves the top base-m digit to the bottom.
    top, rest = index_digits(np.arange(modulus), (m, m**alpha))
    rotation = pack((rest, top), (m**alpha, m))
    return PermutationFamily(modulus, (tuple(range(modulus)), tuple(rotation.tolist())))


@dataclass(frozen=True)
class N3Report:
    """Outcome of the two-coordinate injectivity check on Z_{m^(alpha+1)}."""

    m: int
    s: int
    alpha: int
    injective: bool
    collision: tuple[int, int, tuple[int, int]] | None


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
class IdentityOutcome:
    """Whether one named identity held, and its first counterexample tuple
    (a, b, c, d, e) when it did not."""

    name: str
    holds: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class DoughertyReport:
    """Outcome of the Dougherty decoding-identity check over Z_q.

    ``identities`` holds one outcome per identity when a map t was given;
    ``discovered`` lists every map t passing all identities when a search
    ran.
    """

    alphabet_size: int
    t: tuple[int, ...] | None
    identities: tuple[IdentityOutcome, ...]
    discovered: tuple[tuple[int, ...], ...] | None

    @property
    def ok(self) -> bool:
        return bool(self.identities) and all(i.holds for i in self.identities)


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
) -> DoughertyReport:
    """Check the seven decoding identities of the modified Dougherty code.

    Messages are rebuilt from their definitions over Z_q for every tuple
    (a, b, c, d, e); the identities then constrain only the auxiliary map
    t, which must satisfy t(t(c)) = c and 2t(c) + t(2c) = c.  ``t`` is
    never assumed: pass one to check it, or set ``with_t_search`` to
    brute-force all q^q candidates, at most ``T_SEARCH_CAP`` (filtered by
    the two pointwise constraints, survivors re-checked exhaustively).
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
            IdentityOutcome(name, name not in failures, failures.get(name))
            for name in DOUGHERTY_IDENTITIES
        )

    discovered = None
    if with_t_search:
        if q ** q > T_SEARCH_CAP:
            raise ResourceError(f"t search needs {q ** q} candidates, cap is {T_SEARCH_CAP}")
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

"""Tests for the bundled instances, permutation families, and identity checks."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from conftest import evaluate_global, json_bytes, oracle_digits, oracle_index
from edgedrop import library
from edgedrop.codes import build_global_table, check_feasibility
from edgedrop.cwl import cwl_remove, derive_edge_group
from edgedrop.errors import DomainError, PreconditionError, ResourceError
from edgedrop.library import (
    PermutationFamily,
    butterfly,
    dougherty_identity_check,
    n2_code_check,
    n2_permutations,
    n3_injectivity,
    n3_permutations,
)
from edgedrop.groups import CyclicGroup
from edgedrop.network import validate_instance


def test_butterfly_shape_and_feasibility():
    inst, code = butterfly()
    assert validate_instance(inst) == []
    assert len(inst.edges) == 9
    table = build_global_table(inst, code)
    assert table.error == 0
    report = check_feasibility(build_global_table(inst, code), Fraction(0), (2, 2))
    assert report.verdict


def test_wide_butterfly_shape_and_feasibility():
    inst, code = butterfly(4)
    assert validate_instance(inst) == []
    assert len(inst.edges) == 11
    table = build_global_table(inst, code)
    assert table.error == 0
    report = check_feasibility(build_global_table(inst, code), Fraction(0), (4, 4))
    assert report.verdict
    # The bottleneck still carries a single bit.
    assert code.edge_alphabets["bottleneck"] == 2


@pytest.mark.parametrize("n", [6, 8])
def test_butterfly_family_against_the_scalar_oracle(n):
    """Shapes no golden report covers: zero error, every table row as the
    scalar oracle evaluates it, and a CWL removal of the bottleneck that
    keeps n/2 symbols per source."""
    inst, code = butterfly(n)
    assert validate_instance(inst) == []
    assert len(inst.edges) == 11
    table = build_global_table(inst, code)
    assert table.error == 0
    assert check_feasibility(build_global_table(inst, code), Fraction(0), (n, n)).verdict
    for idx, row in enumerate(table.rows.tolist()):
        assert tuple(row) == evaluate_global(inst, code, oracle_digits(idx, (n, n)))
    phi = table.edge_values("bottleneck")
    groups = [CyclicGroup(n), CyclicGroup(n)]
    w = derive_edge_group(phi, groups)
    cert = cwl_remove(table, "bottleneck", w, Fraction(0)).certificate
    assert cert.achieved_cardinalities == (n // 2, n // 2)
    assert cert.feasibility.verdict


@pytest.mark.parametrize("n", [3, 1, 0, -2])
def test_butterfly_refuses_an_odd_or_empty_source_alphabet(n):
    with pytest.raises(DomainError):
        butterfly(n)


def test_n2_permutations_small_oracle():
    family = n2_permutations(2, 2)
    assert family.modulus == 4
    # pi_1 rotates inside the block {2, 3} and fixes the block {0, 1};
    # pi_2 never finds its block and is the identity.
    assert family.perms == ((0, 1, 3, 2), (0, 1, 2, 3))


def test_n2_permutations_bijective_sweep():
    for m in range(2, 7):
        for w in range(1, 7):
            family = n2_permutations(m, w)
            assert family.modulus == m * w
            for perm in family.perms:
                assert sorted(perm) == list(range(m * w))
            assert family.perms[w - 1] == tuple(range(m * w))


def test_n2_permutations_argument_errors():
    with pytest.raises(DomainError):
        n2_permutations(1, 2)
    with pytest.raises(DomainError):
        n2_permutations(2, 0)


def test_n2_code_check_default_assignment():
    report = n2_code_check(2, 2)
    assert report.ok
    assert report.assignment == (1, 2)
    assert report.checked == 2 * 4 ** 3
    # Only the slot assigned the identity permutation is linear.
    assert report.linear_slots == (2,)


def test_n2_code_check_identity_reassignment():
    report = n2_code_check(2, 2, assignment=(2, 2))
    assert report.ok
    assert report.linear_slots == (1, 2)
    d = json.loads(json_bytes(report))
    assert d["ok"] is True
    assert d["linear_slots"] == [1, 2]


def test_n2_code_check_broken_permutation():
    # A constant table is total but collapses every z, so recovery of z is
    # reported as ambiguous rather than rejected up front.
    report = n2_code_check(2, 2, perms=((0, 0, 0, 0), (0, 1, 2, 3)))
    assert not report.ok
    assert any("z recovery ambiguous" in v for v in report.violations)


def test_n2_code_check_argument_errors():
    with pytest.raises(DomainError):
        n2_code_check(2, 2, assignment=(1,))
    with pytest.raises(DomainError):
        n2_code_check(2, 2, assignment=(1, 3))
    with pytest.raises(DomainError):
        n2_code_check(2, 2, perms=((0, 1, 2, 3),))
    with pytest.raises(DomainError):
        n2_code_check(2, 2, perms=((0, 1, 2, 9), (0, 1, 2, 3)))
    with pytest.raises(ResourceError):
        n2_code_check(2, 2, cap=10)


def test_n2_code_check_honours_the_cap_before_building_permutations(monkeypatch):
    def refuse(m, w):
        raise AssertionError("permutations built before the cap check")

    monkeypatch.setattr(library, "n2_permutations", refuse)
    with pytest.raises(ResourceError, match=r"w \* \(m \* w\)\^3 cases, above the cap of 1$"):
        n2_code_check(100, 100, cap=1)


def test_case_study_caps_are_exact():
    """Each cap admits a count equal to it and refuses one above it."""
    assert n2_code_check(2, 2, cap=2 * 4**3).ok
    with pytest.raises(ResourceError):
        n2_code_check(2, 2, cap=2 * 4**3 - 1)
    assert dougherty_identity_check(4, t=(0, 1, 3, 2), enum_cap=4**5).ok
    with pytest.raises(ResourceError):
        dougherty_identity_check(4, t=(0, 1, 3, 2), enum_cap=4**5 - 1)
    assert n3_permutations(3, 2, cap=27).modulus == 27
    with pytest.raises(ResourceError):
        n3_permutations(3, 2, cap=26)
    with pytest.raises(ResourceError, match=r"alphabet\^alphabet .* the cap of 1048576"):
        dougherty_identity_check(8, with_t_search=True)


class _NoLargePower(int):
    """An int that refuses to be raised to a power of more than 4,096 bits;
    a product with it is one too."""

    def __pow__(self, exp, mod=None):
        if exp * self.bit_length() > 4096:
            raise AssertionError(f"took a power of {exp} bits-times-{self.bit_length()}")
        return int(self) ** exp

    def __mul__(self, other):
        return _NoLargePower(int(self) * other)

    __rmul__ = __mul__


@pytest.mark.parametrize(
    "call",
    [
        lambda: n2_code_check(_NoLargePower(10**1500), _NoLargePower(1)),
        lambda: dougherty_identity_check(_NoLargePower(10**900), t=(0,)),
        lambda: dougherty_identity_check(_NoLargePower(10**6), with_t_search=True, enum_cap=10**33),
        lambda: n3_permutations(_NoLargePower(10**900), 2),
    ],
    ids=["n2", "dougherty", "dougherty-search", "n3"],
)
def test_case_study_caps_take_no_power_of_the_parameters(call):
    """A parameter of any size is refused without its power: the three
    case-study runs that exited 3 took, or wrote, one of thousands of digits."""
    with pytest.raises(ResourceError, match="above the cap of"):
        call()


def test_n3_rotation_oracle():
    family = n3_permutations(2, 1)
    assert family.modulus == 4
    assert family.perms[0] == (0, 1, 2, 3)
    # Two base-2 digits swap: 1 = 01 -> 10 = 2 and back.
    assert family.perms[1] == (0, 2, 1, 3)
    # Base-3 digit swap: 5 = (2, 1) -> (1, 2) = 7.
    assert n3_permutations(3, 1).perms[1][5] == 7
    # Every base-m digit moves up one place and the top one wraps to the bottom.
    for m, alpha in [(2, 4), (3, 2), (4, 3), (5, 2), (7, 1)]:
        sizes = [m] * (alpha + 1)
        expected = []
        for a in range(m ** (alpha + 1)):
            digits = oracle_digits(a, sizes)
            expected.append(oracle_index(digits[1:] + digits[:1], sizes))
        assert n3_permutations(m, alpha).perms[1] == tuple(expected)


def test_n3_injectivity_images():
    report = n3_injectivity(2, 1, 1)
    assert report.injective
    assert report.collision is None
    rotation = n3_permutations(2, 1).perms[1]
    images = [((2 * a) % 4, (2 * rotation[a]) % 4) for a in range(4)]
    assert images == [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert json.loads(json_bytes(report))["injective"] is True


def test_n3_injectivity_sweep():
    for m in range(2, 5):
        for alpha in range(1, 4):
            for s in range(1, 8):
                if math.gcd(m, s) != 1:
                    continue
                assert n3_injectivity(m, s, alpha).injective


def test_n3_argument_errors():
    with pytest.raises(DomainError):
        n3_permutations(1, 1)
    with pytest.raises(DomainError):
        n3_permutations(2, 0)
    with pytest.raises(DomainError):
        n3_injectivity(2, 0, 1)
    with pytest.raises(PreconditionError):
        n3_injectivity(2, 2, 1)
    with pytest.raises(PreconditionError):
        n3_injectivity(6, 3, 1)


def test_permutation_family_validation():
    with pytest.raises(DomainError):
        PermutationFamily(3, ((0, 1, 1),))
    family = n2_permutations(3, 2)
    for perm in family.perms:
        assert sorted(perm) == list(range(family.modulus))


def test_dougherty_valid_t():
    report = dougherty_identity_check(4, t=(0, 1, 3, 2))
    assert report.ok
    assert report.t == (0, 1, 3, 2)
    assert report.discovered is None
    assert all(i.counterexample is None for i in report.identities)


def test_dougherty_search_q4():
    report = dougherty_identity_check(4, with_t_search=True)
    assert report.discovered == ((0, 1, 3, 2), (0, 2, 1, 3))
    # Every survivor satisfies both pointwise constraints on t.
    for t in report.discovered:
        for c in range(4):
            assert t[t[c]] == c
            assert (2 * t[c] + t[(2 * c) % 4]) % 4 == c


def test_dougherty_search_small_alphabets():
    # No involution on Z_2 satisfies 2t(c) + t(2c) = c at c = 1; on Z_3
    # the identity map is the unique solution.
    assert dougherty_identity_check(2, with_t_search=True).discovered == ()
    assert dougherty_identity_check(3, with_t_search=True).discovered == ((0, 1, 2),)


def test_dougherty_difference_identities_hold_for_any_t():
    # Five of the seven identities cancel t algebraically, so an arbitrary
    # total map only breaks the two that constrain it.
    report = dougherty_identity_check(5, t=(3, 3, 0, 2, 1))
    held = {i.name: i.holds for i in report.identities}
    assert held == {
        "n40": False,
        "n41": True,
        "n42": True,
        "n43": False,
        "n44": True,
        "n45": True,
        "n46": True,
    }
    assert not report.ok


def test_dougherty_counterexample_pinpoints_constraint():
    report = dougherty_identity_check(2, t=(0, 1))
    failures = {i.name: (i.holds, i.counterexample) for i in report.identities}
    assert failures["n43"] == (False, (0, 0, 1, 0, 0))
    assert all(holds for name, (holds, _) in failures.items() if name != "n43")
    d = json.loads(json_bytes(report))
    assert d["identities"][3]["counterexample"] == [0, 0, 1, 0, 0]


def test_dougherty_argument_errors():
    with pytest.raises(DomainError):
        dougherty_identity_check(1, t=(0,))
    with pytest.raises(DomainError):
        dougherty_identity_check(4)
    with pytest.raises(DomainError):
        dougherty_identity_check(4, t=(0, 1, 2))
    with pytest.raises(ResourceError):
        dougherty_identity_check(64, t=tuple(range(64)))
    with pytest.raises(ResourceError):
        dougherty_identity_check(8, with_t_search=True)


def test_dougherty_brute_force_agrees_with_report():
    # Re-derive the q = 4 verdict from the raw message definitions, without
    # the library's counterexample bookkeeping.
    q = 4
    t = (0, 2, 1, 3)
    ok = True
    for a, b, c, d, e in itertools.product(range(q), repeat=5):
        e19 = (a + b + t[c]) % q
        e20 = (c + d + e) % q
        e31, e32, e33 = (a + b) % q, (a + t[c]) % q, (b + t[c]) % q
        e34, e35, e36 = (c + d) % q, (c + e) % q, (d + e) % q
        ok &= c == t[(e19 - e31) % q]
        ok &= b == (e19 - e32) % q and a == (e19 - e33) % q
        ok &= c == (e33 + e32 - e31 + t[(e34 + e35 - e36) % q]) % q
        ok &= e == (e20 - e34) % q and d == (e20 - e35) % q
        ok &= c == (e20 - e36) % q
    assert ok
    assert dougherty_identity_check(q, t=t).ok

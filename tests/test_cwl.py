"""Homomorphism witnesses, class partitions and the search plumbing."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    ReferenceGroup,
    as_lists,
    characterize_witness,
    check_claims_on_original,
    classes_equal_sized,
    coordinate_classes,
    json_bytes,
    oracle_class_pick,
    oracle_coordinate_classes,
    oracle_cosets,
    oracle_digits,
    oracle_is_homomorphism,
    oracle_is_subgroup,
    random_balanced_map,
    random_coordinate_characterization,
    random_hom_witness,
    relabel_balanced,
    relabel_table,
    s3,
)
from edgedrop import cwl
from edgedrop.cli import _witness_dict
from edgedrop.codes import (
    NetworkCode,
    build_global_table,
    index_digits,
    pack,
    relay_instance,
    tabulate,
)
from edgedrop.cwl import (
    CwlWitness,
    SearchBudget,
    _candidate_count,
    _source_candidates,
    abelian_structures,
    certify_cwl,
    check_cwl,
    check_piecewise,
    cwl_remove,
    cwl_search,
    derive_edge_group,
    piecewise_remove,
    witness_partition,
)
from edgedrop.errors import DomainError, InternalCheckError, PreconditionError
from edgedrop.groupcodes import (
    abelian_removal_plan,
    independent_sources,
    normalized_sources,
)
from edgedrop.groups import (
    CyclicGroup,
    ProductGroup,
    TableGroup,
    coset_labels,
    generated_subgroup,
    is_homomorphism,
    is_subgroup,
)
from edgedrop.library import butterfly
from edgedrop.removal import SourcePartition, fiber_edge_values, fibers_are_products


def _xor_witness():
    phi = tabulate([2, 2], lambda a, b: a ^ b)
    groups = [CyclicGroup(2), CyclicGroup(2)]
    return check_cwl(phi, groups, CyclicGroup(2), (0, 1))


def test_check_cwl_accepts_xor():
    w = _xor_witness()
    assert w is not None
    assert w.hom.tolist() == [0, 1, 1, 0]
    assert w.edge_support == (0, 1)
    assert w.phi_table().tolist() == [0, 1, 1, 0]


def test_check_cwl_rejects_and():
    phi = tabulate([2, 2], lambda a, b: a & b)
    groups = [CyclicGroup(2), CyclicGroup(2)]
    assert check_cwl(phi, groups, CyclicGroup(2), (0, 1)) is None


def test_check_cwl_mod3_sum():
    phi = tabulate([3, 3], lambda a, b: (a + b) % 3)
    groups = [CyclicGroup(3), CyclicGroup(3)]
    w = check_cwl(phi, groups, CyclicGroup(3), (0, 1, 2))
    assert w is not None


def test_check_cwl_argument_errors():
    phi = tabulate([2, 2], lambda a, b: a ^ b)
    groups = [CyclicGroup(2), CyclicGroup(2)]
    with pytest.raises(DomainError):
        check_cwl(phi, [], CyclicGroup(2), (0, 1))
    with pytest.raises(DomainError):
        check_cwl(phi, groups, CyclicGroup(2), (0,))
    with pytest.raises(DomainError):
        check_cwl(phi, groups, CyclicGroup(2), (0, 0))
    # Support symbol 2 never occurs in the image.
    assert check_cwl(phi, groups, CyclicGroup(2), (0, 2)) is None


def test_check_cwl_refuses_tuple_keyed_mapping():
    phi = {(a, b): a ^ b for a in range(2) for b in range(2)}
    with pytest.raises(DomainError, match="encoding function"):
        check_cwl(phi, [CyclicGroup(2), CyclicGroup(2)], CyclicGroup(2), (0, 1))


def test_derive_edge_group_from_negated_xor():
    phi = (1, 0, 0, 1)
    groups = [CyclicGroup(2), CyclicGroup(2)]
    derived = derive_edge_group(phi, groups)
    assert derived is not None
    assert derived.edge_support == (0, 1)
    # Symbol 1 is the image of the identity tuple, so it is the unit.
    assert derived.edge_group.identity == 1
    assert check_cwl(phi, groups, derived.edge_group, derived.edge_support) is not None


def test_derive_edge_group_refuses_and():
    assert derive_edge_group((0, 0, 0, 1), [CyclicGroup(2), CyclicGroup(2)]) is None


def test_witness_partition_low_bit_sum():
    phi = tabulate([4, 4], lambda a, b: (a + b) % 2)
    groups = [CyclicGroup(4), CyclicGroup(4)]
    w = derive_edge_group(phi, groups)
    classes = coordinate_classes(w)
    assert classes == [[[0, 2], [1, 3]], [[0, 2], [1, 3]]]
    assert classes_equal_sized(classes)
    part = witness_partition(w)
    assert part.keys == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert fibers_are_products(part)
    assert all(len(part.members(label)) == 4 for label in part.keys)


def test_cwl_remove_butterfly_rates():
    for n, expected in ((2, (1, 1)), (4, (2, 2))):
        inst, code = butterfly(n)
        table = build_global_table(inst, code)
        phi = table.edge_values("bottleneck")
        groups = [CyclicGroup(s) for s in table.source_sizes]
        w = derive_edge_group(phi, groups)
        result = cwl_remove(table, "bottleneck", w, Fraction(0))
        cert = result.certificate
        assert cert.promised_cardinalities == expected
        assert cert.achieved_cardinalities == expected
        assert cert.feasibility.verdict
        assert cert.eps == 0
        check = build_global_table(result.instance, result.code)
        assert check.error == 0


def test_cwl_remove_rejects_foreign_witness():
    inst, code = butterfly()
    table = build_global_table(inst, code)
    # A witness for the negated function does not match the real column.
    w = check_cwl((1, 0, 0, 1), [CyclicGroup(2), CyclicGroup(2)], CyclicGroup(2), (0, 1))
    assert w is None  # negated xor is not a homomorphism onto plain Z_2
    w = derive_edge_group((1, 0, 0, 1), [CyclicGroup(2), CyclicGroup(2)])
    with pytest.raises(PreconditionError):
        cwl_remove(table, "bottleneck", w, Fraction(0))


def _two_piece_copy():
    """phi copies the second source; xor and xnor each match one half."""
    phi = (0, 1, 0, 1)
    groups = [CyclicGroup(2), CyclicGroup(2)]
    pieces = [
        ([[0], [0, 1]], (0, 1, 1, 0)),
        ([[1], [0, 1]], (1, 0, 0, 1)),
    ]
    return phi, groups, pieces


def test_check_piecewise_two_pieces():
    phi, groups, pieces = _two_piece_copy()
    pw = check_piecewise(phi, groups, (0, 1), pieces)
    assert pw is not None
    assert len(pw.pieces) == 2
    assert pw.edge_support == (0, 1)


def test_check_piecewise_rejects_overlap_and_gaps():
    phi, groups, pieces = _two_piece_copy()
    both = [pieces[0], ([[0, 1], [0, 1]], (1, 0, 0, 1))]
    with pytest.raises(DomainError):
        check_piecewise(phi, groups, (0, 1), both)
    with pytest.raises(DomainError):
        check_piecewise(phi, groups, (0, 1), pieces[:1])
    with pytest.raises(DomainError):
        check_piecewise(phi, groups, (0, 1), [])


def test_check_piecewise_requires_exact_agreement():
    phi, groups, pieces = _two_piece_copy()
    # The copy function itself agrees beyond its declared piece.
    loose = [([[0], [0, 1]], (0, 1, 0, 1)), pieces[1]]
    assert check_piecewise(phi, groups, (0, 1), loose) is None


def test_piecewise_remove_two_pieces():
    phi, groups, pieces = _two_piece_copy()
    pw = check_piecewise(phi, groups, (0, 1), pieces)
    inst, code = relay_instance([2, 2], 2, phi)
    table = build_global_table(inst, code)
    result = piecewise_remove(table, "e", pw)
    cert = result.certificate
    assert cert.promised_cardinalities == (1, 1)
    assert cert.achieved_cardinalities >= (1, 1)
    assert cert.feasibility.verdict
    k = len(pw.pieces)
    support = len(pw.edge_support)
    for kept, size in zip(cert.achieved_cardinalities, table.source_sizes):
        assert kept * support * k >= size


def test_piecewise_remove_requires_zero_error():
    phi, groups, pieces = _two_piece_copy()
    pw = check_piecewise(phi, groups, (0, 1), pieces)
    inst, code = relay_instance([2, 2], 2, phi)
    rows = list(code.decoders["t"])
    rows[0] = (1, 1)
    dented = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        code.encoders,
        {"t": tuple(rows)},
    )
    table = build_global_table(inst, dented)
    with pytest.raises(PreconditionError):
        piecewise_remove(table, "e", pw)


def test_relabel_balanced_roundtrip():
    g = {0: 5, 1: 7, 2: 9, 3: 5, 4: 7, 5: 9}
    domain_labels, codomain_labels, w = relabel_balanced(g)
    assert codomain_labels == {5: 0, 7: 1, 9: 2}
    # Composing the relabelings reproduces the original map.
    for a, value in g.items():
        pos, fiber = domain_labels[a]
        assert fiber == codomain_labels[value]
        assert w.phi_table()[pos * 3 + fiber] == fiber
    assert w.source_sizes == (2, 3)
    assert w.edge_support == (0, 1, 2)


def test_characterize_witness_rejects_one_tuple_off_the_coset_law():
    """One source Z2^18 and edge group Z2^2 with hom = x mod 4, except that
    tuple 1 carries 2.  The kernel is still the subgroup x = 0 mod 4, but the
    edge values now occur 2^16 - 1 and 2^16 + 1 times; H(e) is off log2 4 by
    only 8.4e-11 bits, inside any 1e-9 float tolerance.  The witness is
    built directly because certifying it would reject it for another reason.
    """
    source = ProductGroup([CyclicGroup(2)] * 18)
    hom = np.arange(source.order) % 4
    edge = ProductGroup([CyclicGroup(2)] * 2)
    good = CwlWitness((source,), edge, (0, 1, 2, 3), tuple(hom.tolist()))
    assert characterize_witness(good).variable_size("e") == 4
    hom[1] = 2
    bad = CwlWitness((source,), edge, (0, 1, 2, 3), tuple(hom.tolist()))
    with pytest.raises(InternalCheckError, match="coset law"):
        characterize_witness(bad)


def test_characterize_witness_of_xor():
    gc = characterize_witness(_xor_witness())
    assert sorted(gc.subgroups) == ["e", "s1", "s2"]
    assert gc.group.order == 4
    assert gc.variable_size("s1") == 2
    assert gc.variable_size("e") == 2
    # Joint entropies in bits are log2 of |G| / |intersection|.
    keys = (["s1"], ["s1", "s2"], ["e"], ["s1", "e"])
    assert [gc.group.order // gc.meet_order(k) for k in keys] == [2, 4, 2, 4]
    assert normalized_sources(gc, ["s1", "s2"])
    assert independent_sources(gc, ["s1", "s2"])


def test_abelian_structures_catalog():
    assert [g.order for g in abelian_structures(8)] == [8, 8, 8]
    assert isinstance(abelian_structures(8)[0], CyclicGroup)
    assert len(abelian_structures(12)) == 2
    assert len(abelian_structures(7)) == 1
    for g in abelian_structures(16):
        assert g.is_abelian


def _factors(g) -> tuple[int, ...]:
    """The cyclic factor orders of a catalog entry, from its description."""
    desc = g.describe()
    if desc["kind"] == "cyclic":
        return (desc["order"],)
    assert all(f["kind"] == "cyclic" for f in desc["factors"])
    return tuple(f["order"] for f in desc["factors"])


def _partitions(e: int, largest: int):
    """Partitions of e into parts of at most ``largest``, parts descending."""
    if e == 0:
        yield ()
    for part in range(min(e, largest), 0, -1):
        for rest in _partitions(e - part, part):
            yield (part, *rest)


def _prime_powers(limit: int):
    """(n, p, e) for every prime power n = p**e, 1 < n <= limit."""
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            e = 1
            while p ** e <= limit:
                yield p ** e, p, e
                e += 1


def test_abelian_structures_pins_literal_catalogs():
    assert [_factors(g) for g in abelian_structures(1)] == [(1,)]
    assert [_factors(g) for g in abelian_structures(8)] == [(8,), (4, 2), (2, 2, 2)]
    assert [_factors(g) for g in abelian_structures(16)] == [
        (16,), (4, 4), (8, 2), (4, 2, 2), (2, 2, 2, 2)
    ]
    assert [_factors(g) for g in abelian_structures(27)] == [(27,), (9, 3), (3, 3, 3)]
    assert [_factors(g) for g in abelian_structures(12)] == [(12,), (6, 2)]
    assert [_factors(g) for g in abelian_structures(72)] == [
        (72,), (12, 6), (24, 3), (36, 2), (6, 6, 2), (18, 2, 2)
    ]
    assert abelian_structures(4)[1].describe() == {
        "kind": "product",
        "order": 4,
        "factors": [{"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 2}],
    }
    with pytest.raises(DomainError, match="group order must be >= 1"):
        abelian_structures(0)


def test_prime_power_catalogs_are_the_descending_partitions():
    """A prime power p**e has one type per partition of e, the factors
    p**part largest first, listed shortest first and then ascending."""
    for n, p, e in _prime_powers(1024):
        expected = sorted(
            (tuple(p ** part for part in parts) for parts in _partitions(e, e)),
            key=lambda fs: (len(fs), fs),
        )
        assert [_factors(g) for g in abelian_structures(n)] == expected, n


def test_every_catalog_leads_with_z_n_and_lists_each_type_once():
    """The number of abelian types of order n is the product of the
    partition counts of its prime exponents; each entry is an invariant
    factor chain, each factor dividing the one before it."""
    for n in range(1, 1025):
        catalog = abelian_structures(n)
        assert type(catalog[0]) is CyclicGroup and catalog[0].order == n
        types, rest, p = 1, n, 2
        while rest > 1:
            e = 0
            while rest % p == 0:
                rest, e = rest // p, e + 1
            types *= sum(1 for _ in _partitions(e, e))
            p += 1
        assert len(catalog) == types, n
        chains = [_factors(g) for g in catalog]
        assert len(set(chains)) == len(chains)
        for fs in chains:
            assert math.prod(fs) == n and all(a % b == 0 for a, b in zip(fs, fs[1:]))
            assert fs == (1,) or min(fs) > 1


@pytest.mark.parametrize("n", [6, 12])
def test_cwl_search_certifies_sums_of_composite_order_at_budget_one(n):
    """Z_n leads every catalog, so the sum mod n is certified by the first
    assignment, without a rewrite."""
    inst, code = relay_instance([n, n], n, tabulate([n, n], lambda a, b: (a + b) % n))
    budget = SearchBudget(max_group_assignments=1, max_table_rewrites=0)
    found = cwl_search(build_global_table(inst, code), "e", budget)
    assert found is not None and not found.rewritten
    assert [g.describe() for g in found.witness.source_groups] == [
        {"kind": "cyclic", "order": n}
    ] * 2


def test_search_builds_only_the_candidates_its_budget_reaches(monkeypatch):
    """Z8 x Z8 under the sum: one assignment at 400 relabels per order builds
    the one derived edge group and no relabeled source."""
    built = []
    init = TableGroup.__init__

    def counted(self, table):
        built.append(len(table))
        init(self, table)

    monkeypatch.setattr(TableGroup, "__init__", counted)
    inst, code = relay_instance([8, 8], 8, tabulate([8, 8], lambda a, b: (a + b) % 8))
    table = build_global_table(inst, code)
    budget = SearchBudget(max_group_assignments=1, max_relabels_per_order=400)
    assert cwl_search(table, "e", budget) is not None
    assert built == [8]


def test_cwl_search_finds_relabeled_bottleneck():
    inst, code = butterfly()
    # Negate the bottleneck and compensate in both consumers, keeping the
    # code zero-error while making the column a non-homomorphism onto Z_2.
    encoders = dict(code.encoders)
    encoders["bottleneck"] = tuple(1 - v for v in encoders["bottleneck"])
    encoders["c1"] = (1, 0)
    encoders["c2"] = (1, 0)
    twisted = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        encoders,
        code.decoders,
    )
    table = build_global_table(inst, twisted)
    assert table.error == 0
    assert table.edge_values("bottleneck").tolist() == [1, 0, 0, 1]
    found = cwl_search(build_global_table(inst, twisted), "bottleneck")
    assert found is not None
    assert not found.rewritten
    assert found.witness.edge_support == (0, 1)


def test_cwl_search_rewrite_path():
    inst, code = relay_instance([2, 2], 4, tabulate([2, 2], lambda a, b: a & b))
    found = cwl_search(build_global_table(inst, code), "e")
    assert found is not None
    assert found.rewritten
    # The rewritten edge carries the dense pair index, a bijection.
    new_table = build_global_table(inst, found.code)
    assert new_table.error == 0
    assert sorted(new_table.edge_values("e").tolist()) == [0, 1, 2, 3]
    assert found.witness.edge_support == (0, 1, 2, 3)
    # With rewrites disabled the same search gives up.
    capped = SearchBudget(max_group_assignments=64, max_table_rewrites=0)
    assert cwl_search(build_global_table(inst, code), "e", capped) is None


def test_candidate_count_matches_the_candidates():
    for n in range(1, 13):
        for relabels in range(-1, 4):
            every = [g.describe() for g in _source_candidates(n, relabels, 10**6)]
            assert _candidate_count(n, relabels) == len(every)
            for limit in range(len(every) + 1):
                built = _source_candidates(n, relabels, limit)
                assert [g.describe() for g in built] == every[:limit]


def test_limited_candidates_give_the_assignments_of_the_full_search(monkeypatch):
    """Each budget tries the leading assignments of the full candidate
    product, the last source fastest, wherever that cut falls."""
    sizes = (4, 2, 4)
    inst, code = relay_instance(
        list(sizes), 2, tabulate(list(sizes), lambda a, b, c: (a * b + c) % 2)
    )
    table = build_global_table(inst, code)
    full = list(itertools.product(
        *[[g.describe() for g in _source_candidates(n, 1, 10**6)] for n in sizes]
    ))
    tried = []
    monkeypatch.setattr(
        cwl, "certify_cwl", lambda phi, groups: tried.append([g.describe() for g in groups])
    )
    for assignments in [1, 3, 7, 8, 13, len(full), len(full) + 5]:
        tried.clear()
        budget = SearchBudget(assignments, max_table_rewrites=0, max_relabels_per_order=1)
        assert cwl_search(table, "e", budget) is None
        assert tried == [list(a) for a in full[:assignments]]


@pytest.mark.parametrize(
    "relabels, assignments, rewritten",
    [(0, 1, None), (0, 2, True), (1, 4, None), (1, 5, True)],
)
def test_unbalanced_search_is_charged_its_candidates_and_builds_none(
    monkeypatch, relabels, assignments, rewritten
):
    """x AND y has fibers of 3 and 1 tuples, so no assignment can certify it:
    the search charges the budget for all of them (1 per source, or 2 with
    one relabel), derives no edge group, and rewrites only if budget is left."""
    derived = []
    derive = cwl.derive_edge_group

    def spy(phi, groups):
        derived.append(tuple(phi.keys))
        return derive(phi, groups)

    monkeypatch.setattr(cwl, "derive_edge_group", spy)
    inst, code = relay_instance([2, 2], 4, tabulate([2, 2], lambda a, b: a & b))
    budget = SearchBudget(max_group_assignments=assignments, max_relabels_per_order=relabels)
    found = cwl_search(build_global_table(inst, code), "e", budget)
    assert (found and found.rewritten) == rewritten
    assert derived == ([(0, 1, 2, 3)] if rewritten else [])


def test_random_homomorphisms_have_witnesses():
    rng = random.Random(55)
    for _ in range(40):
        m = rng.randint(2, 8)
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        coeffs = []
        for n in sizes:
            step = m // __import__("math").gcd(n, m)
            coeffs.append(step * rng.randrange(max(1, m // step)))
        table = []
        for idx in range(__import__("math").prod(sizes)):
            digits = []
            rest = idx
            for n in reversed(sizes):
                digits.append(rest % n)
                rest //= n
            digits.reverse()
            table.append(sum(c * d for c, d in zip(coeffs, digits)) % m)
        groups = [CyclicGroup(n) for n in sizes]
        w = derive_edge_group(tuple(table), groups)
        assert w is not None
        assert check_cwl(tuple(table), groups, w.edge_group, w.edge_support) is not None
        part = witness_partition(w)
        assert fibers_are_products(part)
        assert classes_equal_sized(coordinate_classes(w))


def _quotient_oracle(values, groups):
    """The induced table, or None: phi(a * b) must depend on phi(a) and
    phi(b) alone, checked over every pair of tuples."""
    ref = ReferenceGroup(ProductGroup(groups))
    support = sorted(set(values))
    pos = {v: k for k, v in enumerate(support)}
    table = {}
    for a in range(ref.order):
        for b in range(ref.order):
            product = pos[values[ref.op(a, b)]]
            if table.setdefault((pos[values[a]], pos[values[b]]), product) != product:
                return None
    n = len(support)
    return [[table[i, j] for j in range(n)] for i in range(n)], tuple(support)


def _cwl_oracle(values, groups, edge_group, support) -> bool:
    if set(values) != set(support):
        return False
    pos = {v: k for k, v in enumerate(support)}
    dom = ReferenceGroup(ProductGroup(groups))
    return oracle_is_homomorphism(dom, ReferenceGroup(edge_group), [pos[v] for v in values])


def _random_phi(rng):
    """Relabeled left-coset maps of a random subgroup, sometimes with one
    entry changed, or a random table; the sources mix cyclic groups, Z2 x Z2
    and S3, so some coset maps are not homomorphisms."""
    pool = [CyclicGroup(2), CyclicGroup(3), CyclicGroup(4), ProductGroup([CyclicGroup(2)] * 2), s3()]
    groups = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
    product = ProductGroup(groups)
    kind = rng.randrange(3)
    if kind == 2:
        return [rng.randrange(1, 4) for _ in range(product.order)], groups
    h = generated_subgroup(product, [rng.randrange(product.order)])
    blocks = oracle_cosets(ReferenceGroup(product), np.flatnonzero(h.mask).tolist())
    symbols = rng.sample(range(40), len(blocks))
    values = [0] * product.order
    for sym, block in zip(symbols, blocks):
        for x in block:
            values[x] = sym
    if kind == 1:
        values[rng.randrange(product.order)] = rng.choice(symbols)
    return values, groups


def test_derive_and_check_cwl_match_scalar_oracles():
    rng = random.Random(61)
    derived_seen = {True: 0, False: 0}
    cwl_seen = {True: 0, False: 0}
    for _ in range(150):
        values, groups = _random_phi(rng)
        expected = _quotient_oracle(values, groups)
        derived = derive_edge_group(values, groups)
        derived_seen[expected is not None] += 1
        if expected is None:
            assert derived is None
        else:
            g, support = derived.edge_group, derived.edge_support
            assert (g.describe()["table"], support) == expected
            assert check_cwl(values, groups, g, support) is not None
        support = tuple(sorted(set(values)))
        edge_groups = [CyclicGroup(len(support))] + ([s3()] if len(support) == 6 else [])
        for edge_group in edge_groups:
            verdict = check_cwl(values, groups, edge_group, support) is not None
            assert verdict == _cwl_oracle(values, groups, edge_group, support)
            cwl_seen[verdict] += 1
    assert all(derived_seen.values()) and all(cwl_seen.values())


def test_group_checks_match_oracles_on_acceptance_witnesses():
    """The homomorphisms of criteria 2 and 8 and the subgroups of criterion 5
    (same seeds), on every group of order at most 64."""
    checked = 0
    rng = random.Random(926)
    for _ in range(200):
        sizes, _, w = random_hom_witness(
            rng, max_order=64, size_pool=(2, 2, 3, 4, 4, 5, 6, 8), max_sources=3,
            product_cap=512,
        )
        if math.prod(sizes) <= 64:
            product = ProductGroup(w.source_groups)
            dom, cod = ReferenceGroup(product), ReferenceGroup(w.edge_group)
            assert oracle_is_homomorphism(dom, cod, w.hom)
            ker = [a for a, k in enumerate(w.hom) if k == cod.identity]
            assert oracle_is_subgroup(dom, ker) and is_subgroup(product, ker)
            checked += 1
    rng = random.Random(4057)
    for _ in range(100):
        w = relabel_balanced(random_balanced_map(rng))[2]
        dom = ReferenceGroup(ProductGroup(w.source_groups))
        assert oracle_is_homomorphism(dom, ReferenceGroup(w.edge_group), w.hom)
        checked += 1
    rng = random.Random(5151)
    for _ in range(50):
        gc = random_coordinate_characterization(rng)
        if gc.group.order > 64:
            continue
        plan = abelian_removal_plan(gc, "e", [k for k in sorted(gc.subgroups) if k != "e"])
        ref = ReferenceGroup(gc.group)
        for h in [*gc.subgroups.values(), plan.g_prime]:
            members = np.flatnonzero(h.mask).tolist()
            assert oracle_is_subgroup(ref, members)
            assert is_subgroup(gc.group, members)
            expected = oracle_cosets(ref, members)
            labels = coset_labels(gc.group, h)
            assert all((labels[c] == k).all() for k, c in enumerate(expected))
        checked += 1
    assert checked >= 250


def test_generator_proof_rejects_consistent_representative_rows():
    """(0, 0, 1, 1) on Z4: the products of representatives 0 and 2 are
    well defined and form Z2, yet phi(1 + 1) = 1 while phi(1) + phi(1) = 0.
    Only the homomorphism law onto that group rejects it."""
    phi, groups = (0, 0, 1, 1), [CyclicGroup(4)]
    rows = [[phi[(a + b) % 4] for b in (0, 2)] for a in (0, 2)]
    assert all(phi[(a + b) % 4] == rows[phi[a]][phi[b]] for a in (0, 2) for b in range(4))
    assert TableGroup(rows).order == 2
    assert _quotient_oracle(phi, groups) is None
    assert derive_edge_group(phi, groups) is None
    assert certify_cwl(phi, groups) is None
    assert check_cwl(phi, groups, TableGroup(rows), (0, 1)) is None


def test_row_check_rejects_a_right_coset_map():
    """Right cosets Hy of a non-normal H in a relabeled S3 x Z2: phi(x * y)
    depends on phi(x) and y, so the generator law alone is satisfiable, but
    not on phi(y), so no induced operation exists.  The products of one
    representative per symbol then form no group, and TableGroup refuses
    them."""
    product = ProductGroup([s3(), CyclicGroup(2)])
    ids = np.arange(product.order)
    table = product.op_array(ids[:, None], ids).tolist()
    g = TableGroup(relabel_table(table, [10, 3, 7, 4, 5, 2, 8, 0, 1, 11, 6, 9]))
    h = [3, 6, 9, 10]
    ref = ReferenceGroup(g)
    assert is_subgroup(g, h) and not all(
        sorted(g.op(g.op(x, a), ref.inverse(x)) for a in h) == h for x in range(g.order)
    )
    phi = (0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 2, 1)
    assert all(len({phi[g.op(a, y)] for a in h}) == 1 for y in range(g.order))
    law = {}
    for x in range(g.order):
        for gen in g.generators():
            law.setdefault((phi[x], phi[gen]), set()).add(phi[g.op(x, gen)])
    assert all(len(v) == 1 for v in law.values())
    _, reps = np.unique(phi, return_index=True)
    with pytest.raises(DomainError, match="not associative"):
        TableGroup(np.asarray(phi)[g.op_array(reps[:, None], reps)])
    assert _quotient_oracle(phi, [g]) is None
    assert derive_edge_group(phi, [g]) is None
    assert certify_cwl(phi, [g]) is None


def test_derive_edge_group_refuses_images_above_the_table_bound():
    # An injective map on Z32 x Z32 would need a 1024 x 1024 Cayley table.
    with pytest.raises(DomainError, match="edge images above 512 symbols"):
        derive_edge_group(list(range(1024)), [CyclicGroup(32), CyclicGroup(32)])


def test_certify_cwl_routes():
    phi = tabulate([4, 4], lambda a, b: (a + 3 * b) % 4)
    groups = [CyclicGroup(4), CyclicGroup(4)]
    f = SourcePartition((4, 4), phi)
    def key(w):
        return w.edge_group.describe(), w.edge_support, w.hom.tolist()

    derived = key(certify_cwl(phi, groups))
    assert derived == key(certify_cwl(f, groups))
    w = derive_edge_group(f, groups)
    assert derived == key(check_cwl(phi, groups, w.edge_group, w.edge_support))
    assert certify_cwl(phi, groups, (CyclicGroup(4), (0, 1, 2, 3))).hom.tolist() == list(phi)
    # The support order fixes the element ids.
    assert certify_cwl(phi, groups, (CyclicGroup(4), (0, 3, 2, 1))).hom.tolist() == [
        (-v) % 4 for v in phi
    ]
    assert certify_cwl(phi, groups, (CyclicGroup(4), (0, 2, 1, 3))) is None
    with pytest.raises(DomainError, match="encoding function is over"):
        certify_cwl(f, [CyclicGroup(16)])


@pytest.mark.parametrize("given", [False, True], ids=["derived", "given"])
def test_a_witness_costs_one_homomorphism_proof(monkeypatch, given):
    """``certify_cwl`` proves the homomorphism law once, whether it derives
    the edge structure or checks the one it is given."""
    calls = []
    prove = cwl.is_homomorphism

    def counted(*args):
        calls.append(args)
        return prove(*args)

    monkeypatch.setattr(cwl, "is_homomorphism", counted)
    phi = tabulate([4, 4], lambda a, b: (a + 3 * b) % 4)
    groups = [CyclicGroup(4), CyclicGroup(4)]
    edge = (CyclicGroup(4), (0, 1, 2, 3)) if given else None
    assert certify_cwl(phi, groups, edge) is not None
    assert len(calls) == 1


def test_group_proofs_make_linear_op_calls(monkeypatch):
    """Work guard: on Z64 x Z64 (4096 elements) the proofs call op_array on
    the product domain, each call costing O(|G|), at most |gens| + 1 times
    for is_homomorphism and twice for derive_edge_group whatever the image
    size (its table of representatives, then the homomorphism law), so a
    loop over every element of G or over the image fails here."""
    calls = []
    op_array = ProductGroup.op_array

    def counted(self, a, b):
        calls.append(self.order)
        return op_array(self, a, b)

    monkeypatch.setattr(ProductGroup, "op_array", counted)
    sources = [CyclicGroup(64), CyclicGroup(64)]
    dom = ProductGroup(sources)
    gens = dom.generators()
    assert len(gens) == 2
    cases = [
        ([(a + 3 * b) % 64 for a in range(64) for b in range(64)], True),
        ([(a + b * b) % 16 for a in range(64) for b in range(64)], False),
        ([(a * b) % 16 for a in range(64) for b in range(64)], False),
    ]
    for phi, linear in cases:
        image = len(set(phi))
        calls.clear()
        assert is_homomorphism([v % image for v in phi], dom, CyclicGroup(image)) == linear
        assert 0 < len(calls) <= len(gens) + 1
        calls.clear()
        assert (derive_edge_group(phi, sources) is not None) == linear
        assert len(calls) <= 2
        assert set(calls) <= {4096}
    for m in (2, 8, 16):  # images Z2 x Z2, Z8 x Z8 and Z16 x Z16
        calls.clear()
        assert derive_edge_group([a % m * m + b % m for a in range(64) for b in range(64)], sources)
        assert calls == [4096, 4096]


def _relabeled_hom_witness(rng):
    """A criterion-2 homomorphism moved onto Cayley-table sources whose
    element names are shuffled, so that no source's identity is 0."""
    sizes, table, _ = random_hom_witness(
        rng, max_order=64, size_pool=(2, 2, 3, 4, 4, 5, 6, 8), max_sources=3,
        product_cap=512,
    )
    perms = []
    for n in sizes:
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        perms.append(perm)
    groups = [
        TableGroup(relabel_table([[(a + b) % n for b in range(n)] for a in range(n)], perm))
        for n, perm in zip(sizes, perms)
    ]
    # Tuple t of the relabeled sources is the original tuple old[t].
    digits = index_digits(np.arange(math.prod(sizes)), sizes)
    old = pack([np.argsort(perm)[d] for perm, d in zip(perms, digits)], sizes)
    w = certify_cwl(np.asarray(table)[old], groups)
    assert w is not None
    return w


def _oracle_witnesses():
    """Criterion 2's 200 witnesses, then 60 on relabeled Cayley tables."""
    rng = random.Random(926)
    for _ in range(200):
        yield random_hom_witness(
            rng, max_order=64, size_pool=(2, 2, 3, 4, 4, 5, 6, 8), max_sources=3,
            product_cap=512,
        )[2]
    rng = random.Random(3141)
    for _ in range(60):
        yield _relabeled_hom_witness(rng)


def test_coordinate_classes_and_partition_match_the_scalar_oracle():
    relabeled = 0
    for w in _oracle_witnesses():
        classes = oracle_coordinate_classes(w)
        assert coordinate_classes(w) == classes
        class_of = [{v: c for c, members in enumerate(per) for v in members} for per in classes]
        labels = [
            tuple(lookup[v] for lookup, v in zip(class_of, oracle_digits(t, w.source_sizes)))
            for t in range(math.prod(w.source_sizes))
        ]
        expected = SourcePartition(w.source_sizes, labels)
        part = witness_partition(w)
        assert part.keys == expected.keys
        assert np.array_equal(part.ids, expected.ids)
        relabeled += all(g.identity != 0 for g in w.source_groups)
    assert relabeled == 60


def test_piecewise_class_pick_matches_the_scalar_oracle():
    """Two pieces split source 0; piece 1 carries the witness function with
    its symbols rotated, so each piece function agrees exactly on its piece.
    The kept symbols are the oracle's class pick inside the larger piece."""
    rng = random.Random(2718)
    checked = relabeled = 0
    for w in itertools.islice(_oracle_witnesses(), 0, None, 2):
        sizes, phi = w.source_sizes, w.phi_table()
        support = np.unique(phi)
        if len(support) < 2:
            continue
        rotate = np.zeros(int(support.max()) + 1, dtype=np.int64)
        rotate[support] = np.roll(support, 1)
        first = sorted(rng.sample(range(sizes[0]), rng.randint(-(-sizes[0] // 2), sizes[0] - 1)))
        rest = sorted(set(range(sizes[0])) - set(first))
        full = [list(range(n)) for n in sizes[1:]]
        in_first = np.isin(index_digits(np.arange(len(phi)), sizes)[0], first)
        glued = np.where(in_first, phi, rotate[phi])
        pieces = [([first, *full], phi), ([rest, *full], rotate[phi])]
        pw = check_piecewise(glued, w.source_groups, support.tolist(), pieces)
        assert pw is not None
        inst, code = relay_instance(sizes, len(rotate), glued)
        table = build_global_table(inst, code)
        cert = piecewise_remove(table, "e", pw).certificate
        check_claims_on_original(table, cert)
        kept = oracle_class_pick(pw.pieces[0].witness, pw.pieces[0].subsets)
        assert cert.witness_label == (0, *(k[0] for k in kept))
        assert cert.restricted_alphabets == tuple(tuple(k) for k in kept)
        assert cert.feasibility.verdict
        checked += 1
        relabeled += all(g.identity != 0 for g in w.source_groups)
    assert checked >= 50 and relabeled >= 10


def test_witness_hom_is_a_read_only_int64_array_the_report_uses_as_is():
    w = _xor_witness()
    assert w.hom.dtype == np.int64 and not w.hom.flags.writeable
    with pytest.raises(ValueError):
        w.hom[0] = 1
    entry = _witness_dict(w)
    assert entry["hom"] is w.hom
    assert json_bytes(entry).decode() == json.dumps(
        as_lists(entry), indent=2, sort_keys=True
    )
    # Any integer sequence is normalized; a mapping or a short map is refused.
    again = CwlWitness(w.source_groups, w.edge_group, w.edge_support, [0, 1, 1, 0])
    assert again.hom.dtype == np.int64 and not again.hom.flags.writeable
    for hom in ({0: 0, 1: 1, 2: 1, 3: 0}, [0, 1, 1]):
        with pytest.raises(DomainError):
            CwlWitness(w.source_groups, w.edge_group, w.edge_support, hom)
    phi, groups, pieces = _two_piece_copy()
    for piece in check_piecewise(phi, groups, (0, 1), pieces).pieces:
        assert piece.phi.dtype == np.int64 and not piece.phi.flags.writeable

"""Hand-checked algebra oracles plus seeded structural property sweeps."""

import itertools
import random

import numpy as np
import pytest

from conftest import (
    S3_TABLE,
    ReferenceGroup,
    oracle_closure,
    oracle_cosets,
    oracle_is_group,
    oracle_is_homomorphism,
    oracle_is_subgroup,
    relabel_table,
    s3,
)
from edgedrop.errors import DomainError, PreconditionError
from edgedrop.groupcodes import parse_characterization
from edgedrop.groups import (
    CyclicGroup,
    ProductGroup,
    TableGroup,
    coset_labels,
    cosets,
    direct_product,
    generated_subgroup,
    group_from_description,
    is_homomorphism,
    is_subgroup,
    kernel,
    make_cyclic,
    subgroup,
    subgroup_product,
)


# A loop of order 5: a Latin square with identity 0 and inverses (every
# element is its own), but (1 * 1) * 2 = 2 while 1 * (1 * 2) = 4.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_arithmetic():
    g = make_cyclic(12)
    assert g.order == 12
    assert g.identity == 0
    assert g.op(7, 8) == 3
    assert g.inverse(5) == 7
    assert g.inverse(0) == 0
    assert g.is_abelian


def test_cyclic_rejects_nonpositive_order():
    with pytest.raises(DomainError):
        make_cyclic(0)


def test_product_group_encoding():
    g = direct_product([make_cyclic(2), make_cyclic(3)])
    assert g.order == 6
    assert g.encode((1, 2)) == 5
    assert g.decode(5) == (1, 2)
    # (1, 2) + (1, 2) = (0, 1) componentwise.
    assert g.op(5, 5) == g.encode((0, 1))
    assert g.inverse(g.encode((1, 1))) == g.encode((1, 2))
    assert g.identity == 0


def test_table_group_roundtrip_of_cyclic():
    n = 5
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    g = TableGroup(table)
    assert g.order == n
    assert g.identity == 0
    assert g.op(3, 4) == 2
    assert g.inverse(2) == 3


def test_table_group_relabeled_identity():
    # Z_2 with the identity sitting at position 1 is still a group.
    g = TableGroup([[1, 0], [0, 1]])
    assert g.identity == 1
    assert g.op(0, 0) == 1


def test_table_group_rejects_defects():
    with pytest.raises(DomainError):
        TableGroup([[0, 1], [1, 1]])  # element 1 has no inverse
    with pytest.raises(DomainError):
        TableGroup([[0, 0], [0, 0]])  # no two-sided identity
    with pytest.raises(DomainError, match="not associative"):
        TableGroup(LOOP5)


def test_table_group_order_cap():
    n = 600
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(DomainError):
        TableGroup(table)


def test_subgroup_handles():
    g = make_cyclic(6)
    h = subgroup(g, [0, 3])
    assert sorted(h.members) == [0, 3]
    assert is_subgroup(g, [0, 3])
    assert not is_subgroup(g, [0, 2])  # 2 + 2 = 4 falls outside
    assert cosets(g, h) == [[0, 3], [1, 4], [2, 5]]


def test_subgroup_rejects_nonclosed():
    g = make_cyclic(6)
    with pytest.raises(PreconditionError):
        subgroup(g, [0, 2])


def test_generated_subgroup():
    g = make_cyclic(12)
    h = generated_subgroup(g, [8])
    assert sorted(h.members) == [0, 4, 8]


def test_intersection_and_product():
    g = make_cyclic(12)
    evens = subgroup(g, [0, 2, 4, 6, 8, 10])
    threes = subgroup(g, [0, 3, 6, 9])
    assert np.flatnonzero(evens.mask & threes.mask).tolist() == [0, 6]
    g6 = make_cyclic(6)
    h1 = subgroup(g6, [0, 3])
    h2 = subgroup(g6, [0, 2, 4])
    assert sorted(subgroup_product(g6, [h1, h2]).members) == [0, 1, 2, 3, 4, 5]


def test_homomorphism_checks():
    g6, g2 = make_cyclic(6), make_cyclic(2)
    parity = [x % 2 for x in range(6)]
    assert is_homomorphism(parity, g6, g2)
    assert sorted(kernel(parity, g6, g2).members) == [0, 2, 4]
    v4 = direct_product([make_cyclic(2), make_cyclic(2)])
    both_ones = [1 if v4.decode(a) == (1, 1) else 0 for a in v4.elements()]
    assert not is_homomorphism(both_ones, v4, g2)


def test_group_from_description_roundtrip():
    for g in (
        make_cyclic(7),
        direct_product([make_cyclic(2), make_cyclic(4)]),
        TableGroup([[(a + b) % 3 for b in range(3)] for a in range(3)]),
    ):
        h = group_from_description(g.describe())
        assert h.order == g.order
        assert all(
            h.op(a, b) == g.op(a, b) for a in g.elements() for b in g.elements()
        )


def _random_small_group(rng):
    if rng.random() < 0.5:
        return make_cyclic(rng.randint(1, 12))
    return direct_product(
        [make_cyclic(rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
    )


def test_group_axioms_random_sweep():
    rng = random.Random(11)
    for _ in range(40):
        g = _random_small_group(rng)
        for _ in range(20):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
            assert g.op(a, g.identity) == a
            assert g.op(g.identity, a) == a
            assert g.op(a, g.inverse(a)) == g.identity


def test_lagrange_random_sweep():
    rng = random.Random(23)
    for _ in range(40):
        g = _random_small_group(rng)
        gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 2))]
        h = generated_subgroup(g, gens)
        assert g.order % len(h.members) == 0
        blocks = cosets(g, h)
        assert sorted(x for b in blocks for x in b) == list(g.elements())
        assert all(len(b) == len(h.members) for b in blocks)


def test_kernel_fibers_equal_sized():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 12)
        m = rng.randint(2, 6)
        g, cod = make_cyclic(n), make_cyclic(m)
        c = rng.randrange(m)
        if (c * n) % m != 0:
            continue  # not a homomorphism for this pair
        f = [(c * x) % m for x in range(n)]
        assert is_homomorphism(f, g, cod)
        # The cosets of the kernel are the fibers of f, all of one size.
        fibers = cosets(g, kernel(f, g, cod))
        assert [len({f[x] for x in b}) for b in fibers] == [1] * len(fibers)
        assert len({f[b[0]] for b in fibers}) == len(fibers)
        assert {len(b) for b in fibers} == {n // len(fibers)}


def _oracle_groups():
    """The seeded random groups above, plus S3, S3 x Z2 and a relabeled Z5."""
    rng = random.Random(47)
    out = [_random_small_group(rng) for _ in range(12)]
    z5 = [[(a + b + 3) % 5 for b in range(5)] for a in range(5)]  # identity at 2
    return out + [s3(), direct_product([s3(), make_cyclic(2)]), TableGroup(z5)]


def test_op_array_matches_reference_arithmetic():
    for g in _oracle_groups():
        ref = ReferenceGroup(g)
        ids = np.arange(g.order)
        grid = g.op_array(ids[:, None], ids)
        assert grid.tolist() == [[ref.op(a, b) for b in ids] for a in ids], g
        assert g.inverse_array(ids).tolist() == [ref.inverse(a) for a in ids]
        assert g.identity == ref.identity
        assert [g.op(a, b) for a in ids for b in ids] == grid.ravel().tolist()
        assert [g.inverse(a) for a in ids] == g.inverse_array(ids).tolist()
        assert g.is_abelian == (grid == grid.T).all()


@pytest.mark.parametrize("group", [make_cyclic(4), direct_product([make_cyclic(2)] * 2), s3()])
def test_scalar_ops_check_element_ids(group):
    for bad in (-1, group.order):
        with pytest.raises(DomainError, match="outside group"):
            group.op(bad, 0)
        with pytest.raises(DomainError, match="outside group"):
            group.op(0, bad)
        with pytest.raises(DomainError, match="outside group"):
            group.inverse(bad)


def test_subgroups_and_cosets_match_oracles():
    rng = random.Random(53)
    seen = {True: 0, False: 0}
    for g in _oracle_groups():
        ref = ReferenceGroup(g)
        candidates = [generated_subgroup(g, [rng.randrange(g.order)]).members]
        candidates += [
            {g.identity, *rng.sample(range(g.order), rng.randint(0, g.order - 1))}
            for _ in range(4)
        ]
        for members in candidates:
            verdict = is_subgroup(g, members) is not None
            assert verdict == oracle_is_subgroup(ref, members), (g, sorted(members))
            seen[verdict] += 1
            if verdict:
                h = subgroup(g, members)
                expected = oracle_cosets(ref, h.members)
                assert cosets(g, h) == expected
                labels = coset_labels(g, h)
                assert [labels[c].tolist() for c in expected] == [
                    [k] * len(c) for k, c in enumerate(expected)
                ]
    assert seen[True] and seen[False]


def test_coset_labels_make_one_op_call_per_subgroup_generator(monkeypatch):
    """Work guard: on Z16^3 (4096 elements) a subgroup of order 16 has 256
    cosets, but labelling them calls op_array on the product group once per
    generator of the subgroup, each call over all of G, so a loop over
    cosets fails here."""
    g = direct_product([make_cyclic(16)] * 3)
    ref = ReferenceGroup(g)
    h = generated_subgroup(g, [g.encode((4, 0, 0)), g.encode((0, 8, 8)), g.encode((8, 0, 8))])
    assert h.order == 16
    calls = []
    op_array = ProductGroup.op_array

    def counted(self, a, b):
        calls.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        return op_array(self, a, b)

    monkeypatch.setattr(ProductGroup, "op_array", counted)
    labels = coset_labels(g, h)
    assert calls.count((g.order,)) == 3  # one per generator of H
    assert all(np.prod(shape) <= h.order for shape in calls if shape != (g.order,))
    expected = oracle_cosets(ref, h.members)
    assert len(expected) == 256
    assert [labels[c].tolist() for c in expected] == [[k] * len(c) for k, c in enumerate(expected)]
    # A non-abelian subgroup of S3 x S3 on two generators.
    g = direct_product([s3(), s3()])
    h = generated_subgroup(g, [g.encode((1, 0)), g.encode((3, 3))])
    assert not h.parent.is_abelian
    assert cosets(g, h) == oracle_cosets(ReferenceGroup(g), h.members)


def test_cyclic_closures_take_logarithmic_rounds(monkeypatch):
    """Work guard: <4> in Z_(2^18) has order 65,536.  Proving it from its
    members and closing it from one generator each make at most 64
    op_array calls, because every round also multiplies by the squared
    powers of the new generator (one round per element made 65,536 and
    131,072 calls), and labelling its cosets reads the handle's generator
    without a closure."""
    calls = []
    op_array = CyclicGroup.op_array

    def counted(self, a, b):
        calls.append(1)
        return op_array(self, a, b)

    monkeypatch.setattr(CyclicGroup, "op_array", counted)
    g = make_cyclic(2**18)
    fours = np.arange(g.order) % 4 == 0
    proved = subgroup(g, range(0, 2**18, 4))
    assert len(calls) <= 64 and np.array_equal(proved.mask, fours)
    del calls[:]
    generated = generated_subgroup(g, [4])
    assert len(calls) <= 64 and np.array_equal(generated.mask, fours)
    assert proved.generators == generated.generators == (4,)
    del calls[:]
    assert np.array_equal(coset_labels(g, proved), np.arange(g.order) % 4)
    assert len(calls) == 1


def test_s3_left_cosets_of_a_non_normal_subgroup():
    g = s3()
    ref = ReferenceGroup(g)
    h = subgroup(g, [0, 3])
    left = oracle_cosets(ref, h.members)
    right = {tuple(sorted(ref.op(m, x) for m in h.members)) for x in g.elements()}
    assert set(map(tuple, left)) != right
    assert cosets(g, h) == left == [[0, 3], [1, 4], [2, 5]]
    assert coset_labels(g, h).tolist() == [0, 1, 2, 0, 1, 2]
    assert not is_subgroup(g, [0, 3, 4])


def test_homomorphisms_match_oracle():
    rng = random.Random(59)
    seen = {True: 0, False: 0}
    sign = [0, 0, 0, 1, 1, 1]
    inverse_map = [s3().inverse(a) for a in range(6)]  # an anti-homomorphism
    cases = [
        (s3(), make_cyclic(2), sign),
        (s3(), s3(), inverse_map),
        (direct_product([s3(), make_cyclic(2)]), make_cyclic(2), [sign[a // 2] for a in range(12)]),
    ]
    for dom in _oracle_groups():
        for _ in range(3):
            cod = make_cyclic(rng.randint(1, 6))
            cases.append((dom, cod, [rng.randrange(cod.order) for _ in dom.elements()]))
        if isinstance(dom, ProductGroup):
            factor = dom.factors[-1]
            cases.append((dom, factor, [dom.decode(a)[-1] for a in dom.elements()]))
    for dom, cod, vals in cases:
        verdict = is_homomorphism(vals, dom, cod)
        assert verdict == oracle_is_homomorphism(ReferenceGroup(dom), ReferenceGroup(cod), vals)
        seen[verdict] += 1
    assert is_homomorphism(sign, s3(), make_cyclic(2))
    assert not is_homomorphism(inverse_map, s3(), s3())
    assert seen[True] and seen[False]


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "cyclic", "order": 2.9},
        {"kind": "cyclic", "order": True},
        {"kind": "cyclic", "order": "3"},
        {"kind": "table", "table": [[0, 1], [1, 1.7]]},
        {"kind": "table", "table": [[0, 1], [True, 0]]},
        {"kind": "table", "order": 2.0, "table": [[0, 1], [1, 0]]},
    ],
)
def test_group_descriptions_take_integers_only(desc):
    with pytest.raises(DomainError, match="must be an integer|must be integers"):
        group_from_description(desc)


@pytest.mark.parametrize(
    "desc, message",
    [
        ({"kind": "cyclic"}, "cyclic group description is missing 'order'"),
        ({"kind": "product"}, "product group description is missing 'factors'"),
        ({"kind": "product", "factors": 5}, "product group 'factors' must be a list"),
        ({"kind": "table"}, "table group description is missing 'table'"),
    ],
)
def test_group_descriptions_name_the_missing_field(desc, message):
    with pytest.raises(DomainError, match=message):
        group_from_description(desc)


def test_maps_are_integer_sequences_not_mappings():
    g2 = make_cyclic(2)
    assert is_homomorphism(np.array([0, 1]), g2, g2)
    with pytest.raises(DomainError):
        is_homomorphism({0: 0, 1: 1}, g2, g2)
    with pytest.raises(DomainError):
        kernel({0: 0, 1: 1}, g2, g2)


@pytest.mark.parametrize("member", [2.0, True])
def test_characterization_members_take_integers_only(member):
    data = {"group": {"kind": "cyclic", "order": 4}, "subgroups": {"e": [0, member]}}
    with pytest.raises(DomainError, match="subgroup member must be an integer"):
        parse_characterization(data)


def _order_one_groups():
    return [
        make_cyclic(1),
        TableGroup([[0]]),
        direct_product([make_cyclic(1), make_cyclic(1)]),
        direct_product([TableGroup([[0]]), make_cyclic(1)]),
    ]


def test_generators_close_to_the_whole_group():
    rng = random.Random(61)
    relabeled = []
    for table in (S3_TABLE, [[(a + b) % 8 for b in range(8)] for a in range(8)]):
        for _ in range(3):
            perm = rng.sample(range(len(table)), len(table))
            relabeled.append(TableGroup(relabel_table(table, perm)))
    for g in _oracle_groups() + relabeled + _order_one_groups():
        ref = ReferenceGroup(g)
        gens = g.generators()
        assert oracle_closure(ref, gens) == set(g.elements()), g
        if isinstance(g, TableGroup):
            # Greedy: each pick lies outside the closure of the earlier ones,
            # so every pick at least doubles the closure.
            for k, x in enumerate(gens):
                assert x not in oracle_closure(ref, gens[:k])
            assert 2 ** len(gens) <= g.order
    assert TableGroup([[0]]).generators() == []
    assert s3().generators() == [1, 3]


def _intercalate_swaps(table, identity):
    """Latin squares one intercalate swap away from a group table.

    Rows a, b and columns c, d (none of them the identity) with
    t[a][c] == t[b][d] and t[a][d] == t[b][c] trade those entries, so the
    result keeps the identity and stays a Latin square but is usually no
    longer associative.
    """
    others = [x for x in range(len(table)) if x != identity]
    for a, b in itertools.combinations(others, 2):
        for c, d in itertools.combinations(others, 2):
            if table[a][c] == table[b][d] and table[a][d] == table[b][c]:
                t = [row[:] for row in table]
                t[a][c], t[a][d] = t[a][d], t[a][c]
                t[b][c], t[b][d] = t[b][d], t[b][c]
                yield t


def test_light_associativity_matches_brute_force_oracle():
    """Light's test on generators accepts exactly the tables that the cubic
    oracle calls groups: every table used elsewhere in the tests, relabeled
    group tables, and Latin squares with identity near group tables."""
    rng = random.Random(67)
    z5 = [[(a + b + 3) % 5 for b in range(5)] for a in range(5)]
    tables = [S3_TABLE, LOOP5, z5, [[1, 0], [0, 1]], [[0, 1], [1, 1]], [[0, 0], [0, 0]]]
    tables += [[[(a + b) % n for b in range(n)] for a in range(n)] for n in (3, 5)]
    for g in (s3(), make_cyclic(6), direct_product([make_cyclic(2)] * 3),
              direct_product([make_cyclic(2), make_cyclic(4)]),
              direct_product([s3(), make_cyclic(2)])):
        ids = np.arange(g.order)
        table = g.op_array(ids[:, None], ids).tolist()
        near = list(_intercalate_swaps(table, g.identity))
        for t in [table] + rng.sample(near, min(len(near), 12)):
            tables.append(relabel_table(t, rng.sample(range(g.order), g.order)))
    outcomes = {"group": 0, "not associative": 0, "other": 0}
    for table in tables:
        try:
            TableGroup(table)
        except DomainError as exc:
            accepted = False
            outcomes["not associative" if "associative" in str(exc) else "other"] += 1
        else:
            accepted = True
            outcomes["group"] += 1
        assert accepted == oracle_is_group(table), table
    assert min(outcomes.values()) >= 3, outcomes


def test_homomorphism_from_order_one_domain_must_fix_the_identity():
    for dom in _order_one_groups():
        for cod in (make_cyclic(2), s3()):
            for target in cod.elements():
                verdict = is_homomorphism([target], dom, cod)
                oracle = oracle_is_homomorphism(ReferenceGroup(dom), ReferenceGroup(cod), [target])
                assert verdict == oracle == (target == cod.identity)


def test_is_subgroup_on_inverse_closed_sets():
    """Sets that hold the identity and are closed under inverses are
    subgroups exactly when they are closed under products."""
    rng = random.Random(71)
    seen = {True: 0, False: 0}
    for g in _oracle_groups():
        ref = ReferenceGroup(g)
        candidates = []
        for _ in range(6):
            picks = rng.sample(range(g.order), rng.randint(0, g.order - 1))
            candidates.append({g.identity, *picks, *(g.inverse(a) for a in picks)})
        h = generated_subgroup(g, [rng.randrange(g.order)]).members
        outside = sorted(set(g.elements()) - h)
        if outside:
            a = rng.choice(outside)
            candidates.append(h | {a, g.inverse(a)})
        for members in candidates:
            assert all(g.inverse(a) in members for a in members)
            verdict = is_subgroup(g, members) is not None
            assert verdict == oracle_is_subgroup(ref, members), (g, sorted(members))
            seen[verdict] += 1
    assert seen[True] >= 5 and seen[False] >= 20, seen

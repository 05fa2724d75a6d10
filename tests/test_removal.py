"""Partition routes and the restriction engine, against hand-counted oracles."""

import collections
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decode_outputs,
    evaluate_global,
    check_claims_on_original,
    oracle_digits,
    oracle_index,
    oracle_projection_sizes,
    part_tuples,
    random_code,
    random_hom_witness,
    random_instance,
    random_partition,
    scalar_table,
)
from edgedrop.codes import (
    NetworkCode,
    build_global_table,
    check_feasibility,
    product_indices,
    relay_instance,
    tabulate,
)
from edgedrop.cwl import (
    _rewrite_full_information,
    certify_cwl,
    check_piecewise,
    cwl_remove,
    piecewise_remove,
)
from edgedrop.errors import DomainError, PreconditionError
from edgedrop.groups import CyclicGroup
from edgedrop.library import butterfly
from edgedrop.network import json_bytes
from edgedrop.removal import (
    SourcePartition,
    _restrict_to_part,
    fiber_edge_values,
    fibers_are_products,
    find_witness,
    remove_by_edge_value,
    restrict_code,
    restrict_to_product,
)


def _corrupted_copy_relay():
    """Relay carrying x1 with the decoder row for tuple (0, 0) flipped."""
    inst, code = relay_instance([2, 2], 2, tabulate([2, 2], lambda a, b: a))
    rows = list(code.decoders["t"])
    rows[0] = (1, 1)
    code = NetworkCode(
        code.blocklength,
        code.source_alphabets,
        code.edge_alphabets,
        code.encoders,
        {"t": tuple(rows)},
    )
    return inst, code, build_global_table(inst, code)


def test_partition_constructors():
    part = SourcePartition.from_source_classes((4, 3), [[0, 1, 0, 1], [0, 0, 0]])
    assert sorted(part.keys) == [(0, 0), (1, 0)]
    assert part_tuples(part, (0, 0)) == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]
    assert part.projections((0, 0)) == [(0, 2), (0, 1, 2)]
    assert part.members((1, 0)).tolist() == [3, 4, 5, 9, 10, 11]
    with pytest.raises(DomainError, match=r"unknown partition label \(0, 1\)"):
        part.members((0, 1))
    assert fibers_are_products(part)
    with pytest.raises(DomainError):
        SourcePartition((2, 2), [0, 1, 2])
    with pytest.raises(DomainError):
        SourcePartition.from_source_classes((2, 2), [[0, 1]])


def test_singletons_and_whole_are_products():
    assert fibers_are_products(SourcePartition.singletons((3, 2)))
    assert fibers_are_products(SourcePartition.whole((3, 2)))


def test_projection_sizes_match_the_set_oracle():
    """The sort-based distinct count against per-source sets, on random
    labels, product partitions, singletons and the whole space."""
    rng = random.Random(29)
    for _ in range(200):
        sizes = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
        n_labels = rng.randint(1, math.prod(sizes))
        parts = [
            SourcePartition(sizes, [rng.randrange(n_labels) for _ in range(math.prod(sizes))]),
            SourcePartition.from_source_classes(
                sizes, [[rng.randrange(rng.randint(1, s)) for _ in range(s)] for s in sizes]
            ),
            SourcePartition.singletons(sizes),
            SourcePartition.whole(sizes),
        ]
        for part in parts:
            assert part.projection_sizes.tolist() == oracle_projection_sizes(part)


def test_xor_level_sets_are_not_products():
    part = SourcePartition((2, 2), [a ^ b for a in range(2) for b in range(2)])
    # {(0,0),(1,1)} has two tuples but its projections span 2 x 2 symbols.
    assert not fibers_are_products(part)


def test_fiber_edge_values():
    inst, code = butterfly()
    table = build_global_table(inst, code)
    by_edge = SourcePartition.from_edge_values(table, "bottleneck")
    assert fiber_edge_values(table, "bottleneck", by_edge) is True
    # A single part cannot determine a non-constant message.
    assert fiber_edge_values(table, "bottleneck", SourcePartition.whole((2, 2))) is False
    with pytest.raises(DomainError):
        fiber_edge_values(table, "bottleneck", SourcePartition.whole((2, 3)))


def test_find_witness_error_bounds():
    inst, code, table = _corrupted_copy_relay()
    assert table.error == Fraction(1, 4)
    part = SourcePartition.from_edge_values(table, "e")
    # Part 0 holds the bad tuple at fraction 1/2; part 1 is clean.
    assert find_witness(table, "e", part, Fraction(0)) == 1
    assert find_witness(table, "e", part, Fraction(1, 3)) == 1
    # At eps = 1/2 part 0 only meets the bound, it does not beat it.
    assert find_witness(table, "e", part, Fraction(1, 2)) == 1
    assert find_witness(table, "e", part, Fraction(3, 4)) == 0
    with pytest.raises(DomainError):
        find_witness(table, "e", part, Fraction(-1, 2))
    with pytest.raises(DomainError):
        find_witness(table, "e", part, Fraction(1))


def test_find_witness_size_bound():
    # Edge of size 2 against a source of size 5: a part keeping only two
    # symbols of that source is too small, three symbols suffice.
    inst, code = relay_instance([5], 2, tabulate([5], lambda a: a % 2))
    table = build_global_table(inst, code)
    small = SourcePartition((5,), [0, 1, 0, 1, 1])
    assert find_witness(table, "e", small, Fraction(0)) == 1
    # Refining into three classes leaves every projection at two symbols or
    # fewer, under the 5 / 2 threshold, so no label qualifies.
    refined = SourcePartition((5,), [0, 0, 1, 1, 2])
    assert find_witness(table, "e", refined, Fraction(0)) is None


def test_restrict_code_on_corrupted_relay():
    inst, code, table = _corrupted_copy_relay()
    part = SourcePartition.from_edge_values(table, "e")
    result = restrict_code(table, "e", part, 1, Fraction(0))
    cert = result.certificate
    assert cert.edge_constant == 1
    assert cert.restricted_alphabets == ((1,), (0, 1))
    assert cert.promised_cardinalities == (1, 1)
    assert cert.achieved_cardinalities == (1, 2)
    assert cert.feasibility.verdict
    assert [e.id for e in result.instance.edges] == ["c1", "d1", "c2", "d2"]
    fresh = check_feasibility(
        build_global_table(result.instance, result.code),
        Fraction(0),
        cert.promised_cardinalities,
    )
    assert fresh.verdict
    # The part meeting eps exactly is refused rather than certified.
    with pytest.raises(PreconditionError):
        restrict_code(table, "e", part, 0, Fraction(1, 2))
    with pytest.raises(DomainError):
        restrict_code(table, "e", part, 7, Fraction(0))


def test_restrict_code_rejects_bad_partitions():
    inst, code = butterfly()
    table = build_global_table(inst, code)
    xor_part = SourcePartition.from_edge_values(table, "bottleneck")
    with pytest.raises(PreconditionError):
        restrict_code(table, "bottleneck", xor_part, 0, Fraction(0))
    whole = SourcePartition.whole((2, 2))
    with pytest.raises(PreconditionError):
        restrict_code(table, "bottleneck", whole, 0, Fraction(0))


def test_restriction_hardwires_downstream_tables():
    inst, code = butterfly()
    table = build_global_table(inst, code)
    part = SourcePartition.from_source_classes((2, 2), [[0, 1], [0, 0]])
    # Fixing source 1 pins a1 and the bottleneck; source 2 passes through.
    label = find_witness(table, "a1", part, Fraction(0))
    assert label == (0, 0)
    result = restrict_code(table, "a1", part, label, Fraction(0))
    assert result.certificate.achieved_cardinalities == (1, 2)
    check = build_global_table(result.instance, result.code)
    assert check.error == 0
    # The terminal demanding both sources still decodes both.
    assert check.num_tuples == 2


def test_certificate_report_shape():
    inst, code, table = _corrupted_copy_relay()
    part = SourcePartition.from_edge_values(table, "e")
    cert = restrict_code(table, "e", part, 1, Fraction(0)).certificate
    data = json.loads(json_bytes(cert))
    assert data["edge_id"] == "e"
    assert data["eps"] == "0"
    assert data["restricted_alphabets"] == [[1], [0, 1]]
    assert data["feasibility"]["verdict"] is True
    assert set(data["edge_support_sizes"]) == {"c1", "c2", "d1", "d2"}


def test_restrict_to_product_checks_the_declared_set():
    inst, code = relay_instance([4, 3], 2, tabulate([4, 3], lambda a, b: a % 2))
    table = build_global_table(inst, code)
    result = restrict_to_product(table, "e", [(2, 0), (0, 1, 2, 1)], Fraction(0))
    assert result.certificate.restricted_alphabets == ((0, 2), (0, 1, 2))
    assert result.certificate.achieved_cardinalities == (2, 3)
    assert result.certificate.witness_label == "product"
    # Mixing parities breaks constancy; a single kept symbol of the size-4
    # source is below the size bound.
    for subsets in ([(0, 1), (0, 1, 2)], [(0,), (0, 1, 2)]):
        with pytest.raises(PreconditionError):
            restrict_to_product(table, "e", subsets, Fraction(0))
    with pytest.raises(DomainError):
        restrict_to_product(table, "e", [(0, 9), (0,)], Fraction(0))
    # A set, a range or an iterator of symbols is a subset too.
    for subsets in ([{2, 0}, range(3)], [iter((0, 2)), frozenset({0, 1, 2})]):
        result = restrict_to_product(table, "e", subsets, Fraction(0))
        assert result.certificate.restricted_alphabets == ((0, 2), (0, 1, 2))


def test_remove_by_edge_value_on_parity_relay():
    inst, code = relay_instance([4, 3], 2, tabulate([4, 3], lambda a, b: a % 2))
    table = build_global_table(inst, code)
    result = remove_by_edge_value(table, "e")
    assert result is not None
    cert = result.certificate
    assert cert.witness_label == 0
    assert cert.edge_constant == 0
    assert cert.achieved_cardinalities == (2, 3)
    assert cert.promised_cardinalities == (2, 2)
    assert cert.feasibility.verdict


def test_remove_by_edge_value_refuses_nonproduct_levels():
    inst, code = butterfly()
    table = build_global_table(inst, code)
    # XOR level sets are diagonal, not products.
    assert remove_by_edge_value(table, "bottleneck") is None


def test_remove_by_edge_value_requires_zero_error():
    inst, code, table = _corrupted_copy_relay()
    with pytest.raises(PreconditionError):
        remove_by_edge_value(table, "e")


def test_random_restrictions_reverify(tmp_path=None):
    rng = random.Random(4242)
    emitted = 0
    for _ in range(80):
        inst = random_instance(rng)
        code = random_code(rng, inst)
        table = build_global_table(inst, code)
        part = random_partition(rng, table)
        edge = rng.choice(inst.edges).id
        eps = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
        if not fiber_edge_values(table, edge, part):
            continue
        if not fibers_are_products(part):
            continue
        label = find_witness(table, edge, part, eps)
        if label is None:
            continue
        result = restrict_code(table, edge, part, label, eps)
        emitted += 1
        cert = result.certificate
        assert len(result.instance.edges) == len(inst.edges) - 1
        assert all(a >= p for a, p in zip(cert.achieved_cardinalities, cert.promised_cardinalities))
        fresh = check_feasibility(
            build_global_table(result.instance, result.code),
            eps,
            cert.promised_cardinalities,
        )
        assert fresh.verdict
        assert math.prod(cert.achieved_cardinalities) == fresh.num_tuples
    assert emitted >= 10


def _constant_product(rng, table, edge_id) -> list[list[int]]:
    """Per source, symbols grown at random from one tuple while the edge
    message stays constant on their product."""
    sizes = table.source_sizes
    column = table.edge_values(edge_id)
    subsets = [[v] for v in oracle_digits(rng.randrange(table.num_tuples), sizes)]
    for i in rng.sample(range(len(sizes)), len(sizes)):
        for v in rng.sample(range(sizes[i]), sizes[i]):
            trial = subsets[:i] + [sorted(set(subsets[i]) | {v})] + subsets[i + 1:]
            if rng.random() < 0.8 and len(set(column[product_indices(trial, sizes)])) == 1:
                subsets = trial
    return subsets


def _check_restriction(inst, code, table, edge_id, subsets, eps) -> bool:
    """Restrict to the product when ``find_witness`` passes it; the restricted
    code must re-verify tuple by tuple under the scalar oracle."""
    indices = product_indices(subsets, table.source_sizes)
    labels = np.ones(table.num_tuples, dtype=np.int64)
    labels[indices] = 0
    part = SourcePartition(table.source_sizes, labels)
    if find_witness(table, edge_id, part, eps) != 0:
        return False
    edge_size = inst.edge(edge_id).alphabet_size
    result = _restrict_to_part(table, edge_id, part.projections(0), edge_size, 0, eps)
    cert = result.certificate
    assert cert.restricted_alphabets == tuple(map(tuple, subsets))
    assert all(a >= p for a, p in zip(cert.achieved_cardinalities, cert.promised_cardinalities))
    rows, wrong = scalar_table(result.instance, result.code)
    bad = set().union(*wrong.values())
    assert cert.feasibility.error == Fraction(len(bad), len(rows))
    assert not bad if eps == 0 else Fraction(len(bad), len(rows)) < eps
    kept = [i for i, e in enumerate(inst.edges) if e.id != edge_id]
    for idx, row in enumerate(rows):
        digits = oracle_digits(idx, cert.achieved_cardinalities)
        x = tuple(sub[v] for sub, v in zip(subsets, digits))
        old = evaluate_global(inst, code, x)
        assert [old[i] for i in kept] == row  # every surviving message is unchanged
        outputs = decode_outputs(inst, code, old)
        for t in inst.terminals:
            if outputs[t] == tuple(x[i] for i in inst.demanded_sources(t)):
                assert idx not in wrong[t]
    return True


def _check_rewrite(inst, code, edge_id) -> bool:
    """When the edge can carry its encoder's full input, every other
    message and every decoded output must stay as they were."""
    rewritten = _rewrite_full_information(inst, code, edge_id)
    if rewritten is None:
        return False
    others = [i for i, e in enumerate(inst.edges) if e.id != edge_id]
    for idx in range(math.prod(code.source_alphabets)):
        x = oracle_digits(idx, code.source_alphabets)
        old, new = evaluate_global(inst, code, x), evaluate_global(inst, rewritten, x)
        assert [old[i] for i in others] == [new[i] for i in others]
        assert decode_outputs(inst, rewritten, new) == decode_outputs(inst, code, old)
    return True


def test_restriction_and_rewrite_agree_with_the_scalar_oracle():
    """Both consumer re-indexings (a hardwired constant for restriction, the
    old message behind each new one for the full-information rewrite) on
    random codes and random constant product parts."""
    seen = {"restricted": 0, "rewritten": 0}
    eps_values = [Fraction(0), Fraction(1, 2), Fraction(9, 10)]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(eps_values))
    def check(seed, eps):
        rng = random.Random(seed)
        inst = random_instance(rng)
        code = random_code(rng, inst)
        table = build_global_table(inst, code)
        for e in rng.sample(inst.edges, len(inst.edges)):
            subsets = _constant_product(rng, table, e.id)
            if _check_restriction(inst, code, table, e.id, subsets, eps):
                seen["restricted"] += 1
                break
        seen["rewritten"] += _check_rewrite(inst, code, rng.choice(inst.edges).id)

    check()
    assert seen["restricted"] >= 50 and seen["rewritten"] >= 50, seen



def _random_relay_map(rng) -> tuple[list[int], list[int]]:
    """Source sizes and an edge map: a homomorphism of cyclic groups, a
    product of per-source classes (level sets that are products), or a
    random map."""
    kind = rng.randrange(3)
    if kind == 0:
        found = random_hom_witness(rng, 6, (2, 3, 4, 6), 3, 216)
        if found is not None:
            return list(found[0]), list(found[1])
    sizes = [rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(1, 3))]
    tuples = [oracle_digits(i, sizes) for i in range(math.prod(sizes))]
    if kind == 1:
        classes = [[rng.randrange(2) for _ in range(n)] for n in sizes]
        labels = [[c[v] for c, v in zip(classes, x)] for x in tuples]
        return sizes, [oracle_index(label, [2] * len(sizes)) for label in labels]
    return sizes, [rng.randrange(4) for _ in tuples]


def _removals(rng, table, edge_id):
    """The certified removals of one edge of a zero-error code, by route."""
    groups = [CyclicGroup(n) for n in table.source_sizes]
    part = random_partition(rng, table)
    if fiber_edge_values(table, edge_id, part) and fibers_are_products(part):
        label = find_witness(table, edge_id, part, Fraction(0))
        if label is not None:
            yield "label", restrict_code(table, edge_id, part, label, Fraction(0))
    result = remove_by_edge_value(table, edge_id)
    if result is not None:
        yield "edge-value", result
    subsets = _constant_product(rng, table, edge_id)
    try:
        result = restrict_to_product(table, edge_id, subsets, Fraction(0))
    except PreconditionError:  # the product misses the witness bounds
        result = None
    if result is not None:
        yield "product", result
    column = table.edge_values(edge_id)
    witness = certify_cwl(column, groups)
    if witness is not None:
        result = cwl_remove(table, edge_id, witness, Fraction(0))
        if result is not None:
            yield "cwl", result
        whole = [list(range(n)) for n in table.source_sizes]
        pw = check_piecewise(column, groups, witness.edge_support, [(whole, column)])
        yield "piecewise", piecewise_remove(table, edge_id, pw)


def test_certificates_hold_on_the_original_code():
    """A certificate is a claim about the code whose edge it removes (see
    ``conftest.check_claims_on_original``).  Every route, on random relays
    and on every edge of both butterflies; the piecewise route with two
    pieces is covered in ``test_cwl``."""
    rng = random.Random(2020)
    seen = collections.Counter()
    cases = [
        (table, e.id)
        for table in (build_global_table(*butterfly()), build_global_table(*butterfly(4)))
        for e in table.inst.edges
    ]
    for _ in range(150):
        sizes, phi = _random_relay_map(rng)
        cases.append((build_global_table(*relay_instance(sizes, max(phi) + 1, phi)), "e"))
    for table, edge_id in cases:
        for route, result in _removals(rng, table, edge_id):
            check_claims_on_original(table, result.certificate)
            seen[route] += 1
    routes = ("label", "edge-value", "product", "cwl", "piecewise")
    assert all(seen[route] >= 20 for route in routes), seen

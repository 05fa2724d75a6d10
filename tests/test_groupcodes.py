"""Group-characterized codes: coset variables, removal plans, the dichotomy."""

import itertools
import json
import pathlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from edgedrop import groups
from edgedrop.codes import build_global_table
from edgedrop.errors import PreconditionError, ResourceError
from edgedrop.groupcodes import (
    GroupCharacterization,
    abelian_removal_plan,
    best_decoder_error,
    characterization_to_dict,
    gc_realize_subgroup,
    independent_sources,
    induced_entropy,
    load_characterization,
    materialize,
    normalized_sources,
    parse_characterization,
    zero_error_upgrade,
)
from edgedrop.groups import FiniteGroup, direct_product, make_cyclic, subgroup


def _klein_characterization():
    g = direct_product([make_cyclic(2), make_cyclic(2)])
    return GroupCharacterization(
        group=g,
        subgroups={
            "s1": subgroup(g, [0, 1]),
            "s2": subgroup(g, [0, 2]),
            "e": subgroup(g, [0, 3]),
        },
    )


def test_characterization_requires_same_parent():
    g = direct_product([make_cyclic(2), make_cyclic(2)])
    other = direct_product([make_cyclic(2), make_cyclic(2)])
    with pytest.raises(PreconditionError):
        GroupCharacterization(group=g, subgroups={"s1": subgroup(other, [0, 1])})


def test_variable_sizes_and_realize():
    gc = _klein_characterization()
    assert gc.variable_size("s1") == 2
    assert gc.variable_size("e") == 2
    labels = gc_realize_subgroup(make_cyclic(4), subgroup(make_cyclic(4), [0, 2]))
    assert labels.tolist() == [0, 1, 0, 1]


def test_entropies_on_klein():
    gc = _klein_characterization()
    assert induced_entropy(gc, ["s1"]) == pytest.approx(1.0, abs=1e-9)
    assert induced_entropy(gc, ["s1", "s2"]) == pytest.approx(2.0, abs=1e-9)
    # s1 and e intersect trivially, so the pair already pins the element.
    assert induced_entropy(gc, ["s1", "e"]) == pytest.approx(2.0, abs=1e-9)
    assert normalized_sources(gc, ["s1", "s2"])
    assert independent_sources(gc, ["s1", "s2"])


def test_dependent_sources_detected():
    g = make_cyclic(4)
    even = subgroup(g, [0, 2])
    gc = GroupCharacterization(group=g, subgroups={"s1": even, "s2": even})
    assert not normalized_sources(gc, ["s1", "s2"])
    assert not independent_sources(gc, ["s1", "s2"])


def test_materialize_builds_zero_error_relay():
    gc = _klein_characterization()
    inst, code = materialize(gc, ["s1", "s2"], "e")
    assert [e.id for e in inst.edges] == ["c1", "d1", "c2", "d2", "e"]
    assert tuple(s.alphabet_size for s in inst.sources) == (2, 2)
    table = build_global_table(inst, code)
    assert table.error == 0
    # The edge alphabet covers the coset space of the edge subgroup.
    assert len(set(table.edge_values("e").tolist())) == gc.variable_size("e")


def test_abelian_removal_plan_on_klein():
    gc = _klein_characterization()
    plan = abelian_removal_plan(gc, "e", ["s1", "s2"])
    assert plan.checks == {
        "edge_determined": True,
        "product_split_exact": True,
        "product_split_numeric": True,
        "size_bound": True,
    }
    assert [sorted(h.members) for h in plan.complements] == [[0], [0]]
    assert sorted(plan.g_prime.members) == [0]
    cert = plan.removal.certificate
    assert cert.eps == 0
    assert cert.promised_cardinalities == (1, 1)
    assert cert.achieved_cardinalities == (1, 1)
    assert cert.feasibility.verdict
    check = build_global_table(plan.removal.instance, plan.removal.code)
    assert check.error == 0


def test_abelian_removal_plan_full_information_edge():
    # With the edge subgroup trivial, the edge carries the whole element and
    # the auxiliary subgroup is the full product of the complements.
    g = direct_product([make_cyclic(2), make_cyclic(2)])
    gc = GroupCharacterization(
        group=g,
        subgroups={
            "s1": subgroup(g, [0, 1]),
            "s2": subgroup(g, [0, 2]),
            "e": subgroup(g, [0]),
        },
    )
    plan = abelian_removal_plan(gc, "e", ["s1", "s2"])
    assert all(plan.checks.values())
    cert = plan.removal.certificate
    assert cert.feasibility.verdict
    for kept, size, sub in zip(
        cert.achieved_cardinalities, (2, 2), plan.complements
    ):
        assert kept * gc.variable_size("e") >= size * len(sub.members)


def test_zero_error_upgrade_dichotomy_on_klein():
    gc = _klein_characterization()
    edge_case, direct_case = zero_error_upgrade(gc, [("e", "s1"), ("s1", "s1")])
    assert edge_case.kind == "high_error"
    assert edge_case.q == 2
    assert edge_case.min_error == Fraction(1, 2)
    assert edge_case.decoder is None
    assert direct_case.kind == "zero_error"
    assert direct_case.decoder == {0: 0, 1: 1}
    assert best_decoder_error(gc, "e", "s1") == Fraction(1, 2)
    assert best_decoder_error(gc, "s1", "s1") == 0


def test_zero_error_decoder_actually_decodes():
    g = make_cyclic(8)
    gc = GroupCharacterization(
        group=g,
        subgroups={"fine": subgroup(g, [0, 4]), "coarse": subgroup(g, [0, 2, 4, 6])},
    )
    (decision,) = zero_error_upgrade(gc, [("fine", "coarse")])
    assert decision.kind == "zero_error"
    fine = gc_realize_subgroup(g, gc.subgroups["fine"])
    coarse = gc_realize_subgroup(g, gc.subgroups["coarse"])
    for elem in g.elements():
        assert decision.decoder[fine[elem]] == coarse[elem]


def test_min_error_matches_exhaustive_decoders():
    gc = _klein_characterization()
    observed = gc_realize_subgroup(gc.group, gc.subgroups["e"])
    wanted = gc_realize_subgroup(gc.group, gc.subgroups["s1"])
    n_in = len(set(observed))
    n_out = len(set(wanted))
    best = None
    for func in itertools.product(range(n_out), repeat=n_in):
        wrong = sum(1 for g in gc.group.elements() if func[observed[g]] != wanted[g])
        err = Fraction(wrong, gc.group.order)
        best = err if best is None else min(best, err)
    assert best == Fraction(1, 2)
    assert best == best_decoder_error(gc, "e", "s1")


def test_dichotomy_exhaustive_on_z4():
    g = make_cyclic(4)
    subs = {
        "trivial": subgroup(g, [0]),
        "half": subgroup(g, [0, 2]),
        "full": subgroup(g, [0, 1, 2, 3]),
    }
    gc = GroupCharacterization(group=g, subgroups=subs)
    for in_key, src_key in itertools.product(subs, repeat=2):
        contained = set(subs[in_key].members) <= set(subs[src_key].members)
        (decision,) = zero_error_upgrade(gc, [(in_key, src_key)])
        if contained:
            assert decision.kind == "zero_error"
        else:
            assert decision.kind == "high_error"
            assert decision.min_error >= Fraction(1, 2)
            assert decision.min_error == 1 - Fraction(1, decision.q)


def test_characterization_serialization_roundtrip(tmp_path):
    gc = _klein_characterization()
    data = characterization_to_dict(gc)
    again = parse_characterization(data)
    assert sorted(again.subgroups) == sorted(gc.subgroups)
    for key in gc.subgroups:
        assert sorted(again.subgroups[key].members) == sorted(gc.subgroups[key].members)
    path = tmp_path / "chars.json"
    path.write_text(__import__("json").dumps(data))
    loaded = load_characterization(path)
    assert sorted(loaded.subgroups) == sorted(gc.subgroups)


def test_random_normalized_plans_verify():
    rng = random.Random(77)
    built = 0
    for _ in range(30):
        factors = [rng.choice((2, 2, 3, 4)) for _ in range(rng.randint(2, 3))]
        g = direct_product([make_cyclic(n) for n in factors])
        # Pinning each coordinate to its identity normalizes the sources.
        subs = {}
        for i in range(len(factors)):
            members = [
                a for a in g.elements() if g.decode(a)[i] == 0
            ]
            subs[f"s{i + 1}"] = subgroup(g, members)
        edge_members = sorted(
            __import__("edgedrop.groups", fromlist=["generated_subgroup"])
            .generated_subgroup(g, [rng.randrange(g.order)])
            .members
        )
        subs["e"] = subgroup(g, edge_members)
        gc = GroupCharacterization(group=g, subgroups=subs)
        keys = [f"s{i + 1}" for i in range(len(factors))]
        assert normalized_sources(gc, keys)
        plan = abelian_removal_plan(gc, "e", keys)
        assert all(plan.checks.values())
        assert plan.removal.certificate.feasibility.verdict
        assert plan.removal.certificate.eps == 0
        built += 1
    assert built == 30


def test_group_order_cap_comes_before_any_subgroup(monkeypatch):
    """A characterization over Z_(2^21) is refused before any subgroup is
    verified, so no array of 2^21 membership flags is allocated."""

    def refuse(*_):
        raise AssertionError("a subgroup was built before the order cap was checked")

    monkeypatch.setattr(groups, "_indicator", refuse)
    data = {
        "group": {"kind": "cyclic", "order": 1 << 21},
        "subgroups": {"s1": [0], "e": [0, 1 << 20]},
    }
    with pytest.raises(ResourceError, match="above the cap"):
        parse_characterization(data)


def test_characterization_subgroups_are_proved_once(monkeypatch):
    """Parsing proves each of the k subgroups once; realizing their coset
    labels afterwards reads the handles' generators and runs no closure."""
    proofs = []
    prove = groups.is_subgroup

    def counted(group, members):
        proofs.append(1)
        return prove(group, members)

    monkeypatch.setattr(groups, "is_subgroup", counted)
    path = pathlib.Path(__file__).parent / "golden" / "inputs" / "z4z4.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    gc = parse_characterization(data)
    assert len(proofs) == len(data["subgroups"]) == len(gc.subgroups) > 1

    def refuse(*_):
        raise AssertionError("a verified subgroup was proved again")

    monkeypatch.setattr(groups, "_extend_closure", refuse)
    for key, h in gc.subgroups.items():
        labels = gc.realize_map(key)
        assert np.bincount(labels).tolist() == [h.order] * gc.variable_size(key)
    assert len(proofs) == len(gc.subgroups)


def test_dichotomy_and_plan_never_walk_the_elements(monkeypatch):
    """Work guard on Z16^3 (4096 elements): the decoder dichotomy, the best
    decoder error and the removal plan read subgroup masks and coset
    overlap counts, never a loop over ``elements()``."""
    g = direct_product([make_cyclic(16)] * 3)
    x = np.stack(np.unravel_index(np.arange(g.order), (16, 16, 16)))
    subs = {f"s{i + 1}": subgroup(g, np.flatnonzero(x[i] == 0).tolist()) for i in range(3)}
    # e is the kernel of x1 + x2 + x3 mod 4; m, all coordinates 0 mod 4, lies in e.
    subs["e"] = subgroup(g, np.flatnonzero(x.sum(axis=0) % 4 == 0).tolist())
    subs["m"] = subgroup(g, np.flatnonzero((x % 4 == 0).all(axis=0)).tolist())
    gc = GroupCharacterization(group=g, subgroups=subs)

    def refuse(self):
        raise AssertionError("walked every group element")

    monkeypatch.setattr(FiniteGroup, "elements", refuse)
    high, exact = zero_error_upgrade(gc, [("e", "s1"), ("m", "e")])
    assert (high.kind, high.q, high.min_error) == ("high_error", 16, Fraction(15, 16))
    assert best_decoder_error(gc, "e", "s1") == Fraction(15, 16)
    assert exact.kind == "zero_error"
    m_map, e_map = gc.realize_map("m"), gc.realize_map("e")
    assert all(exact.decoder[a] == b for a, b in zip(m_map.tolist(), e_map.tolist()))
    plan = abelian_removal_plan(gc, "e", ["s1", "s2", "s3"])
    assert all(plan.checks.values())
    assert plan.g_prime.members == subs["m"].members
    assert plan.removal.certificate.feasibility.verdict


def test_dichotomy_on_small_subgroups_stays_linear_in_the_group():
    """Z2^16 with a trivial source subgroup and an edge kernel of order 4:
    a dense (incoming coset x demanded coset) table would hold 2^30 counts
    (8 GiB), so the dichotomy must count only the pairs that occur."""
    g = direct_product([make_cyclic(2)] * 16)
    gc = GroupCharacterization(
        group=g, subgroups={"s1": subgroup(g, [0]), "e": subgroup(g, [0, 1, 2, 3])}
    )
    for key in gc.subgroups:
        gc.realize_map(key)
    tracemalloc.start()
    try:
        high, exact = zero_error_upgrade(gc, [("e", "s1"), ("s1", "e")])
        worst = best_decoder_error(gc, "e", "s1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (high.kind, high.q, high.min_error) == ("high_error", 4, Fraction(3, 4))
    assert worst == Fraction(3, 4)
    assert exact.kind == "zero_error"
    assert list(exact.decoder.values()) == (np.arange(g.order) // 4).tolist()
    assert peak < 64 * g.order * 8  # a few dozen int64 arrays over G at most

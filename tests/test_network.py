"""Instance well-formedness, ordering and serialization checks."""

import json

import pytest

from edgedrop.errors import DomainError, PreconditionError
from edgedrop.library import butterfly
from edgedrop.network import (
    Edge,
    NetworkInstance,
    Source,
    instance_to_dict,
    load_instance,
    parse_instance,
    remove_edge,
    save_instance,
    topological_order,
    validate_instance,
)


def _line_instance():
    return NetworkInstance(
        nodes=("s1", "u", "t"),
        edges=(Edge("a", "s1", "u", 2), Edge("b", "u", "t", 2)),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )


def test_valid_instance_reports_nothing():
    assert validate_instance(_line_instance()) == []


def test_validate_flags_cycle():
    inst = NetworkInstance(
        nodes=("s1", "u", "v", "t"),
        edges=(
            Edge("a", "s1", "u", 2),
            Edge("b", "u", "v", 2),
            Edge("c", "v", "u", 2),
            Edge("d", "v", "t", 2),
        ),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )
    assert any("cycle" in p for p in validate_instance(inst))
    with pytest.raises(PreconditionError):
        topological_order(inst)


def test_validate_flags_structural_defects():
    base = _line_instance()
    bad_demand = NetworkInstance(
        base.nodes, base.edges, base.sources, base.terminals, ((0,),)
    )
    assert any("demands no source" in p for p in validate_instance(bad_demand))
    source_fed = NetworkInstance(
        base.nodes,
        base.edges + (Edge("back", "u", "s1", 2),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("incoming" in p for p in validate_instance(source_fed))
    dup = NetworkInstance(
        base.nodes,
        base.edges + (Edge("a", "s1", "u", 3),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("duplicate edge" in p for p in validate_instance(dup))
    stray = NetworkInstance(
        base.nodes,
        base.edges + (Edge("x", "s1", "ghost", 2),),
        base.sources,
        base.terminals,
        base.demands,
    )
    assert any("ghost" in p for p in validate_instance(stray))


def test_demanded_sources_order():
    inst = NetworkInstance(
        nodes=("s1", "s2", "t1", "t2"),
        edges=(
            Edge("a", "s1", "t1", 2),
            Edge("b", "s2", "t1", 2),
            Edge("c", "s2", "t2", 2),
        ),
        sources=(Source("s1", 2), Source("s2", 2)),
        terminals=("t1", "t2"),
        demands=((1, 0), (1, 1)),
    )
    assert validate_instance(inst) == []
    assert inst.demanded_sources("t1") == (0, 1)
    assert inst.demanded_sources("t2") == (1,)
    with pytest.raises(DomainError):
        inst.demanded_sources("nope")


def test_in_edges_sorted_by_id():
    inst = NetworkInstance(
        nodes=("s1", "t"),
        edges=(Edge("z", "s1", "t", 2), Edge("a", "s1", "t", 2)),
        sources=(Source("s1", 2),),
        terminals=("t",),
        demands=((1,),),
    )
    assert [e.id for e in inst.in_edges("t")] == ["a", "z"]


def test_topological_order_on_butterfly():
    inst, _ = butterfly()
    order = [e.id for e in topological_order(inst)]
    pos = {e: i for i, e in enumerate(order)}
    for e in inst.edges:
        for f in inst.in_edges(e.tail):
            assert pos[f.id] < pos[e.id]
    # The bottleneck leaves the mixing node, after both feeds into it.
    assert pos["bottleneck"] > pos["b1"]
    assert pos["bottleneck"] > pos["b2"]


def test_remove_edge():
    inst, _ = butterfly()
    assert len(inst.edges) == 9
    smaller = remove_edge(inst, "bottleneck")
    assert len(smaller.edges) == 8
    assert validate_instance(smaller) == []
    assert smaller.nodes == inst.nodes
    with pytest.raises(DomainError):
        remove_edge(inst, "no-such-edge")


def test_instance_json_roundtrip(tmp_path):
    inst, _ = butterfly()
    path = tmp_path / "net.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst
    data = json.loads(path.read_text())
    assert parse_instance(data) == inst


def test_parse_instance_rejects_missing_fields():
    with pytest.raises(DomainError):
        parse_instance({"nodes": ["a"]})


@pytest.mark.parametrize("field", ["edge", "source"])
@pytest.mark.parametrize("value", [2.9, True, "3"], ids=["float", "bool", "string"])
def test_parse_instance_rejects_non_integer_alphabets(field, value):
    inst, _ = butterfly()
    data = instance_to_dict(inst)
    data["edges" if field == "edge" else "sources"][0]["alphabet_size"] = value
    with pytest.raises(DomainError, match="must be an integer"):
        parse_instance(data)


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=["float", "bool", "string"])
def test_parse_instance_rejects_non_integer_demands(value):
    inst, _ = butterfly()
    data = instance_to_dict(inst)
    data["demands"][0][0] = value
    with pytest.raises(DomainError, match="demand entry"):
        parse_instance(data)

"""Shared generators and scalar oracles for the randomized suites.

Instances are small layered acyclic graphs; codes are random tables, usually
paired with best-effort decoders so that low-error codes occur often enough to
drive the removal routes.  Everything is seeded explicitly by the caller.
The oracles evaluate a code one source tuple at a time, through the scalar
``evaluate_global`` and ``decode_outputs`` defined here; the columnar
global table is checked against them.  Tuples and dense indices convert through ``oracle_index`` and
``oracle_digits``, so no oracle shares the index arithmetic of ``codes``.
The group oracles compute one product at a time with ``ReferenceGroup``
and check the group laws over all pairs, quadratically
(associativity over all triples, cubically); ``groups.op_array`` and the
generator proofs built on it are compared against them.
"""

from __future__ import annotations

import itertools
import math
import random
import types
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from edgedrop.codes import NetworkCode, build_global_table, index_digits, relay_instance
from edgedrop.cwl import CwlWitness, _coordinate_class_ids, check_cwl, derive_edge_group
from edgedrop.groupcodes import GroupCharacterization
from edgedrop.groups import (
    CyclicGroup,
    ProductGroup,
    TableGroup,
    generated_subgroup,
    subgroup,
)
from edgedrop.errors import DomainError, InternalCheckError, MalformedCodeError
from edgedrop.network import (
    Edge,
    NetworkInstance,
    Source,
    json_text,
    topological_order,
    validate_instance,
)
from edgedrop.removal import SourcePartition

MAX_TUPLES = 512

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's oracle, ``perfbench/oracle.py``, which imports nothing
    of ``edgedrop``; compiled from its text, so no bytecode cache is left
    beside it."""
    module = types.ModuleType("perfbench_oracle")
    module.__file__ = str(ORACLE_PATH)
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), module.__dict__)
    return module


def oracle_index(values: Sequence[int], sizes: Sequence[int]) -> int:
    """Dense index of one tuple, last coordinate fastest, in plain ints."""
    idx = 0
    for v, s in zip(values, sizes):
        idx = idx * s + v
    return idx


def oracle_digits(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The tuple behind one dense index, in plain ints."""
    out = []
    for s in reversed(sizes):
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def json_bytes(obj, end: bytes = b"") -> bytes:
    """The whole text ``network.json_text`` writes, joined: the bytes of
    ``json.dumps(obj, indent=2, sort_keys=True)`` followed by ``end``."""
    return b"".join(json_text(obj, end))


def as_lists(tree):
    """A copy of a JSON-like tree with every numpy array as its ``tolist()``:
    the tree ``json.dumps`` accepts, and tests may mutate."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {k: as_lists(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [as_lists(v) for v in tree]
    return tree


def random_instance(rng: random.Random) -> NetworkInstance:
    """A valid instance with at most 3 sources, alphabets <= 8, <= 10 edges."""
    k = rng.randint(1, 3)
    sizes = [rng.choice((2, 2, 2, 3, 3, 4, 4, 5, 6, 8)) for _ in range(k)]
    while math.prod(sizes) > MAX_TUPLES:
        sizes[sizes.index(max(sizes))] = 2
    n_mid = rng.randint(0, 2)
    n_term = rng.randint(1, 2)
    source_nodes = [f"s{i + 1}" for i in range(k)]
    mids = [f"m{i + 1}" for i in range(n_mid)]
    terminals = [f"t{i + 1}" for i in range(n_term)]
    edges: list[Edge] = []
    counter = itertools.count(1)

    def add_edge(tail: str, head: str) -> None:
        edges.append(Edge(f"e{next(counter)}", tail, head, rng.randint(2, 8)))

    for s in source_nodes:
        for _ in range(rng.randint(1, 2)):
            if len(edges) >= 8:
                break
            add_edge(s, rng.choice(mids + terminals))
    for pos, m in enumerate(mids):
        if not any(e.head == m for e in edges):
            continue
        for _ in range(rng.randint(1, 2)):
            if len(edges) >= 8:
                break
            add_edge(m, rng.choice(mids[pos + 1:] + terminals))
    for t in terminals:
        if not any(e.head == t for e in edges):
            fed_mids = [m for m in mids if any(e.head == m for e in edges)]
            add_edge(rng.choice(source_nodes + fed_mids), t)
    demands = [[0] * n_term for _ in range(k)]
    for j in range(n_term):
        for i in rng.sample(range(k), rng.randint(1, k)):
            demands[i][j] = 1
    inst = NetworkInstance(
        nodes=tuple(source_nodes + mids + terminals),
        edges=tuple(edges),
        sources=tuple(Source(s, sz) for s, sz in zip(source_nodes, sizes)),
        terminals=tuple(terminals),
        demands=tuple(tuple(row) for row in demands),
    )
    assert validate_instance(inst) == []
    return inst


def best_effort_decoders(
    inst: NetworkInstance,
    source_alphabets: tuple[int, ...],
    edge_alphabets: dict[str, int],
    encoders: dict[str, tuple[int, ...]],
    rng: random.Random,
) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Decoder tables voting for the most frequent demanded tuple per input."""
    probe = NetworkCode(1, source_alphabets, edge_alphabets, encoders, {})
    votes: dict[str, dict[tuple[int, ...], Counter]] = {t: {} for t in inst.terminals}
    for x in itertools.product(*[range(s) for s in source_alphabets]):
        row = evaluate_global(inst, probe, x)
        by_id = {e.id: v for e, v in zip(inst.edges, row)}
        for t in inst.terminals:
            key = tuple(by_id[f.id] for f in inst.in_edges(t))
            wanted = tuple(x[i] for i in inst.demanded_sources(t))
            votes[t].setdefault(key, Counter())[wanted] += 1
    decoders = {}
    for t in inst.terminals:
        in_sizes = [edge_alphabets[f.id] for f in inst.in_edges(t)]
        demanded = inst.demanded_sources(t)
        rows = []
        for combo in itertools.product(*[range(s) for s in in_sizes]):
            counter = votes[t].get(combo)
            if counter:
                rows.append(max(sorted(counter), key=lambda v: counter[v]))
            else:
                rows.append(tuple(rng.randrange(source_alphabets[i]) for i in demanded))
        decoders[t] = tuple(rows)
    return decoders


def random_code(rng: random.Random, inst: NetworkInstance) -> NetworkCode:
    sizes = tuple(s.alphabet_size for s in inst.sources)
    edge_alphabets = {e.id: e.alphabet_size for e in inst.edges}
    encoders = {}
    for e in inst.edges:
        if inst.is_source_node(e.tail):
            width = sizes[inst.source_index(e.tail)]
        else:
            width = math.prod(edge_alphabets[f.id] for f in inst.in_edges(e.tail))
        encoders[e.id] = tuple(rng.randrange(e.alphabet_size) for _ in range(width))
    if rng.random() < 0.7:
        decoders = best_effort_decoders(inst, sizes, edge_alphabets, encoders, rng)
    else:
        decoders = {}
        for t in inst.terminals:
            width = math.prod(edge_alphabets[f.id] for f in inst.in_edges(t))
            demanded = inst.demanded_sources(t)
            decoders[t] = tuple(
                tuple(rng.randrange(sizes[i]) for i in demanded) for _ in range(width)
            )
    return NetworkCode(
        blocklength=1,
        source_alphabets=sizes,
        edge_alphabets=edge_alphabets,
        encoders=encoders,
        decoders=decoders,
    )


def relay_with_entry(code: NetworkCode, table, value: int) -> NetworkCode:
    """A ``relay_instance`` code with one entry set to ``value``: ``table``
    is ``"e"`` for the last entry of the relay's encoder, or a column of the
    decoder's row a third of the way down."""
    encoders, decoders = dict(code.encoders), dict(code.decoders)
    if table == "e":
        encoders["e"] = code.encoders["e"].tolist()[:-1] + [value]
    else:
        rows = code.decoders["t"].tolist()
        rows[len(rows) // 3][table] = value
        decoders["t"] = rows
    return NetworkCode(1, code.source_alphabets, code.edge_alphabets, encoders, decoders)


def random_partition(rng: random.Random, table) -> SourcePartition:
    sizes = table.source_sizes
    kind = rng.randrange(5)
    if kind == 0:
        return SourcePartition.from_edge_values(table, rng.choice(table.inst.edges).id)
    if kind == 1:
        classes = []
        for s in sizes:
            n_cls = rng.randint(1, s)
            classes.append([rng.randrange(n_cls) for _ in range(s)])
        return SourcePartition.from_source_classes(sizes, classes)
    if kind == 2:
        return SourcePartition.singletons(sizes)
    if kind == 3:
        return SourcePartition.whole(sizes)
    n_labels = rng.randint(1, 6)
    return SourcePartition(
        sizes, [rng.randrange(n_labels) for _ in range(math.prod(sizes))]
    )


def evaluate_global(
    inst: NetworkInstance, code: NetworkCode, x: Sequence[int]
) -> tuple[int, ...]:
    """Messages on every edge for one source tuple, in instance edge order."""
    if len(x) != len(inst.sources):
        raise DomainError(f"expected {len(inst.sources)} source symbols")
    for v, size in zip(x, code.source_alphabets):
        if not 0 <= v < size:
            raise DomainError(f"source symbol {v} outside alphabet of size {size}")
    values: dict[str, int] = {}
    for e in topological_order(inst):
        table = code.encoders.get(e.id)
        if table is None:
            raise MalformedCodeError(f"edge {e.id!r} has no encoder table")
        if inst.is_source_node(e.tail):
            idx = x[inst.source_index(e.tail)]
        else:
            ins = inst.in_edges(e.tail)
            sizes = [code.edge_alphabets[f.id] for f in ins]
            idx = oracle_index([values[f.id] for f in ins], sizes)
        if idx >= len(table):
            raise MalformedCodeError(f"edge {e.id!r} encoder is missing entry {idx}")
        v = table[idx]
        if not 0 <= v < code.edge_alphabets[e.id]:
            raise MalformedCodeError(f"edge {e.id!r} encoder maps outside its alphabet")
        values[e.id] = v
    return tuple(values[e.id] for e in inst.edges)


def check_claims_on_original(table, cert) -> None:
    """A removal certificate's claim about the code it was computed from:
    on every tuple of the product of ``restricted_alphabets``, the removed
    edge carries ``edge_constant`` under ``table.inst`` and ``table.code``,
    by the scalar ``evaluate_global``."""
    pos = [e.id for e in table.inst.edges].index(cert.edge_id)
    for x in itertools.product(*cert.restricted_alphabets):
        assert evaluate_global(table.inst, table.code, x)[pos] == cert.edge_constant


def decode_outputs(
    inst: NetworkInstance, code: NetworkCode, edge_values: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Each terminal's decoder output for one vector of edge messages."""
    by_id = {e.id: v for e, v in zip(inst.edges, edge_values)}
    out = {}
    for t in inst.terminals:
        table = code.decoders.get(t)
        if table is None:
            raise MalformedCodeError(f"terminal {t!r} has no decoder table")
        ins = inst.in_edges(t)
        sizes = [code.edge_alphabets[f.id] for f in ins]
        idx = oracle_index([by_id[f.id] for f in ins], sizes)
        if idx >= len(table):
            raise MalformedCodeError(f"terminal {t!r} decoder is missing entry {idx}")
        out[t] = tuple(table[idx])
    return out


def scalar_table(inst: NetworkInstance, code: NetworkCode):
    """Every row and, per terminal, the sorted wrongly decoded tuple indices."""
    rows = []
    wrong = {t: [] for t in inst.terminals}
    for idx in range(math.prod(code.source_alphabets)):
        x = oracle_digits(idx, code.source_alphabets)
        row = evaluate_global(inst, code, x)
        outputs = decode_outputs(inst, code, row)
        rows.append([int(v) for v in row])
        for t in inst.terminals:
            if outputs[t] != tuple(x[i] for i in inst.demanded_sources(t)):
                wrong[t].append(idx)
    return rows, wrong


def marginals_sum_to_log(n: int, marginal_counts: Sequence[Sequence[int]]) -> bool:
    """Whether the marginal entropies of k variables over n equally likely
    tuples sum to exactly log2 n, decided in integers.

    ``marginal_counts[i]`` holds the counts of variable i's values.  Since
    n * H(X_i) = n * log2 n - sum_c c * log2 c, the sum is log2 n exactly
    when n ** (n * (k - 1)) == prod_i prod_c c ** c.
    """
    k = len(marginal_counts)
    return n ** (n * (k - 1)) == math.prod(c**c for counts in marginal_counts for c in counts)


def random_hom_witness(rng, max_order, size_pool, max_sources, product_cap):
    """Random cyclic-source homomorphism with a derived edge group."""
    m = rng.randint(2, max_order)
    sizes = []
    for _ in range(rng.randint(1, max_sources)):
        n = rng.choice(size_pool)
        if math.prod(sizes, start=n) > product_cap:
            n = 2
        sizes.append(n)
    coeffs = []
    for n in sizes:
        step = m // math.gcd(n, m)
        coeffs.append(step * rng.randrange(max(1, m // step)))
    table = []
    for idx in range(math.prod(sizes)):
        digits = oracle_digits(idx, sizes)
        table.append(sum(c * d for c, d in zip(coeffs, digits)) % m)
    groups = [CyclicGroup(n) for n in sizes]
    witness = derive_edge_group(tuple(table), groups)
    if witness is None:
        return None
    assert check_cwl(tuple(table), groups, witness.edge_group, witness.edge_support) is not None
    return sizes, tuple(table), witness


def coordinate_classes(w) -> list[list[list[int]]]:
    """Per source, the symbol classes of ``cwl._coordinate_class_ids``, the
    ids the class partition is built from: classes by first occurrence,
    members ascending."""
    return [
        [np.flatnonzero(ids == c).tolist() for c in range(int(ids.max()) + 1)]
        for ids in _coordinate_class_ids(w)
    ]


def classes_equal_sized(classes) -> bool:
    """Whether, for each source, all coordinate classes have the same size."""
    return all(len({len(c) for c in per_source}) == 1 for per_source in classes)


def part_tuples(part: SourcePartition, label) -> list[tuple[int, ...]]:
    """The source tuples of one part, in dense index order, in plain ints."""
    return [oracle_digits(t, part.source_sizes) for t in part.members(label).tolist()]


def oracle_projection_sizes(part: SourcePartition) -> list[list[int]]:
    """Per part, in ``keys`` order, the number of distinct symbols each
    source takes on its tuples, from a set per source in plain ints."""
    seen = [[set() for _ in part.source_sizes] for _ in part.keys]
    for t, pos in enumerate(part.ids.tolist()):
        for symbols, v in zip(seen[pos], oracle_digits(t, part.source_sizes)):
            symbols.add(v)
    return [[len(symbols) for symbols in per_part] for per_part in seen]


def oracle_coordinate_classes(w) -> list[list[list[int]]]:
    """Per source, the symbol classes sharing a single-coordinate image, one
    witness lookup per symbol: classes by first occurrence, members
    ascending."""
    sizes = w.source_sizes
    out = []
    for i, g in enumerate(w.source_groups):
        base = [h.identity for h in w.source_groups]
        classes: dict[int, list[int]] = {}  # insertion order is first occurrence
        for v in range(g.order):
            base[i] = v
            classes.setdefault(int(w.hom[oracle_index(base, sizes)]), []).append(v)
        out.append(list(classes.values()))
    return out


def oracle_class_pick(w, subsets) -> list[list[int]]:
    """Per source, the members of the subset in the class holding most of
    them (ties to the earliest class), as piecewise removal keeps them."""
    kept = []
    for classes, subset in zip(oracle_coordinate_classes(w), subsets):
        good = set(subset)
        best = max(range(len(classes)), key=lambda c: (len(set(classes[c]) & good), -c))
        kept.append(sorted(set(classes[best]) & good))
    return kept


def random_coordinate_characterization(rng) -> GroupCharacterization:
    """A product of at most three cyclic groups (order <= 256) with one
    coordinate subgroup per factor and a cyclic edge subgroup ``e``."""
    while True:
        factors = [rng.choice((2, 2, 3, 3, 4, 5, 8)) for _ in range(rng.randint(2, 3))]
        if math.prod(factors) <= 256:
            break
    group = ProductGroup([CyclicGroup(n) for n in factors])
    subgroups = {}
    for i in range(len(factors)):
        members = [g for g in range(group.order) if oracle_digits(g, factors)[i] == 0]
        subgroups[f"s{i + 1}"] = subgroup(group, members)
    seed = rng.randrange(group.order)
    cyclic = generated_subgroup(group, [seed])
    subgroups["e"] = subgroup(group, np.flatnonzero(cyclic.mask).tolist())
    return GroupCharacterization(group, subgroups)


def joint_counts(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """How many of the n tuples take each joint value of the columns.

    Each column holds one symbol per tuple; the counts come in order of
    first occurrence.  No columns give the single count n.
    """
    # Pack the columns into one dense key per tuple, re-densifying the key
    # before it could outgrow 63 bits.
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for col in columns:
        symbols, col = np.unique(col, return_inverse=True)
        if bound * len(symbols) >= 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * len(symbols) + col
        bound *= len(symbols)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return counts[np.argsort(first)]


def characterize_witness(w: CwlWitness) -> GroupCharacterization:
    """Group characterization induced by a CWL witness, verified exactly.

    The carrier is the product of the source groups; source i's subgroup
    pins coordinate i to its identity, and the edge subgroup is the kernel
    of the witness homomorphism.  The realized variables are materialized
    through an explicit relay network, and every subset of them must obey
    the uniform coset law: exactly ``|G| / |intersection|`` joint values,
    each on exactly ``|intersection|`` tuples.  That is the entropy
    ``log2(|G| / |intersection|)``, decided on integer counts.
    """
    product = ProductGroup(w.source_groups)
    sizes = w.source_sizes
    total = product.order
    digits = index_digits(np.arange(total), sizes)
    subgroups = {
        f"s{i + 1}": subgroup(product, d == g.identity)
        for i, (g, d) in enumerate(zip(w.source_groups, digits))
    }
    subgroups["e"] = subgroup(product, w.hom == w.edge_group.identity)
    gc = GroupCharacterization(product, subgroups)

    edge_size = max(w.edge_support) + 1
    inst, code = relay_instance(sizes, edge_size, w.phi_table())
    table = build_global_table(inst, code)
    columns = dict(zip(subgroups, digits + [table.edge_values("e")]))
    for r in range(len(columns) + 1):
        for alpha in itertools.combinations(columns, r):
            meet = gc.meet_order(alpha)
            counts = joint_counts([columns[k] for k in alpha], total)
            if (counts != meet).any():
                raise InternalCheckError(
                    f"variables {alpha} take {counts.size} joint values with counts "
                    f"{counts.min()}..{counts.max()}, the coset law needs "
                    f"{total // meet} values on {meet} tuples each"
                )
    return gc


def random_balanced_map(rng) -> dict[int, int]:
    """A map hitting each of q codomain values exactly f times."""
    q = rng.randint(1, 8)
    f = rng.randint(1, 24 // q)
    domain = rng.sample(range(200), q * f)
    codomain = rng.sample(range(200), q)
    values = [codomain[i // f] for i in range(q * f)]
    rng.shuffle(values)
    return dict(zip(domain, values))


def relabel_balanced(g: dict) -> tuple[dict, dict, CwlWitness | None]:
    """A balanced map as the second projection of Z_f x Z_q after relabeling
    both sides: domain element a is labeled (its position in its fiber, the
    fiber's index) and value b its index in the sorted codomain.  Returns
    the two labelings and ``check_cwl``'s witness for the projection."""
    codomain = sorted(set(g.values()))
    fibers = [[a for a in sorted(g) if g[a] == b] for b in codomain]
    f, q = len(fibers[0]), len(codomain)
    assert all(len(fiber) == f for fiber in fibers), "the map is not balanced"
    domain_labels = {a: (i, j) for j, fiber in enumerate(fibers) for i, a in enumerate(fiber)}
    projection = [j for _ in range(f) for j in range(q)]
    witness = check_cwl(projection, [CyclicGroup(f), CyclicGroup(q)], CyclicGroup(q), range(q))
    return domain_labels, {b: j for j, b in enumerate(codomain)}, witness


# The symmetric group S3 as a Cayley table: 0 is the identity, 1 and 2 the
# rotations, 3..5 the reflections.  {0, 3} is a non-normal subgroup, so its
# left and right cosets differ.
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 5, 4, 0, 2, 1],
    [4, 3, 5, 1, 0, 2],
    [5, 4, 3, 2, 1, 0],
]


def s3() -> TableGroup:
    return TableGroup(S3_TABLE)


def relabel_table(table, perm):
    """The Cayley table with element a renamed perm[a]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


class ReferenceGroup:
    """Scalar reference arithmetic: sums mod n for cyclic groups,
    componentwise products for product groups and literal Cayley-table
    lookups, one element at a time."""

    def __init__(self, group):
        self.order = group.order
        desc = group.describe()
        self.kind = desc["kind"]
        if self.kind == "cyclic":
            self.identity = 0
        elif self.kind == "table":
            self.table = desc["table"]
            elements = list(range(self.order))
            self.identity = next(
                e for e in elements
                if self.table[e] == elements and [row[e] for row in self.table] == elements
            )
        else:
            self.factors = [ReferenceGroup(g) for g in group.factors]
            self.identity = self._encode([f.identity for f in self.factors])

    def _encode(self, values) -> int:
        return oracle_index(values, [f.order for f in self.factors])

    def _digits(self, a: int) -> tuple[int, ...]:
        return oracle_digits(a, [f.order for f in self.factors])

    def op(self, a: int, b: int) -> int:
        if self.kind == "cyclic":
            return (a + b) % self.order
        if self.kind == "table":
            return self.table[a][b]
        pairs = zip(self.factors, self._digits(a), self._digits(b))
        return self._encode([f.op(x, y) for f, x, y in pairs])

    def inverse(self, a: int) -> int:
        if self.kind == "cyclic":
            return (-a) % self.order
        if self.kind == "table":
            return self.table[a].index(self.identity)
        return self._encode([f.inverse(x) for f, x in zip(self.factors, self._digits(a))])


def oracle_is_subgroup(ref: ReferenceGroup, members) -> bool:
    s = set(members)
    return (
        ref.identity in s
        and all(ref.inverse(a) in s for a in s)
        and all(ref.op(a, b) in s for a in s for b in s)
    )


def oracle_is_homomorphism(dom: ReferenceGroup, cod: ReferenceGroup, vals) -> bool:
    return all(
        vals[dom.op(a, b)] == cod.op(vals[a], vals[b])
        for a in range(dom.order)
        for b in range(dom.order)
    )


def oracle_cosets(ref: ReferenceGroup, members) -> list[list[int]]:
    """Left cosets gH, ordered by smallest representative."""
    seen = set()
    out = []
    for g in range(ref.order):
        if g not in seen:
            coset = sorted(ref.op(g, h) for h in members)
            seen.update(coset)
            out.append(coset)
    return out


def oracle_closure(ref: ReferenceGroup, gens) -> set[int]:
    """Elements reached from the identity by right multiplication with gens."""
    reached = {ref.identity}
    frontier = [ref.identity]
    while frontier:
        fresh = {ref.op(x, g) for x in frontier for g in gens} - reached
        reached |= fresh
        frontier = sorted(fresh)
    return reached


def oracle_is_group(table) -> bool:
    """Whether a Cayley table has a two-sided identity, a two-sided inverse
    per element and is associative, checked over every triple."""
    n = len(table)
    elements = range(n)
    identities = [
        e for e in elements
        if all(table[e][a] == a and table[a][e] == a for a in elements)
    ]
    if not identities:
        return False
    e = identities[0]
    for a in elements:
        right = [b for b in elements if table[a][b] == e]
        if len(right) != 1 or table[right[0]][a] != e:
            return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in elements for b in elements for c in elements
    )

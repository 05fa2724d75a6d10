"""Independent oracle for the benchmark's checks.

Nothing here imports ``edgedrop``.  Codes are read in their JSON form and
evaluated one source tuple at a time; group facts are recomputed from the
group descriptions with plain modular arithmetic.  The checks follow the
documented input formats and the properties the workbench promises, never a
saved program output.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class OracleError(Exception):
    """A code or report is malformed from the oracle's point of view."""


def mixed_radix(values, sizes) -> int:
    idx = 0
    for v, s in zip(values, sizes):
        idx = idx * s + v
    return idx


def all_tuples(sizes):
    return itertools.product(*[range(s) for s in sizes])


def _topological_edges(inst: dict) -> list[dict]:
    edges = inst["edges"]
    indeg = {v: 0 for v in inst["nodes"]}
    for e in edges:
        indeg[e["head"]] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for e in edges:
            if e["tail"] == v:
                indeg[e["head"]] -= 1
                if indeg[e["head"]] == 0:
                    ready.append(e["head"])
    if len(order) != len(inst["nodes"]):
        raise OracleError("instance graph has a cycle")
    pos = {v: i for i, v in enumerate(order)}
    return sorted(edges, key=lambda e: pos[e["tail"]])


class Evaluator:
    """Scalar evaluation of one code, one source tuple at a time.

    Encoder inputs are the tail's incoming edges sorted by edge id (or the
    source symbol for an edge leaving a source); decoder inputs are the
    terminal's incoming edges in the same order.  That is the file format,
    so it is the only thing the oracle shares with the program.
    """

    def __init__(self, inst: dict, code: dict):
        self.sizes = [s["alphabet_size"] for s in inst["sources"]]
        if list(code["source_alphabets"]) != self.sizes:
            raise OracleError("code and instance source alphabets differ")
        src_index = {s["node"]: i for i, s in enumerate(inst["sources"])}
        alph = code["edge_alphabets"]
        for e in inst["edges"]:
            if alph.get(e["id"]) != e["alphabet_size"]:
                raise OracleError(f"edge {e['id']!r} alphabet mismatch")

        def inputs(node):
            return sorted((e["id"] for e in inst["edges"] if e["head"] == node))

        self.plan = []
        for e in _topological_edges(inst):
            table = code["encoders"][e["id"]]
            if e["tail"] in src_index:
                width = self.sizes[src_index[e["tail"]]]
                step = (e["id"], src_index[e["tail"]], None, None, table)
            else:
                ins = inputs(e["tail"])
                radix = [alph[f] for f in ins]
                width = math.prod(radix)
                step = (e["id"], None, ins, radix, table)
            if len(table) != width:
                raise OracleError(f"encoder {e['id']!r} has {len(table)} entries, want {width}")
            if any(not (isinstance(v, int) and 0 <= v < e["alphabet_size"]) for v in table):
                raise OracleError(f"encoder {e['id']!r} maps outside its alphabet")
            self.plan.append(step)
        self.terminals = []
        for j, t in enumerate(inst["terminals"]):
            ins = inputs(t)
            radix = [alph[f] for f in ins]
            demanded = [i for i, row in enumerate(inst["demands"]) if row[j]]
            rows = code["decoders"][t]
            if len(rows) != math.prod(radix):
                raise OracleError(f"decoder {t!r} has {len(rows)} rows")
            self.terminals.append((t, ins, radix, demanded, rows))
        self.edge_ids = [e["id"] for e in inst["edges"]]

    def edge_values(self, x) -> dict:
        vals = {}
        for eid, si, ins, radix, table in self.plan:
            if si is not None:
                vals[eid] = table[x[si]]
            else:
                idx = 0
                for f, s in zip(ins, radix):
                    idx = idx * s + vals[f]
                vals[eid] = table[idx]
        return vals

    def decoder_index(self, terminal: int, vals: dict) -> int:
        _, ins, radix, _, _ = self.terminals[terminal]
        return mixed_radix([vals[f] for f in ins], radix)

    def wrong_terminals(self, x, vals: dict) -> list[str]:
        out = []
        for t, ins, radix, demanded, rows in self.terminals:
            idx = 0
            for f, s in zip(ins, radix):
                idx = idx * s + vals[f]
            row = rows[idx]
            if len(row) != len(demanded) or any(row[k] != x[i] for k, i in enumerate(demanded)):
                out.append(t)
        return out


class Table:
    """Every source tuple's edge messages and decoding outcome."""

    def __init__(self, inst: dict, code: dict):
        ev = Evaluator(inst, code)
        self.sizes = ev.sizes
        self.n = math.prod(self.sizes)
        self.columns = {eid: [] for eid in ev.edge_ids}
        self.good = []
        self.wrong_counts = {t[0]: 0 for t in ev.terminals}
        cols = self.columns
        for x in all_tuples(self.sizes):
            vals = ev.edge_values(x)
            for eid, v in vals.items():
                cols[eid].append(v)
            wrong = ev.wrong_terminals(x, vals)
            for t in wrong:
                self.wrong_counts[t] += 1
            self.good.append(not wrong)

    @property
    def bad(self) -> int:
        return self.good.count(False)

    @property
    def error(self) -> Fraction:
        return Fraction(self.bad, self.n)

    def terminal_error(self, t: str) -> Fraction:
        return Fraction(self.wrong_counts[t], self.n)


def below(bad: int, total: int, eps: Fraction) -> bool:
    """Error bad/total meets eps: zero at eps 0, strictly below otherwise."""
    if eps == 0:
        return bad == 0
    return bad * eps.denominator < eps.numerator * total


def feasible(table: Table, eps: Fraction, targets) -> bool:
    decoding = all(below(w, table.n, eps) for w in table.wrong_counts.values())
    return decoding and all(s >= t for s, t in zip(table.sizes, targets))


def partition_outcome(table: Table, edge_id: str, labels, eps: Fraction, edge_size: int):
    """Conditions and the smallest qualifying label of a label partition."""
    parts: dict = {}
    for idx, y in enumerate(labels):
        parts.setdefault(y, []).append(idx)
    column = table.columns[edge_id]
    determines = all(len({column[i] for i in ids}) == 1 for ids in parts.values())
    tuples = list(all_tuples(table.sizes))
    products = True
    projections = {}
    for y, ids in parts.items():
        proj = [sorted({tuples[i][k] for i in ids}) for k in range(len(table.sizes))]
        projections[y] = proj
        if len(ids) != math.prod(len(p) for p in proj):
            products = False
    witness = None
    if determines and products:
        for y in sorted(parts):
            ids = parts[y]
            if any(len(p) * edge_size < s for p, s in zip(projections[y], table.sizes)):
                continue
            bad = sum(1 for i in ids if not table.good[i])
            if below(bad, len(ids), eps):
                witness = y
                break
    return determines, products, witness


def check_certificate(
    inst: dict, code: dict, edge_id: str, eps: Fraction, result: dict
) -> list[str]:
    """Problems with one removal certificate and its restricted code."""
    problems = []
    cert = result["certificate"]
    r_inst, r_code = result["restricted_instance"], result["restricted_code"]
    if cert["edge_id"] != edge_id:
        problems.append("certificate names another edge")
    if Fraction(cert["eps"]) != eps:
        problems.append("certificate eps differs from the requested eps")
    if any(e["id"] == edge_id for e in r_inst["edges"]):
        problems.append("removed edge is still in the restricted instance")
    kept_edges = [(e["id"], e["tail"], e["head"]) for e in inst["edges"] if e["id"] != edge_id]
    if [(e["id"], e["tail"], e["head"]) for e in r_inst["edges"]] != kept_edges:
        problems.append("restricted instance does not keep the other edges")
    sizes = [s["alphabet_size"] for s in inst["sources"]]
    edge_size = next(e["alphabet_size"] for e in inst["edges"] if e["id"] == edge_id)
    kept = cert["restricted_alphabets"]
    if len(kept) != len(sizes) or any(
        not k or sorted(set(k)) != k or k[0] < 0 or k[-1] >= s for k, s in zip(kept, sizes)
    ):
        return problems + ["restricted alphabets are not subsets of the sources"]
    want_promise = [-(-s // edge_size) for s in sizes]
    achieved = [len(k) for k in kept]
    if cert["promised_cardinalities"] != want_promise:
        problems.append("promised cardinalities are not ceil(|A_i| / |E|)")
    if cert["achieved_cardinalities"] != achieved:
        problems.append("achieved cardinalities do not match the kept alphabets")
    if any(a < p for a, p in zip(achieved, want_promise)):
        problems.append("an achieved size is below ceil(|A_i| / |E|)")
    if [s["alphabet_size"] for s in r_inst["sources"]] != achieved:
        problems.append("restricted instance keeps other source alphabets")
    if not cert["feasibility"]["verdict"]:
        problems.append("certificate re-verification is not true")
    original = Evaluator(inst, code)
    try:
        restricted = Evaluator(r_inst, r_code)
    except (OracleError, KeyError, TypeError) as exc:
        return problems + [f"restricted code is malformed: {exc}"]
    relabel = [{v: i for i, v in enumerate(k)} for k in kept]
    r_bad = 0
    constants = set()
    for x in itertools.product(*kept):
        vals = original.edge_values(x)
        constants.add(vals[edge_id])
        y = tuple(r[v] for r, v in zip(relabel, x))
        r_vals = restricted.edge_values(y)
        r_wrong = restricted.wrong_terminals(y, r_vals)
        if r_wrong:
            r_bad += 1
            if not original.wrong_terminals(x, vals):
                problems.append(f"restriction broke decoding of kept tuple {list(x)}")
                break
    if constants != {cert["edge_constant"]}:
        problems.append("removed edge is not constant on the kept product")
    if not below(r_bad, math.prod(achieved), eps):
        problems.append("restricted code misses the error target")
    return problems


def cyclic_cwl(column, sizes) -> bool:
    """Kernel-coset test over cyclic sources.

    Let K be the fiber of the identity's value and H the subgroup K
    generates.  The function is a homomorphism onto a group on its image
    exactly when it is constant on every coset x + H (which forces H = K)
    and every fiber has |K| elements, so that each fiber is one coset.
    """
    n = len(column)
    tuples = list(all_tuples(sizes))

    def add(a: int, b: int) -> int:
        return mixed_radix([(u + v) % s for u, v, s in zip(tuples[a], tuples[b], sizes)], sizes)

    kernel = [k for k in range(n) if column[k] == column[0]]
    counts: dict = {}
    for v in column:
        counts[v] = counts.get(v, 0) + 1
    if set(counts.values()) != {len(kernel)}:
        return False
    generators: list[int] = []
    span = {0}
    for k in kernel:
        if k in span:
            continue
        generators.append(k)
        frontier = list(span)
        while frontier:
            a = frontier.pop()
            for g in generators:
                b = add(a, g)
                if b not in span:
                    span.add(b)
                    frontier.append(b)
    return all(column[add(x, g)] == column[x] for x in range(n) for g in generators)


class Group:
    """A finite group from a description: op, identity and generators."""

    def __init__(self, desc: dict):
        kind = desc["kind"]
        if kind == "cyclic":
            n = desc["order"]
            self.order = n
            self.op = lambda a, b: (a + b) % n
            self.identity = 0
            self.generators = [1 % n]
        elif kind == "product":
            factors = [Group(d) for d in desc["factors"]]
            radix = [f.order for f in factors]
            self.order = math.prod(radix)

            def decode(a):
                out = []
                for s in reversed(radix):
                    out.append(a % s)
                    a //= s
                return out[::-1]

            self.op = lambda a, b: mixed_radix(
                [f.op(x, y) for f, x, y in zip(factors, decode(a), decode(b))], radix
            )
            self.identity = mixed_radix([f.identity for f in factors], radix)
            self.generators = []
            for i, f in enumerate(factors):
                for g in f.generators:
                    coords = [h.identity for h in factors]
                    coords[i] = g
                    self.generators.append(mixed_radix(coords, radix))
        elif kind == "table":
            table = desc["table"]
            n = len(table)
            self.order = n
            if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
                raise OracleError("malformed Cayley table")
            ids = list(range(n))
            idents = [e for e in ids if table[e] == ids and [r[e] for r in table] == ids]
            if len(idents) != 1:
                raise OracleError("Cayley table has no identity")
            self.identity = idents[0]
            for a in ids:
                if sum(1 for b in ids if table[a][b] == self.identity) != 1:
                    raise OracleError("Cayley table element without inverse")
                for b in ids:
                    ab = table[a][b]
                    if any(table[ab][c] != table[a][table[b][c]] for c in ids):
                        raise OracleError("Cayley table is not associative")
            self.op = lambda a, b: table[a][b]
            self.generators = ids
        else:
            raise OracleError(f"unknown group kind {kind!r}")


def check_witness(witness: dict, column, sizes) -> list[str]:
    """Whether a reported witness is a homomorphism reproducing the column."""
    problems = []
    sources = [Group(d) for d in witness["source_groups"]]
    if [g.order for g in sources] != list(sizes):
        return ["witness source groups do not match the source alphabets"]
    edge = Group(witness["edge_group"])
    support = witness["edge_support"]
    hom = witness["hom"]
    n = len(column)
    if len(hom) != n or any(not (isinstance(k, int) and 0 <= k < edge.order) for k in hom):
        return ["witness hom is not a map into the edge group"]
    if len(support) != edge.order or len(set(support)) != len(support):
        return ["edge support is not one distinct symbol per edge group element"]
    if set(hom) != set(range(edge.order)):
        problems.append("witness hom is not onto the edge group")
    if any(support[k] != v for k, v in zip(hom, column)):
        problems.append("witness does not reproduce the edge column")
    product = Group({"kind": "product", "factors": witness["source_groups"]})
    for x in range(n):
        hx = hom[x]
        for g in product.generators:
            if hom[product.op(x, g)] != edge.op(hx, hom[g]):
                return problems + ["witness hom is not a homomorphism"]
    return problems


def coset_labels(group: Group, members) -> list[int]:
    """Dense left-coset label of every element, by smallest representative."""
    labels = [-1] * group.order
    nxt = 0
    for g in range(group.order):
        if labels[g] == -1:
            for m in members:
                labels[group.op(g, m)] = nxt
            nxt += 1
    return labels


def zero_error_decisions(subgroups: dict, demands) -> list[dict]:
    """Kinds and q of the decoder dichotomy, by subgroup containment.

    A demand is met exactly when the observed subgroup lies inside the
    demanded one; otherwise q = |G_in| / |G_in meet G_src| and the best
    decoder errs on 1 - 1/q of the elements.
    """
    out = []
    for in_key, src_key in demands:
        g_in, g_src = set(subgroups[in_key]), set(subgroups[src_key])
        if g_in <= g_src:
            out.append({"kind": "zero_error", "q": None, "min_error": None})
        else:
            q = len(g_in) // len(g_in & g_src)
            out.append({"kind": "high_error", "q": q, "min_error": str(1 - Fraction(1, q))})
    return out

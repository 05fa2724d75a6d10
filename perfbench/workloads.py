"""Seeded inputs and their expected outcomes, one builder per workload.

Every builder writes instance, code, label, group and characterization files
into a work directory and returns the jobs to run there.  A job is one
``edgedrop`` command line plus the exit status and report content the oracle
expects.  The seed changes symbols, coefficients, corrupted rows and labels,
never the shapes, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from oracle import (
    Evaluator,
    Table,
    all_tuples,
    check_certificate,
    check_witness,
    coset_labels,
    cyclic_cwl,
    feasible,
    Group,
    mixed_radix,
    partition_outcome,
    zero_error_decisions,
)


@dataclass
class Job:
    """One invocation: its argv, expected exit status and report check."""

    argv: list[str]
    status: int
    check: Callable[[dict], list[str]] = field(repr=False)


class Workspace:
    def __init__(self, directory: str):
        self.directory = directory

    def write(self, name: str, data) -> str:
        with open(os.path.join(self.directory, name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, separators=(",", ":")))
        return name

    def pair(self, name: str, inst: dict, code: dict) -> tuple[str, str]:
        return self.write(name + ".instance.json", inst), self.write(name + ".code.json", code)


# ----------------------------------------------------------------- codes


def _edge(eid, tail, head, size):
    return {"id": eid, "tail": tail, "head": head, "alphabet_size": size}


def _code(inst: dict, encoders: dict, decoders: dict) -> dict:
    return {
        "blocklength": 1,
        "source_alphabets": [s["alphabet_size"] for s in inst["sources"]],
        "edge_alphabets": {e["id"]: e["alphabet_size"] for e in inst["edges"]},
        "encoders": encoders,
        "decoders": decoders,
    }


def relay(sizes, q: int, phi) -> tuple[dict, dict]:
    """Sources feed relay ``u`` over ``ci`` and terminal ``t`` over ``di``.

    Edge ``e`` carries ``phi`` (dense over source tuples, last source
    fastest); the terminal repeats the direct messages, so the code is
    zero-error.
    """
    k = len(sizes)
    edges = []
    for i, s in enumerate(sizes):
        edges.append(_edge(f"c{i + 1}", f"s{i + 1}", "u", s))
        edges.append(_edge(f"d{i + 1}", f"s{i + 1}", "t", s))
    edges.append(_edge("e", "u", "t", q))
    inst = {
        "nodes": [f"s{i + 1}" for i in range(k)] + ["u", "t"],
        "edges": edges,
        "sources": [{"node": f"s{i + 1}", "alphabet_size": s} for i, s in enumerate(sizes)],
        "terminals": ["t"],
        "demands": [[1] for _ in range(k)],
    }
    encoders = {}
    for i, s in enumerate(sizes):
        encoders[f"c{i + 1}"] = list(range(s))
        encoders[f"d{i + 1}"] = list(range(s))
    encoders["e"] = list(phi)
    rows = [list(combo[:k]) for combo in all_tuples(list(sizes) + [q])]
    return inst, _code(inst, encoders, {"t": rows})


def corrupt_relay(sizes, q: int, code: dict, phi, count: int, rng: random.Random) -> None:
    """Make ``count`` distinct source tuples decode wrongly.

    Each chosen tuple's reachable decoder row (direct messages plus its own
    edge message) is replaced by another tuple, so the exact error is
    ``count / |tuples|`` by construction.
    """
    rows = code["decoders"]["t"]
    for idx in rng.sample(range(len(phi)), count):
        x = [idx // math.prod(sizes[i + 1:]) % s for i, s in enumerate(sizes)]
        row = mixed_radix(x + [phi[idx]], list(sizes) + [q])
        rows[row] = [(x[0] + 1) % sizes[0]] + x[1:]


def butterfly(n: int, q: int, coeffs=(1, 1)) -> tuple[dict, dict]:
    """Butterfly with size-n sources and a sum-mod-q bottleneck.

    ``bi`` carries ``ci * xi mod q``, the bottleneck their sum, and ``c1``,
    ``c2`` forward it to the terminals, which consume it downstream of the
    removed edge.  Cross edges ``hi`` carry ``xi div q`` when q < n, so both
    terminals decode both sources exactly.  With n = q = 2 this is the
    binary butterfly, with n = 4, q = 2 the wide one.
    """
    c1, c2 = coeffs
    cross = q < n
    edges = [
        _edge("a1", "s1", "u1", n),
        _edge("a2", "s2", "u2", n),
        _edge("b1", "u1", "m", q),
        _edge("b2", "u2", "m", q),
        _edge("bottleneck", "m", "r", q),
        _edge("c1", "r", "t1", q),
        _edge("c2", "r", "t2", q),
        _edge("d1", "u1", "t1", n),
        _edge("d2", "u2", "t2", n),
    ]
    if cross:
        edges += [_edge("h1", "u1", "t2", n // q), _edge("h2", "u2", "t1", n // q)]
    inst = {
        "nodes": ["s1", "s2", "u1", "u2", "m", "r", "t1", "t2"],
        "edges": edges,
        "sources": [{"node": "s1", "alphabet_size": n}, {"node": "s2", "alphabet_size": n}],
        "terminals": ["t1", "t2"],
        "demands": [[1, 1], [1, 1]],
    }
    ident = list(range(n))
    encoders = {
        "a1": ident,
        "a2": ident,
        "b1": [c1 * x % q for x in range(n)],
        "b2": [c2 * x % q for x in range(n)],
        "bottleneck": [(a + b) % q for a in range(q) for b in range(q)],
        "c1": list(range(q)),
        "c2": list(range(q)),
        "d1": ident,
        "d2": ident,
    }
    inv1, inv2 = pow(c1, -1, q), pow(c2, -1, q)
    if cross:
        encoders["h1"] = [x // q for x in range(n)]
        encoders["h2"] = [x // q for x in range(n)]
        # Inputs sort as (c1, d1, h2) and (c2, d2, h1).
        t1 = [[d, h * q + (c - c1 * d) * inv2 % q] for c in range(q) for d in range(n) for h in range(n // q)]
        t2 = [[h * q + (c - c2 * d) * inv1 % q, d] for c in range(q) for d in range(n) for h in range(n // q)]
    else:
        t1 = [[d, (c - c1 * d) * inv2 % q] for c in range(q) for d in range(n)]
        t2 = [[(c - c2 * d) * inv1 % q, d] for c in range(q) for d in range(n)]
    return inst, _code(inst, encoders, {"t1": t1, "t2": t2})


def class_labels(sizes, q: int, rng: random.Random) -> list[int]:
    """Product partition by per-source residues mod q, labels shuffled."""
    classes = [min(q, s) for s in sizes]
    names = list(range(math.prod(classes)))
    rng.shuffle(names)
    return [names[mixed_radix([v % c for v, c in zip(x, classes)], classes)] for x in all_tuples(sizes)]


# ------------------------------------------------------------- checks


def verify_job(paths, table: Table, eps: Fraction) -> Job:
    """``verify`` at full source rates; the oracle's table decides."""
    verdict = feasible(table, eps, table.sizes)

    def check(report: dict) -> list[str]:
        feas = report["result"]["feasibility"]
        problems = []
        if feas["verdict"] is not verdict:
            problems.append(f"verdict {feas['verdict']}, oracle says {verdict}")
        if Fraction(feas["error"]) != table.error:
            problems.append(f"error {feas['error']}, oracle says {table.error}")
        if feas["num_tuples"] != table.n:
            problems.append("wrong tuple count")
        for t, err in feas["per_terminal_error"].items():
            if Fraction(err) != table.terminal_error(t):
                problems.append(f"terminal {t} error {err}, oracle says {table.terminal_error(t)}")
        return problems

    argv = ["verify", *paths, "--rates", ",".join(f"#{t}" for t in table.sizes), "--eps", str(eps)]
    return Job(argv, 0 if verdict else 1, check)


def partition_job(ws, name, paths, inst, code, table: Table, edge_id, labels, eps) -> Job:
    edge_size = next(e["alphabet_size"] for e in inst["edges"] if e["id"] == edge_id)
    determines, products, witness = partition_outcome(table, edge_id, labels, eps, edge_size)
    found = witness is not None

    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = []
        if result["found"] is not found:
            return [f"found {result['found']}, oracle says {found}"]
        cond = result["conditions"]
        if (cond["determines_edge"], cond["parts_are_products"]) != (determines, products):
            problems.append(f"conditions {cond}, oracle says {determines}, {products}")
        if found:
            if result["certificate"]["witness_label"] != witness:
                problems.append(f"witness label {result['certificate']['witness_label']}, smallest is {witness}")
            problems += check_certificate(inst, code, edge_id, eps, result)
        return problems

    label_path = ws.write(name + ".labels.json", {"labels": labels})
    argv = ["remove-edge", *paths, "--edge", edge_id, "--partition", label_path, "--eps", str(eps)]
    return Job(argv, 0 if found else 1, check)


def edge_value_job(paths, inst, code, table: Table, edge_id) -> Job:
    """Zero-error removal through the edge's own level sets."""
    column = table.columns[edge_id]
    found = partition_outcome(table, edge_id, column, Fraction(0), 1)[1]

    def check(report: dict) -> list[str]:
        result = report["result"]
        if result["found"] is not found:
            return [f"found {result['found']}, oracle says {found}"]
        return check_certificate(inst, code, edge_id, Fraction(0), result) if found else []

    argv = ["remove-edge", *paths, "--edge", edge_id, "--partition", "builtin:edge-value"]
    return Job(argv, 0 if found else 1, check)


def _witness_check(column, sizes, expect_found: bool):
    def check(result: dict) -> list[str]:
        w = result.get("witness")
        if (w is not None) is not expect_found:
            return [f"witness present {w is not None}, expected {expect_found}"]
        return check_witness(w, column, sizes) if expect_found else []

    return check


def cwl_check_job(paths, table: Table, edge_id: str, expect: bool | None = None) -> Job:
    """``cwl-check`` over cyclic sources; the kernel-coset test decides."""
    column = table.columns[edge_id]
    found = cyclic_cwl(column, table.sizes)
    if expect is not None and expect is not found:
        raise AssertionError("construction and kernel-coset test disagree")
    inner = _witness_check(column, table.sizes, found)
    return Job(["cwl-check", *paths, "--edge", edge_id], 0 if found else 1, lambda r: inner(r["result"]))


# --------------------------------------------------------- large-tables


def large_tables(ws: Workspace, rng: random.Random) -> list[Job]:
    """Explicit tables at 2^12, 2^14 and 2^16 source tuples.

    One job at 2^12, six at 2^14 and one at 2^16, so the median job sits in
    the middle of the 2^14 group and not on the border between two sizes.
    """
    jobs: list[Job] = []

    def sum_relay(name, sizes, q, corrupted=0):
        phi = _linear(sizes, q, [rng.randrange(1, q, 2) for _ in sizes])
        inst, code = relay(sizes, q, phi)
        if corrupted:
            corrupt_relay(sizes, q, code, phi, corrupted, rng)
        table = Table(inst, code)
        if table.bad != corrupted:
            raise AssertionError("oracle error differs from the construction")
        return ws.pair(name, inst, code), inst, code, table

    def just(table, side):
        return Fraction(2 * table.bad + side, 2 * table.n)

    # 2^12: sum-mod-4 relay, whose level sets are not products.
    paths, inst, code, table = sum_relay("sum12", (16, 16, 16), 4)
    jobs.append(edge_value_job(paths, inst, code, table, "e"))

    # 2^14: a relay whose edge reads source 1 through a balanced map, so its
    # level sets are products; a widened butterfly; a corrupted sum relay
    # verified just below and just above its error.
    sizes, q = (64, 16, 16), 16
    f = [v % q for v in range(sizes[0])]
    rng.shuffle(f)
    inst, code = relay(sizes, q, [f[x[0]] for x in all_tuples(sizes)])
    jobs.append(edge_value_job(ws.pair("one14", inst, code), inst, code, Table(inst, code), "e"))
    n, q = 128, 8
    inst, code = butterfly(n, q, (rng.randrange(1, q, 2), rng.randrange(1, q, 2)))
    paths = ws.pair("fly14", inst, code)
    table = Table(inst, code)
    jobs.append(verify_job(paths, table, Fraction(0)))
    jobs.append(partition_job(ws, "fly14", paths, inst, code, table, "bottleneck", class_labels((n, n), q, rng), Fraction(0)))
    sizes = (32, 32, 16)
    paths, inst, code, table = sum_relay("bad14", sizes, 16, corrupted=9)
    jobs.append(verify_job(paths, table, just(table, -1)))
    jobs.append(verify_job(paths, table, just(table, 1)))
    jobs.append(partition_job(ws, "bad14", paths, inst, code, table, "e", class_labels(sizes, 16, rng), just(table, 1)))

    # 2^16: corrupted sum-mod-4 relay over four sources.
    sizes, q = (16, 16, 16, 16), 4
    paths, inst, code, table = sum_relay("bad16", sizes, q, corrupted=17)
    jobs.append(partition_job(ws, "bad16", paths, inst, code, table, "e", class_labels(sizes, q, rng), just(table, 1)))
    return jobs


# -------------------------------------------------------- group-certify


Z16_CUBED = {"kind": "product", "order": 4096, "factors": [{"kind": "cyclic", "order": 16}] * 3}


def _linear(sizes, q, coeffs):
    """sum(c_i * x_i) mod q over every source tuple, last source fastest."""
    return [sum(c * v for c, v in zip(coeffs, x)) % q for x in all_tuples(sizes)]


def _kernel16(coeffs) -> list[int]:
    """Elements of Z16^3 that the linear map with these coefficients kills."""
    return [g for g, v in enumerate(_linear((16, 16, 16), 16, coeffs)) if v == 0]


def _cwl_result_check(table: Table, edge_id: str, removal=None):
    """Witness check, plus the certificate for ``removal = (inst, code)``."""
    witness = _witness_check(table.columns[edge_id], table.sizes, True)

    def check(report: dict) -> list[str]:
        result = report["result"]
        if result.get("found") is False:
            return ["no witness found"]
        problems = witness(result)
        if removal is not None:
            problems += check_certificate(*removal, edge_id, Fraction(0), result)
        elif result.get("rewritten", False):
            problems.append("search rewrote a code it should certify as is")
        return problems

    return check


def group_certify(ws: Workspace, rng: random.Random) -> list[Job]:
    """CWL certification on 2^12-tuple relays and order-4096 group codes.

    Relays are linear over cyclic sources, linear only once the second
    source is read as Z4^3 (so the search rejects four assignments first),
    or unbalanced, which no group structure can certify.  Tables stay small;
    the work is in deriving and checking group structure.
    """
    jobs: list[Job] = []

    def make(name, sizes, q, phi):
        inst, code = relay(sizes, q, phi)
        return ws.pair(name, inst, code), inst, code, Table(inst, code)

    sizes = (64, 64)
    paths, inst, code, table = make("cyc12", sizes, 4, _linear(sizes, 4, [rng.randrange(1, 4, 2), rng.randrange(4)]))
    if not cyclic_cwl(table.columns["e"], sizes) or table.bad:
        raise AssertionError("linear relay fails the kernel-coset test")
    jobs.append(Job(["remove-edge", *paths, "--edge", "e", "--partition", "builtin:cwl"], 0, _cwl_result_check(table, "e", (inst, code))))

    paths, _, _, table = make("cyc12c", sizes, 8, _linear(sizes, 8, [rng.randrange(1, 8, 2), rng.randrange(8)]))
    jobs.append(cwl_check_job(paths, table, "e", expect=True))

    # Source 2 as Z4^3 (x2 = 16a + 4b + c) maps onto Z4; odd u and v rule
    # out Z64, Z8xZ8, Z16xZ4 and Z32xZ2 for it.
    c1, u, v, w = rng.randrange(1, 4, 2), rng.randrange(1, 4, 2), rng.randrange(1, 4, 2), rng.randrange(4)
    phi = [(c1 * x1 + u * (x2 // 16) + v * (x2 // 4 % 4) + w * (x2 % 4)) % 4 for x1, x2 in all_tuples(sizes)]
    paths, _, _, table = make("z4cubed12", sizes, 4, phi)
    if cyclic_cwl(table.columns["e"], sizes):
        raise AssertionError("the Z4^3 relay is linear over cyclic sources")
    jobs.append(Job(["cwl-search", *paths, "--edge", "e"], 0, _cwl_result_check(table, "e")))

    # Unbalanced: fiber sizes differ, so no group structure certifies it.
    phi = [rng.randrange(16) for _ in range(4096)]
    phi[0] = phi[1]
    paths, _, _, table = make("unbalanced12", sizes, 16, phi)
    fibers = {phi.count(s) for s in set(phi)}
    if len(fibers) == 1:
        raise AssertionError("unbalanced relay has equal fibers")
    argv = ["cwl-search", *paths, "--edge", "e", "--relabels", "2", "--budget", "700"]
    jobs.append(Job(argv, 1, lambda r: [] if r["result"]["found"] is False else ["unbalanced function certified"]))

    jobs.append(_group_remove_job(ws, rng))
    jobs.append(_zero_error_job(ws, rng))
    return jobs


def _characterization(rng: random.Random):
    """Z16^3 with coordinate subgroups and the kernel of a linear edge."""
    group = Group(Z16_CUBED)
    elements = list(all_tuples((16, 16, 16)))
    subgroups = {f"s{i + 1}": [g for g, t in enumerate(elements) if t[i] == 0] for i in range(3)}
    subgroups["e"] = _kernel16([rng.randrange(1, 16, 2), rng.randrange(16), rng.randrange(16)])
    return group, subgroups


def _group_remove_job(ws: Workspace, rng: random.Random) -> Job:
    group, subgroups = _characterization(rng)
    path = ws.write("z16cubed.remove.json", {"group": Z16_CUBED, "subgroups": subgroups})
    keys = ["s1", "s2", "s3"]
    labels = {k: coset_labels(group, subgroups[k]) for k in keys + ["e"]}
    sizes = [group.order // len(subgroups[k]) for k in keys]
    edge_size = group.order // len(subgroups["e"])
    by_combo = {tuple(labels[k][g] for k in keys): labels["e"][g] for g in range(group.order)}
    inst, code = relay(sizes, edge_size, [by_combo[x] for x in all_tuples(sizes)])
    complements = []
    for i in range(3):
        meet = set(subgroups["e"])
        for j in range(3):
            if j != i:
                meet &= set(subgroups[keys[j]])
        complements.append(meet)
    aux = {group.identity}
    for h in complements:
        aux = {group.op(a, m) for a in aux for m in h}

    def check(report: dict) -> list[str]:
        result = report["result"]
        problems = []
        if not all(result["checks"].values()):
            problems.append(f"failed plan checks {result['checks']}")
        if result["auxiliary_order"] != len(aux):
            problems.append(f"auxiliary order {result['auxiliary_order']}, oracle says {len(aux)}")
        if result["materialized_instance"] != inst or result["materialized_code"] != code:
            problems.append("materialized code differs from the coset relay")
        return problems + check_certificate(inst, code, "e", Fraction(0), result)

    return Job(["group-remove", path, "--edge", "e", "--sources", ",".join(keys)], 0, check)


def _zero_error_job(ws: Workspace, rng: random.Random) -> Job:
    group, subgroups = _characterization(rng)
    i, j = rng.sample(range(3), 2)
    subgroups["pair"] = sorted(set(subgroups[f"s{i + 1}"]) & set(subgroups[f"s{j + 1}"]))
    # f holds (8, 0, 0) and g does not, so f is never inside g.
    for key, first in (("f", 2 * rng.randrange(8)), ("g", rng.randrange(1, 16, 2))):
        subgroups[key] = _kernel16([first, rng.randrange(1, 16, 2), rng.randrange(16)])
    path = ws.write("z16cubed.zero.json", {"group": Z16_CUBED, "subgroups": subgroups})
    demands = [("pair", f"s{i + 1}"), ("pair", f"s{j + 1}"), ("e", f"s{rng.randrange(3) + 1}"), ("f", "g")]
    expected = zero_error_decisions(subgroups, demands)
    labels = {k: coset_labels(group, subgroups[k]) for k in subgroups}

    def check(report: dict) -> list[str]:
        decisions = report["result"]["decisions"]
        if len(decisions) != len(demands):
            return ["wrong number of decisions"]
        problems = []
        for (in_key, src_key), want, got in zip(demands, expected, decisions):
            if (got["kind"], got["q"], got["min_error"]) != (want["kind"], want["q"], want["min_error"]):
                problems.append(f"{in_key}:{src_key} decided {got['kind']}, oracle says {want['kind']}")
            elif want["kind"] == "zero_error":
                decoder = got["decoder"]
                if any(decoder.get(str(labels[in_key][g])) != labels[src_key][g] for g in range(group.order)):
                    problems.append(f"{in_key}:{src_key} decoder errs")
        return problems

    status = 0 if all(d["kind"] == "zero_error" for d in expected) else 1
    argv = ["group-zero-error", path] + [a for d in demands for a in ("--demand", f"{d[0]}:{d[1]}")]
    return Job(argv, status, check)


# ---------------------------------------------------------- small-codes

SMALL_CODES = 300
MAX_TUPLES = 512


def random_instance(rng: random.Random) -> dict:
    """Layered acyclic instance: <= 3 sources, alphabets <= 8, <= 10 edges."""
    k = rng.randint(1, 3)
    sizes = [rng.choice((2, 2, 2, 3, 3, 4, 4, 5, 6, 8)) for _ in range(k)]
    while math.prod(sizes) > MAX_TUPLES:
        sizes[sizes.index(max(sizes))] = 2
    sources = [f"s{i + 1}" for i in range(k)]
    mids = [f"m{i + 1}" for i in range(rng.randint(0, 2))]
    terminals = [f"t{i + 1}" for i in range(rng.randint(1, 2))]
    edges: list[dict] = []

    def add(tail, head):
        edges.append(_edge(f"e{len(edges) + 1}", tail, head, rng.randint(2, 8)))

    for s in sources:
        for _ in range(rng.randint(1, 2)):
            if len(edges) < 8:
                add(s, rng.choice(mids + terminals))
    for pos, m in enumerate(mids):
        if any(e["head"] == m for e in edges):
            for _ in range(rng.randint(1, 2)):
                if len(edges) < 8:
                    add(m, rng.choice(mids[pos + 1:] + terminals))
    for t in terminals:
        if not any(e["head"] == t for e in edges):
            fed = [m for m in mids if any(e["head"] == m for e in edges)]
            add(rng.choice(sources + fed), t)
    demands = [[0] * len(terminals) for _ in sources]
    for j in range(len(terminals)):
        for i in rng.sample(range(k), rng.randint(1, k)):
            demands[i][j] = 1
    return {
        "nodes": sources + mids + terminals,
        "edges": edges,
        "sources": [{"node": s, "alphabet_size": z} for s, z in zip(sources, sizes)],
        "terminals": terminals,
        "demands": demands,
    }


def random_code(rng: random.Random, inst: dict, voting: bool) -> dict:
    """Random encoders; decoders vote per input or are random."""
    sizes = [s["alphabet_size"] for s in inst["sources"]]
    alph = {e["id"]: e["alphabet_size"] for e in inst["edges"]}
    src = {s["node"]: i for i, s in enumerate(inst["sources"])}

    def widths(node):
        return [alph[e["id"]] for e in sorted(inst["edges"], key=lambda e: e["id"]) if e["head"] == node]

    encoders = {}
    for e in inst["edges"]:
        width = sizes[src[e["tail"]]] if e["tail"] in src else math.prod(widths(e["tail"]))
        encoders[e["id"]] = [rng.randrange(e["alphabet_size"]) for _ in range(width)]
    demanded = {t: [i for i, row in enumerate(inst["demands"]) if row[j]] for j, t in enumerate(inst["terminals"])}
    decoders = {t: [[0] * len(demanded[t])] * math.prod(widths(t)) for t in inst["terminals"]}
    if voting:
        ev = Evaluator(inst, _code(inst, encoders, decoders))
        votes = {t: {} for t in inst["terminals"]}
        for x in all_tuples(sizes):
            vals = ev.edge_values(x)
            for j, t in enumerate(inst["terminals"]):
                wanted = tuple(x[i] for i in demanded[t])
                tally = votes[t].setdefault(ev.decoder_index(j, vals), {})
                tally[wanted] = tally.get(wanted, 0) + 1
        for t in inst["terminals"]:
            rows = []
            for idx in range(len(decoders[t])):
                tally = votes[t].get(idx)
                if tally:
                    rows.append(list(max(sorted(tally), key=lambda v: tally[v])))
                else:
                    rows.append([rng.randrange(sizes[i]) for i in demanded[t]])
            decoders[t] = rows
    else:
        decoders = {
            t: [[rng.randrange(sizes[i]) for i in demanded[t]] for _ in rows] for t, rows in decoders.items()
        }
    return _code(inst, encoders, decoders)


def _random_labels(rng: random.Random, sizes, by_class: bool) -> list[int]:
    if by_class:
        classes = [[rng.randrange(rng.randint(1, s)) for _ in range(s)] for s in sizes]
        return [mixed_radix([c[v] for c, v in zip(classes, x)], sizes) for x in all_tuples(sizes)]
    n_labels = rng.randint(1, 6)
    return [rng.randrange(n_labels) for _ in range(math.prod(sizes))]


def small_codes(ws: Workspace, rng: random.Random) -> list[Job]:
    """A few hundred random layered codes, three commands each.

    Each code is verified, has one random edge removed through a class or
    random label file, and has one random edge checked for CWL structure;
    the bundled butterfly case study runs once per round.  Shapes (graphs,
    alphabets, decoder and partition kinds, chosen edges) come from a fixed
    stream shared by all seeds; the seed draws tables, labels and eps.
    """
    shapes = random.Random("small-codes shapes")
    jobs = [_butterfly_case_study()]
    for n in range(SMALL_CODES):
        inst = random_instance(shapes)
        code = random_code(rng, inst, voting=shapes.random() < 0.7)
        table = Table(inst, code)
        paths = ws.pair(f"code{n:03d}", inst, code)
        jobs.append(verify_job(paths, table, rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])))
        edge = shapes.choice(inst["edges"])["id"]
        labels = _random_labels(rng, table.sizes, by_class=shapes.random() < 0.5)
        eps = rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
        jobs.append(partition_job(ws, f"code{n:03d}", paths, inst, code, table, edge, labels, eps))
        jobs.append(cwl_check_job(paths, table, shapes.choice(inst["edges"])["id"]))
    return jobs


def _butterfly_case_study() -> Job:
    pairs = {"binary": butterfly(2, 2), "wide": butterfly(4, 2)}

    def check(report: dict) -> list[str]:
        runs = report["result"]["runs"]
        if [r["name"] for r in runs] != list(pairs):
            return ["case study runs are not binary and wide"]
        problems = []
        for r in runs:
            inst, code = pairs[r["name"]]
            if not (r["feasibility"]["verdict"] and r.get("found")):
                problems.append(f"{r['name']}: butterfly not verified or not removed")
                continue
            problems += check_certificate(inst, code, "bottleneck", Fraction(0), r)
        return problems

    return Job(["case-study", "butterfly"], 0, check)


WORKLOADS = {
    "large-tables": large_tables,
    "group-certify": group_certify,
    "small-codes": small_codes,
}

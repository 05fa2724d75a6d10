"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (past the capture, so the lines
are visible in a normal pytest run) and enforces its own runtime budget.
Every certificate is re-verified with an independent feasibility call, and
the cross-oracle checks re-derive verdicts from first principles inside
this file.  Comparisons are exact rationals or integers; entropy identities
are decided on integer counts.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    ReferenceGroup,
    characterize_witness,
    classes_equal_sized,
    coordinate_classes,
    marginals_sum_to_log,
    part_tuples,
    random_balanced_map,
    random_code,
    random_coordinate_characterization,
    random_hom_witness,
    random_instance,
    random_partition,
    relabel_balanced,
)
from edgedrop.codes import (
    build_global_table,
    check_feasibility,
    relay_instance,
    tabulate,
)
from edgedrop.cwl import (
    check_cwl,
    check_piecewise,
    cwl_remove,
    derive_edge_group,
    piecewise_remove,
    witness_partition,
)
from edgedrop.groupcodes import GroupCharacterization, zero_error_upgrade
from edgedrop.groups import (
    CyclicGroup,
    ProductGroup,
    subgroup,
)
from edgedrop.groupcodes import abelian_removal_plan
from edgedrop.library import butterfly, n2_code_check, n3_injectivity
from edgedrop.removal import (
    fiber_edge_values,
    fibers_are_products,
    find_witness,
    restrict_code,
)


@pytest.fixture
def announce(capfd):
    def _announce(num, elapsed, limit, failures, detail):
        status = "PASS" if not failures else "FAIL"
        with capfd.disabled():
            print(f"criterion {num:2d}: {status} ({detail}, {elapsed:.2f}s)", flush=True)
        assert not failures, failures[:5]
        if limit is not None:
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"

    return _announce


_SAMPLES = None


def _shared_samples():
    """Instances, codes, tables, and partitions shared by the soundness
    harness and the entropy cross-oracle; generated once, seeded."""
    global _SAMPLES
    if _SAMPLES is None:
        rng = random.Random(20260822)
        eps_pool = (
            Fraction(0),
            Fraction(1, 8),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
        )
        samples = []
        for _ in range(500):
            inst = random_instance(rng)
            code = random_code(rng, inst)
            table = build_global_table(inst, code)
            part = random_partition(rng, table)
            edge = rng.choice(inst.edges).id
            eps = rng.choice(eps_pool)
            samples.append((inst, code, table, part, edge, eps))
        _SAMPLES = samples
    return _SAMPLES


def test_criterion_01_restriction_soundness(announce):
    started = time.perf_counter()
    samples = _shared_samples()
    failures = []
    emitted = 0
    for count, (inst, code, table, part, edge, eps) in enumerate(samples, start=1):
        if not fiber_edge_values(table, edge, part):
            continue
        if not fibers_are_products(part):
            continue
        label = find_witness(table, edge, part, eps)
        if label is None:
            continue
        result = restrict_code(table, edge, part, label, eps)
        emitted += 1
        edge_size = code.edge_alphabets[edge]
        promised = tuple(-(-n // edge_size) for n in code.source_alphabets)
        if result.certificate.promised_cardinalities != promised:
            failures.append(f"sample {count}: promise is not ceil(size/edge)")
            continue
        fresh = check_feasibility(
            build_global_table(result.instance, result.code), eps, promised
        )
        if not fresh.verdict:
            failures.append(f"sample {count}: restricted code failed re-verification")
        if result.code.blocklength != code.blocklength:
            failures.append(f"sample {count}: blocklength changed")
    if emitted < 20:
        failures.append(f"only {emitted} certificates emitted; generator too weak")
    elapsed = time.perf_counter() - started
    announce(1, elapsed, 60.0, failures, f"{len(samples)} instances, {emitted} certificates")


def test_criterion_02_class_partition_pipeline(announce):
    started = time.perf_counter()
    rng = random.Random(926)
    failures = []
    trials = 0
    while trials < 200:
        made = random_hom_witness(
            rng, max_order=64, size_pool=(2, 2, 3, 4, 4, 5, 6, 8), max_sources=3,
            product_cap=512,
        )
        if made is None:
            failures.append("homomorphism table failed certification")
            break
        sizes, table_vals, witness = made
        trials += 1
        part = witness_partition(witness)
        if not classes_equal_sized(coordinate_classes(witness)):
            failures.append(f"trial {trials}: unequal class sizes")
        inst, code = relay_instance(sizes, max(table_vals) + 1, table_vals)
        table = build_global_table(inst, code)
        if not fiber_edge_values(table, "e", part):
            failures.append(f"trial {trials}: partition does not fix the edge value")
        if not fibers_are_products(part):
            failures.append(f"trial {trials}: classes are not product sets")
        result = cwl_remove(table, "e", witness, Fraction(0))
        cert = result.certificate
        support = len(witness.edge_support)
        for i, n in enumerate(sizes):
            if cert.achieved_cardinalities[i] * support < n:
                failures.append(f"trial {trials}: size bound fails for source {i}")
        if not cert.feasibility.verdict:
            failures.append(f"trial {trials}: certificate failed re-verification")
    elapsed = time.perf_counter() - started
    announce(2, elapsed, 30.0, failures, f"{trials} witnesses")


def test_criterion_03_butterfly_end_to_end(announce):
    started = time.perf_counter()
    failures = []
    inst, code = butterfly()
    base = check_feasibility(build_global_table(inst, code), Fraction(0), (2, 2))
    if not (base.verdict and base.blocklength == 1):
        failures.append("binary butterfly is not zero-error at one bit per source")
    table = build_global_table(inst, code)
    witness = check_cwl(
        table.edge_values("bottleneck"),
        [CyclicGroup(2), CyclicGroup(2)],
        CyclicGroup(2),
        (0, 1),
    )
    if witness is None:
        failures.append("bottleneck XOR is not certified")
    else:
        result = cwl_remove(table, "bottleneck", witness, Fraction(0))
        cert = result.certificate
        if cert.achieved_cardinalities != (1, 1):
            failures.append("binary removal should leave zero bits per source")
        fresh = check_feasibility(
            build_global_table(result.instance, result.code), Fraction(0), (1, 1)
        )
        if not (fresh.verdict and fresh.error == 0):
            failures.append("binary restricted code is not zero-error")

    inst4, code4 = butterfly(4)
    base4 = check_feasibility(build_global_table(inst4, code4), Fraction(0), (4, 4))
    if not base4.verdict:
        failures.append("wide butterfly is not zero-error at two bits per source")
    table4 = build_global_table(inst4, code4)
    witness4 = derive_edge_group(
        table4.edge_values("bottleneck"), [CyclicGroup(4), CyclicGroup(4)]
    )
    if witness4 is None:
        failures.append("wide bottleneck has no derivable structure")
    else:
        result4 = cwl_remove(table4, "bottleneck", witness4, Fraction(0))
        cert4 = result4.certificate
        if cert4.achieved_cardinalities != (2, 2):
            failures.append("wide removal should leave one bit per source")
        fresh4 = check_feasibility(
            build_global_table(result4.instance, result4.code), Fraction(0), (2, 2)
        )
        if not (fresh4.verdict and fresh4.error == 0):
            failures.append("wide restricted code is not zero-error")
    elapsed = time.perf_counter() - started
    announce(3, elapsed, 1.0, failures, "binary and wide variants")


def test_criterion_04_piecewise_size_bounds(announce):
    started = time.perf_counter()
    failures = []

    examples = []
    # Two pieces: phi copies the second source; xor and xnor each cover half.
    examples.append(
        (
            [2, 2],
            (0, 1, 0, 1),
            (0, 1),
            [([[0], [0, 1]], (0, 1, 1, 0)), ([[1], [0, 1]], (1, 0, 0, 1))],
        )
    )
    # Four pieces: a non-affine shift of the second source per first symbol;
    # the shifts are pairwise distinct, so agreement is exact per piece.
    shift = (0, 1, 3, 2)
    phi4 = tabulate([4, 4], lambda x1, x2: (x2 + shift[x1]) % 4)
    pieces4 = [
        ([[j], [0, 1, 2, 3]], tabulate([4, 4], lambda x1, x2, j=j: (x2 + shift[j]) % 4))
        for j in range(4)
    ]
    examples.append(([4, 4], phi4, (0, 1, 2, 3), pieces4))

    for sizes, phi, support, pieces in examples:
        k_count = len(pieces)
        groups = [CyclicGroup(n) for n in sizes]
        pw = check_piecewise(phi, groups, support, pieces)
        if pw is None:
            failures.append(f"{k_count}-piece structure failed validation")
            continue
        inst, code = relay_instance(sizes, max(support) + 1, phi)
        table = build_global_table(inst, code)
        result = piecewise_remove(table, "e", pw)
        cert = result.certificate
        for i, n in enumerate(sizes):
            if cert.achieved_cardinalities[i] * len(support) * k_count < n:
                failures.append(f"{k_count} pieces: size bound fails for source {i}")
        fresh = check_feasibility(
            build_global_table(result.instance, result.code),
            Fraction(0),
            cert.promised_cardinalities,
        )
        if not (fresh.verdict and fresh.error == 0):
            failures.append(f"{k_count} pieces: restricted code is not zero-error")
    elapsed = time.perf_counter() - started
    announce(4, elapsed, 5.0, failures, "2 and 4 pieces")


def test_criterion_05_abelian_plans(announce):
    started = time.perf_counter()
    rng = random.Random(5151)
    failures = []
    trials = 0
    while trials < 50:
        trials += 1
        gc = random_coordinate_characterization(rng)
        plan = abelian_removal_plan(gc, "e", [k for k in sorted(gc.subgroups) if k != "e"])
        bad = [name for name, ok in plan.checks.items() if not ok]
        if bad:
            failures.append(f"trial {trials}: checks failed: {bad}")
        cert = plan.removal.certificate
        if cert.eps != 0 or not cert.feasibility.verdict:
            failures.append(f"trial {trials}: certificate not verified at zero error")
        # Re-derive the three conditions with the generic partition tools.
        edge_id = cert.edge_id
        if not fiber_edge_values(plan.table, edge_id, plan.partition):
            failures.append(f"trial {trials}: partition does not fix the edge value")
        if not fibers_are_products(plan.partition):
            failures.append(f"trial {trials}: parts are not product sets")
        if find_witness(plan.table, edge_id, plan.partition, Fraction(0)) is None:
            failures.append(f"trial {trials}: no witness part at zero error")
    elapsed = time.perf_counter() - started
    announce(5, elapsed, 30.0, failures, f"{trials} characterizations")


def _all_subgroups(group):
    """Every subgroup, found by filtering all identity-containing subsets."""
    ref = ReferenceGroup(group)
    elems = list(range(group.order))
    out = []
    for mask in range(1 << len(elems)):
        members = [e for i, e in enumerate(elems) if mask >> i & 1]
        if group.identity not in members:
            continue
        mset = set(members)
        if any(ref.inverse(a) not in mset for a in members):
            continue
        if any(group.op(a, b) not in mset for a in members for b in members):
            continue
        out.append(tuple(sorted(members)))
    return out


def test_criterion_06_decoder_dichotomy(announce):
    started = time.perf_counter()
    failures = []
    groups = (
        ProductGroup([CyclicGroup(2), CyclicGroup(2)]),
        CyclicGroup(4),
        ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(2)]),
    )
    pairs = 0
    forced = 0
    for group in groups:
        subs = _all_subgroups(group)
        for in_members in subs:
            for src_members in subs:
                pairs += 1
                gc = GroupCharacterization(
                    group,
                    {"in": subgroup(group, in_members), "src": subgroup(group, src_members)},
                )
                decision = zero_error_upgrade(gc, [("in", "src")])[0]
                contained = set(in_members) <= set(src_members)
                in_map = gc.realize_map("in")
                src_map = gc.realize_map("src")
                if contained:
                    if decision.kind != "zero_error" or decision.decoder is None:
                        failures.append(f"{in_members} <= {src_members}: no decoder")
                        continue
                    if any(
                        decision.decoder[in_map[g]] != src_map[g]
                        for g in range(group.order)
                    ):
                        failures.append(f"{in_members} <= {src_members}: decoder errs")
                    continue
                forced += 1
                if decision.kind != "high_error":
                    failures.append(f"{in_members} vs {src_members}: expected high error")
                    continue
                q = len(in_members) // len(set(in_members) & set(src_members))
                if decision.q != q or decision.min_error != Fraction(q - 1, q):
                    failures.append(f"{in_members} vs {src_members}: wrong q")
                if decision.min_error < Fraction(1, 2):
                    failures.append(f"{in_members} vs {src_members}: error below half")
                in_alpha = group.order // len(in_members)
                src_alpha = group.order // len(src_members)
                if in_alpha > 8:
                    failures.append(f"{in_members}: input alphabet beyond brute force")
                    continue
                best = group.order
                for cand in itertools.product(range(src_alpha), repeat=in_alpha):
                    wrong = sum(
                        1 for g in range(group.order) if cand[in_map[g]] != src_map[g]
                    )
                    if wrong < best:
                        best = wrong
                if Fraction(best, group.order) != decision.min_error:
                    failures.append(
                        f"{in_members} vs {src_members}: brute force found "
                        f"{Fraction(best, group.order)}"
                    )
    elapsed = time.perf_counter() - started
    announce(6, elapsed, 60.0, failures, f"{pairs} pairs, {forced} brute-forced")


def test_criterion_07_permutation_identities(announce):
    started = time.perf_counter()
    failures = []
    grid = 0
    for m in range(2, 5):
        for alpha in range(1, 4):
            for s in range(1, 8):
                if math.gcd(m, s) != 1:
                    continue
                grid += 1
                if not n3_injectivity(m, s, alpha).injective:
                    failures.append(f"injectivity fails at m={m}, s={s}, alpha={alpha}")
    checks = 0
    for m in range(2, 5):
        for w in range(1, 5):
            checks += 1
            report = n2_code_check(m, w, assignment=(w,) * w)
            if not report.ok:
                failures.append(f"decoding fails at m={m}, w={w}")
            if report.linear_slots != tuple(range(1, w + 1)):
                failures.append(f"linearity not certified at m={m}, w={w}")
    elapsed = time.perf_counter() - started
    announce(
        7, elapsed, 30.0, failures, f"{grid} injectivity cases, {checks} reassignments"
    )


def test_criterion_08_balanced_relabeling(announce):
    started = time.perf_counter()
    rng = random.Random(4057)
    failures = []
    for trial in range(100):
        mapping = random_balanced_map(rng)
        domain_labels, codomain_labels, w = relabel_balanced(mapping)
        if w is None:
            failures.append(f"trial {trial}: relabeled map is not certified")
            continue
        back = {label: y for y, label in codomain_labels.items()}
        for a, y in mapping.items():
            pos, fiber = domain_labels[a]
            idx = pos * len(codomain_labels) + fiber
            if back[w.edge_support[w.hom[idx]]] != y:
                failures.append(f"trial {trial}: composition differs at {a}")
                break
    elapsed = time.perf_counter() - started
    announce(8, elapsed, 5.0, failures, "100 balanced maps")


def test_criterion_09_entropy_identities(announce):
    started = time.perf_counter()
    rng = random.Random(993)
    failures = []
    witnesses = []
    while len(witnesses) < 40:
        made = random_hom_witness(
            rng, max_order=16, size_pool=(2, 3, 4, 5, 8, 16), max_sources=3,
            product_cap=4096,
        )
        if made is not None:
            witnesses.append(made[2])
    # Pin one maximal case so the size cap is actually exercised.
    full = tabulate([16, 16, 16], lambda a, b, c: (a + b + c) % 16)
    witnesses.append(derive_edge_group(full, [CyclicGroup(16)] * 3))

    for count, witness in enumerate(witnesses, start=1):
        gc = characterize_witness(witness)
        keys = sorted(gc.subgroups)
        source_keys = [k for k in keys if k != "e"]
        labels = {k: gc.realize_map(k).tolist() for k in keys}
        # H = log2(|G| / |meet|) exactly when every joint coset value is taken
        # by exactly |meet| elements.
        for r in range(1, len(keys) + 1):
            for combo in itertools.combinations(keys, r):
                meet = int(np.logical_and.reduce([gc.subgroups[k].mask for k in combo]).sum())
                enumerated = Counter(zip(*(labels[k] for k in combo)))
                if set(enumerated.values()) != {meet}:
                    failures.append(f"witness {count}: coset counts on {combo} are not {meet}")
        joint = Counter(zip(*(labels[k] for k in source_keys)))
        if len(joint) != gc.group.order:
            failures.append(f"witness {count}: sources do not determine the element")
        marginals = [Counter(labels[k]).values() for k in source_keys]
        if not marginals_sum_to_log(gc.group.order, marginals):
            failures.append(f"witness {count}: sources are not independent")
    elapsed = time.perf_counter() - started
    announce(9, elapsed, 30.0, failures, f"{len(witnesses)} witnesses")


def test_criterion_10_product_entropy_cross_oracle(announce):
    started = time.perf_counter()
    failures = []
    agree_true = 0
    agree_false = 0
    for count, (_, _, _, part, _, _) in enumerate(_shared_samples(), start=1):
        claimed = fibers_are_products(part)
        additive = True
        for label in part.keys:
            tuples = part_tuples(part, label)
            marginals = [Counter(column).values() for column in zip(*tuples)]
            if not marginals_sum_to_log(len(tuples), marginals):
                additive = False
                break
        if claimed != additive:
            failures.append(
                f"sample {count}: product-support says {claimed}, entropy says {additive}"
            )
        if claimed:
            agree_true += 1
        else:
            agree_false += 1
    if not agree_true or not agree_false:
        failures.append("cross-oracle sample is one-sided; generator too weak")
    elapsed = time.perf_counter() - started
    announce(
        10, elapsed, None, failures, f"{agree_true} products, {agree_false} non-products"
    )

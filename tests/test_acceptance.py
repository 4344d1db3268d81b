"""End-to-end acceptance checks, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they are produced; each test also fails loudly if its criterion does not
hold, so the pass/fail column of `-v` mirrors the printed lines.
"""

import itertools
import random
import time

import pytest

from oligoprofile.catalogue import default_sweep_ids, sample_model
from oligoprofile.glueing import (
    OVERLAP_TAGS,
    classify_overlap,
    emit_invariant_relation,
    glue,
    normalize_circular,
    normalize_linear,
    sample_circular_fragments,
    sample_linear_fragments,
)
from oligoprofile.growth import GOLDEN_RATIO, growth_estimate, tree_count
from oligoprofile.posets import (
    antichain_width,
    exhaustive_posets,
    linearize,
    max_incomparability,
    random_poset,
)
from oligoprofile.profiles import profile
from oligoprofile.structures import canonical_form
from oligoprofile.witnesses import (
    build_family,
    construction_ids,
    verify_pairwise_nonisomorphic,
)

from oracles import brute_tree_count, fibonacci, subset_classes

FIVE_REDUCTS = ("pure_set", "dlo", "betweenness", "circular", "separation")

# values pinned by two independent oracles: exhaustive tournament search
# filtered to locally transitive ones (n <= 7) and the odd-divisor
# necklace closed form (all n)
LOCAL_ORDER_PROFILE = (1, 1, 2, 2, 4, 6, 10, 16)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep_profiles():
    out = {}
    for entry_id in default_sweep_ids():
        n_max = 10 if entry_id == "fibered_order:2" else 8
        out[entry_id] = profile(entry_id, n_max)
    return out


def test_criterion_1_five_reducts_identity():
    t0 = time.time()
    sequences = {e: profile(e, 8) for e in FIVE_REDUCTS}
    elapsed = time.time() - t0
    flat = all(seq.values == (1,) * 8 for seq in sequences.values())
    sat = max(max(seq.saturated_at) for seq in sequences.values())
    ok = flat and sat <= 19 and elapsed < 120
    _verdict(1, ok, f"five reducts constant 1 up to n=8, saturation <= {sat}, {elapsed:.1f}s")
    assert flat, {e: s.values for e, s in sequences.items()}
    assert sat <= 19
    assert elapsed < 120


def test_criterion_2_fibonacci_structure(sweep_profiles):
    values = sweep_profiles["fibered_order:2"].values
    expected = tuple(fibonacci(n + 1) for n in range(1, 11))
    model = sample_model("fibered_order:2", 12)
    oracle = tuple(subset_classes(model, n) for n in range(1, 7))
    ok = values == expected and values[:6] == oracle
    _verdict(2, ok, f"profile(fibered_order:2, 10) = {values}")
    assert values[:6] == oracle, "indexing disagrees with the subset-class oracle"
    assert values == expected


def test_criterion_3_tree_structure(sweep_profiles):
    values = sweep_profiles["tree_c"].values
    expected = tuple(tree_count(n) for n in range(1, 9))
    enumerated = all(tree_count(n) == brute_tree_count(n) for n in range(1, 13))
    ok = values == expected and enumerated
    _verdict(3, ok, f"profile(tree_c, 8) = {values}, recurrence matches enumeration to n=12")
    assert enumerated
    assert values == expected


def test_criterion_4_growth_constants():
    t0 = time.time()
    tree_report = growth_estimate([tree_count(n) for n in range(1, 41)])
    fib_report = growth_estimate([fibonacci(n) for n in range(1, 26)])
    sqrt_tree = tree_report.limit_estimate ** 0.5
    elapsed = time.time() - t0
    ok = (
        abs(tree_report.limit_estimate - 2.483) < 0.05
        and abs(fib_report.limit_estimate - 1.618) < 0.01
        and abs(sqrt_tree - 1.576) < 0.03
        and elapsed < 30
    )
    _verdict(
        4,
        ok,
        f"tree {tree_report.limit_estimate:.4f} (target 2.483), "
        f"fibonacci {fib_report.limit_estimate:.4f} (target 1.618), "
        f"sqrt {sqrt_tree:.4f} (target 1.576)",
    )
    assert abs(tree_report.limit_estimate - 2.483) < 0.05
    assert abs(fib_report.limit_estimate - 1.618) < 0.01
    assert abs(sqrt_tree - 1.576) < 0.03
    assert elapsed < 30


def test_criterion_5_witness_counts():
    t0 = time.time()
    expected = {
        "composition": lambda n: 2 ** (n - 1),
        "binary_pattern": lambda n: 2 ** n,
        "antichain": lambda n: 2 ** (n - 1),
    }
    problems = []
    for n in range(1, 11):
        for cid in construction_ids():
            family = build_family(cid, n)
            if len(family.members) != expected[cid](n):
                problems.append(f"{cid}({n}): {len(family.members)} members")
            report = verify_pairwise_nonisomorphic(family)
            if report.pairs:
                problems.append(f"{cid}({n}): collisions {report.pairs}")
            for member, index in zip(family.members, family.indices):
                if family.index_decoder(member) != index:
                    problems.append(f"{cid}({n}): decode misses {index}")
                    break
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _verdict(5, ok, f"three families at n<=10: counts, no collisions, round-trips, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 300


def test_criterion_6_linearization_properties():
    t0 = time.time()
    corpus = []
    for size in range(1, 6):
        corpus.extend(exhaustive_posets(size))
    for i in range(1000):
        size = 1 + (i * 7919) % 40
        corpus.append(random_poset(size, max_width=6, seed=i))
    violations = []
    over_width = 0
    for idx, p in enumerate(corpus):
        result = linearize(p)  # triangle_step raises on any Claim violation
        flat = sorted(x for cls in result.classes for x in cls)
        if flat != list(range(p.size)):
            violations.append(f"poset {idx}: classes do not partition")
            continue
        rank = {}
        for level, cls in enumerate(result.classes):
            for x in cls:
                rank[x] = level
            if any(not p.incomparable(a, b) for a in cls for b in cls if a != b):
                violations.append(f"poset {idx}: class {cls} is not an antichain")
        if any(rank[a] >= rank[b] for a, b in p.leq if a != b):
            violations.append(f"poset {idx}: output order does not extend leq")
        # each round leaves every element strictly fewer incomparables, so
        # the quotient's incomparability falls every round and the round
        # count is at most max_incomparability(p); the width bounds nothing
        previous = max_incomparability(p)
        for record in result.trace:
            if record.quotient_incomparability >= previous:
                violations.append(
                    f"poset {idx}: round {record.round_index} leaves incomparability "
                    f"{record.quotient_incomparability}, not below {previous} (size {p.size})"
                )
                break
            previous = record.quotient_incomparability
        if len(result.trace) > antichain_width(p):
            over_width += 1
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120
    _verdict(
        6,
        ok,
        f"{len(corpus)} posets, {len(violations)} violations, {elapsed:.1f}s, "
        f"{over_width} took more rounds than their width"
        + ("" if ok else f"; first: {violations[0]}"),
    )
    assert elapsed < 120
    assert not violations, violations


def test_criterion_7_glueing_recovery():
    t0 = time.time()
    rng = random.Random(812)
    failures = []
    for case in range(200):
        if case % 2 == 0:
            size = rng.randrange(3, 201)
            hidden, fragments = sample_linear_fragments(size, rng.getrandbits(32))
            kind, normalize = "linear", normalize_linear
        else:
            size = rng.randrange(8, 201)
            hidden, fragments = sample_circular_fragments(size, rng.getrandbits(32))
            kind, normalize = "circular", normalize_circular
        for fa, fb in itertools.combinations(fragments, 2):
            tag = classify_overlap(fa, fb).tag
            shared = set(fa.elements) & set(fb.elements)
            if tag not in OVERLAP_TAGS or (tag == "disjoint") != (not shared):
                failures.append(f"case {case}: pair {fa.fragment_id},{fb.fragment_id} -> {tag}")
        components = glue(fragments)
        if len(components) != 1 or components[0].kind != kind:
            failures.append(f"case {case}: got {[(c.kind, len(c.arrangement)) for c in components]}")
            continue
        if components[0].arrangement != normalize(hidden):
            failures.append(f"case {case}: arrangement differs from hidden {kind} order")
            continue
        cap = 30 if kind == "linear" else 14
        if size <= cap:
            emitted = emit_invariant_relation(components[0])
            reference = sample_model(
                "betweenness" if kind == "linear" else "separation", size
            )
            if emitted != reference:
                failures.append(f"case {case}: emitted relation differs at size {size}")
            elif size <= 10 and canonical_form(emitted) != canonical_form(reference):
                failures.append(f"case {case}: canonical code differs at size {size}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _verdict(7, ok, f"200 hidden orders recovered, sizes <= 200, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_8_monotonicity_sweep(sweep_profiles):
    offenders = [
        entry_id
        for entry_id, seq in sweep_profiles.items()
        if any(a > b for a, b in zip(seq.values, seq.values[1:]))
    ]
    ok = not offenders
    _verdict(8, ok, f"{len(sweep_profiles)} catalogue profiles non-decreasing at n<=8")
    assert not offenders, offenders


def test_criterion_9_local_order_trend(sweep_profiles):
    seq = sweep_profiles["local_order"]
    values = seq.values
    ratios = [b / a for a, b in zip(values, values[1:])]
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    increasing = all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))
    final_in_range = 1.5 < ratios[-1] <= 2.0
    frozen = values == LOCAL_ORDER_PROFILE
    ok = monotone and increasing and final_in_range and frozen
    _verdict(
        9,
        ok,
        f"profile(local_order, 8) = {values}, ratios {[round(r, 3) for r in ratios]}, "
        f"final {ratios[-1]:.3f}",
    )
    assert frozen, f"values {values} differ from the oracle-pinned fixture"
    assert monotone
    assert final_in_range
    assert increasing, (
        "ratio sequence is not increasing: the class counts follow the "
        "odd-divisor necklace numbers, whose consecutive ratios oscillate "
        f"by parity ({[round(r, 3) for r in ratios]}); no saturation or "
        "sampling choice changes this"
    )

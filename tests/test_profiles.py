"""Profile computation: dedup, saturation, budgets and known sequences."""

import dataclasses
import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoprofile import catalogue
from oligoprofile.catalogue import (
    _universal_tree_depths,
    default_sweep_ids,
    get_entry,
    list_entry_ids,
    sample_model,
)
from oligoprofile.errors import InternalInvariantError, ParameterError, ResourceError
from oligoprofile.growth import compositions_count, local_order_count, tree_count
from oligoprofile import profiles, structures
from oligoprofile.profiles import ProfileSequence, profile
from oligoprofile.structures import (
    FiniteStructure,
    canonical_form,
    induced_substructure,
    signature,
    structure_encoding,
)

from oracles import (
    brute_compositions,
    class_codes,
    compositions_count_table,
    fibonacci,
    gap_necklace_key,
    locally_transitive_count,
    odd_divisor_necklace_count,
    subset_classes,
    subset_key,
)


def test_compositions_count_examples():
    assert compositions_count(4, 4) == 8
    assert compositions_count(4, 1) == 1
    assert compositions_count(4, 2) == 5


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=5))
def test_compositions_count_matches_listing(n, max_part):
    assert compositions_count(n, max_part) == len(brute_compositions(n, max_part))


def test_compositions_count_window_matches_the_full_recurrence():
    for n in range(60):
        for max_part in range(1, 8):
            assert compositions_count(n, max_part) == compositions_count_table(n, max_part)


def test_dlo_profile_is_constant_one():
    seq = profile("dlo", 5)
    assert seq.values == (1, 1, 1, 1, 1)
    assert seq.saturated_at == (5, 7, 9, 11, 13)


@pytest.mark.parametrize("entry_id", ["pure_set", "betweenness", "circular", "separation"])
def test_other_reducts_are_constant_one(entry_id):
    assert profile(entry_id, 4).values == (1, 1, 1, 1)


def test_fibered_two_gives_fibonacci():
    seq = profile("fibered_order:2", 8)
    assert seq.values == tuple(fibonacci(n + 1) for n in range(1, 9))
    assert seq.saturated_at == tuple(2 * n for n in range(1, 9))


def test_fibered_three_matches_bounded_compositions():
    assert profile("fibered_order:3", 5).values == (1, 2, 4, 7, 13)


def test_tree_profile_follows_shape_counts():
    seq = profile("tree_c", 6)
    assert seq.values == (1, 1, 1, 2, 3, 6)
    assert seq.saturated_at == (1, 2, 3, 4, 5, 6)


def test_tree_profile_reaches_nine_leaves_under_the_default_budget(monkeypatch):
    """n=9 counts C(23, 9) = 817,190 subsets at the base only. Every
    representative is alone on its degree profile, so the screen separates
    them all and canonical_form never runs."""
    calls = []

    def counted(sub):
        calls.append(sub)
        return canonical_form(sub)

    monkeypatch.setattr(profiles, "canonical_form", counted)
    seq = profile("tree_c", 9)
    assert seq.values == tuple(tree_count(n) for n in range(1, 10))
    assert seq.values[-1] == 46
    assert seq.saturated_at == tuple(range(1, 10))
    assert calls == []


def test_local_order_profile_matches_tournament_search():
    """Class counts equal the locally transitive tournament counts.

    The right side enumerates all tournaments up to isomorphism and keeps
    those without a directed triangle in any neighbourhood; it never touches
    the half-circle sampler, so agreement pins the profile from two sides.
    """
    brute = tuple(locally_transitive_count(n) for n in range(1, 7))
    assert profile("local_order", 6).values == brute
    assert tuple(local_order_count(n) for n in range(1, 7)) == brute


def test_local_order_profile_matches_necklace_closed_form():
    """The engine, the library's predictor and the test oracle agree."""
    seq = profile("local_order", 8)
    assert seq.values == (1, 1, 2, 2, 4, 6, 10, 16)
    assert seq.values == tuple(odd_divisor_necklace_count(n) for n in range(1, 9))
    assert seq.values == tuple(local_order_count(n) for n in range(1, 9))


def test_profile_accepts_entry_object():
    entry = get_entry("dlo")
    assert profile(entry, 3) == profile("dlo", 3)


def test_profile_rejects_bad_n_max():
    with pytest.raises(ParameterError):
        profile("dlo", 0)


def test_budget_exhaustion_raises():
    with pytest.raises(ResourceError):
        profile("dlo", 2, budget=20)


def test_class_codes_checks_subset_size():
    with pytest.raises(ParameterError):
        class_codes("dlo", 3, 4)


def test_class_codes_against_generic_subset_count():
    model = sample_model("fibered_order:2", 8)
    entry = get_entry("fibered_order:2")
    for n in range(1, 5):
        assert len(class_codes(entry, 8, n)) == subset_classes(model, n)


def _prefix_steps(size):
    # the prefix itself is the state: every subset is canonicalised
    return lambda state, last, e: state + (e,)


def _identity_keys(size):
    return lambda state: state


def _swapping_entry(labels):
    """One-point classes that keep their count but change their code."""
    return catalogue._entry(
        "swap", lambda size: (lambda x: labels[size] == "a", lambda x: labels[size] == "b"),
        signature(("a", 1), ("b", 1)), lambda size: size, None, lambda n: 3, _identity_keys,
        _prefix_steps, "test",
    )


def _recording(entry, evaluations):
    """The entry with an evaluator that appends (size, [the point count of
    each evaluation]) to evaluations, and a sampler that fails the test."""

    def evaluator(size):
        count, evaluate = entry.evaluator(size)
        points = []
        evaluations.append((size, points))

        def recorded(subset):
            points.append(len(subset))
            return evaluate(subset)

        return count, recorded

    def sampler(size):
        raise AssertionError(f"sampler({size}) called")

    return dataclasses.replace(entry, evaluator=evaluator, sampler=sampler)


def test_a_proven_entry_is_counted_once_at_its_base():
    """Every subset is its own representative, so the representatives
    repeat one literal structure, C(3, 1) and C(5, 1), C(5, 2), C(5, 3)
    times, each evaluated on its own n points at the base and no sample
    built, and the degree-profile screen alone makes them one class."""
    swap = _swapping_entry({3: "a", 5: "b", 7: "b"})
    for base, n_max in ((3, 1), (5, 3)):
        evaluations = []
        entry = dataclasses.replace(_recording(swap, evaluations), saturation_rule=lambda n: base)
        seq = profile(entry, n_max)
        assert seq.values == (1,) * n_max
        assert seq.saturated_at == (base,) * n_max
        assert evaluations == [(base, [n] * math.comb(base, n)) for n in range(1, n_max + 1)]


# n_max of each entry's profile stdout pin in test_cli
_PINNED_N = {"fibered_order:2": 10, "tree_c": 7}


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_proven_saturation_survives_the_recheck(entry_id):
    """Every catalogue entry is proven, so profile() counts it at its base
    only; the recheck it skips runs here, so a wrong proof fails loudly:
    base and base+2 give equal code sets for every n up to the entry's
    pinned n_max."""
    entry = get_entry(entry_id)
    assert f"  {entry.saturation_proof}: " in catalogue.__doc__
    for n in range(1, _PINNED_N.get(entry_id, 8) + 1):
        base = entry.saturation_rule(n)
        assert _base_codes(entry_id, n) == class_codes(entry, base + 2, n), n


@functools.lru_cache(maxsize=None)
def _base_codes(entry_id, n):
    entry = get_entry(entry_id)
    return class_codes(entry, entry.saturation_rule(n), n)


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_screened_profile_counts_the_unscreened_codes(entry_id):
    """profile() canonicalises only the representatives that tie on a
    degree profile; at every n up to the entry's pinned n_max it counts as
    many classes as the unscreened reference finds codes at the base."""
    n_max = _PINNED_N.get(entry_id, 8)
    expected = tuple(len(_base_codes(entry_id, n)) for n in range(1, n_max + 1))
    assert profile(entry_id, n_max).values == expected


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_evaluated_representatives_are_induced_from_the_sample(entry_id):
    """profile evaluates each key representative from the formulas on its
    own points; at the base, for every n up to the entry's pinned n_max,
    that is the representative's induced substructure of the whole sample."""
    entry = get_entry(entry_id)
    for n in range(1, _PINNED_N.get(entry_id, 8) + 1):
        size = entry.saturation_rule(n)
        model = sample_model(entry_id, size)
        points, evaluate = entry.evaluator(size)
        assert points == model.size
        for rep in profiles._representatives(entry, size, points, n).values():
            assert evaluate(rep) == induced_substructure(model, rep), (n, rep)


@functools.lru_cache(maxsize=None)
def _sample_and_evaluate(entry_id, size):
    return sample_model(entry_id, size), get_entry(entry_id).evaluator(size)[1]


@settings(deadline=None, max_examples=100)
@given(
    st.sampled_from(default_sweep_ids()),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_evaluating_distinct_points_induces_them(entry_id, n, larger, rnd):
    """On distinct points of a sample, in any order, the evaluator gives
    the sample's induced substructure, point i being the i-th given point:
    random subsets of the base and base+2 samples, unsorted and sorted."""
    size = get_entry(entry_id).saturation_rule(n) + 2 * larger
    model, evaluate = _sample_and_evaluate(entry_id, size)
    subset = rnd.sample(range(model.size), rnd.randint(0, min(model.size, 9)))
    for points in (subset, sorted(subset)):
        assert evaluate(points) == induced_substructure(model, points), points


def test_profile_evaluates_only_the_representatives(monkeypatch):
    """separation keys every n-subset alike, so profile evaluates one
    representative per n on its own n points: 1**4 + 2**4 + ... + 8**4 =
    8,772 tuples, where the samples of 2n + 3 points would take 5**4 +
    7**4 + ... + 19**4 = 317,256. No sample is built."""
    tuples = []
    evaluated = FiniteStructure._evaluated.__func__

    def spy(cls, sig, points, formulas):
        tuples.append(structures.evaluated_tuples(sig, len(points)))
        return evaluated(cls, sig, points, formulas)

    evaluations = []
    monkeypatch.setattr(FiniteStructure, "_evaluated", classmethod(spy))
    monkeypatch.setattr(catalogue, "get_entry", lambda entry_id: _recording(get_entry(entry_id), evaluations))
    assert profile("separation", 8).values == (1,) * 8
    assert evaluations == [(2 * n + 3, [n]) for n in range(1, 9)]
    assert tuples == [n**4 for n in range(1, 9)]
    assert sum(tuples) == 8772


def test_the_recheck_sweeps_every_entry():
    """The recheck above is the only one: every listed entry is in the
    sweep, the fibered_order:k template by at least one k."""
    sweep = set(default_sweep_ids())
    assert set(list_entry_ids()) - {"fibered_order:k"} <= sweep
    assert any(entry_id.startswith("fibered_order:") for entry_id in sweep)


def _brute_codes(entry_id, size, n):
    # canonical forms are memoised by literal encoding, which is lossless,
    # so this is the plain scan over every subset with no key and no step
    model = sample_model(entry_id, size)
    codes = {}
    for subset in itertools.combinations(range(model.size), n):
        sub = induced_substructure(model, subset)
        lit = structure_encoding(sub)
        if lit not in codes:
            codes[lit] = canonical_form(sub)
    return set(codes.values())


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_class_codes_match_brute_scan(entry_id):
    """The pruned scan finds every class the exhaustive scan finds.

    Brute codes canonicalise every n-subset with no key and no step, at
    base and base+2.
    """
    entry = get_entry(entry_id)
    n_max = 6 if entry_id == "tree_c" else 5
    for n in range(1, n_max + 1):
        base = entry.saturation_rule(n)
        for size in (base, base + 2):
            assert class_codes(entry, size, n) == _brute_codes(entry_id, size, n), (size, n)


@functools.lru_cache(maxsize=None)
def _model_and_codes(entry_id, size, n):
    return sample_model(entry_id, size), class_codes(entry_id, size, n)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([("tree_c", 10, 30), ("fibered_order:3", 26, 26)]),
    st.randoms(use_true_random=False),
)
def test_random_subsets_have_a_found_class(case, rnd):
    """Where the brute scan is unaffordable (C(30, 8) = 5.85M subsets for
    tree_c), every sampled 8-subset's class is among the found ones."""
    entry_id, size, points = case
    model, codes = _model_and_codes(entry_id, size, 8)
    assert model.size == points
    subset = tuple(sorted(rnd.sample(range(points), 8)))
    assert canonical_form(induced_substructure(model, subset)) in codes


def _state_keys(entry, size, n):
    """Every n-subset of the sample of this size, stepped from () and keyed
    by its state."""
    step = entry.subset_step_factory(size)
    key = entry.subset_key_factory(size)
    for subset in itertools.combinations(range(entry.points(size)), n):
        state, last = (), None
        for e in subset:
            state, last = step(state, last, e), e
        yield subset, key(state)


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_state_keys_equal_subset_keys(entry_id):
    """The key of a subset's final step state is the key the subset-based
    oracle computes, at base and base+2."""
    entry = get_entry(entry_id)
    for n in range(1, 6):
        base = entry.saturation_rule(n)
        for size in (base, base + 2):
            oracle = subset_key(entry_id, size)
            for subset, k in _state_keys(entry, size, n):
                assert k == oracle(subset), (size, subset)


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_first_prefix_per_state_reaches_every_key(entry_id):
    """The step contract itself, for every prefix and not only those the
    frontier keeps: of the prefixes sharing a state, the first in
    lexicographic order reaches by extension every key that a later one
    reaches, at base and base+2."""
    entry = get_entry(entry_id)
    for n in range(2, 7):
        base = entry.saturation_rule(n)
        for size in (base, base + 2):
            points = entry.points(size)
            step = entry.subset_step_factory(size)
            key = entry.subset_key_factory(size)

            @functools.lru_cache(maxsize=None)
            def reach(state, last, todo):
                if todo == 0:
                    return frozenset([key(state)])
                ends = range(last + 1, points - todo + 1)
                return frozenset().union(*(reach(step(state, last, e), e, todo - 1) for e in ends))

            for length in range(1, n):
                first = {}
                for prefix in itertools.combinations(range(points - n + length), length):
                    state, last = (), None
                    for e in prefix:
                        state, last = step(state, last, e), e
                    keys = reach(state, last, n - length)
                    assert keys <= first.setdefault(state, keys), (size, n, prefix)


def _raw_shape(entry_id, size):
    """A sorted prefix's block run lengths (two points share a block iff
    each precedes the other) or its raw consecutive meet depths."""
    if entry_id == "tree_c":
        md = _universal_tree_depths(size)
        return lambda prefix: tuple(md[a][b] for a, b in zip(prefix, prefix[1:]))
    prec = sample_model(entry_id, size).relation("prec")

    def runs(prefix):
        out = [1]
        for a, b in zip(prefix, prefix[1:]):
            if (b, a) in prec:
                out[-1] += 1
            else:
                out.append(1)
        return tuple(out)

    return runs


@pytest.mark.parametrize("entry_id", ["fibered_order:2", "fibered_order:3", "tree_c"])
def test_equal_shapes_share_a_state(entry_id):
    """The fibered_order:k and tree_c states keep no point: sorted prefixes
    (length <= 6, base sample) with equal block run lengths, or equal raw
    consecutive meet depths, get equal states."""
    entry = get_entry(entry_id)
    size = entry.saturation_rule(6)
    shape = _raw_shape(entry_id, size)
    step = entry.subset_step_factory(size)
    seen = {}
    for length in range(1, 7):
        for prefix in itertools.combinations(range(entry.points(size)), length):
            state, last = (), None
            for e in prefix:
                state, last = step(state, last, e), e
            assert seen.setdefault(shape(prefix), state) == state, prefix


def test_out_degree_keys_merge_equal_gap_necklaces():
    """Every subset at the brute-gate sizes: subsets with equal gap
    necklaces (the replaced key) get equal out-degree keys, so the new key
    is never finer than the old one."""
    entry = get_entry("local_order")
    for n in range(1, 6):
        base = entry.saturation_rule(n)
        for size in (base, base + 2):
            model = sample_model(entry, size)
            gaps = gap_necklace_key(model)
            seen = {}
            for subset, k in _state_keys(entry, size, n):
                assert seen.setdefault(gaps(subset), k) == k, (size, subset)


def _one_key_per_class(entry_id, n, classes):
    """At base and base+2 no two keys share a canonical code, and the keys
    number the classes."""
    entry = get_entry(entry_id)
    for size in (entry.saturation_rule(n), entry.saturation_rule(n) + 2):
        model = sample_model(entry, size)
        reps = profiles._representatives(entry, size, model.size, n)
        codes = {canonical_form(induced_substructure(model, s)) for s in reps.values()}
        assert len(reps) == len(codes) == classes, size


@pytest.mark.parametrize("n", range(1, 9))
def test_local_order_keys_are_complete(n):
    """One representative per class: the keys number the necklace closed form."""
    _one_key_per_class("local_order", n, odd_divisor_necklace_count(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_tree_keys_are_complete(n):
    """One representative per class: the keys number the leaf-tree shapes."""
    _one_key_per_class("tree_c", n, tree_count(n))


@pytest.mark.parametrize(
    "entry_id, size, n", [("local_order", 17, 7), ("tree_c", 8, 7), ("fibered_order:3", 20, 6)]
)
def test_keys_are_sound_past_the_brute_gate(entry_id, size, n):
    """Subsets sharing a key induce isomorphic substructures, at an n the
    brute scan does not reach: the first and last subset of every key
    bucket have equal canonical codes."""
    entry = get_entry(entry_id)
    model = sample_model(entry, size)
    first, latest = {}, {}
    for subset, k in _state_keys(entry, size, n):
        first.setdefault(k, subset)
        latest[k] = subset
    # one key per class: a finer key fails here, not just in the benchmark
    assert len(first) == {"local_order": 10, "tree_c": 11, "fibered_order:3": 24}[entry_id]
    # each key's representative is its lex-least subset, in the same order
    assert list(profiles._representatives(entry, size, model.size, n).items()) == list(first.items())
    for k, subset in first.items():
        code = canonical_form(induced_substructure(model, subset))
        assert code == canonical_form(induced_substructure(model, latest[k])), k


@pytest.mark.parametrize(
    "entry_id, n_max, message",
    [
        ("tree_c", 10, "tree_c: 30045015 subsets of size 10 exceed budget 10000000"),
        ("local_order", 12, "local_order: 17383860 subsets of size 12 exceed budget 10000000"),
        ("fibered_order:2500", 2, "sample of 2500 points: 6250000 tuples to evaluate, over the cap of 2000000"),
    ],
)
def test_over_budget_profile_fails_before_counting(monkeypatch, entry_id, n_max, message):
    """Every n is checked on the points its sample declares, tree_c's leaf
    count included, so nothing is evaluated and nothing is counted."""
    calls = []
    evaluations = []

    def counted(sub):
        calls.append(sub)
        return canonical_form(sub)

    monkeypatch.setattr(profiles, "canonical_form", counted)
    with pytest.raises(ResourceError) as info:
        profile(_recording(get_entry(entry_id), evaluations), n_max)
    assert str(info.value) == message
    assert calls == []
    assert evaluations == []


def test_a_wrong_point_declaration_is_an_internal_error():
    """tree_c's sampler(4) has 5 leaves; an entry declaring 4 is refused
    by profile before the frontier runs, and by the reference when it
    builds that sample."""
    entry = dataclasses.replace(get_entry("tree_c"), points=lambda size: size)
    assert profile(entry, 3).values == (1, 1, 1)
    message = "tree_c: sampler(4) built 5 points, declared 4"
    for call in (lambda: profile(entry, 4), lambda: class_codes(entry, 4, 2)):
        with pytest.raises(InternalInvariantError) as info:
            call()
        assert str(info.value) == message


def test_the_samples_of_one_profile_share_the_tuple_cap(monkeypatch):
    """The tuples of every sample, summed from the declared signature and
    points, are refused past the cap before anything is evaluated:
    fibered_order:1 evaluates n**2 pairs at n, 1 + 4 + ... + 182**2 =
    2,026,115 over the cap at n = 182, and 1 + 4 + ... + 49 = 140 over a
    cap of 100 at n = 7."""
    built = []
    entry = _recording(get_entry("fibered_order:1"), built)
    with pytest.raises(ResourceError) as info:
        profile(entry, 1414)
    assert str(info.value) == (
        "fibered_order:1: samples for n=1..182 evaluate 2026115 tuples, over the cap of 2000000"
    )
    assert built == []
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 100)
    assert profile(entry, 6).values == (1,) * 6
    built.clear()
    with pytest.raises(ResourceError) as info:
        profile(entry, 7)
    assert str(info.value) == (
        "fibered_order:1: samples for n=1..7 evaluate 140 tuples, over the cap of 100"
    )
    assert built == []
    # the budget refuses before any sample, and the cap on one sample
    # before the total it would also pass (1 + 4 > 3)
    built.clear()
    with pytest.raises(ResourceError) as info:
        profile(entry, 7, budget=0)
    assert str(info.value) == "fibered_order:1: 1 subsets of size 1 exceed budget 0"
    assert built == []
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 3)
    with pytest.raises(ResourceError) as info:
        profile(entry, 2)
    assert str(info.value) == "sample of 2 points: 4 tuples to evaluate, over the cap of 3"
    assert built == []


def test_the_largest_in_budget_profile_fits_the_tuple_cap():
    """separation --n-max 11 evaluates 1,182,203 tuples over its samples,
    5**4 + 7**4 + ... + 25**4, inside the cap; n = 12 is over budget."""
    assert profile("separation", 11).values == (1,) * 11


@pytest.mark.parametrize(
    "n_max, message",
    [
        (0, "profile needs n_max >= 1, got 0"),
        (2.5, "profile needs an int n_max, got 2.5"),
        (True, "profile needs an int n_max, got True"),
    ],
)
def test_n_max_is_an_int_of_at_least_one(n_max, message):
    """A float n_max used to fail in range with a TypeError, and True
    counted f_1 as if it were 1."""
    with pytest.raises(ParameterError) as info:
        profile("dlo", n_max)
    assert str(info.value) == message


@pytest.mark.parametrize("budget", ["x", 2.5, True])
def test_budget_is_an_int(budget):
    """A str budget used to fail in a comparison with a TypeError, and
    2.5 or True was taken as a bound."""
    with pytest.raises(ParameterError) as info:
        profile("dlo", 2, budget=budget)
    assert str(info.value) == f"profile needs an int budget, got {budget!r}"


def test_a_huge_n_max_is_refused_at_its_first_over_budget_n():
    """Each n is checked as its size is computed, so dlo stops at n = 12
    (C(27, 12) subsets) and computes no size beyond it."""
    entry = get_entry("dlo")
    rules = []

    def rule(n):
        rules.append(n)
        return entry.saturation_rule(n)

    with pytest.raises(ResourceError) as info:
        profile(dataclasses.replace(entry, saturation_rule=rule), 10**6)
    assert str(info.value) == "dlo: 17383860 subsets of size 12 exceed budget 10000000"
    assert len(rules) <= 12


def test_a_huge_budget_is_refused_at_the_first_n_over_the_tuple_cap():
    """Each n's tuples join the running total as its size is computed, so
    with the budget out of reach dlo stops at n = 113, where its samples'
    pairs, 5**2 + 7**2 + ... + 229**2 = 2,027,785, pass the cap, and
    computes no size beyond it."""
    entry = get_entry("dlo")
    rules = []

    def rule(n):
        rules.append(n)
        return entry.saturation_rule(n)

    with pytest.raises(ResourceError) as info:
        profile(dataclasses.replace(entry, saturation_rule=rule), 3000, budget=10**4000)
    assert str(info.value) == (
        "dlo: samples for n=1..113 evaluate 2027785 tuples, over the cap of 2000000"
    )
    assert max(rules) == 113


def test_a_sample_over_the_tuple_cap_on_its_own_ends_the_scan_at_its_n():
    """fibered_order:2500's n = 1 sample alone evaluates 2500**2 pairs, so
    with the budget out of reach the scan stops there and computes no
    size beyond it."""
    entry = get_entry("fibered_order:2500")
    rules = []

    def rule(n):
        rules.append(n)
        return entry.saturation_rule(n)

    with pytest.raises(ResourceError) as info:
        profile(dataclasses.replace(entry, saturation_rule=rule), 3000, budget=10**40000)
    assert str(info.value) == (
        "sample of 2500 points: 6250000 tuples to evaluate, over the cap of 2000000"
    )
    assert max(rules) == 1


def test_the_first_failing_n_names_the_refusal():
    """Limits are checked n by n, so the tuple total that first fails at
    n = 13 is named, not the budget that would first fail at n = 21."""
    with pytest.raises(ResourceError) as info:
        profile("separation", 30, budget=10**12)
    assert str(info.value) == (
        "separation: samples for n=1..13 evaluate 2420925 tuples, over the cap of 2000000"
    )


def test_profile_sequence_validation():
    with pytest.raises(ParameterError):
        ProfileSequence("x", (1, 2), (3,))
    with pytest.raises(ParameterError):
        ProfileSequence("x", (0,), (3,))


def test_profile_sequence_csv_layout():
    seq = ProfileSequence("dlo", (1, 1), (5, 7))
    assert seq.to_csv() == "n,f_n,saturated_at\n1,1,5\n2,1,7\n"


@settings(deadline=None)
@given(st.sampled_from(["pure_set", "dlo", "fibered_order:2", "tree_c"]))
def test_profiles_are_monotone(entry_id):
    values = profile(entry_id, 5).values
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_class_codes_refuses_empty_subsets():
    """A subset size is an int of at least 1: 2.5 used to escape as a raw
    TypeError from math.comb, and True was taken as 1."""
    for n, message in (
        (0, "dlo needs subset size >= 1, got 0"),
        (2.5, "dlo needs an int subset size, got 2.5"),
        (True, "dlo needs an int subset size, got True"),
    ):
        with pytest.raises(ParameterError) as info:
            class_codes(get_entry("dlo"), 5, n)
        assert str(info.value) == message

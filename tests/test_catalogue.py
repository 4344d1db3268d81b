"""Catalogue samplers: formulas, invariances and the universal tree."""

import ast
import hashlib
import itertools
import random
import time
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oligoprofile import catalogue
from oligoprofile.catalogue import (
    SIG_ORDER,
    SIG_TREE,
    _universal_tree_depths,
    age_predictor,
    default_sweep_ids,
    get_entry,
    list_entry_ids,
    sample_model,
)
from oligoprofile.errors import ParameterError, ResourceError
from oligoprofile.growth import tree_count
from oligoprofile.profiles import profile
from oligoprofile.structures import induced_substructure, structure_encoding

from oracles import (
    branch_tuples,
    brute_compositions,
    fibonacci,
    is_isomorphic,
    is_locally_transitive,
    revalidated,
    separation_tuples,
    shape_branch_structure,
    tree_shapes,
)
from test_imports import SRC

# entry -> sha256 of the space-joined sha256 hex digests of
# structure_encoding(sample_model(entry, size)) for size 1..23 (tree_c
# parameters 1..11), a size the entry refuses contributing its error type's
# name instead. Frozen from the loop-based samplers the formula declarations
# replaced; fibered_order:1 is the chain, so it shares dlo's digest.
SAMPLER_PINS = {
    "pure_set": "5f7f6e8ab67867d714204e6c7cd784aa18c18fc0a19fa9d511baab136f356109",
    "dlo": "a1abf0eefda6c7fb80a49322098c2d4e5be1b5ec1d5b8a3d2b859f942387b889",
    "betweenness": "148e958d354df783e922c0f6af801e536e9fc34f29c401f8fe9b6d945c451542",
    "circular": "8b8f9169ab57fa9c1580cc80fda3d086298e0e3f9efe7e52e9de136b89585fd9",
    "separation": "d654da92ff8db3cd076fbb8aa9dbd1dec7402a22455361e882b4135a92b72e4f",
    "local_order": "6dfa65a0fe9f312c0366d4677e7f31bea7d98572e0a8870eac7d68291dcca552",
    "fibered_order:2": "709c9c26218a44bf6e250dd051f51471566633055207bc2e1a029f7c41e4e9ca",
    "fibered_order:3": "9275bcfe2105e4b331a9de20a1598d11ed761e78d3ab2350d39e3aad413e8ec9",
    "tree_c": "d681d4fcfab79ad792799b63b42e62cf10211120ab71474204b4fdb7cf52f073",
    "fibered_order:1": "a1abf0eefda6c7fb80a49322098c2d4e5be1b5ec1d5b8a3d2b859f942387b889",
    "fibered_order:5": "21121eeef1b40140c5e1fd4318c6ccee9b4326670423cfbc792cafbc4e272776",
}


def test_sampler_pins_cover_the_sweep():
    assert set(default_sweep_ids()) <= set(SAMPLER_PINS)


@pytest.mark.parametrize("entry_id", sorted(SAMPLER_PINS))
def test_samplers_match_their_pins(entry_id):
    parts = []
    for size in _pinned_sizes(entry_id):
        try:
            code = structure_encoding(sample_model(entry_id, size))
        except ParameterError as exc:
            parts.append(type(exc).__name__)
        else:
            parts.append(hashlib.sha256(code).hexdigest())
    assert hashlib.sha256(" ".join(parts).encode()).hexdigest() == SAMPLER_PINS[entry_id]


@pytest.mark.parametrize("param", range(1, 12))
def test_tree_sampler_matches_explicit_loops(param):
    model = sample_model("tree_c", param)
    assert model.relation("branch") == branch_tuples(_universal_tree_depths(param), range(model.size))


def test_entry_id_listing():
    ids = list_entry_ids()
    assert ids[:5] == ("pure_set", "dlo", "betweenness", "circular", "separation")
    assert "local_order" in ids and "tree_c" in ids
    assert any(i.startswith("fibered_order") for i in ids)


def test_default_sweep_is_concrete():
    sweep = default_sweep_ids()
    assert sweep == (
        "pure_set", "dlo", "betweenness", "circular", "separation", "local_order",
        "fibered_order:2", "fibered_order:3", "tree_c",
    )
    for entry_id in sweep:
        assert get_entry(entry_id).entry_id == entry_id


def test_entry_ids_are_the_one_list():
    """The base entries are keyed by their own ids, which are ENTRY_IDS
    but the parametric one, in order; get_entry resolves each key to its
    entry and returns an entry unchanged."""
    assert tuple(catalogue._BASE_ENTRIES) == tuple(i for i in catalogue.ENTRY_IDS if i != "fibered_order:k")
    for entry_id, entry in catalogue._BASE_ENTRIES.items():
        assert entry.entry_id == entry_id and get_entry(entry_id) is entry and get_entry(entry) is entry


def _entry_checks(node, path=()):
    """The def path of every isinstance(..., CatalogueEntry) call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
            names = {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(child.args[1])}
            if "CatalogueEntry" in names:
                yield path
        yield from _entry_checks(child, path + (child.name,) if isinstance(child, ast.FunctionDef) else path)


def test_get_entry_is_the_one_resolver():
    """Only get_entry tells an entry from an id; every other function that
    takes either passes it to get_entry."""
    checks = [(p.stem, path) for p in sorted(SRC.glob("*.py")) for path in _entry_checks(ast.parse(p.read_text()))]
    assert checks == [("catalogue", ("get_entry",))]


@pytest.mark.parametrize(
    "bad",
    [
        "nope", "fibered_order:0", "fibered_order:x", "fibered_order:",
        "fibered_order:+3", "fibered_order: 3", "fibered_order:0_3", "fibered_order:03",
        "fibered_order:\u0663", 5, None, pytest.param(["dlo"], id="['dlo']"),
    ],
)
def test_get_entry_rejects_unknown(bad):
    with pytest.raises(ParameterError):
        get_entry(bad)


def test_dlo_is_reflexive_chain():
    m = sample_model("dlo", 4)
    assert m.relation("leq") == frozenset(
        (i, j) for i in range(4) for j in range(i, 4)
    )


def test_betweenness_symmetry_and_count():
    m = sample_model("betweenness", 3)
    btw = m.relation("btw")
    assert len(btw) == 17
    assert all(((z, y, x) in btw) for (x, y, z) in btw)
    assert (0, 1, 2) in btw and (1, 0, 2) not in btw
    assert (0, 0, 2) in btw


def test_betweenness_reversal_invariant():
    m = sample_model("betweenness", 5)
    rev = m.relabel(tuple(4 - i for i in range(5)))
    assert rev.relation("btw") == m.relation("btw")


def test_circular_rotation_invariant_but_chiral():
    m = sample_model("circular", 5)
    cyc = m.relation("cyc")
    rot = m.relabel(tuple((i + 1) % 5 for i in range(5)))
    assert rot.relation("cyc") == cyc
    assert (0, 1, 2) in cyc and (2, 1, 0) not in cyc
    assert all(((y, z, x) in cyc) for (x, y, z) in cyc)


def test_circular_three_point_count():
    assert len(sample_model("circular", 3).relation("cyc")) == 24


def test_separation_orientation_free():
    m = sample_model("separation", 4)
    sep = m.relation("sep")
    assert len(sep) == 192
    assert (0, 1, 2, 3) in sep
    assert (0, 2, 1, 3) not in sep and (1, 3, 0, 2) not in sep
    rot = m.relabel((1, 2, 3, 0))
    rev = m.relabel((3, 2, 1, 0))
    assert rot.relation("sep") == sep
    assert rev.relation("sep") == sep


def test_separation_from_both_cyclic_readings():
    sep = sample_model("separation", 5).relation("sep")
    assert all(((t, z, y, x) in sep) for (x, y, z, t) in sep)


def test_separation_sampler_matches_literal_formula():
    for size in range(1, 14):
        assert sample_model("separation", size).relation("sep") == separation_tuples(size)


@pytest.mark.parametrize("entry_id", default_sweep_ids() + ("fibered_order:1", "fibered_order:5"))
def test_trusted_producers_pass_public_validation(entry_id):
    rng = random.Random(entry_id)
    for size in (3, 5, 7, 9):
        model = sample_model(entry_id, size)
        assert type(model.relations) is tuple
        assert all(type(tuples) is frozenset for tuples in model.relations)
        assert revalidated(model) == model
        for k in range(1, model.size + 1):
            sub = induced_substructure(model, tuple(rng.sample(range(model.size), k)))
            assert revalidated(sub) == sub
        moved = model.relabel(rng.sample(range(model.size), model.size))
        assert revalidated(moved) == moved


def test_local_order_is_half_circle_tournament():
    m = sample_model("local_order", 7)
    arc = m.relation("arc")
    for x in range(7):
        for y in range(7):
            if x != y:
                assert ((x, y) in arc) != ((y, x) in arc)
        assert (x, x) not in arc
    degrees = {sum(1 for y in range(7) if (x, y) in arc) for x in range(7)}
    assert degrees == {3}
    assert is_locally_transitive(m)


@pytest.mark.parametrize("bad_size", [1, 2, 4, 6])
def test_local_order_needs_odd_size(bad_size):
    with pytest.raises(ParameterError):
        sample_model("local_order", bad_size)


def test_fibered_blocks_form_total_preorder():
    m = sample_model("fibered_order:2", 6)
    prec = m.relation("prec")
    for a in range(6):
        assert (a, a) in prec
        for b in range(6):
            assert (a, b) in prec or (b, a) in prec
    # elements 0,1 share a fiber; 0,2 do not
    assert (0, 1) in prec and (1, 0) in prec
    assert (0, 2) in prec and (2, 0) not in prec


def test_fibered_last_fiber_may_be_short():
    m = sample_model("fibered_order:3", 7)
    prec = m.relation("prec")
    fiber_of = lambda e: sum(1 for b in range(7) if (b, e) in prec and (e, b) in prec)
    assert [fiber_of(e) for e in range(7)] == [3, 3, 3, 3, 3, 3, 1]


def test_universal_tree_leaf_counts():
    assert [sample_model("tree_c", s).size for s in range(1, 7)] == [1, 2, 3, 5, 7, 10]


def test_tree_branch_triples_pick_unique_latest_pair():
    m = sample_model("tree_c", 5)
    branch = m.relation("branch")
    for x, y, z in itertools.combinations(range(m.size), 3):
        hits = sum(
            (a, b, c) in branch
            for a, b, c in ((x, y, z), (y, x, z), (z, x, y))
        )
        assert hits == 1
    for x in range(m.size):
        for y in range(m.size):
            assert ((x, y, y) in branch) == (x != y)


def test_universal_tree_realizes_every_small_shape():
    """Each shape with up to 5 leaves appears as an induced leaf subset."""
    model = sample_model("tree_c", 5)
    for n in range(1, 6):
        for shape in tree_shapes(n):
            target = shape_branch_structure(shape, SIG_TREE)
            assert any(
                is_isomorphic(induced_substructure(model, combo), target)
                for combo in itertools.combinations(range(model.size), n)
            ), f"shape {shape} missing at n={n}"


def _pinned_sizes(entry_id):
    return range(1, 12 if entry_id == "tree_c" else 24)


@pytest.mark.parametrize("entry_id", default_sweep_ids())
def test_points_declare_the_sample_size(entry_id):
    """profile() checks its budgets on entry.points(size) before it builds
    the sample, so the declaration must be the built size."""
    entry = get_entry(entry_id)
    for size in _pinned_sizes(entry_id):
        try:
            model = entry.sampler(size)
        except ParameterError:
            continue
        assert entry.points(size) == model.size, size


@pytest.mark.parametrize(
    "entry_id, size, message",
    [
        ("separation", 200, "sample of 200 points: 1600000000 tuples to evaluate"),
        ("separation", 1000, "sample of 1000 points: 1000000000000 tuples to evaluate"),
        ("tree_c", 60, "sample of 10399 points: 1124539551199 tuples to evaluate"),
    ],
)
def test_oversized_samples_are_refused_before_any_table(entry_id, size, message):
    """The evaluator's cap is checked on the declared points before the
    family tabulates separation's cyclic triples or tree_c's depths."""
    for call in (sample_model, lambda entry_id, size: get_entry(entry_id).evaluator(size)):
        start = time.perf_counter()
        with pytest.raises(ResourceError) as info:
            call(entry_id, size)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == message + ", over the cap of 2000000"


def _builder_uses(node: ast.AST, path: tuple[str, ...] = ()):
    """The def path of every use of evaluated_tuples or _evaluated below node."""
    for child in ast.iter_child_nodes(node):
        name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
        if name in ("evaluated_tuples", "_evaluated"):
            yield name, path
        yield from _builder_uses(child, path + (child.name,) if isinstance(child, ast.FunctionDef) else path)


def test_the_evaluator_is_the_one_builder():
    """catalogue.py turns formulas into structures in one place: _entry's
    evaluator prices the sample and evaluates it, and the sampler calls it."""
    tree = ast.parse((SRC / "catalogue.py").read_text())
    evaluator = ("_entry", "evaluator")
    assert sorted(_builder_uses(tree)) == [("_evaluated", evaluator), ("evaluated_tuples", evaluator)]


@pytest.mark.parametrize(
    "size, error, message",
    [
        (0, ParameterError, "dlo needs size >= 1, got 0"),
        (-2000, ParameterError, "dlo needs size >= 1, got -2000"),
        # 1415**2 = 2,002,225 pairs, the least order sample over the cap
        (1415, ResourceError, "sample of 1415 points: 2002225 tuples to evaluate, over the cap of 2000000"),
    ],
)
def test_the_sampler_checks_and_prices_before_the_family(size, error, message):
    """Every entry's evaluator, and so its sampler, runs points, then
    prices the tuples, and only then its family: a refused size is never
    handed to the family."""
    calls = []

    def family(size):
        calls.append(size)
        return (le,)

    entry = catalogue._entry("dlo", family, SIG_ORDER, catalogue._at_least("dlo", 1), *[None] * 5)
    for call in (entry.sampler, entry.evaluator):
        with pytest.raises(error) as info:
            call(size)
        assert str(info.value) == message
    assert calls == []
    assert entry.sampler(3) == sample_model("dlo", 3)
    assert calls == [3]
    count, evaluate = entry.evaluator(3)
    assert count == 3 and evaluate(range(3)) == sample_model("dlo", 3)
    assert calls == [3, 3]


@pytest.mark.parametrize(
    "entry_id, size, message",
    [
        ("dlo", -2000, "dlo needs size >= 1, got -2000"),
        ("pure_set", -1, "pure_set needs size >= 0, got -1"),
        ("fibered_order:2", 0, "fibered_order:2 needs size >= 1, got 0"),
        ("local_order", 4, "local_order needs an odd size >= 3, got 4"),
        ("local_order", 1, "local_order needs an odd size >= 3, got 1"),
        ("tree_c", 0, "tree_c needs size >= 1, got 0"),
        # a size is an int, and a bool is not one
        ("dlo", True, "dlo needs an int size, got True"),
        ("dlo", 2.5, "dlo needs an int size, got 2.5"),
        ("pure_set", 3.0, "pure_set needs an int size, got 3.0"),
        ("fibered_order:2", "4", "fibered_order:2 needs an int size, got '4'"),
        ("local_order", 5.0, "local_order needs an odd size >= 3, got 5.0"),
        ("tree_c", True, "tree_c needs an int size, got True"),
    ],
)
def test_points_check_the_size(entry_id, size, message):
    """points is the one check of a size: it refuses what the sampler and
    the evaluator refuse, with their message."""
    entry = get_entry(entry_id)
    for call in (entry.points, entry.sampler, entry.evaluator):
        with pytest.raises(ParameterError) as info:
            call(size)
        assert str(info.value) == message


def test_sample_model_matches_entry_sampler():
    entry = get_entry("dlo")
    assert sample_model("dlo", 5) == entry.sampler(5)


def test_predictors_where_defined():
    assert [age_predictor("dlo", n) for n in (1, 3, 8)] == [1, 1, 1]
    assert [age_predictor("fibered_order:2", n) for n in range(1, 8)] == [
        fibonacci(n + 1) for n in range(1, 8)
    ]
    assert [age_predictor("tree_c", n) for n in (1, 4, 6)] == [1, 2, 6]
    assert [age_predictor("local_order", n) for n in (4, 8, 10)] == [2, 16, 52]


def test_fibered_three_predictor_counts_bounded_compositions():
    for n in range(1, 9):
        assert age_predictor("fibered_order:3", n) == len(brute_compositions(n, 3))


def test_tree_predictor_is_tree_count():
    assert [age_predictor("tree_c", n) for n in range(1, 9)] == [
        tree_count(n) for n in range(1, 9)
    ]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_samplers_nest_along_size(entry_size, n):
    """Smaller dlo models are initial segments of larger ones."""
    if n > entry_size:
        return
    big = sample_model("dlo", entry_size)
    small = sample_model("dlo", n)
    assert induced_substructure(big, tuple(range(n))) == small


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: sample_model("dlo", 0), "dlo needs size >= 1, got 0", id="sample-size-0"),
        pytest.param(
            lambda: age_predictor(get_entry("dlo"), 0), "predictor needs n >= 1, got 0", id="predictor-n-0"
        ),
        pytest.param(lambda: age_predictor("dlo", 2.5), "predictor needs an int n, got 2.5", id="predictor-n-float"),
        # an entry that is neither a CatalogueEntry nor a string is an unknown id
        pytest.param(lambda: get_entry(5), "unknown catalogue entry 5", id="get-entry-int"),
        pytest.param(lambda: get_entry(["dlo"]), "unknown catalogue entry ['dlo']", id="get-entry-list"),
        pytest.param(lambda: profile(5, 3), "unknown catalogue entry 5", id="profile-entry-int"),
        pytest.param(lambda: sample_model(5, 3), "unknown catalogue entry 5", id="sample-entry-int"),
        pytest.param(lambda: age_predictor(None, 3), "unknown catalogue entry None", id="predictor-entry-none"),
    ],
)
def test_refusals_name_the_bad_argument(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message

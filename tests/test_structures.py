"""Encoding, canonical forms and isomorphism on small structures."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oligoprofile import structures
from oligoprofile.catalogue import default_sweep_ids, sample_model
from oligoprofile.glueing import OrderFragment
from oligoprofile.posets import FinitePoset
from oligoprofile.errors import (
    DomainError,
    InvalidSubsetError,
    OligoError,
    ParameterError,
    ResourceError,
)
from oligoprofile.structures import (
    FiniteStructure,
    _incidence,
    _refine,
    Signature,
    canonical_form,
    degree_profile,
    induced_substructure,
    isomorphism_classes,
    signature,
    structure_encoding,
)
from oligoprofile.witnesses import build_family, construction_ids

from oracles import (
    brute_canonical,
    brute_isomorphic,
    is_isomorphic,
    iterated_refinement,
    leb128_decode,
    leb128_encoding,
    restrict,
    tournaments_up_to_iso,
)

SIG_EDGE = signature(("edge", 2))
SIG_MIXED = signature(("mark", 1), ("edge", 2))
SIG_TERNARY = signature(("rel", 3))
SIG_QUATERNARY = signature(("rel", 4))


def chain(n):
    return FiniteStructure.build(SIG_EDGE, n, {"edge": {(i, i + 1) for i in range(n - 1)}})


@st.composite
def small_structures(draw):
    sig = draw(st.sampled_from((SIG_EDGE, SIG_MIXED, SIG_TERNARY, SIG_QUATERNARY)))
    max_size = 3 if sig in (SIG_TERNARY, SIG_QUATERNARY) else 5
    size = draw(st.integers(min_value=1, max_value=max_size))
    rels = {}
    for name, arity in sig.relations:
        universe = list(itertools.product(range(size), repeat=arity))
        rels[name] = draw(st.sets(st.sampled_from(universe)))
    return FiniteStructure.build(sig, size, rels)


@st.composite
def structure_with_permutation(draw):
    s = draw(small_structures())
    perm = draw(st.permutations(range(s.size)))
    return s, tuple(perm)


def test_signature_rejects_duplicate_names():
    with pytest.raises(ParameterError):
        signature(("r", 2), ("r", 3))


def test_signature_rejects_bad_arity():
    with pytest.raises(ParameterError):
        signature(("r", 0))


def test_signature_lookup():
    sig = signature(("a", 1), ("b", 3))
    assert sig.names == ("a", "b")
    assert sig.index("b") == 1
    assert sig.relations[sig.index("b")] == ("b", 3)
    with pytest.raises(ParameterError):
        sig.index("c")


def test_build_rejects_wrong_arity_tuple():
    with pytest.raises(ParameterError):
        FiniteStructure.build(SIG_EDGE, 2, {"edge": {(0, 1, 1)}})


def test_build_rejects_out_of_range():
    with pytest.raises(ParameterError):
        FiniteStructure.build(SIG_EDGE, 2, {"edge": {(0, 2)}})


def test_build_rejects_unknown_relation():
    with pytest.raises(ParameterError):
        FiniteStructure.build(SIG_EDGE, 2, {"arc": {(0, 1)}})


def test_evaluated_holds_exactly_where_the_formulas_do():
    sig = signature(("lt", 2), ("two", 1), ("diag", 3))
    formulas = (lambda x, y: x < y, lambda x: x == 2, lambda x, y, z: x == y == z)
    s = FiniteStructure._evaluated(sig, range(4), formulas)
    literal = {
        name: [t for t in itertools.product(range(4), repeat=arity) if holds(*t)]
        for (name, arity), holds in zip(sig.relations, formulas)
    }
    assert s == FiniteStructure.build(sig, 4, literal)
    assert FiniteStructure(s.signature, s.size, s.relations) == s
    assert s.relation("diag") == {(x, x, x) for x in range(4)}
    assert FiniteStructure._evaluated(Signature(()), range(3), ()) == FiniteStructure.build(Signature(()), 3)
    assert FiniteStructure._evaluated(sig, range(0), formulas) == FiniteStructure.build(sig, 0)


def test_evaluated_cap_counts_tuples_over_every_relation(monkeypatch):
    """4**2 + 4 = 20 tuples on 4 points: at the cap the structure is
    evaluated, one tuple under it it is refused before any formula runs."""
    sig = signature(("lt", 2), ("two", 1))
    calls = []

    def lt(x, y):
        calls.append((x, y))
        return x < y

    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 20)
    assert FiniteStructure._evaluated(sig, range(4), (lt, lambda x: x == 2)).relation("two") == {(2,)}
    calls.clear()
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 19)
    with pytest.raises(ResourceError) as info:
        FiniteStructure._evaluated(sig, range(4), (lt, lambda x: x == 2))
    assert str(info.value) == "sample of 4 points: 20 tuples to evaluate, over the cap of 19"
    assert calls == []


def test_relabel_moves_tuples():
    s = chain(3)
    r = s.relabel((2, 0, 1))
    assert r.relation("edge") == frozenset({(2, 0), (0, 1)})


def test_relabel_rejects_non_bijection():
    with pytest.raises(ParameterError):
        chain(3).relabel((0, 0, 2))


@pytest.mark.parametrize("perm", [(True, 0, 2), (1.0, 0, 2), (2, 0, 1.0), None, 5, {2, 0, 1}])
def test_relabel_refuses_points_that_are_not_ints(perm):
    """Python holds True and 1.0 equal to 1, so these sort to a bijection;
    the float used to land in the relabelled tuples. A perm that is not a
    sequence used to raise a raw TypeError."""
    with pytest.raises(ParameterError) as info:
        chain(3).relabel(perm)
    assert str(info.value) == f"perm {perm} is not a bijection on 3 elements"


def test_induced_keeps_inner_tuples():
    # 0 <= 1 <= 2 as a reflexive chain, restricted to its ends
    leq = {(i, j) for i in range(3) for j in range(i, 3)}
    s = FiniteStructure.build(signature(("leq", 2)), 3, {"leq": leq})
    sub = induced_substructure(s, (0, 2))
    assert sub.size == 2
    assert sub.relation("leq") == frozenset({(0, 0), (0, 1), (1, 1)})


def test_induced_reindexes_by_position():
    sub = induced_substructure(chain(4), (3, 2))
    assert sub.relation("edge") == frozenset({(1, 0)})


def test_induced_rejects_repeats_and_range():
    with pytest.raises(InvalidSubsetError):
        induced_substructure(chain(3), (1, 1))
    with pytest.raises(InvalidSubsetError):
        induced_substructure(chain(3), (0, 3))


@pytest.mark.parametrize("subset", [[True, 2], [1.0, 2], [0, 2.0], iter([0, 1]), {0, 1}, [[0], 1]])
def test_induced_refuses_points_that_are_not_ints(subset):
    """An iterator and an unhashable point used to raise a raw TypeError,
    and a set was accepted in its iteration order, though element i of
    the result is subset[i]."""
    with pytest.raises(InvalidSubsetError) as info:
        induced_substructure(chain(3), subset)
    assert str(info.value) == f"subset {subset} out of range for size 3"


def test_json_round_trip():
    s = FiniteStructure.build(SIG_MIXED, 3, {"mark": {(0,)}, "edge": {(0, 1), (2, 1)}})
    assert FiniteStructure.from_json_dict(s.to_json_dict()) == s


def test_from_json_rejects_garbage():
    with pytest.raises(ParameterError):
        FiniteStructure.from_json_dict({"size": 2})


def test_from_json_rejects_values_it_used_to_coerce():
    data = {"signature": [["e", 2.9]], "size": "3", "tuples": {"e": [[True, "2"]]}}
    with pytest.raises(ParameterError, match="malformed structure JSON"):
        FiniteStructure.from_json_dict(data)


def test_from_json_rejects_infinite_arity():
    data = json.loads('{"signature": [["edge", 1e400]], "size": 2, "tuples": {}}')
    with pytest.raises(ParameterError, match="malformed structure JSON"):
        FiniteStructure.from_json_dict(data)


def test_encoding_orders_signature_then_tuples():
    a = FiniteStructure.build(SIG_EDGE, 2, {"edge": {(0, 1)}})
    b = FiniteStructure.build(SIG_EDGE, 2, {"edge": {(1, 0)}})
    assert structure_encoding(a) != structure_encoding(b)
    assert structure_encoding(a) == structure_encoding(a)


def test_canonical_form_on_singletons():
    bare = FiniteStructure.build(signature(("mark", 1)), 1)
    marked = FiniteStructure.build(signature(("mark", 1)), 1, {"mark": {(0,)}})
    assert canonical_form(bare) != canonical_form(marked)


@given(structure_with_permutation())
def test_canonical_form_is_relabel_invariant(pair):
    s, perm = pair
    assert canonical_form(s) == canonical_form(s.relabel(perm))


def test_canonical_partition_matches_brute_partition_exhaustively():
    """All binary structures on 3 points, grouped by code vs by brute minimum.

    The two codes need not be byte-equal, but they must induce the same
    partition into isomorphism classes.
    """
    pool = []
    pairs = list(itertools.product(range(3), repeat=2))
    for bits in range(2 ** len(pairs)):
        edges = {p for i, p in enumerate(pairs) if bits >> i & 1}
        pool.append(FiniteStructure.build(SIG_EDGE, 3, {"edge": edges}))
    by_fast = {}
    by_brute = {}
    for idx, s in enumerate(pool):
        by_fast.setdefault(canonical_form(s), set()).add(idx)
        by_brute.setdefault(brute_canonical(s), set()).add(idx)
    assert sorted(map(sorted, by_fast.values())) == sorted(map(sorted, by_brute.values()))
    assert len(by_fast) == 104


@given(structure_with_permutation())
def test_is_isomorphic_accepts_relabellings(pair):
    s, perm = pair
    assert is_isomorphic(s, s.relabel(perm))


@given(small_structures(), small_structures())
@settings(max_examples=60)
def test_iso_agreement_between_all_three_tests(a, b):
    if a.signature != b.signature:
        return
    expected = brute_isomorphic(a, b)
    assert is_isomorphic(a, b) == expected
    assert (canonical_form(a) == canonical_form(b)) == expected


def test_is_isomorphic_rejects_signature_mismatch():
    a = FiniteStructure.build(SIG_EDGE, 1)
    b = FiniteStructure.build(SIG_TERNARY, 1)
    with pytest.raises(ValueError, match=r"signatures differ: \(\('edge', 2\),\) vs \(\('rel', 3\),\)"):
        is_isomorphic(a, b)


def test_non_isomorphic_same_counts():
    # same number of edges, different degree multiset
    a = FiniteStructure.build(SIG_EDGE, 4, {"edge": {(0, 1), (1, 2), (2, 3)}})
    b = FiniteStructure.build(SIG_EDGE, 4, {"edge": {(0, 1), (0, 2), (0, 3)}})
    assert not is_isomorphic(a, b)
    assert canonical_form(a) != canonical_form(b)


def _undirected(size, edges):
    return FiniteStructure.build(SIG_EDGE, size, {"edge": edges | {(b, a) for a, b in edges}})


_HEXAGON = _undirected(6, {(i, (i + 1) % 6) for i in range(6)})


@pytest.mark.parametrize(
    "other, expected",
    [
        (_undirected(6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}), False),
        (_HEXAGON.relabel([0, 3, 1, 4, 2, 5]), True),
    ],
    ids=["two-triangles", "relabelled"],
)
def test_is_isomorphic_backtracks_where_refinement_cannot_split(other, expected):
    """Both sides are 2-regular, so refinement leaves one cell and the
    search decides: it rejects partial maps that send an edge to a
    non-edge, or back, and undoes them."""
    assert is_isomorphic(_HEXAGON, other) == expected
    assert (canonical_form(_HEXAGON) == canonical_form(other)) == expected


@pytest.mark.parametrize(
    "model, k, probe",
    [
        (sample_model("local_order", 11), 5, True),
        (sample_model("local_order", 11), 8, False),
        (sample_model("separation", 7), 5, True),
        (sample_model("separation", 7), 7, False),
        (FiniteStructure.build(SIG_MIXED, 6, {"mark": {(1,), (4,)}, "edge": {(0, 5), (5, 5)}}), 4, False),
    ],
)
def test_induced_matches_restriction_on_both_branches(model, k, probe):
    # each relation probes all k**arity tuples over the subset when that is
    # no more than its size, and scans its tuples otherwise
    rels = zip(model.signature.relations, model.relations)
    assert all((k**arity <= len(tuples)) == probe for (_, arity), tuples in rels)
    rng = random.Random(k)
    for _ in range(20):
        subset = tuple(rng.sample(range(model.size), k))
        assert induced_substructure(model, subset) == restrict(model, subset)


def test_encodings_past_one_byte_match_leb128_reference():
    """Sizes >= 128 take the multi-byte varint path of the encoder."""
    n = 130
    rng = random.Random(128)
    edges = {(i, i + 1) for i in range(n - 1)} | {(rng.randrange(n), rng.randrange(n)) for _ in range(40)}
    s = FiniteStructure.build(SIG_MIXED, n, {"mark": {(0,), (129,)}, "edge": edges})
    assert structure_encoding(s) == leb128_encoding(s)
    code = canonical_form(s)
    canon = leb128_decode(SIG_MIXED, code)
    assert leb128_encoding(canon) == code
    assert is_isomorphic(canon, s)
    perm = list(range(n))
    rng.shuffle(perm)
    assert canonical_form(s.relabel(perm)) == code


def _regular(t):
    outdeg = [0] * t.size
    for a, _ in t.relation("arc"):
        outdeg[a] += 1
    return len(set(outdeg)) == 1


@functools.cache
def symmetric_corpus(family):
    """Vertex-transitive inputs, whose automorphisms are mostly not
    transpositions, so only orbit pruning cuts their search."""
    if family == "local_order":
        return tuple(sample_model("local_order", n) for n in range(3, 12, 2))
    if family == "regular_tournament":
        return tuple(t for size in range(1, 8) for t in tournaments_up_to_iso(size) if _regular(t))
    rng = random.Random(family)
    model = sample_model(family, 9)
    return tuple(induced_substructure(model, rng.sample(range(9), k)) for k in range(4, 8))


SYMMETRIC_FAMILIES = ("local_order", "regular_tournament", "separation", "circular", "betweenness")


def test_symmetric_corpus_sizes():
    sizes = {f: [s.size for s in symmetric_corpus(f)] for f in SYMMETRIC_FAMILIES}
    assert sizes["local_order"] == [3, 5, 7, 9, 11]
    assert sizes["regular_tournament"] == [1, 3, 5, 7, 7, 7]
    assert sizes["separation"] == sizes["circular"] == sizes["betweenness"] == [4, 5, 6, 7]


@pytest.mark.parametrize("family", SYMMETRIC_FAMILIES)
def test_canonical_form_invariant_on_symmetric_corpus(family):
    rng = random.Random(family)
    for s in symmetric_corpus(family):
        code = canonical_form(s)
        for _ in range(6):
            perm = list(range(s.size))
            rng.shuffle(perm)
            assert canonical_form(s.relabel(perm)) == code


@pytest.mark.parametrize("family", SYMMETRIC_FAMILIES)
def test_degree_profile_invariant_on_symmetric_corpus(family):
    rng = random.Random(f"degree profile {family}")
    for s in symmetric_corpus(family):
        prof = degree_profile(s)
        assert prof[:2] == (s.signature, s.size)
        for _ in range(6):
            perm = list(range(s.size))
            rng.shuffle(perm)
            assert degree_profile(s.relabel(perm)) == prof


@given(structure_with_permutation())
def test_degree_profile_is_relabel_invariant(pair):
    s, perm = pair
    assert degree_profile(s) == degree_profile(s.relabel(perm))


def _graph(n, edges):
    return FiniteStructure.build(SIG_EDGE, n, {"edge": {p for a, b in edges for p in ((a, b), (b, a))}})


def test_a_profile_tie_that_is_no_isomorphism_gives_two_classes():
    """The 6-cycle and two triangles are both 2-regular on six points, so
    their profiles tie; canonical codes split the tie, a relabelled 6-cycle
    joins the first class, and the 6-path, alone on its profile, is never
    canonicalised."""
    hexagon = _graph(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = _graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    path = _graph(6, [(i, i + 1) for i in range(5)])
    assert degree_profile(hexagon) == degree_profile(triangles)
    assert degree_profile(path) != degree_profile(hexagon)
    canonicalised = []

    def code(s):
        canonicalised.append(s)
        return canonical_form(s)

    pool = [hexagon, triangles, hexagon.relabel([2, 4, 0, 1, 5, 3]), path]
    assert isomorphism_classes(pool, code) == [[0, 2], [1], [3]]
    assert canonicalised == pool[:3]


@given(st.lists(structure_with_permutation(), min_size=1, max_size=6))
def test_isomorphism_classes_are_the_canonical_code_classes(pairs):
    pool = [s for s, _ in pairs] + [s.relabel(perm) for s, perm in pairs]
    by_code = {}
    for i, s in enumerate(pool):
        by_code.setdefault(canonical_form(s), []).append(i)
    assert sorted(isomorphism_classes(pool, canonical_form)) == sorted(by_code.values())


def test_canonical_partition_matches_brute_on_symmetric_corpus():
    """Codes and brute minima group the same structures.

    Each reduct member comes with a copy that lacks its least tuple: same
    size and signature, not isomorphic. Brute force stops at 6 points for
    the reducts: 7-point separation would relabel 1421 tuples 5040 times.
    """
    pool = [s for s in symmetric_corpus("local_order") if s.size <= 7]
    pool += symmetric_corpus("regular_tournament")
    for family in ("separation", "circular", "betweenness"):
        for s in symmetric_corpus(family):
            if s.size <= 6:
                rest = sorted(s.relations[0])[1:]
                pool += [s, FiniteStructure(s.signature, s.size, (frozenset(rest),))]
    fast = [canonical_form(s) for s in pool]
    brute = [brute_canonical(s) for s in pool]
    for i, j in itertools.combinations(range(len(pool)), 2):
        assert (fast[i] == fast[j]) == (brute[i] == brute[j])
    # local_order 3, 5 and 7 are regular tournaments, and so isomorphic to
    # one of them; every other structure is alone in its class
    assert len(set(fast)) == len(pool) - 3


def _refinement_corpus():
    pool = [s for family in SYMMETRIC_FAMILIES for s in symmetric_corpus(family)]
    for construction in construction_ids():
        for n in range(1, 8):
            pool += build_family(construction, n).members
    for entry in default_sweep_ids():
        for size in range(1, 10):
            try:
                pool.append(sample_model(entry, size))
            except OligoError:
                pass
    return pool


def _cells(colors):
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return cells


def _tuple_colour_keys(s, colors):
    keys = [[] for _ in range(s.size)]
    for ridx, tuples in enumerate(s.relations):
        for t in tuples:
            for posn, x in enumerate(t):
                keys[x].append((ridx, posn, tuple(colors[y] for y in t)))
    return [sorted(k) for k in keys]


def test_refinement_kernel_matches_iterated_refinement():
    """From the unit colouring, and from its refinement with the least or
    the greatest point of the first cell of two or more individualised, the
    incremental kernel stops at the partition iterated refinement reaches;
    every cell is equitable, and every colour is the number of points in
    earlier cells."""
    corpus = _refinement_corpus()
    assert len(corpus) > 500
    for s in corpus:
        inc, co = _incidence(s.size, s.relations)
        root = _refine(inc, co, [0] * s.size, range(s.size))
        cells = _cells(root)
        first = min((c for c, cell in cells.items() if len(cell) > 1), default=None)
        cases = [([0] * s.size, range(s.size))]
        if first is not None:
            for v in (min(cells[first]), max(cells[first])):
                split = [c + (c == first) for c in root]
                split[v] = first
                cases.append((split, sorted(cells[first])))
        for colors, changed in cases:
            oracle = iterated_refinement(s, list(colors))
            fast = _refine(inc, co, list(colors), changed)
            got = _cells(fast)
            assert sorted(map(sorted, got.values())) == sorted(map(sorted, _cells(oracle).values()))
            keys = _tuple_colour_keys(s, fast)
            for c, cell in got.items():
                assert c == sum(1 for x in fast if x < c)
                assert all(keys[v] == keys[min(cell)] for v in cell)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: Signature((("", 2),)), "relation name must be a nonempty string, got ''", id="empty-name"
        ),
        pytest.param(lambda: FiniteStructure(SIG_EDGE, -1, (frozenset(),)), "size must be >= 0, got -1", id="size"),
        pytest.param(lambda: FiniteStructure(SIG_EDGE, 2, ()), "0 tuple sets for 1 relation symbols", id="tuple-sets"),
        pytest.param(
            lambda: FiniteStructure.from_json_dict({"signature": [["e", 2]], "size": 2.0, "tuples": {}}),
            "malformed structure JSON: size and tuple entries must be integers",
            id="json-size",
        ),
        pytest.param(
            lambda: FiniteStructure.from_json_dict({"signature": [["e", 2]], "size": 2, "tuples": {"e": [[0, 1.0]]}}),
            "malformed structure JSON: size and tuple entries must be integers",
            id="json-entry",
        ),
    ],
)
def test_refusals_name_the_bad_argument(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


_ENTRIES = "size and tuple entries must be integers"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: FiniteStructure.build(SIG_EDGE, 2.0), ParameterError, _ENTRIES, id="float-size"),
        pytest.param(lambda: FiniteStructure.build(SIG_EDGE, True), ParameterError, _ENTRIES, id="bool-size"),
        pytest.param(
            lambda: FiniteStructure.build(SIG_EDGE, 3, {"edge": [(1.0, 2)]}), ParameterError, _ENTRIES, id="float-entry"
        ),
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 3, (frozenset({(0, True)}),)), ParameterError, _ENTRIES, id="bool-entry"
        ),
        pytest.param(
            lambda: Signature((("e", "2"),)),
            ParameterError,
            "relation 'e' has arity '2', expected an int >= 1",
            id="str-arity",
        ),
        pytest.param(
            lambda: Signature((("e", 2.0),)),
            ParameterError,
            "relation 'e' has arity 2.0, expected an int >= 1",
            id="float-arity",
        ),
        pytest.param(
            lambda: Signature((("e", 2), (["e"], 2))),
            ParameterError,
            "relation name must be a nonempty string, got ['e']",
            id="unhashable-name",
        ),
        pytest.param(
            lambda: OrderFragment(7, (1, 2)), ParameterError, "fragment id 7 is not a string", id="int-fragment-id"
        ),
        pytest.param(
            lambda: FinitePoset(2.5, [(0, 0), (1, 1)]),
            DomainError,
            "poset size must be an int >= 1, got 2.5",
            id="float-poset-size",
        ),
        pytest.param(lambda: FinitePoset(3, 5), DomainError, "poset pairs must be iterable, got 5", id="int-poset-pairs"),
        pytest.param(lambda: FinitePoset(3, [5]), DomainError, "bad pair 5 for size 3", id="int-poset-pair"),
        pytest.param(
            lambda: OrderFragment("a", 5), ParameterError, "fragment 'a' elements are not iterable", id="int-elements"
        ),
    ],
)
def test_constructors_refuse_what_the_loaders_refuse(call, error, message):
    """Each public type checks its values' types itself, so a value that no
    JSON payload can pass is refused from Python too, with a message."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: FiniteStructure.build(SIG_EDGE, 2, {"edge": [(0, [1])]}),
            "relation 'edge' needs tuples of integers",
            id="unhashable-entry",
        ),
        pytest.param(
            lambda: FiniteStructure.build(SIG_EDGE, 2, {"edge": [1]}),
            "relation 'edge' needs tuples of integers",
            id="int-row",
        ),
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 2, (frozenset({1}),)),
            "relation 'edge' holds 1, not a tuple",
            id="row-not-a-tuple",
        ),
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 2, ([(0, 1)],)),
            "relation 'edge' holds a list, not a frozenset",
            id="list-of-rows",
        ),
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 2, ({(0, 1)},)),
            "relation 'edge' holds a set, not a frozenset",
            id="set-of-rows",
        ),
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 2, (((0, 1),),)),
            "relation 'edge' holds a tuple, not a frozenset",
            id="tuple-of-rows",
        ),
        pytest.param(
            lambda: OrderFragment("a", ([1], 2)), "fragment 'a' holds an unhashable element", id="unhashable-element"
        ),
    ],
)
def test_rows_no_set_can_hold_are_refused(call, message):
    """A row that is no sequence, or holds an unhashable value, used to
    escape as a raw TypeError from hashing or len; rows held in anything
    but a frozenset were accepted, and hashing the structure then failed."""
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError and str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: FiniteStructure(SIG_EDGE, 2, [frozenset()]), "relations are a list, not a tuple", id="structure-list"
        ),
        pytest.param(
            lambda: Signature([("edge", 2)]), "signature relations are a list, not a tuple", id="signature-list"
        ),
        pytest.param(
            lambda: Signature((["edge", 2],)),
            "signature relation ['edge', 2] is not a (name, arity) tuple",
            id="list-pair",
        ),
        pytest.param(
            lambda: Signature((("edge",),)), "signature relation ('edge',) is not a (name, arity) tuple", id="short-pair"
        ),
    ],
)
def test_relation_containers_that_are_not_tuples_are_refused(call, message):
    """A list of tuple sets or of (name, arity) pairs used to be accepted;
    hashing the structure or signature then raised a raw TypeError, and it
    compared unequal to the one built from tuples."""
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError and str(info.value) == message
    built = FiniteStructure(Signature((("edge", 2),)), 2, (frozenset(),))
    assert built == FiniteStructure.build(SIG_EDGE, 2) and hash(built) == hash(FiniteStructure.build(SIG_EDGE, 2))


@st.composite
def _json_structures(draw):
    arities = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    sig = signature(*((f"r{i}", arity) for i, arity in enumerate(arities)))
    size = draw(st.integers(0, 3))
    rels = {}
    for name, arity in sig.relations:
        universe = list(itertools.product(range(size), repeat=arity))
        rels[name] = draw(st.sets(st.sampled_from(universe))) if universe else set()
    return FiniteStructure.build(sig, size, rels)


@given(_json_structures())
@settings(max_examples=200, deadline=None)
def test_json_dict_keeps_the_list_of_lists_bytes(s):
    """to_json_dict returns sorted tuples; json writes the bytes of the sorted
    lists it used to return, and they load back into the same structure."""
    lists = {
        "signature": [[name, arity] for name, arity in s.signature.relations],
        "size": s.size,
        "tuples": {
            name: sorted([list(t) for t in tuples])
            for (name, _), tuples in zip(s.signature.relations, s.relations)
        },
    }
    text = json.dumps(s.to_json_dict())
    assert text == json.dumps(lists)
    assert FiniteStructure.from_json_dict(json.loads(text)) == s


def test_empty_structures_are_isomorphic():
    assert is_isomorphic(FiniteStructure.build(SIG_EDGE, 0), FiniteStructure.build(SIG_EDGE, 0))


_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(allow_nan=False), st.text(max_size=2)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=10,
)


_json_relation = st.lists(st.one_of(st.sampled_from(["e", ""]), st.integers(-1, 3), _json_values), max_size=3)
_json_tuple = st.lists(st.one_of(st.integers(-1, 4), _json_values), max_size=3)


@given(
    st.fixed_dictionaries(
        {
            "signature": st.one_of(_json_values, st.lists(_json_relation, max_size=2)),
            "size": st.one_of(st.integers(-1, 4), _json_values),
            "tuples": st.one_of(
                _json_values,
                st.dictionaries(st.sampled_from(["e", "x"]), st.lists(_json_tuple, max_size=3), max_size=2),
            ),
        }
    )
)
@example({"signature": [["e", 2]], "size": 2, "tuples": {"e": [[0, 1.0]]}})
@example({"signature": [["e", 2]], "size": True, "tuples": {}})
@example({"signature": [["e", 2.0]], "size": 2, "tuples": {}})
@example({"signature": [[["e"], 2]], "size": 2, "tuples": {}})
@example({"signature": [["e", 2]], "size": 2, "tuples": {"e": [[0, [1]]]}})
@example({"signature": [["e", 2]], "size": 2, "tuples": {"e": [1]}})
@example({"signature": [["e", 2]], "size": 2, "tuples": {"e": 1}})
@settings(max_examples=300, deadline=None)
def test_json_loader_loads_or_raises_parameter_error(payload):
    """Generated payloads either load into a structure that round-trips or
    raise ParameterError; no other exception escapes. The loader is an
    unpacking plus the constructors: a payload loads exactly when Signature
    and build accept its unpacked values, into the structure they build.
    Only the unpacking may raise a TypeError; Signature and build refuse
    every value with ParameterError."""
    try:
        relations = tuple((name, arity) for name, arity in payload["signature"])
        tuples = dict(payload["tuples"].items())
    except (TypeError, ValueError, AttributeError):
        built = None
    else:
        try:
            built = FiniteStructure.build(Signature(relations), payload["size"], tuples)
        except ParameterError:
            built = None
    try:
        s = FiniteStructure.from_json_dict(payload)
    except ParameterError:
        assert built is None
        return
    assert s == built
    assert FiniteStructure.from_json_dict(s.to_json_dict()) == s

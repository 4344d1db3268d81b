"""Fragment classification, assembly, and invariant-relation emission."""

import hashlib
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oligoprofile import glueing, structures
from oligoprofile.catalogue import sample_model
from oligoprofile.cli import main
from oligoprofile.errors import (
    FragmentPairError,
    InconsistentFragmentsError,
    InternalInvariantError,
    ParameterError,
    ResourceError,
)
from oligoprofile.glueing import (
    OVERLAP_TAGS,
    GlueComponent,
    OrderFragment,
    OverlapCase,
    classify_overlap,
    emit_invariant_relation,
    fragments_from_json_dict,
    fragments_to_json_dict,
    glue,
    normalize_circular,
    normalize_linear,
    sample_circular_fragments,
    sample_linear_fragments,
)

from oracles import all_pairs_glue, brute_normalize_circular


def frag(fid, els):
    return OrderFragment(fragment_id=fid, elements=tuple(els))


def test_fragment_validation():
    with pytest.raises(ParameterError):
        frag("x", [1])
    with pytest.raises(ParameterError):
        frag("x", [1, 2, 1])


def test_tag_inventory():
    assert OVERLAP_TAGS == (
        "disjoint",
        "head-tail",
        "aligned-reversed",
        "double-wrap",
        "double-wrap-reversed",
    )


@pytest.mark.parametrize(
    "a, b, tag",
    [
        ([1, 2], [3, 4], "disjoint"),
        ([1, 2, 3], [3, 4, 5], "head-tail"),
        ([1, 2, 3, 4], [3, 4, 5, 6], "head-tail"),
        ([1, 2, 3, 4], [2, 1, 9, 8], "aligned-reversed"),
        ([1, 2, 3], [5, 4, 3], "aligned-reversed"),
        ([1, 2, 3, 4], [4, 5, 6, 1], "double-wrap"),
        ([1, 2, 3, 4], [1, 6, 5, 4], "double-wrap-reversed"),
        ([1, 2], [2, 1], "aligned-reversed"),
    ],
)
def test_classification_examples(a, b, tag):
    fa, fb = frag("a", a), frag("b", b)
    assert classify_overlap(fa, fb).tag == tag
    assert classify_overlap(fb, fa).tag == tag


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 2, 3, 4, 5], [2, 3, 4]),  # overlap buried in the middle
        ([1, 2, 3], [2, 9]),
        ([1, 2, 3, 4], [1, 2, 4, 3]),
        ([1, 2, 3, 4, 5], [1, 2, 9, 4, 5]),
    ],
)
def test_unclassifiable_pairs_raise(a, b):
    with pytest.raises(FragmentPairError):
        classify_overlap(frag("a", a), frag("b", b))


def test_classification_reports_shared_segments():
    case = classify_overlap(frag("a", [1, 2, 3]), frag("b", [3, 4, 5]))
    assert case.segments == ((3,),)


def test_glue_single_fragment():
    comps = glue([frag("a", [4, 2, 9])])
    assert len(comps) == 1
    assert comps[0].kind == "linear"
    assert comps[0].arrangement == normalize_linear((4, 2, 9))
    assert comps[0].members == ("a",)


def test_glue_two_windows_one_line():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [3, 4, 5])])
    assert [c.arrangement for c in comps] == [(1, 2, 3, 4, 5)]
    assert comps[0].kind == "linear"


def test_glue_flips_reversed_window():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [5, 4, 3])])
    assert comps[0].arrangement == (1, 2, 3, 4, 5)


def test_glue_three_arcs_close_a_circle():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [3, 4, 5]), frag("c", [5, 6, 1])])
    assert comps[0].kind == "circular"
    assert comps[0].arrangement == (1, 2, 3, 4, 5, 6)
    assert comps[0].members == ("a", "b", "c")


def test_glue_double_wrap_pair_closes_a_circle():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [3, 4, 1])])
    assert comps[0].kind == "circular"
    assert comps[0].arrangement == (1, 2, 3, 4)


def test_glue_keeps_disjoint_components_apart():
    comps = glue([frag("a", [7, 8, 9]), frag("b", [1, 2, 3])])
    assert [c.members for c in comps] == [("a",), ("b",)]
    assert [c.arrangement for c in comps] == [(7, 8, 9), (1, 2, 3)]


def test_glue_rejects_duplicate_ids():
    with pytest.raises(ParameterError):
        glue([frag("a", [1, 2]), frag("a", [2, 3])])


def test_glue_detects_orientation_conflict():
    """a meets b head to tail and b wraps around c, so all three read one
    way; but a and c both end in 3, so they read opposite ways."""
    fragments = [frag("a", [1, 2, 3]), frag("b", [3, 4, 5]), frag("c", [5, 6, 3])]
    assert _outcome(glue, fragments) == (
        InconsistentFragmentsError,
        "fragment 'b' needs both directions at once",
    )


def test_identical_windows_merge():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [1, 2, 3])])
    assert [c.arrangement for c in comps] == [(1, 2, 3)]


def test_normalize_linear_prefers_lexicographic_direction():
    assert normalize_linear((5, 4, 3)) == (3, 4, 5)
    assert normalize_linear((3, 4, 5)) == (3, 4, 5)


def test_normalize_circular_minimizes_over_rotations_and_flips():
    ring = (3, 1, 2)
    assert normalize_circular(ring) == (1, 2, 3)
    assert normalize_circular((1, 3, 2)) == (1, 2, 3)


def test_normalize_handles_mixed_element_types():
    assert normalize_linear(("b", 2, "a")) == ("a", 2, "b")
    arrangement = normalize_circular(("x", 1, "y", 2))
    assert set(arrangement) == {"x", "y", 1, 2}


def test_fragments_json_round_trip():
    fragments = (frag("a", [1, 2, 3]), frag("b", ["x", "y"]))
    payload = fragments_to_json_dict(fragments)
    assert payload["fragments"][0] == {"id": "a", "elements": [1, 2, 3]}
    assert fragments_from_json_dict(payload) == fragments


def test_emitted_linear_relation_is_betweenness():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [3, 4, 5])])
    emitted = emit_invariant_relation(comps[0])
    assert emitted == sample_model("betweenness", 5)


def test_emitted_circular_relation_is_separation():
    comps = glue([frag("a", [1, 2, 3]), frag("b", [3, 4, 5]), frag("c", [5, 6, 1])])
    emitted = emit_invariant_relation(comps[0])
    assert emitted == sample_model("separation", 6)
    sep = emitted.relation("sep")
    assert (0, 1, 2, 3) in sep
    assert (0, 2, 1, 3) not in sep


def test_emission_ignores_direction_and_rotation():
    base = GlueComponent(kind="circular", arrangement=(1, 2, 3, 4), members=("a",))
    flipped = GlueComponent(kind="circular", arrangement=(4, 3, 2, 1), members=("a",))
    rotated = GlueComponent(kind="circular", arrangement=(2, 3, 4, 1), members=("a",))
    assert emit_invariant_relation(base) == emit_invariant_relation(flipped)
    assert emit_invariant_relation(base) == emit_invariant_relation(rotated)
    line = GlueComponent(kind="linear", arrangement=(1, 2, 3), members=("a",))
    reversed_line = GlueComponent(kind="linear", arrangement=(3, 2, 1), members=("a",))
    assert emit_invariant_relation(line) == emit_invariant_relation(reversed_line)


@pytest.mark.parametrize("kind, n, count", [("linear", 126, 2000376), ("circular", 38, 2085136)])
def test_emission_one_element_past_the_cap_is_refused(kind, n, count):
    component = GlueComponent(kind=kind, arrangement=tuple(range(n)), members=("a",))
    with pytest.raises(ResourceError) as info:
        emit_invariant_relation(component)
    assert str(info.value) == (
        f"sample of {n} points: {count} tuples to evaluate, over the cap of 2000000"
    )


def test_emission_cap_counts_evaluated_tuples(monkeypatch):
    """n**3 tuples for a line of n elements and n**4 for a circle: at the
    cap a component is emitted, one tuple under it it is refused."""
    line = GlueComponent(kind="linear", arrangement=(1, 2, 3, 4), members=("a",))
    circle = GlueComponent(kind="circular", arrangement=(1, 2, 3), members=("a",))
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 81)
    assert emit_invariant_relation(line) == sample_model("betweenness", 4)
    assert emit_invariant_relation(circle) == sample_model("separation", 3)
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 80)
    assert emit_invariant_relation(line) == sample_model("betweenness", 4)
    with pytest.raises(ResourceError, match="^sample of 3 points: 81 tuples"):
        emit_invariant_relation(circle)
    monkeypatch.setattr(structures, "MAX_EVALUATED_TUPLES", 63)
    with pytest.raises(ResourceError, match="^sample of 4 points: 64 tuples"):
        emit_invariant_relation(line)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: OverlapCase(tag="x", segments=()), "unknown overlap tag 'x'", id="overlap-tag"),
        pytest.param(
            lambda: GlueComponent(kind="x", arrangement=(), members=()), "unknown component kind 'x'", id="kind"
        ),
        pytest.param(
            lambda: sample_linear_fragments(2, 0),
            "sample_linear_fragments needs size >= 3, got 2",
            id="linear-size",
        ),
    ],
)
def test_refusals_name_the_bad_argument(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_window_longer_than_the_circle_is_an_internal_error():
    """Every arc is at most size - 2 long, so only a hand-built span can
    trip this check."""
    with pytest.raises(InternalInvariantError, match="^window longer than the circle$"):
        glueing._spans_to_fragments(list(range(8)) * 2, [(0, 9)], random.Random(0), wrap=8)


def test_glue_is_idempotent_on_recovered_arrangement():
    comps = glue([frag("a", [1, 2, 3, 4]), frag("b", [4, 5, 6, 7])])
    again = glue([frag("w", comps[0].arrangement)])
    assert again[0].arrangement == comps[0].arrangement


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_linear_sampling_recovers_the_hidden_line(size, seed):
    hidden, fragments = sample_linear_fragments(size, seed)
    comps = glue(fragments)
    assert len(comps) == 1
    assert comps[0].kind == "linear"
    assert comps[0].arrangement == normalize_linear(hidden)


@given(st.integers(min_value=8, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_circular_sampling_recovers_the_hidden_ring(size, seed):
    hidden, fragments = sample_circular_fragments(size, seed)
    comps = glue(fragments)
    assert len(comps) == 1
    assert comps[0].kind == "circular"
    assert comps[0].arrangement == normalize_circular(hidden)


def test_sampled_pairs_always_classify():
    rng = random.Random(5)
    for _ in range(15):
        size = rng.randrange(8, 40)
        _, fragments = sample_circular_fragments(size, rng.getrandbits(32))
        elems = [set(f.elements) for f in fragments]
        for i in range(len(fragments)):
            for j in range(i + 1, len(fragments)):
                case = classify_overlap(fragments[i], fragments[j])
                if elems[i] & elems[j]:
                    assert case.tag in OVERLAP_TAGS[1:]
                else:
                    assert case.tag == "disjoint"


def test_component_json_shape():
    comps = glue([frag("a", [1, 2, 3])])
    data = comps[0].to_json_dict()
    assert data == {"kind": "linear", "arrangement": [1, 2, 3], "members": ["a"]}


# keys that tie across types: True and "True", None and "None", 1 and 1.0
TIE_ELEMENTS = [0, 1, 1.0, 1.5, 2, True, False, "True", "None", None, "1", "a"]


@given(
    st.lists(st.sampled_from(TIE_ELEMENTS), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
    st.lists(st.sampled_from(TIE_ELEMENTS), max_size=6),
)
@example([True, "True", 1], 1, [])
@example([2, 1], 2, [])
@example([None, 1, 1.0], 2, ["None"])
@settings(max_examples=400, deadline=None)
def test_normalize_circular_matches_every_rotation_scan(block, repeats, tail):
    """Booth's least rotation agrees with scanning all rotations of both
    directions, down to which of two tied elements comes out where."""
    seq = tuple(block) * repeats + tuple(tail)
    got = normalize_circular(seq)
    want = brute_normalize_circular(seq)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def _scrambled(fragments, rng):
    """The fragments with one of at least three elements shuffled."""
    out = list(fragments)
    i = rng.choice([k for k, f in enumerate(out) if len(f.elements) >= 3])
    els = list(out[i].elements)
    while tuple(els) == out[i].elements:
        rng.shuffle(els)
    out[i] = frag(out[i].fragment_id, els)
    return out


def _twisted(hidden, fragments, rng):
    """The fragments plus a two-fragment loop through the last hidden
    element z: [z, -1, -2] and [-2, -3, z] close a circle that meets z's
    window in the reversed direction, an odd cycle of reversals."""
    z = hidden[-1]
    out = list(fragments)
    for fid, els in (("twist-a", [z, -1, -2]), ("twist-b", [-2, -3, z])):
        out.insert(rng.randrange(len(out) + 1), frag(fid, els))
    return out


def _outcome(fn, fragments):
    try:
        return "ok", fn(fragments)
    except (FragmentPairError, InconsistentFragmentsError, ParameterError) as exc:
        return type(exc), str(exc)


def test_glue_matches_all_pairs_reference():
    """The element index changes which pairs are classified, not the
    components, nor the type and message of the first error."""
    rng = random.Random(11)
    seen = Counter()
    for case in range(120):
        size = rng.randrange(8, 90)
        circular = case % 2
        sampler = sample_circular_fragments if circular else sample_linear_fragments
        hidden, fragments = sampler(size, rng.getrandbits(32))
        variants = [list(fragments), _scrambled(fragments, rng)]
        if not circular:
            variants.append(_twisted(hidden, fragments, rng))
        for variant in variants:
            got = _outcome(glue, variant)
            assert got == _outcome(all_pairs_glue, variant)
            seen[got[0]] += 1
    assert seen["ok"] and seen[FragmentPairError] and seen[InconsistentFragmentsError]


@pytest.mark.parametrize("sampler", [sample_linear_fragments, sample_circular_fragments])
def test_glue_classifies_each_overlapping_pair_once(monkeypatch, sampler):
    _, fragments = sampler(300, 4)
    calls = Counter()
    classify = glueing.classify_overlap

    def counted(f1, f2):
        calls[f1.fragment_id, f2.fragment_id] += 1
        return classify(f1, f2)

    monkeypatch.setattr(glueing, "classify_overlap", counted)
    glue(fragments)
    overlapping = {
        (a.fragment_id, b.fragment_id)
        for i, a in enumerate(fragments)
        for b in fragments[i + 1:]
        if set(a.elements) & set(b.elements)
    }
    assert calls == Counter(overlapping)


@pytest.mark.parametrize(
    "rows, sharings",
    [([[0, 1, 2]] * 2000, 5_997_000), ([[0, i] for i in range(1, 2001)], 1_999_000)],
)
def test_cli_glue_refuses_a_pair_blow_up_at_once(capsys, monkeypatch, tmp_path, rows, sharings):
    """2,000 copies of one window, and 2,000 fragments through one element:
    finding their pairs costs the sum over elements of C(holders, 2), so
    glue refuses before it classifies any pair."""
    calls = []
    monkeypatch.setattr(glueing, "classify_overlap", lambda f1, f2: calls.append(f1))
    src = tmp_path / "fragments.json"
    src.write_text(json.dumps({"fragments": [{"id": f"f{i}", "elements": e} for i, e in enumerate(rows)]}))
    start = time.perf_counter()
    assert main(["glue", "--in", str(src)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err == (
        f"error: glue: {sharings} (element, fragment pair) incidences to check,"
        " over the cap of 200000\n"
    )


@pytest.mark.parametrize("sampler", [sample_linear_fragments, sample_circular_fragments])
def test_sampled_30000_elements_glue_under_the_pair_cap(sampler):
    hidden, fragments = sampler(30000, 1)
    (comp,) = glue(fragments)
    normalize = normalize_linear if sampler is sample_linear_fragments else normalize_circular
    assert comp.arrangement == normalize(hidden)


def test_glue_pair_cap_counts_shared_elements(monkeypatch):
    # three copies of [0, 1, 2] share each element C(3, 2) = 3 times
    copies = [frag(f"f{i}", [0, 1, 2]) for i in range(3)]
    monkeypatch.setattr(glueing, "_MAX_SHARINGS", 9)
    assert [c.arrangement for c in glue(copies)] == [(0, 1, 2)]
    monkeypatch.setattr(glueing, "_MAX_SHARINGS", 8)
    with pytest.raises(ResourceError, match="glue: 9 "):
        glue(copies)


@pytest.mark.parametrize(
    "a, b, parity, anchors, message",
    [
        # b read backwards from a shared 3 puts 5 where a has 1
        ([1, 2, 3], [3, 4, 5], 1, (3,), "element 5 and position 0 do not match up"),
        # two anchors one position apart under a reversal close a 2-cycle
        ([1, 2], [1, 2], 1, (1, 2), "wrap-around over only 2 positions"),
    ],
)
def test_placement_errors_from_hand_built_edges(a, b, parity, anchors, message):
    """Placement checks behind the traversal. classify_overlap never
    builds these edges, whose parities contradict the pairs' runs, so
    they go to _assemble directly. The circle-count and uncovered-line
    checks fire on no edges at all: each fragment is placed on an anchor
    it shares with the fragment that found it, so the placed positions
    form one interval longer than any period."""
    fragments = [frag("a", a), frag("b", b)]
    edges = {0: [(1, parity, anchors)], 1: [(0, parity, anchors)]}
    assert _outcome(lambda f: glueing._assemble(f, 0, {}, edges), fragments) == (
        InconsistentFragmentsError,
        message,
    )


@pytest.mark.parametrize(
    "sampler, size, seed, digest",
    [
        (sample_linear_fragments, 3000, 3, "df8ee4dc3853eb3389659af4155c488cceba26864fd2bfb890f4af603230bf23"),
        (sample_linear_fragments, 2000, 5, "e5317d6403035df05fdf966a65b835c6552117f943b57f86496f66ced34a4c0a"),
        (sample_circular_fragments, 1000, 7, "9f7ca55be15cbdd029c1dc27fa4a952c143bce8ccd9818e723c69191e199ddeb"),
    ],
)
def test_cli_glue_stdout_is_pinned(capsys, tmp_path, sampler, size, seed, digest):
    _, fragments = sampler(size, seed)
    src = tmp_path / "fragments.json"
    src.write_text(json.dumps(fragments_to_json_dict(fragments)))
    assert main(["glue", "--in", str(src)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_sampler_outputs_are_pinned():
    """One sha256 over both samplers' (hidden, fragments) outputs, or the
    ParameterError text where a sampler refuses the size, so no draw of
    either sampler can drift."""
    digest = hashlib.sha256()
    cases = [(size, seed) for size in range(3, 41) for seed in range(10)]
    cases += [(size, seed) for size in (1000, 3000) for seed in range(3)]
    for sampler in (sample_linear_fragments, sample_circular_fragments):
        for size, seed in cases:
            try:
                hidden, fragments = sampler(size, seed)
                text = json.dumps([hidden, fragments_to_json_dict(fragments)])
            except ParameterError as exc:
                text = str(exc)
            digest.update(text.encode())
    assert digest.hexdigest() == "7741647f8e8c231f87dff8d43db89a8cf499820b741f3e12f135c6a8d41adacd"

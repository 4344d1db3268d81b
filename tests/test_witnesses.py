"""Witness families: counts, decoders, collision detection."""

import dataclasses
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoprofile import witnesses
from oligoprofile.errors import ParameterError, ResourceError
from oligoprofile.structures import FiniteStructure, canonical_form, degree_profile, induced_substructure
from oligoprofile.witnesses import (
    CollisionReport,
    WitnessFamily,
    antichain_witness,
    binary_pattern_witness,
    build_family,
    composition_witness,
    compositions,
    construction_ids,
    decode_antichain,
    decode_binary_pattern,
    decode_composition,
    verify_pairwise_nonisomorphic,
)

from oracles import brute_compositions, fibonacci, recursive_compositions, revalidated, subset_classes

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_compositions_listing_matches_brute():
    for n in range(1, 8):
        for max_part in range(1, n + 1):
            assert list(compositions(n, max_part)) == brute_compositions(n, max_part)


def test_compositions_keep_the_recursive_order():
    for n in range(1, 13):
        for max_part in range(1, n + 2):
            assert list(compositions(n, max_part)) == list(recursive_compositions(n, max_part))


def test_compositions_of_a_large_n_do_not_recurse():
    assert sum(1 for _ in compositions(1000, 1)) == 1
    assert next(compositions(1000, 1000)) == (1,) * 1000


def test_construction_id_listing():
    assert construction_ids() == ("composition", "binary_pattern", "antichain")


@pytest.mark.parametrize("n", range(1, 9))
def test_composition_family_count(n):
    fam = composition_witness(n, n)
    assert len(fam.members) == 2 ** (n - 1)
    assert len(set(fam.indices)) == len(fam.indices)


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_pattern_family_count(n):
    assert len(binary_pattern_witness(n).members) == 2 ** n


@pytest.mark.parametrize("n", range(1, 9))
def test_antichain_family_count(n):
    assert len(antichain_witness(n).members) == 2 ** (n - 1)


def test_bounded_parts_count_is_fibonacci():
    for n in range(1, 9):
        assert len(composition_witness(n, 2).members) == fibonacci(n + 1)


def test_composition_decoder_round_trip():
    fam = composition_witness(6, 6)
    for member, index in zip(fam.members, fam.indices):
        assert decode_composition(member) == index


def test_binary_pattern_decoder_round_trip():
    fam = binary_pattern_witness(6)
    for member, index in zip(fam.members, fam.indices):
        assert decode_binary_pattern(member) == index


def test_antichain_decoder_round_trip():
    fam = antichain_witness(5)
    for member, index in zip(fam.members, fam.indices):
        assert decode_antichain(member) == index


def test_one_decoder_reads_both_block_families():
    assert decode_antichain is decode_composition
    assert build_family("antichain", 4).index_decoder is build_family("composition", 4).index_decoder


@pytest.mark.parametrize("construction", construction_ids())
def test_decoders_read_the_degree_profile_alone(construction, monkeypatch):
    """Handed a member's degree profile in place of the member, each
    decoder still returns the member's index: it reads nothing else."""
    fam = build_family(construction, 6)
    profiles = [degree_profile(m) for m in fam.members]
    monkeypatch.setattr(witnesses, "degree_profile", lambda profile: profile)
    assert [fam.index_decoder(p) for p in profiles] == list(fam.indices)


@pytest.mark.parametrize("construction", construction_ids())
def test_every_member_decodes_after_a_relabel_and_a_json_round_trip(construction):
    rng = random.Random(f"decode {construction}")
    for n in range(1, 9):
        fam = build_family(construction, n)
        for member, index in zip(fam.members, fam.indices):
            perm = list(range(member.size))
            rng.shuffle(perm)
            text = json.dumps(member.relabel(perm).to_json_dict())
            assert fam.index_decoder(FiniteStructure.from_json_dict(json.loads(text))) == index


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded as the benchmark loads it; its
    dataclasses look their module up in sys.modules while it executes."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_decoders_round_trip_their_families(monkeypatch):
    """The names the benchmark imports from this module still decode
    their families, so a rename fails here and not only in a benchmark run."""
    workloads = _benchmark_workloads(monkeypatch)
    assert set(workloads.WITNESS_TASKS) == set(construction_ids())
    for construction, (_, _, decoder) in workloads.WITNESS_TASKS.items():
        fam = build_family(construction, 6)
        assert [decoder(m) for m in fam.members] == list(fam.indices), construction


@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_decoders_survive_relabelling(n, rng):
    """Indices are recovered from the isomorphism type, not the labelling."""
    for fam, decoder in (
        (composition_witness(n, n), decode_composition),
        (binary_pattern_witness(n), decode_binary_pattern),
        (antichain_witness(n), decode_antichain),
    ):
        pos = rng.randrange(len(fam.members))
        member = fam.members[pos]
        perm = list(range(member.size))
        rng.shuffle(perm)
        assert decoder(member.relabel(perm)) == fam.indices[pos]


def test_family_json_shape():
    fam = composition_witness(3, 2)
    data = fam.to_json_dict()
    assert data["construction"] == "composition"
    assert data["n"] == 3
    assert sorted(map(tuple, data["indices"])) == sorted(
        brute_compositions(3, 2)
    )
    assert len(data["members"]) == len(data["indices"])


def test_family_validation():
    fam = composition_witness(2, 2)
    with pytest.raises(ParameterError):
        WitnessFamily(
            construction_id="composition",
            n=2,
            scaffold=fam.scaffold,
            members=fam.members,
            indices=fam.indices[:-1],
            index_decoder=fam.index_decoder,
        )
    with pytest.raises(ParameterError):
        build_family("composition", 0)


def test_build_family_dispatch_and_max_part():
    assert len(build_family("composition", 5, max_part=2).members) == fibonacci(6)
    with pytest.raises(ParameterError):
        build_family("antichain", 3, max_part=2)
    with pytest.raises(ParameterError):
        build_family("nope", 3)


@pytest.mark.parametrize("construction", construction_ids())
def test_no_collisions_in_real_families(construction):
    fam = build_family(construction, 6)
    report = verify_pairwise_nonisomorphic(fam)
    assert report.pairs == ()
    assert report.construction_id == construction
    assert report.n == 6


def test_collision_report_names_the_exact_pair():
    fam = binary_pattern_witness(3)
    rigged = WitnessFamily(
        construction_id=fam.construction_id,
        n=fam.n,
        scaffold=fam.scaffold,
        members=fam.members + (fam.members[2],),
        indices=fam.indices + ((9, 9, 9),),
        index_decoder=fam.index_decoder,
    )
    report = verify_pairwise_nonisomorphic(rigged)
    assert report.pairs == ((2, len(fam.members)),)
    assert report.pairs
    assert report.to_json_dict()["collisions"] == [[2, len(fam.members)]]


def _with_copies(fam, positions, rng):
    """fam with a randomly relabelled copy of each listed member appended."""
    copies = []
    for pos in positions:
        perm = list(range(fam.members[pos].size))
        rng.shuffle(perm)
        copies.append(fam.members[pos].relabel(perm))
    return WitnessFamily(
        fam.construction_id, fam.n, fam.scaffold, fam.members + tuple(copies),
        fam.indices + tuple(fam.indices[pos] for pos in positions), fam.index_decoder,
    )


@pytest.mark.parametrize("construction", construction_ids())
def test_relabelled_copies_report_exactly_the_injected_pairs(construction):
    rng = random.Random(construction)
    fam = build_family(construction, 6)
    total = len(fam.members)
    a, b = rng.sample(range(total), 2)
    report = verify_pairwise_nonisomorphic(_with_copies(fam, [a, b, a], rng))
    assert report.pairs == tuple(sorted([(a, total), (a, total + 2), (total, total + 2), (b, total + 1)]))


def _pairs_by_canonical_code(members):
    by_code = {}
    for i, member in enumerate(members):
        by_code.setdefault(canonical_form(member), []).append(i)
    return tuple(sorted(p for group in by_code.values() for p in itertools.combinations(group, 2)))


@pytest.mark.parametrize("construction", construction_ids())
def test_screened_verification_equals_grouping_by_canonical_codes(construction):
    """Every member has a degree profile of its own, so verification
    canonicalises nothing, and it reports what grouping every member by
    canonical code reports, with and without an injected copy."""
    rng = random.Random(f"screen {construction}")
    for n in range(1, 9):
        fam = build_family(construction, n)
        assert len({degree_profile(m) for m in fam.members}) == len(fam.members), n
        assert verify_pairwise_nonisomorphic(fam).pairs == _pairs_by_canonical_code(fam.members) == ()
        rigged = _with_copies(fam, [len(fam.members) - 1], rng)
        expected = _pairs_by_canonical_code(rigged.members)
        assert verify_pairwise_nonisomorphic(rigged).pairs == expected == ((len(fam.members) - 1, len(fam.members)),)


def test_binary_pattern_scaffold_age_is_exactly_the_family():
    """Every n-subset of the marked chain lands in one of the 2^n classes."""
    for n in range(1, 6):
        fam = binary_pattern_witness(n)
        assert subset_classes(fam.scaffold, n) == 2 ** n


def test_composition_scaffold_age_matches_bounded_compositions():
    for n in range(2, 6):
        fam = composition_witness(n, 2)
        assert subset_classes(fam.scaffold, n) == fibonacci(n + 1)


def test_members_embed_in_scaffold():
    """Each member occurs among induced n-subsets of its scaffold."""
    for construction in construction_ids():
        fam = build_family(construction, 4)
        scaffold_codes = {
            canonical_form(induced_substructure(fam.scaffold, combo))
            for combo in itertools.combinations(range(fam.scaffold.size), fam.n)
        }
        for member in fam.members:
            assert canonical_form(member) in scaffold_codes


def test_one_part_composition_member_is_single_fiber():
    fam = composition_witness(1, 1)
    assert fam.indices == ((1,),)
    member = fam.members[0]
    assert member.size == 1
    assert member.relation("prec") == frozenset({(0, 0)})


@pytest.mark.parametrize("n", range(1, 7))
def test_scaffolds_match_their_definitions(n):
    """The formula-built scaffolds equal the tuple sets their docstrings describe."""
    size = 2 * n
    marked = binary_pattern_witness(n).scaffold
    assert revalidated(marked) == marked
    assert marked.relation("leq") == {(x, y) for x in range(size) for y in range(size) if x <= y}
    assert marked.relation("mark") == {(2 * i,) for i in range(n)}
    stacked = antichain_witness(n).scaffold
    assert revalidated(stacked) == stacked
    anchors_below = {
        (i * n, j * n + t) for i in range(n) for j in range(i + 1, n) for t in range(n)
    }
    assert stacked.relation("leq") == {(x, x) for x in range(n * n)} | anchors_below
    for max_part in range(1, n + 1):
        blocks = composition_witness(n, max_part).scaffold
        assert revalidated(blocks) == blocks
        size = n * max_part
        assert blocks.relation("prec") == {
            (a, b) for a in range(size) for b in range(size) if a // max_part <= b // max_part
        }


def test_max_part_past_n_gives_the_same_family():
    clamped = build_family("composition", 3, max_part=100000)
    plain = build_family("composition", 3)
    assert (clamped.members, clamped.indices) == (plain.members, plain.indices)
    assert clamped.scaffold.size == 9


@pytest.mark.parametrize(
    "construction, n, max_part",
    [
        ("composition", 17, None),
        ("binary_pattern", 16, None),
        ("antichain", 17, None),
        ("composition", 257, 1),
        ("composition", 40, None),
        ("binary_pattern", 10**9, None),
        ("antichain", 40, None),
        ("composition", 13, None),
        ("binary_pattern", 12, None),
        ("antichain", 13, None),
        ("composition", 17, 2),
    ],
)
def test_build_family_refuses_past_the_caps(construction, n, max_part):
    """Sizes past the member cap (the last four one size past it) and
    scaffolds past the point cap: all refused from closed forms before
    anything is built, by build_family and by the constructor itself."""
    with pytest.raises(ResourceError, match="over the cap"):
        build_family(construction, n, max_part)
    constructor = {
        "composition": lambda: composition_witness(n, n if max_part is None else max_part),
        "binary_pattern": lambda: binary_pattern_witness(n),
        "antichain": lambda: antichain_witness(n),
    }[construction]
    with pytest.raises(ResourceError, match="over the cap"):
        constructor()


def _family_of_size_zero():
    fam = composition_witness(2, 2)
    return WitnessFamily(
        construction_id="composition",
        n=0,
        scaffold=fam.scaffold,
        members=fam.members,
        indices=fam.indices,
        index_decoder=fam.index_decoder,
    )


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: list(compositions(0, 2)), "compositions needs n >= 1, got 0", id="compositions-n"),
        pytest.param(
            lambda: list(compositions(3, 0)), "compositions needs max_part >= 1, got 0", id="compositions-max-part"
        ),
        pytest.param(_family_of_size_zero, "witness family needs n >= 1, got 0", id="family-n"),
        pytest.param(
            lambda: composition_witness(3, 0),
            "composition_witness needs max_part >= 1, got 0",
            id="composition-max-part",
        ),
        pytest.param(
            lambda: build_family("composition", 3, 2.5),
            "composition_witness needs an int max_part, got 2.5",
            id="composition-float-max-part",
        ),
        pytest.param(
            lambda: build_family("composition", 3, True),
            "composition_witness needs an int max_part, got True",
            id="composition-bool-max-part",
        ),
        pytest.param(
            lambda: build_family("composition", 3, "3"),
            "composition_witness needs an int max_part, got '3'",
            id="composition-str-max-part",
        ),
        pytest.param(
            lambda: binary_pattern_witness(0), "binary_pattern_witness needs n >= 1, got 0", id="binary-pattern-n"
        ),
        pytest.param(lambda: antichain_witness(0), "antichain_witness needs n >= 1, got 0", id="antichain-n"),
    ],
)
def test_refusals_name_the_bad_argument(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("n", [2.5, True, 3.0])
@pytest.mark.parametrize("construction", ["composition", "binary_pattern", "antichain"])
def test_n_is_an_int(construction, n):
    """A float n used to fail in range with a TypeError, and True built a
    family whose JSON read "n": true."""
    with pytest.raises(ParameterError) as info:
        build_family(construction, n)
    assert str(info.value) == f"{construction}_witness needs an int n, got {n!r}"
    fam = composition_witness(2, 2)
    with pytest.raises(ParameterError) as info:
        dataclasses.replace(fam, n=n)
    assert str(info.value) == f"witness family needs an int n, got {n!r}"

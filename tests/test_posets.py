"""Posets, width, and the collapse-to-chain construction."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoprofile.errors import DomainError, InternalInvariantError, ParameterError, ResourceError
from oligoprofile.posets import (
    FinitePoset,
    _first_intransitive,
    _pairs,
    _quotient,
    antichain_width,
    exhaustive_posets,
    linearize,
    max_incomparability,
    random_poset,
    triangle_step,
)

from oracles import (
    brute_first_intransitive,
    brute_max_antichain,
    brute_mixed_block,
    kuhn_width,
    pair_incomparables,
    pair_is_chain,
    pair_max_incomparability,
    pair_quotient,
    pair_triangle_step,
)


def closed_pairs(size, strict):
    """strict plus the diagonal, closed transitively on pair sets, so tests
    can build posets from covers without kernel code."""
    pairs = set(strict) | {(x, x) for x in range(size)}
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def poset_from_strict(size, strict):
    return FinitePoset(size=size, leq=frozenset(closed_pairs(size, strict)))


def chain(n):
    return poset_from_strict(n, {(i, i + 1) for i in range(n - 1)})


def antichain(n):
    return poset_from_strict(n, set())


# 0 < 2, 1 < 2, 1 < 3: the four-point zigzag
N_POSET = poset_from_strict(4, {(0, 2), (1, 2), (1, 3)})


def test_validation_rejects_broken_relations():
    with pytest.raises(DomainError):
        FinitePoset(size=0, leq=frozenset())
    with pytest.raises(DomainError):
        FinitePoset(size=2, leq=frozenset({(0, 0), (1, 1), (0, 2)}))
    with pytest.raises(DomainError):
        FinitePoset(size=2, leq=frozenset({(0, 0)}))
    with pytest.raises(DomainError):
        FinitePoset(size=2, leq=frozenset({(0, 0), (1, 1), (0, 1), (1, 0)}))
    with pytest.raises(DomainError):
        FinitePoset(
            size=3,
            leq=frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}),
        )
    with pytest.raises(DomainError, match="bad pair"):
        FinitePoset(size=2, leq=frozenset({(0, 0), (1, 1), (0.5, 1)}))
    with pytest.raises(DomainError, match="bad pair"):
        FinitePoset(size=2, leq=frozenset({(0, 0), (1, 1), (-1, 1)}))
    with pytest.raises(DomainError, match="bad pair"):
        FinitePoset(size=2, leq=frozenset({(0, 0), (1, 1), (0, 1, 1)}))


def test_constructor_reads_an_iterator_of_pairs_once():
    p = FinitePoset(2, (q for q in [(0, 0), (1, 1), (0, 1)]))
    assert p == FinitePoset(2, [(0, 0), (1, 1), (0, 1)])
    assert (0, 1) in p.leq
    with pytest.raises(DomainError, match="bad pair"):
        FinitePoset(2, (q for q in [(0, 0), (1, 1), (0, 2)]))


def test_order_checks_name_the_least_broken_pair():
    loops = {(x, x) for x in range(4)}
    with pytest.raises(DomainError, match=r"^antisymmetry fails on \(1, 3\)$"):
        FinitePoset(4, loops | {(3, 1), (1, 3), (3, 2), (2, 3)})
    with pytest.raises(DomainError, match=r"^missing reflexive pair \(2, 2\)$"):
        FinitePoset(4, loops - {(2, 2), (3, 3)} | {(0, 1), (1, 0)})
    with pytest.raises(DomainError, match=r"^transitivity fails through \(1, 2\)$"):
        FinitePoset(4, loops | {(1, 2), (2, 3)})


def test_json_load_closes_reflexively():
    p = FinitePoset.from_json_dict({"size": 3, "leq": [[0, 1]]})
    assert (0, 0) in p.leq and (2, 2) in p.leq
    assert (0, 1) in p.leq


def test_json_load_rejects_infinite_size():
    with pytest.raises(DomainError, match="malformed poset payload"):
        FinitePoset.from_json_dict(json.loads('{"size": 1e400, "leq": []}'))


def test_json_load_caps_the_size():
    assert FinitePoset.from_json_dict({"size": 1024, "leq": [[0, 1023]]}).size == 1024
    with pytest.raises(ResourceError) as info:
        FinitePoset.from_json_dict({"size": 1025, "leq": []})
    assert str(info.value) == "poset: 1025 points, over the cap of 1024"


def test_json_dump_lists_strict_pairs_only():
    assert chain(3).to_json_dict() == {"size": 3, "leq": [[0, 1], [0, 2], [1, 2]]}


def test_json_round_trip():
    p = N_POSET
    assert FinitePoset.from_json_dict(p.to_json_dict()) == p


def test_incomparability_helpers():
    p = N_POSET
    assert p.incomparable(0, 1)
    assert not p.incomparable(0, 2)
    assert p.incomparable_mask(0) == 0b1010
    assert max_incomparability(p) == 2
    assert chain(4).is_chain()
    assert not p.is_chain()


NON_ELEMENT_QUERIES = [
    ("incomparable", (0, 3), 3),
    ("incomparable", (-1, 1), -1),
    ("incomparable_mask", (7,), 7),
    ("incomparable_mask", (-1,), -1),
    ("incomparable_mask", (True,), True),
]


@pytest.mark.parametrize(
    "method, args, bad", NON_ELEMENT_QUERIES,
    ids=[f"{m}{a}".replace(" ", "") for m, a, _ in NON_ELEMENT_QUERIES],
)
def test_queries_refuse_non_elements(method, args, bad):
    p = FinitePoset(3, [(0, 0), (1, 1), (2, 2), (2, 0)])
    with pytest.raises(DomainError) as info:
        getattr(p, method)(*args)
    assert str(info.value) == f"{bad!r} is not an element of a poset of size 3"


def test_succ_decides_equality_and_stays_out_of_repr():
    p = random_poset(12, max_width=4, seed=3)
    q = FinitePoset(size=p.size, leq=frozenset(sorted(p.leq)))
    assert p == q and hash(p) == hash(q)
    assert p.succ == q.succ and p.pred == q.pred
    assert "succ" not in repr(p) and "pred" not in repr(p)
    assert repr(p) == f"FinitePoset(size=12, leq={p.leq!r})"
    # an isomorphic chain on other labels: same size, other masks
    relabelled = poset_from_strict(3, {(2, 0), (0, 1)})
    assert relabelled.succ != chain(3).succ and relabelled != chain(3)
    for a in range(p.size):
        assert p.succ[a] == sum(1 << b for b in range(p.size) if (a, b) in p.leq)
        assert p.pred[a] == sum(1 << b for b in range(p.size) if (b, a) in p.leq)


def test_pairs_made_on_the_test_side_round_trip():
    """Posets from pair sets that no kernel code produced: the leq view
    gives the pairs back, the masks and queries agree with them, and the
    poset equals the one built from masks made here."""
    for seed in range(60):
        rng = random.Random(seed)
        size = 1 + seed % 13
        layout = rng.sample(range(size), size)
        strict = {
            (layout[i], layout[j])
            for i, j in itertools.combinations(range(size), 2)
            if rng.random() < 0.3
        }
        pairs = closed_pairs(size, strict)
        p = FinitePoset(size, pairs)
        assert p.leq == frozenset(pairs)
        succ = [sum(1 << b for b in range(size) if (a, b) in pairs) for a in range(size)]
        assert list(p.succ) == succ
        assert list(p.pred) == [sum(1 << a for a in range(size) if (a, b) in pairs) for b in range(size)]
        kernel_built = FinitePoset._from_masks(succ)
        assert kernel_built == p and hash(kernel_built) == hash(p)
        assert kernel_built.leq == frozenset(pairs)
        assert p.to_json_dict() == {"size": size, "leq": sorted([a, b] for a, b in pairs if a != b)}
        for a, b in itertools.product(range(size), repeat=2):
            assert p.incomparable(a, b) == (a != b and (a, b) not in pairs and (b, a) not in pairs)


def _oracle_corpus():
    corpus = [p for size in range(1, 6) for p in exhaustive_posets(size)]
    for seed in range(80):
        size = 1 + seed * 7 % 40
        corpus.append(random_poset(size, max_width=max(4, size // 2), seed=seed))
    return corpus


def test_mask_kernel_matches_pair_oracles():
    """Incomparables, chains, the before relation and the quotient, from
    masks and from pair lookups, on every poset up to 5 points and on
    seeded posets up to 40."""
    for p in _oracle_corpus():
        for a in range(p.size):
            assert p.incomparable_mask(a) == sum(1 << b for b in pair_incomparables(p, a))
        assert p.is_chain() == pair_is_chain(p)
        assert max_incomparability(p) == pair_max_incomparability(p)
        before = triangle_step(p)
        tri = pair_triangle_step(p)
        assert _pairs(before) == tri
        qleq, groups = pair_quotient(p.size, tri)
        quotient, got_groups = _quotient(before)
        assert got_groups == groups
        assert quotient.leq == qleq
        if not p.is_chain():
            first = linearize(p).trace[0].to_json_dict()
            assert first["tri"] == [list(pair) for pair in sorted(tri)]


# sha256 of json.dumps of the linearize JSON of every _oracle_corpus()
# poset, in order, taken before the before relation became masks
ORACLE_CORPUS_LINEARIZE_SHA256 = "f2f84285dcf28894f46253fc7996264acbbb45035c465f0862c549fdeaaa88ee"


def test_linearize_json_over_the_oracle_corpus_is_pinned():
    payload = json.dumps([linearize(p).to_json_dict() for p in _oracle_corpus()])
    assert hashlib.sha256(payload.encode()).hexdigest() == ORACLE_CORPUS_LINEARIZE_SHA256


def test_quotient_rejects_broken_before_relations():
    # 0 and 1 are mutually before each other, but only 0 is before 2
    with pytest.raises(InternalInvariantError, match="ill-defined on classes 0, 1"):
        _quotient([0b111, 0b011, 0b100])
    assert pair_quotient(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2)})[0] is None
    # 0 is before 1 but not before 2, while 1 and 2 form one class
    with pytest.raises(InternalInvariantError, match="ill-defined on classes 0, 1"):
        _quotient([0b011, 0b110, 0b110])
    assert pair_quotient(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 1)})[0] is None
    # three classes in a row, the first not before the last
    with pytest.raises(InternalInvariantError, match="not a poset"):
        _quotient([0b011, 0b110, 0b100])


def check_kernel_on_relation(size, rows):
    """_first_intransitive and _quotient on any relation given as masks,
    against the pair oracles: the least broken pair, the least mixed block
    of an ill-defined quotient, and the quotient order otherwise."""
    rel = frozenset((a, b) for a in range(size) for b in range(size) if rows[a] >> b & 1)
    assert _first_intransitive(rows) == brute_first_intransitive(size, rel)
    qleq, groups = pair_quotient(size, rel)
    if qleq is None:
        with pytest.raises(InternalInvariantError) as info:
            _quotient(rows)
        ca, cb = brute_mixed_block(rel, groups)
        assert str(info.value) == f"quotient order ill-defined on classes {ca}, {cb}"
        return
    broken = brute_first_intransitive(len(groups), qleq)
    if broken is not None:
        with pytest.raises(InternalInvariantError) as info:
            _quotient(rows)
        assert str(info.value) == f"quotient is not a poset: transitivity fails through {broken}"
        return
    quotient, got_groups = _quotient(rows)
    assert got_groups == groups
    assert quotient.leq == qleq


def test_kernel_matches_pair_oracles_on_every_small_relation():
    for size in range(1, 4):
        for bits in range(1 << size * size):
            rows = [bits >> size * a & (1 << size) - 1 for a in range(size)]
            check_kernel_on_relation(size, rows)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda size: st.lists(
            st.integers(min_value=0, max_value=(1 << size) - 1), min_size=size, max_size=size
        )
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_pair_oracles_on_random_relations(rows, closed, diagonal):
    size = len(rows)
    if closed:
        # Warshall's closure, so well-defined quotients come up too
        for k in range(size):
            for a in range(size):
                if rows[a] >> k & 1:
                    rows[a] |= rows[k]
    rows = [m | 1 << a if diagonal else m & ~(1 << a) for a, m in enumerate(rows)]
    check_kernel_on_relation(size, rows)


# sha256 of json.dumps of the linearize JSON of random_poset(size,
# max_width=size, seed) for seeds 0, 1 and 2, in order: masks of fewer,
# exactly and more bits than a byte and than a 64-bit word, and a
# 200-point poset whose masks span several words
LINEARIZE_STRIDE_SHA256 = {
    7: "988babe90896b36f56bea60d317ad8045b71f09f6ab9f23509bd8299da7f9405",
    8: "f949af1d82466a7fbee57d6b173cc50e610b92e6ce352806b74d93b7cf2b27cd",
    9: "8fa2f3726ba24428ab727fc41ed829ce8c242537624205b4dbfae48c5cf494d5",
    63: "445a5aa9058b815bd384e4e5f46a3287a7633397c8b780f9e974144268cf97ac",
    64: "afe9a9d4d5cbc4abb6712f5273b0ccce763958e55617e91863bfa5616520e07a",
    65: "eeb67400f94a56518fa0657be97c31000f57c6ad4b8ec8bdccbff9d1ff570dca",
    200: "2dd1087f9bfb08299f0c1251a62a10593c51d101b6a62d50a65b92687a5deec2",
}


@pytest.mark.parametrize("size", sorted(LINEARIZE_STRIDE_SHA256))
def test_linearize_json_is_pinned_across_row_strides(size):
    payload = json.dumps(
        [linearize(random_poset(size, max_width=size, seed=s)).to_json_dict() for s in range(3)]
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == LINEARIZE_STRIDE_SHA256[size]


def test_transitivity_check_on_a_1024_point_chain():
    """Every row but the full one is joined over up to 1023 rows; with
    (0, 1023) gone, row 0 escapes first, through 1."""
    n = 1024
    succ = [(1 << n) - (1 << a) for a in range(n)]
    assert _first_intransitive(succ) is None
    succ[0] ^= 1 << n - 1
    assert _first_intransitive(succ) == (0, 1)


def test_linearize_collapses_1024_point_antichains_in_one_round():
    n = 1024
    result = linearize(FinitePoset._from_masks([1 << a for a in range(n)]))
    assert result.classes == (tuple(range(n)),)
    assert len(result.trace) == 1
    # two stacked antichains of 512: every lower point below every upper one
    upper = (1 << n) - (1 << n // 2)
    stacked = [1 << a | upper for a in range(n // 2)] + [1 << a for a in range(n // 2, n)]
    result = linearize(FinitePoset._from_masks(stacked))
    assert result.classes == (tuple(range(n // 2)), tuple(range(n // 2, n)))
    assert len(result.trace) == 1


def test_width_examples():
    assert antichain_width(chain(5)) == 1
    assert antichain_width(antichain(5)) == 5
    assert antichain_width(N_POSET) == 2


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_width_matches_brute_search(size, seed):
    p = random_poset(size, max_width=size, seed=seed)
    assert antichain_width(p) == brute_max_antichain(p)


def test_width_matches_plain_matching_on_sparse_posets():
    """Sparse posets up to 40 points, past brute search, where the greedy
    matching leaves augmenting paths to find."""
    for seed in range(400):
        size = 10 + seed % 31
        p = random_poset(size, max_width=size, seed=seed, edge_probability=0.02 + seed % 5 * 0.03)
        assert antichain_width(p) == kuhn_width(p)


def test_triangle_step_on_zigzag():
    before = triangle_step(N_POSET)
    assert _pairs(before) == pair_triangle_step(N_POSET)
    arrows = _pairs(before) - N_POSET.leq
    assert arrows == {(0, 3), (1, 0), (2, 3), (3, 2)}
    assert before == (0b1101, 0b1111, 0b1100, 0b1100)


def test_linearize_zigzag_classes():
    result = linearize(N_POSET)
    assert result.classes == ((1,), (0,), (2, 3))
    assert len(result.trace) == 1


def test_linearize_chain_is_identity():
    result = linearize(chain(4))
    assert result.classes == ((0,), (1,), (2,), (3,))
    assert result.trace == ()


def test_linearize_antichain_collapses_at_once():
    result = linearize(antichain(5))
    assert result.classes == ((0, 1, 2, 3, 4),)
    assert len(result.trace) == 1


def test_linearize_rounds_can_exceed_width():
    """A width-2 poset that needs 3 rounds: the width does not bound the
    round count, while the quotient incomparability falls every round."""
    # the strict order of random_poset(7, max_width=6, seed=714)
    p = poset_from_strict(
        7,
        {(1, 0), (1, 6), (3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (3, 6),
         (4, 2), (4, 5), (5, 2), (6, 0)},
    )
    assert antichain_width(p) == 2
    assert max_incomparability(p) == 3
    result = linearize(p)
    assert len(result.trace) == 3
    assert tuple(r.quotient_width for r in result.trace) == (2, 2, 1)
    assert tuple(r.quotient_incomparability for r in result.trace) == (2, 1, 0)


def check_linearization(p):
    result = linearize(p)
    flat = sorted(x for cls in result.classes for x in cls)
    assert flat == list(range(p.size))
    rank = {}
    for level, cls in enumerate(result.classes):
        for x in cls:
            rank[x] = level
        for a in cls:
            for b in cls:
                if a != b:
                    assert p.incomparable(a, b)
    for a, b in p.leq:
        if a != b:
            assert rank[a] < rank[b]
    # width does not bound the round count; max incomparability degree does
    assert len(result.trace) <= max_incomparability(p) + 1
    return result


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_linearize_properties_on_random_posets(seed):
    p = random_poset(size=1 + seed % 14, max_width=4, seed=seed)
    check_linearization(p)


def test_linearize_json_shape():
    data = linearize(N_POSET).to_json_dict()
    assert data["classes"] == [[1], [0], [2, 3]]
    assert data["trace"][0]["round"] == 1
    assert data["trace"][0]["quotient_width"] >= 1
    assert all(len(p) == 2 for p in data["trace"][0]["tri"])


def test_exhaustive_counts():
    assert [len(exhaustive_posets(s)) for s in range(1, 7)] == [1, 2, 5, 16, 63, 318]


def test_exhaustive_members_are_canonical_posets():
    for p in exhaustive_posets(4):
        assert isinstance(p, FinitePoset)
        assert p.size == 4
    with pytest.raises(ResourceError):
        exhaustive_posets(7)
    with pytest.raises(ParameterError, match=r"^exhaustive_posets needs size >= 1, got 0$"):
        exhaustive_posets(0)


def test_exhaustive_small_matches_brute_dedup():
    """Size-3 posets, dedupped by exhaustive permutation search."""
    import itertools

    from oracles import brute_isomorphic
    from oligoprofile.catalogue import SIG_ORDER
    from oligoprofile.structures import FiniteStructure

    found = []
    for p in exhaustive_posets(3):
        s = FiniteStructure.build(SIG_ORDER, 3, {"leq": p.leq})
        assert not any(brute_isomorphic(s, other) for other in found)
        found.append(s)
    assert len(found) == 5


def test_random_poset_respects_width_and_seed():
    a = random_poset(12, max_width=3, seed=7)
    b = random_poset(12, max_width=3, seed=7)
    assert a == b
    assert antichain_width(a) <= 3


def test_random_poset_validation():
    with pytest.raises(ParameterError):
        random_poset(0, max_width=2, seed=1)
    with pytest.raises(ParameterError):
        random_poset(5, max_width=0, seed=1)
    with pytest.raises(ParameterError) as info:
        random_poset(4, max_width=1, seed=1, edge_probability=0.0)
    assert str(info.value) == "no poset of size 4 and width <= 1 in 1000 attempts"
    # an edge probability is None or a number in [0, 1]: a string used to
    # escape as a raw TypeError, NaN built an antichain and 2.0 a chain
    for p in ("x", float("nan"), -1.0, 2.0, True):
        with pytest.raises(ParameterError) as info:
            random_poset(5, 2, seed=1, edge_probability=p)
        assert str(info.value) == f"random_poset needs edge_probability None or in [0, 1], got {p!r}"
    # a seed is an int of any sign: None seeded from the OS, [1] escaped
    # as a raw TypeError
    assert random_poset(5, 5, seed=-3) == random_poset(5, 5, seed=-3)
    for seed in ([1], None, True, 1.0):
        with pytest.raises(ParameterError) as info:
            random_poset(5, 2, seed=seed)
        assert str(info.value) == f"random_poset needs an int seed, got {seed!r}"

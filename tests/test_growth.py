"""Integer sequences and growth-rate diagnostics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oligoprofile import growth
from oligoprofile.catalogue import age_predictor
from oligoprofile.errors import DomainError, ParameterError
from oligoprofile.growth import (
    GOLDEN_RATIO,
    GrowthReport,
    compositions_count,
    constants_table,
    growth_estimate,
    local_order_count,
    lower_bound_check,
    tree_count,
)

from oracles import brute_tree_count, fibonacci, odd_divisor_necklace_count


def test_tree_count_first_values():
    assert [tree_count(n) for n in range(1, 13)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451,
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_tree_count_matches_shape_enumeration(n):
    assert tree_count(n) == brute_tree_count(n)


def test_tree_count_large_value_pinned():
    assert tree_count(20) == 293547


def test_tree_count_far_past_the_recursion_limit(monkeypatch):
    # an empty cache, as in a fresh interpreter: the values are built bottom
    # up, so no call depth grows with n
    monkeypatch.setattr(growth, "_TREE_COUNTS", [0, 1])
    assert age_predictor("tree_c", 1500) % (10**9 + 7) == 196860510
    assert len(str(tree_count(1500))) == 588


def test_tree_count_domain():
    with pytest.raises(ParameterError, match="^tree_count needs n >= 1, got 0$"):
        tree_count(0)


def test_local_order_count_matches_the_necklace_oracle():
    # the oracle counts totatives by gcd, so it shares no code with the library
    for n in range(1, 200):
        assert local_order_count(n) == odd_divisor_necklace_count(n), n
    with pytest.raises(ParameterError, match="local_order_count needs n >= 1, got 0"):
        local_order_count(0)


def test_local_order_grows_with_base_two():
    """n * f_n / 2^n tends to 1/2: the growth base is exactly 2."""
    assert 10 * local_order_count(10) / 2 ** 10 == pytest.approx(0.5078, abs=1e-4)
    assert 60 * local_order_count(60) / 2 ** 60 == pytest.approx(0.5, abs=1e-9)


def test_fibonacci_values_and_domain():
    assert [fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(DomainError):
        fibonacci(0)


def test_growth_estimate_on_powers_of_two():
    report = growth_estimate([2 ** n for n in range(1, 11)])
    assert report.monotone
    assert report.limit_estimate == pytest.approx(2.0)
    assert all(r == pytest.approx(2.0) for r in report.ratios)
    assert report.nth_roots[0] == pytest.approx(2.0)
    assert report.nth_roots[-1] == pytest.approx(2.0)


def test_growth_estimate_flags_non_monotone():
    assert not growth_estimate([3, 1, 4]).monotone


def test_growth_estimate_input_validation():
    with pytest.raises(DomainError):
        growth_estimate([1, 2])
    with pytest.raises(DomainError):
        growth_estimate([1, 0, 2])
    for values in (5, None):
        with pytest.raises(DomainError) as info:
            growth_estimate(values)
        assert str(info.value) == f"growth_estimate needs an iterable of values, got {values!r}"


@pytest.mark.parametrize("values", [[1, 2.9, 7], [1, "2", 3], [True, True, True]])
def test_growth_estimate_refuses_terms_that_are_not_ints(values):
    """Terms are not coerced: a float, a string or a bool is refused."""
    with pytest.raises(DomainError, match="int values"):
        growth_estimate(values)


def test_growth_estimate_past_float_range():
    """Representable terms keep their floats; larger ones take logarithms;
    a root or ratio no float can hold is a domain error."""
    values = [3, 5 ** 300, 7 ** 400]
    report = growth_estimate(values)
    assert report.nth_roots[:2] == (3.0, (5 ** 300) ** 0.5)
    assert report.nth_roots[2] == pytest.approx(7 ** (400 / 3), rel=1e-12)
    with pytest.raises(DomainError, match="float range"):
        growth_estimate([1, 2, 10 ** 400])
    with pytest.raises(DomainError, match="float range"):
        growth_estimate([10 ** 400, 10 ** 400, 10 ** 400])
    # finite ratios 1 and 1e308 extrapolate to 3e308 - 2, past float range
    with pytest.raises(DomainError, match="float range"):
        growth_estimate([1, 1, 10 ** 308])


def test_fibonacci_ratio_approaches_golden_ratio():
    report = growth_estimate([fibonacci(n) for n in range(1, 26)])
    assert report.limit_estimate == pytest.approx(GOLDEN_RATIO, abs=1e-4)


def test_tree_ratio_approaches_named_constant():
    report = growth_estimate([tree_count(n) for n in range(1, 41)])
    assert report.limit_estimate == pytest.approx(2.483, abs=0.05)


def test_growth_report_json_shape():
    report = growth_estimate([1, 2, 4])
    data = report.to_json_dict()
    assert data["values"] == ["1", "2", "4"]
    assert data["limit_estimate"] == report.limit_estimate
    assert isinstance(report, GrowthReport)


def test_lower_bound_check_separates_bases():
    fib = [fibonacci(n) for n in range(1, 301)]
    assert lower_bound_check(fib, 1.6, 0)
    assert not lower_bound_check(fib, 1.7, 0)


def test_lower_bound_check_polynomial_degree():
    squares = [n * n for n in range(1, 61)]
    assert lower_bound_check(squares, 1.0, 2)
    assert not lower_bound_check(squares, 2.0, 2)


def test_lower_bound_check_validation():
    with pytest.raises(DomainError):
        lower_bound_check([1, -1], 1.5, 0)
    with pytest.raises(DomainError):
        lower_bound_check([1, 2], 0.0, 0)
    with pytest.raises(DomainError) as info:
        lower_bound_check(5, 2.0, 0)
    assert str(info.value) == "lower_bound_check needs an iterable of values, got 5"


@pytest.mark.parametrize("values", [[1, 2.7, 7], [1, "x", 3], [True, 2, 3]])
def test_lower_bound_check_refuses_terms_that_are_not_ints(values):
    """Terms are read by growth_estimate's check, not truncated by int()."""
    with pytest.raises(DomainError) as info:
        lower_bound_check(values, 1.5, 0)
    assert str(info.value) == "lower_bound_check needs int values, and a bool is not one"


@given(st.floats(min_value=1.01, max_value=1.5), st.integers(min_value=0, max_value=2))
def test_lower_bound_check_accepts_own_powers(c, degree):
    values = [max(1, int(c ** n)) for n in range(1, 40)]
    assert lower_bound_check(values, c, degree)


def test_constants_table_entries():
    table = constants_table()
    by_key = {c.key: c for c in table}
    assert by_key["primitive_base"].value == pytest.approx(2 ** 0.2)
    assert by_key["golden_ratio"].value == pytest.approx(GOLDEN_RATIO)
    assert by_key["tree_growth"].value == pytest.approx(2.483)
    assert by_key["tree_sqrt_base"].value == pytest.approx(1.576)
    assert by_key["local_order_ceiling"].value == 2.0
    assert all(c.note for c in table)


@pytest.mark.parametrize(
    "n, max_part, message",
    [
        (-1, 2, "compositions_count needs n >= 0, got -1"),
        pytest.param(
            3,
            0,
            "compositions_count needs max_part >= 1, got 0",
            id="3-0-max_part must be >= 1, got 0",
        ),
    ],
)
def test_compositions_count_refusals(n, max_part, message):
    with pytest.raises(ParameterError) as info:
        compositions_count(n, max_part)
    assert str(info.value) == message

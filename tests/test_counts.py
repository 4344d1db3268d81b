"""Every count and size argument goes through the one check,
errors.int_at_least: a float, a bool, a string or a value under the floor
is refused with its ParameterError, never a raw TypeError or a silent
acceptance."""

import pytest

from oligoprofile import catalogue, glueing, growth, posets, witnesses
from oligoprofile.errors import ParameterError, int_at_least

# (module, who, what, least, call with the bad value in that argument)
COUNT_ARGUMENTS = [
    (posets, "random_poset", "size", 1, lambda v: posets.random_poset(v, 3, seed=0)),
    (posets, "random_poset", "max_width", 1, lambda v: posets.random_poset(3, v, seed=0)),
    (posets, "exhaustive_posets", "size", 1, posets.exhaustive_posets),
    (growth, "tree_count", "n", 1, growth.tree_count),
    (growth, "local_order_count", "n", 1, growth.local_order_count),
    (growth, "compositions_count", "n", 0, lambda v: growth.compositions_count(v, 2)),
    (growth, "compositions_count", "max_part", 1, lambda v: growth.compositions_count(3, v)),
    (witnesses, "compositions", "n", 1, lambda v: witnesses.compositions(v, 2)),
    (witnesses, "compositions", "max_part", 1, lambda v: witnesses.compositions(3, v)),
    (glueing, "sample_linear_fragments", "size", 3, lambda v: glueing.sample_linear_fragments(v, 0)),
    (glueing, "sample_circular_fragments", "size", 8, lambda v: glueing.sample_circular_fragments(v, 0)),
    (catalogue, "fibered_order", "block size", 1, catalogue._fibered_entry),
]


@pytest.mark.parametrize(
    "module, who, what, value, least, call",
    [
        pytest.param(module, who, what, value, least, call, id=f"{who}-{what}-{value!r}")
        for module, who, what, least, call in COUNT_ARGUMENTS
        for value in (2.5, True, "3", least - 1)
    ],
)
def test_every_count_goes_through_int_at_least(monkeypatch, module, who, what, value, least, call):
    seen = []

    def spy(*args):
        seen.append(args)
        return int_at_least(*args)

    monkeypatch.setitem(vars(module), "int_at_least", spy)
    with pytest.raises(ParameterError) as info:
        call(value)
    with pytest.raises(ParameterError) as expected:
        int_at_least(who, what, value, least)
    assert type(info.value) is ParameterError and str(info.value) == str(expected.value)
    assert seen[-1] == (who, what, value, least)

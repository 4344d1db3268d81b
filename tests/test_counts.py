"""Every count and size argument goes through the one check,
errors.int_at_least: a float, a bool, a string or a value under the floor
is refused with its ParameterError, never a raw TypeError or a silent
acceptance. Every upper limit goes through the other, errors.at_most: one
past the cap is refused with one ResourceError text, and no other module
raises ResourceError itself."""

import argparse
import ast

import pytest

from oligoprofile import catalogue, cli, glueing, growth, posets, profiles, structures, witnesses
from oligoprofile.errors import ParameterError, ResourceError, at_most, int_at_least
from test_imports import SRC

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
    (catalogue, "dlo", "size", 1, lambda v: catalogue.sample_model("dlo", v)),
    (catalogue, "predictor", "n", 1, lambda v: catalogue.age_predictor("dlo", v)),
    (profiles, "profile", "n_max", 1, lambda v: profiles.profile("dlo", v)),
    (profiles, "profile", "budget", 1, lambda v: profiles.profile("dlo", 2, budget=v)),
    (witnesses, "composition_witness", "n", 1, lambda v: witnesses.composition_witness(v, 2)),
    (witnesses, "composition_witness", "max_part", 1, lambda v: witnesses.composition_witness(3, v)),
    (witnesses, "binary_pattern_witness", "n", 1, witnesses.binary_pattern_witness),
    (witnesses, "antichain_witness", "n", 1, witnesses.antichain_witness),
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


# (module, who, what, value, cap, a call one past that cap)
CAPS = [
    (structures, "sample of 1415 points", "tuples to evaluate", 2002225, 2000000,
     lambda: structures.evaluated_tuples(structures.signature(("leq", 2)), 1415)),
    (profiles, "dlo budget", "subsets of size 12", 17383860, 10000000, lambda: profiles.profile("dlo", 12)),
    (profiles, "fibered_order:1", "tuples in the samples for n=1..182", 2026115, 2000000,
     lambda: profiles.profile("fibered_order:1", 1414)),
    (witnesses, "antichain at n=17", "scaffold points", 289, 256, lambda: witnesses.antichain_witness(17)),
    (witnesses, "composition at n=13", "members", 4096, 2048, lambda: witnesses.composition_witness(13, 13)),
    # 633 fragments share the element 0: C(633, 2) = 200,028 incidences
    (glueing, "glue", "(element, fragment pair) incidences to check", 200028, 200000,
     lambda: glueing.glue([glueing.OrderFragment(f"f{i}", (0, i + 1)) for i in range(633)])),
    (posets, "poset", "points", 1025, 1024, lambda: posets.FinitePoset.from_json_dict({"size": 1025, "leq": []})),
    (posets, "exhaustive_posets", "elements", 7, 6, lambda: posets.exhaustive_posets(7)),
    (cli, "growth", "terms (--n-max)", 2001, 2000,
     lambda: cli._growth_values(argparse.Namespace(file=None, entry="dlo", n_max=2001))),
]


@pytest.mark.parametrize(
    "module, who, what, value, cap, call",
    [pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in CAPS],
)
def test_every_cap_goes_through_at_most(monkeypatch, module, who, what, value, cap, call):
    seen = []

    def spy(*args):
        seen.append(args)
        return at_most(*args)

    monkeypatch.setitem(vars(module), "at_most", spy)
    with pytest.raises(ResourceError) as info:
        call()
    assert type(info.value) is ResourceError
    assert str(info.value) == f"{who}: {value} {what}, over the cap of {cap}"
    assert seen[-1] == (who, what, value, cap)


def _raises_resource_error(node: ast.Raise) -> bool:
    return node.exc is not None and any(
        isinstance(sub, ast.Name) and sub.id == "ResourceError"
        or isinstance(sub, ast.Attribute) and sub.attr == "ResourceError"
        for sub in ast.walk(node.exc)
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.stem
)
def test_no_module_but_errors_raises_resource_error(path):
    """A new cap cannot bypass at_most and its one text."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise) and _raises_resource_error(node)]
    assert not lines, f"{path.name} raises ResourceError on lines {lines}; call errors.at_most"

"""The names the benchmark's tracer (perfbench/layers.py) wraps.

The tracer wraps public names as they are bound in the modules that call
them, so a binding that a refactor drops would fail only traced benchmark
runs, and a call routed around a binding would drop out of the traced
counts. These tests enter and leave the tracer as the benchmark does.

profile encodes no structure and induces none (its key representatives
are evaluated from the entry's formulas), so the traced encode and induce
counts are 0 on every profile run; profiles still binds
structure_encoding and induced_substructure only because the tracer
patches those names, and a traced run would fail without them.
"""

import importlib.util
from pathlib import Path

from oligoprofile import catalogue, cli, glueing, posets, profiles, witnesses
from oligoprofile.witnesses import WitnessFamily, binary_pattern_witness

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = (catalogue, cli, glueing, posets, profiles, witnesses)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}


def test_the_tracer_wraps_every_patch_point_and_restores_it():
    layers = _layers()
    before = _bindings()
    with layers.installed(layers.Tracer()):
        inside = _bindings()
    patched = {key for key, value in inside.items() if value is not before.get(key)}
    assert {
        ("oligoprofile.profiles", "induced_substructure"),  # bound for the tracer alone
        ("oligoprofile.profiles", "structure_encoding"),  # bound for the tracer alone
        ("oligoprofile.profiles", "canonical_form"),
        ("oligoprofile.witnesses", "induced_substructure"),
        ("oligoprofile.witnesses", "canonical_form"),
        ("oligoprofile.catalogue", "get_entry"),
        ("oligoprofile.glueing", "classify_overlap"),
        ("oligoprofile.glueing", "normalize_linear"),
        ("oligoprofile.glueing", "normalize_circular"),
        ("oligoprofile.posets", "linearize"),
        ("oligoprofile.posets", "triangle_step"),
        ("oligoprofile.cli", "main"),
    } <= patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_glue_normalises_each_component_through_the_module_bindings(monkeypatch):
    """GlueComponent calls normalize_linear and normalize_circular as
    glueing binds them, once per component, so the tracer's
    glueing.normalize spans see every normalisation."""
    calls = []
    for name in ("normalize_linear", "normalize_circular"):
        real = getattr(glueing, name)
        monkeypatch.setattr(glueing, name, lambda seq, name=name, real=real: calls.append(name) or real(seq))
    _, line = glueing.sample_linear_fragments(20, 1)
    _, circle = glueing.sample_circular_fragments(20, 2)
    circle = [glueing.OrderFragment("c" + f.fragment_id, [x + 100 for x in f.elements]) for f in circle]
    components = glueing.glue(line + tuple(circle))
    assert sorted(c.kind for c in components) == ["circular", "linear"]
    assert sorted(calls) == ["normalize_circular", "normalize_linear"]


def _traced(layers, call):
    """The spans of one call, the first one the call's own."""
    tracer = layers.Tracer()
    with layers.installed(tracer):
        idx = tracer.open("test")
        call()
        tracer.close(idx)
    return tracer.spans[idx:]


def _structure_calls(span):
    return {name: calls for name, (calls, _) in span.leaves.items() if name.startswith("structures.")}


def test_screened_canonicalisation_goes_through_the_traced_bindings():
    """Only ties on a degree profile are canonicalised, and the tracer
    counts exactly those calls: a relabelled copy of one member makes one
    tie of two members, and local_order's 42 representatives up to n = 8,
    each evaluated from the formulas, never induced or encoded, first tie
    at n = 6, in 4, 4 and 13 tournaments at n = 6, 7 and 8. The per-layer
    report of those spans computes, with no induce and no encode call."""
    layers = _layers()
    fam = binary_pattern_witness(4)
    copy = fam.members[5].relabel([3, 2, 1, 0])
    rigged = WitnessFamily(
        fam.construction_id, fam.n, fam.scaffold, fam.members + (copy,),
        fam.indices + ((9, 9, 9, 9),), fam.index_decoder,
    )
    spans = _traced(layers, lambda: witnesses.verify_pairwise_nonisomorphic(rigged))
    assert _structure_calls(spans[0]) == {"structures.canonical": 2}
    spans = _traced(layers, lambda: profiles.profile("local_order", 8))
    assert _structure_calls(spans[0]) == {"structures.canonical": 21}
    metrics = layers.layer_metrics(spans)
    assert metrics["structures.induce_calls"] == metrics["structures.encode_calls"] == 0


def test_the_tracer_sees_the_catalogue():
    """profile and sample_model reach the patched get_entry: a traced
    profile keys its subsets and builds no sample, and the composition
    witness builds its one scaffold through the traced sampler."""
    layers = _layers()
    metrics = layers.layer_metrics(_traced(layers, lambda: profiles.profile("tree_c", 5)))
    assert metrics["catalogue.key_calls"] > 0
    assert metrics["catalogue.sample_calls"] == 0
    metrics = layers.layer_metrics(_traced(layers, lambda: witnesses.composition_witness(4, 2)))
    assert metrics["catalogue.sample_calls"] == 1

"""Command line behaviour: exit codes, formats, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oligoprofile.cli import _json_text, main
from oligoprofile.posets import random_poset

from oracles import fibonacci, odd_divisor_necklace_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalogue_list_plain(capsys):
    code, out, err = run_cli(capsys, "catalogue-list")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "pure_set"
    assert "dlo" in lines and "tree_c" in lines


def test_catalogue_list_json(capsys):
    code, out, _ = run_cli(capsys, "catalogue-list", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert "local_order" in entries


def test_profile_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "profile", "dlo", "--n-max", "3")
    assert code == 0
    assert out == "n,f_n,saturated_at\n1,1,5\n2,1,7\n3,1,9\n"


def test_profile_json_payload(capsys):
    code, out, _ = run_cli(capsys, "profile", "fibered_order:2", "--n-max", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["entry"] == "fibered_order:2"
    assert data["values"] == [fibonacci(n + 1) for n in range(1, 7)]


def test_profile_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "profile", "tree_c", "--n-max", "5", "--format", "json")
    _, second, _ = run_cli(capsys, "profile", "tree_c", "--n-max", "5", "--format", "json")
    assert first == second


_REDUCT_CSV = "5fda9d48f3c3383cbd592eb8fc08b7fdb47d73f4b8c6dfb89b23576945873706"

# (entry, n_max) -> sha256 of the default (CSV) and the JSON stdout of
# `profile entry --n-max n_max`, for every task of the perfbench profile
# workloads: a subset key or step may change the work, never a printed byte.
PROFILE_PINS = {
    ("local_order", 8): (
        "679f2ca9a7d1d277321dfbd3b27a8a8449d311d6577deaa13b829503ff2a6aa8",
        "5747c57731bc6e4b8127cb90bbb94bb40dc7f73870166620fcf4a5468e726cbb",
    ),
    ("separation", 8): (
        _REDUCT_CSV, "128930133b513a6c2ddc3bcef7a088f3da61c05f88680d462d96fa325c28c605",
    ),
    ("pure_set", 8): (
        _REDUCT_CSV, "83530914da6fecd267eea223e3023e1ada2eebd17d44a4dbcde7f61ad0d3a676",
    ),
    ("dlo", 8): (
        _REDUCT_CSV, "aec40099f67f3ca16ca7b4b86901e55216c3ec0feb54e5d1917ae900d19b9e90",
    ),
    ("betweenness", 8): (
        _REDUCT_CSV, "347568e590bc54750d04316e5fa10a6fc4918d814bf6f7cfb5225d09e806f6df",
    ),
    ("circular", 8): (
        _REDUCT_CSV, "c054a9af4f0d2eda59512c8d0022a24bd2213a194fb28abefd26967b70e223e5",
    ),
    ("tree_c", 7): (
        "5d64c1a74e22f8d87e1e2578e960c3c203a89c7f495eaff0530d64588e089d3d",
        "50ec8436af22414029cdf29732e8dc4679b9b96b45da821b71fd4000d43e8a3e",
    ),
    ("fibered_order:2", 10): (
        "76db040b1b006a58b1578e36719851f8b7d1962e7ad46d7ca2b1bf775702fe90",
        "9ad9ea71942d681f696ac253191426adcdb0cd769ddfbf87d21bb74520fbe0a8",
    ),
    ("fibered_order:3", 8): (
        "fbb8a153d3891cc444f6247daee48353906836594cde64fef8c0ec1b085b0e42",
        "32c1fd0c22065d2c8652b5f45ddfb162ef04c816adf3a8546ab4f9029ab3625d",
    ),
}


@pytest.mark.parametrize("entry, n_max", list(PROFILE_PINS))
def test_profile_stdout_is_pinned(capsys, entry, n_max):
    digests = []
    for fmt in ("csv", "json"):
        code, out, _ = run_cli(capsys, "profile", entry, "--n-max", str(n_max), "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PROFILE_PINS[entry, n_max]


def _digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


# argv -> sha256 of `witness argv` stdout, taken before the JSON emitter
# replaced json.dumps(indent=2). n=9 has the payload shapes of the perfbench
# families at n=10 and 11: int-matrix indices, dict members, int-row tuples.
WITNESS_PINS = {
    ("composition", "--n", "9"): "b0acf436b92ba320ca8a7e47e4b5273b9cd8bb0111e1eef4d7360ed5fbd721bc",
    ("antichain", "--n", "9"): "ba1ee304f34cc50faed17fbd838ff20ba2d7ce2609ce7c3e5457b914c389a654",
    ("binary_pattern", "--n", "9"): "8b69422f901c17f094bb4ec6b556f8dfefb57e7f77232ec27025bf6cf5e169fe",
    ("composition", "--n", "10", "--max-part", "2"): (
        "7af4cf583a7e9dc0f45b380df06fbc1f91c9e592d433a2143d0959ca74f6f8c4"
    ),
}


@pytest.mark.parametrize("argv", list(WITNESS_PINS), ids=" ".join)
def test_witness_stdout_is_pinned(capsys, argv):
    code, out, err = run_cli(capsys, "witness", *argv)
    assert (code, err) == (0, "")
    assert _digest(out) == WITNESS_PINS[argv]


# argv -> sha256 of the JSON stdout of every other command, taken the same way;
# profile and glue are pinned above and in test_glueing.py
JSON_PINS = {
    ("linearize", "--in", "poset.json"): "f7f64ab9b4427b70275559fcc566145241b0bdfcdf6ddf7dd623395b2eba0b9c",
    # a 64-point antichain: one round whose tri matrix has 4,096 rows
    ("linearize", "--in", "antichain64.json"): (
        "e3d47c5199b8856faebaacc16c7e429a8f66870d300e985b69a8f191e159af1b"
    ),
    ("growth", "tree_c", "--format", "json"): (
        "e76493425dd98f74ef6404650add148e90f46f1bce7f9704b9b186070b3ac188"
    ),
    ("constants", "--format", "json"): "24b173d73ed6e5a6089f6092539f586926f93ccfe07174a8cfb6658893424312",
    ("catalogue-list", "--format", "json"): (
        "5137f9050493ba6b72e6a785554f3bd5b4ae947b3e15790200bf517524293566"
    ),
}


@pytest.mark.parametrize("argv", list(JSON_PINS), ids=" ".join)
def test_json_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poset.json").write_text(json.dumps(random_poset(30, 6, seed=1).to_json_dict()))
    (tmp_path / "antichain64.json").write_text(json.dumps({"size": 64, "leq": []}))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert _digest(out) == JSON_PINS[argv]


_TRICKY_STRINGS = st.sampled_from([", ", "], [", "[1, 2]", '"', 'a"b', "\\", "\n", "\u00e9"])
_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300, 0.5]) | st.floats()
_INTS = st.integers(min_value=-(10**20), max_value=10**20)
_ROWS = st.lists(_INTS | st.booleans(), max_size=4)
_KEYS = st.text(max_size=3) | _TRICKY_STRINGS | _INTS | st.booleans() | st.none() | _FLOATS
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | st.text(max_size=4) | _TRICKY_STRINGS
    | _ROWS | st.lists(_ROWS, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(_JSON)
@example([[], [1]])
@example([[1], [], [-2, 3, 4]])
@example([1, True, -2])
@example([1, ", ", '"'])
@example([[1, "], ["]])
@example((1, (2, 3), [None, "], ["]))
@example([[1, 2.5], [3]])
@example([[[1]], [2]])
@example({1: [], None: 0, True: 1, 1.5: -0.0, math.nan: [math.inf, 1e300], ", ": {}})
@example([[1], 2])
@example([1, [2]])
@example([[1, [2]]])
@example([[1], [2.0]])
@example([[True]])
@example([1, "2"])
@example([[1], {"a": 1}])
@example([[-1, 2], [], [3]])
@example(((1,), (2, 3)))
def test_json_text_is_json_dumps_indent_2(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2) + "\n"


def test_json_text_of_a_long_matrix_peaks_below_five_times_its_length():
    payload = {"tri": [[a, b] for a in range(200) for b in range(200)]}
    tracemalloc.start()
    try:
        text = _json_text(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(payload, indent=2) + "\n"
    assert peak < 5 * len(text)


def test_json_text_refuses_what_json_dumps_refuses():
    for payload in ({(1, 2): 0}, [1, {2}], {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError):
            _json_text(payload)


def test_profile_jobs_do_not_change_output(capsys):
    for argv in (["profile", "dlo", "--n-max", "4"], ["witness", "antichain", "--n", "4"]):
        _, plain, _ = run_cli(capsys, *argv)
        _, with_jobs, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert plain == with_jobs


def test_cli_import_loads_no_process_pool():
    """The package runs in one process, so no interpreter pays for the pool imports."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import oligoprofile.cli, sys; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_out_file_replaces_stdout(capsys, tmp_path):
    target = tmp_path / "profile.csv"
    code, out, _ = run_cli(capsys, "profile", "dlo", "--n-max", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "n,f_n,saturated_at\n1,1,5\n2,1,7\n"


class _FullStdout:
    """A stdout on a full disk: it fails on write or on flush."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_failed_stdout_write_exits_one(capsys, monkeypatch, failing):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    code = main(["witness", "composition", "--n", "5"])
    assert (code, capsys.readouterr().err) == (1, "error: [Errno 28] No space left on device\n")


def test_unknown_entry_exits_one(capsys):
    code, out, err = run_cli(capsys, "profile", "nope", "--n-max", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_usage_error_exits_two(capsys):
    assert run_cli(capsys, "profile", "dlo")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_growth_requires_entry_or_file(capsys, tmp_path):
    assert run_cli(capsys, "growth")[0] == 2
    payload = tmp_path / "values.json"
    payload.write_text(json.dumps({"values": [1, 2, 4, 8]}))
    assert run_cli(capsys, "growth", "dlo", "--file", str(payload))[0] == 2


def test_growth_from_file(capsys, tmp_path):
    payload = tmp_path / "values.json"
    payload.write_text(json.dumps({"values": [1, 2, 4, 8, 16]}))
    code, out, _ = run_cli(capsys, "growth", "--file", str(payload), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["limit_estimate"] == pytest.approx(2.0)
    assert report["monotone"] is True


def test_growth_table_output(capsys):
    code, out, _ = run_cli(capsys, "growth", "fibered_order:2", "--n-max", "20")
    assert code == 0
    assert "limit estimate" in out
    assert "1.618" in out


def test_growth_of_local_order_reads_its_closed_form(capsys):
    """Past the n the profile engine reaches, at once."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "growth", "local_order", "--n-max", "60", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    values = [int(v) for v in json.loads(out)["values"]]
    assert values == [odd_divisor_necklace_count(n) for n in range(1, 61)]


def test_growth_of_local_order_at_the_default_n_max(capsys):
    code, out, err = run_cli(capsys, "growth", "local_order")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        " 24  349536    1.70208    1.91672", "limit estimate 2.00135 (monotone values)"
    ]


def test_growth_refuses_a_huge_n_max_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "growth", "fibered_order:2", "--n-max", "20000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: growth: 20000 terms (--n-max), over the cap of 2000\n"


def test_growth_n_max_is_checked_before_the_values(capsys):
    """A non-positive --n-max names the option; one or two terms are
    refused by growth_estimate, which needs three."""
    assert run_cli(capsys, "growth", "dlo", "--n-max", "-3") == (
        1, "", "error: growth needs --n-max >= 1, got -3\n"
    )
    assert run_cli(capsys, "growth", "dlo", "--n-max", "2") == (
        1, "", "error: growth_estimate needs at least 3 values, got 2\n"
    )


def test_growth_csv_header(capsys):
    code, out, _ = run_cli(capsys, "growth", "tree_c", "--n-max", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,value,nth_root,ratio"


def test_growth_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "growth", "--file", "/no/such/file.json")
    assert code == 1 and err.startswith("error:")
    # an --out file that cannot be opened fails the same way, with no traceback
    for target in (tmp_path / "no-such-dir" / "x.txt", tmp_path):
        code, out, err = run_cli(capsys, "catalogue-list", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_growth_bad_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "growth", "--file", str(bad))
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["tree_c", "--n-max", "800"], ["fibered_order:2", "--n-max", "1500"]],
)
def test_growth_runs_past_float_range(capsys, argv):
    code, out, err = run_cli(capsys, "growth", *argv, "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    value, root = int(report["values"][-1]), report["nth_roots"][-1]
    n = len(report["values"])
    assert value.bit_length() > 1024
    assert n * math.log(root) == pytest.approx(math.log(value), rel=1e-12)


def test_growth_file_with_a_huge_term(capsys, tmp_path):
    payload = tmp_path / "values.json"
    payload.write_text(json.dumps({"values": [10 ** 133, 10 ** 266, 10 ** 399]}))
    code, out, err = run_cli(capsys, "growth", "--file", str(payload), "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["nth_roots"] == pytest.approx([1e133] * 3)
    assert report["ratios"] == pytest.approx([1e133] * 2)


def test_growth_file_with_an_overflowing_ratio_exits_one(capsys, tmp_path):
    payload = tmp_path / "values.json"
    payload.write_text(json.dumps({"values": [1, 2, 10 ** 400]}))
    code, out, err = run_cli(capsys, "growth", "--file", str(payload))
    assert (code, out) == (1, "")
    assert err == "error: a root or ratio of the values exceeds float range\n"


def test_growth_file_with_an_infinite_limit_exits_one(capsys, tmp_path):
    # every ratio is finite, but extrapolating them overflows to inf
    payload = tmp_path / "values.json"
    payload.write_text(json.dumps({"values": [1, 1, 10 ** 308]}))
    code, out, err = run_cli(capsys, "growth", "--file", str(payload), "--format", "json")
    assert (code, out) == (1, "")
    assert err == "error: a root or ratio of the values exceeds float range\n"


def test_witness_json_payload(capsys):
    code, out, _ = run_cli(capsys, "witness", "binary_pattern", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["family"]["construction"] == "binary_pattern"
    assert len(data["family"]["members"]) == 16
    assert data["report"]["collisions"] == []


def test_witness_max_part_limits_composition(capsys):
    code, out, _ = run_cli(capsys, "witness", "composition", "--n", "5", "--max-part", "2")
    assert code == 0
    assert len(json.loads(out)["family"]["members"]) == fibonacci(6)


def test_witness_max_part_past_n_keeps_the_output(capsys):
    _, plain, _ = run_cli(capsys, "witness", "composition", "--n", "5")
    for max_part in ("5", "40", "100000"):
        code, out, _ = run_cli(capsys, "witness", "composition", "--n", "5", "--max-part", max_part)
        assert (code, out) == (0, plain)


@pytest.mark.parametrize(
    "argv",
    [
        ["composition", "--n", "17"],
        ["binary_pattern", "--n", "16"],
        ["antichain", "--n", "17"],
        ["composition", "--n", "257", "--max-part", "1"],
        ["antichain", "--n", "40"],
    ],
)
def test_oversized_witness_exits_one_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "witness", *argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the cap of" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["composition", "--n", "13"], "composition at n=13: 4096 members, over the cap of 2048"),
        (
            ["composition", "--n", "17", "--max-part", "2"],
            "composition at n=17: 2584 members, over the cap of 2048",
        ),
        (["binary_pattern", "--n", "12"], "binary_pattern at n=12: 4096 members, over the cap of 2048"),
        (["antichain", "--n", "13"], "antichain at n=13: 4096 members, over the cap of 2048"),
    ],
)
def test_witness_one_past_the_member_cap_is_refused(capsys, argv, message):
    """Each family's largest accepted size verifies within seconds; one size
    more is refused with this message."""
    assert run_cli(capsys, "witness", *argv) == (1, "", f"error: {message}\n")


def test_linearize_from_file(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"size": 4, "leq": [[0, 2], [1, 2], [1, 3]]}))
    code, out, _ = run_cli(capsys, "linearize", "--in", str(poset))
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == [[1], [0], [2, 3]]


def test_linearize_refuses_a_huge_poset_at_once(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"size": 100000000, "leq": []}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "linearize", "--in", str(poset))
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == "error: poset: 100000000 points, over the cap of 1024\n"


def test_glue_from_file(capsys, tmp_path):
    frags = tmp_path / "fragments.json"
    frags.write_text(
        json.dumps(
            {
                "fragments": [
                    {"id": "a", "elements": [1, 2, 3]},
                    {"id": "b", "elements": [3, 4, 5]},
                    {"id": "c", "elements": [5, 6, 1]},
                ]
            }
        )
    )
    code, out, _ = run_cli(capsys, "glue", "--in", str(frags))
    assert code == 0
    components = json.loads(out)["components"]
    assert components == [
        {"kind": "circular", "arrangement": [1, 2, 3, 4, 5, 6], "members": ["a", "b", "c"]}
    ]


def test_glue_conflict_exits_one(capsys, tmp_path):
    frags = tmp_path / "fragments.json"
    frags.write_text(
        json.dumps(
            {
                "fragments": [
                    {"id": "a", "elements": [1, 2, 3]},
                    {"id": "b", "elements": [3, 4, 5]},
                    {"id": "c", "elements": [5, 6, 3]},
                ]
            }
        )
    )
    code, _, err = run_cli(capsys, "glue", "--in", str(frags))
    assert code == 1 and "error:" in err


def test_constants_formats(capsys):
    code, table, _ = run_cli(capsys, "constants")
    assert code == 0
    assert "1.1487" in table and "2.483" in table
    code, as_json, _ = run_cli(capsys, "constants", "--format", "json")
    assert code == 0
    keys = {row["key"] for row in json.loads(as_json)}
    assert "golden_ratio" in keys and "tree_growth" in keys


def test_budget_failure_exits_one(capsys):
    code, _, err = run_cli(capsys, "profile", "dlo", "--n-max", "3", "--budget", "5")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dlo", "--n-max", "10000000"], "dlo budget: 17383860 subsets of size 12, over the cap of 10000000"),
        (
            ["fibered_order:2000", "--n-max", "1"],
            "sample of 2000 points: 4000000 tuples to evaluate, over the cap of 2000000",
        ),
        (
            ["fibered_order:1", "--n-max", "1414"],
            "fibered_order:1: 2026115 tuples in the samples for n=1..182, over the cap of 2000000",
        ),
    ],
)
def test_oversized_profile_exits_one_at_once(capsys, argv, message):
    """A huge --n-max stops at its first over-budget n, and samples past
    the evaluator's cap, one or all together, are refused before any is
    built."""
    start = time.perf_counter()
    assert run_cli(capsys, "profile", *argv) == (1, "", f"error: {message}\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["catalogue-list"],
        ["profile", "dlo", "--n-max", "2"],
        ["growth", "dlo"],
        ["witness", "binary_pattern", "--n", "2"],
        ["linearize", "--in", "poset.json"],
        ["glue", "--in", "fragments.json"],
        ["constants"],
    ],
)
def test_nonpositive_budget_exits_one_and_jobs_is_ignored(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poset.json").write_text('{"size": 2, "leq": [[0, 1]]}')
    (tmp_path / "fragments.json").write_text('{"fragments": [{"id": "a", "elements": [1, 2]}]}')
    if argv[0] == "profile":
        assert run_cli(capsys, *argv, "--budget", "0") == (1, "", "error: profile needs budget >= 1, got 0\n")
    else:
        # only profile reads --budget; on the others it is an unknown option
        assert run_cli(capsys, *argv, "--budget", "1")[:2] == (2, "")
    if argv[0] in ("witness", "linearize", "glue"):
        # their only output is JSON, so they take no --format
        assert run_cli(capsys, *argv, "--format", "json")[:2] == (2, "")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    for jobs in ("0", "-3", "2"):
        assert run_cli(capsys, *argv, "--jobs", jobs) == (0, out, "")
    assert run_cli(capsys, *argv, "--jobs", "x")[0] == 2


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["growth", "--file"], '{"values": [1e400, 2, 3]}'),
        (["linearize", "--in"], '{"size": 1e400, "leq": []}'),
        # values that would coerce to integers or element lists are refused
        (["growth", "--file"], '{"values": [true, 2.9, "7"]}'),
        (["linearize", "--in"], '{"size": 3, "leq": ["12"]}'),
        (["linearize", "--in"], '{"size": 2, "leq": [[1, 1], [1, true]]}'),
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": "abcd"}]}'),
        # an integer past the interpreter's digit limit fails in the decoder
        (["growth", "--file"], '{"values": [' + "1" * 5000 + "]}"),
        # fragment ids must be strings, not values that print as "True" and "None"
        (
            ["glue", "--in"],
            '{"fragments": [{"id": true, "elements": [1, 2]}, {"id": null, "elements": [2, 3]}]}',
        ),
        # NaN, Infinity and numbers past float range are not JSON values
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": [Infinity, 2]}]}'),
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": [1e400, 2]}]}'),
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": [-Infinity, 2]}]}'),
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": [NaN, 2]}]}'),
        (["growth", "--file"], '{"values": [NaN]}'),
        (["linearize", "--in"], '{"size": 2, "leq": [], "x": -1e400}'),
        # elements JSON keeps apart but Python holds equal (1, 1.0 and true)
        (
            ["glue", "--in"],
            '{"fragments": [{"id": "a", "elements": [1, 2, 3]}, {"id": "b", "elements": [3, 4, true]}]}',
        ),
        (
            ["glue", "--in"],
            '{"fragments": [{"id": "a", "elements": [1, 2]}, {"id": "b", "elements": [1.0, 3]}]}',
        ),
        (["glue", "--in"], '{"fragments": [{"id": "a", "elements": [1, true, 3]}]}'),
    ],
)
def test_infinite_json_number_exits_one(capsys, tmp_path, argv, payload):
    src = tmp_path / "input.json"
    src.write_text(payload)
    code, out, err = run_cli(capsys, *argv, str(src))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_finite_json_floats_still_glue(capsys, tmp_path):
    """Finite floats, true, and numbers no two of which Python holds equal
    glue; two that Python holds equal are refused, both named."""
    src = tmp_path / "input.json"
    for windows, arrangement in (
        ([[4.5, 2]], [2, 4.5]),
        ([[True, 2, 3], [3, 4]], [4, 3, 2, True]),
        ([[1.5, 1, 2], [2, 3]], [1.5, 1, 2, 3]),
    ):
        src.write_text(json.dumps({"fragments": [{"id": str(i), "elements": w} for i, w in enumerate(windows)]}))
        code, out, err = run_cli(capsys, "glue", "--in", str(src))
        assert code == 0 and err == ""
        glued = json.loads(out)["components"][0]["arrangement"]
        assert glued == arrangement and list(map(type, glued)) == list(map(type, arrangement))
    src.write_text('{"fragments": [{"id": "a", "elements": [0, 2]}, {"id": "b", "elements": [2, false]}]}')
    assert run_cli(capsys, "glue", "--in", str(src)) == (
        1, "", "error: elements 0 and false are distinct JSON values that Python holds equal\n"
    )

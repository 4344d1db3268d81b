"""Generated JSON through the three CLI loaders: growth --file, linearize
--in and glue --in. The only outcomes allowed are exit 0, or exit 1 with
one `error:` line on stderr; an exception escaping main is a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oligoprofile.cli import main

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
SMALL = st.integers(min_value=-2, max_value=64)

SEQUENCES = st.fixed_dictionaries(
    {"values": st.lists(st.integers(min_value=-5, max_value=10**30) | SCALARS, max_size=12)}
)
POSETS = st.fixed_dictionaries(
    {
        "size": SMALL | SCALARS,
        "leq": st.lists(st.lists(SMALL, min_size=2, max_size=2) | ANY_JSON, max_size=40),
    }
)
FRAGMENTS = st.fixed_dictionaries(
    {
        "fragments": st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.text(max_size=3) | SCALARS,
                    "elements": st.lists(st.integers(0, 12) | SCALARS, max_size=8) | ANY_JSON,
                }
            ),
            max_size=50,
        )
    }
)
# written as they are: raw text and bytes, and arrays nested up to 10**5 deep
RAW = (
    st.text(max_size=20)
    | st.binary(max_size=20)
    | st.integers(min_value=1, max_value=10**5).map(lambda depth: "[" * depth + "]" * depth)
)


def _run(argv, payload):
    if not isinstance(payload, (str, bytes)):
        payload = json.dumps(payload)
    if isinstance(payload, str):
        payload = payload.encode("utf-8", "surrogatepass")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(payload)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


@given(SEQUENCES | ANY_JSON | RAW)
@settings(max_examples=60, deadline=None)
def test_growth_file_exits_cleanly(payload):
    _run(["growth", "--file"], payload)


@given(POSETS | ANY_JSON | RAW)
@settings(max_examples=60, deadline=None)
def test_linearize_in_exits_cleanly(payload):
    _run(["linearize", "--in"], payload)


@given(FRAGMENTS | ANY_JSON | RAW)
@settings(max_examples=60, deadline=None)
def test_glue_in_exits_cleanly(payload):
    _run(["glue", "--in"], payload)

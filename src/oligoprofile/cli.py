"""Command line front end over the enumeration modules.

Subcommands map one to one onto the library: catalogue listing,
profile enumeration, growth analysis, witness families, poset
linearization, fragment glueing, and the constant table. Output is
deterministic for a fixed command line and input files, so runs can
be diffed byte for byte.

JSON output is exactly the bytes of ``json.dumps(payload, indent=2)``
plus a newline. ``_json_text`` lays out dicts and lists itself and
leaves every scalar, and every flat int row or int matrix, to the C
encoder, which ``indent`` would otherwise switch off. A list that
starts like a row or matrix is encoded compactly once; deleting its
digits and minus signs, then every ", ", leaves "[]" for an int row
and "[" + "[]" * len(list) + "]" for an int matrix. Anything else in
the text (a quote, a dot, a letter, a brace or a nested bracket) stays,
so no other list passes, and the list is laid out item by item.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .catalogue import age_predictor, get_entry, list_entry_ids
from .errors import OligoError, ParameterError, at_most, int_at_least
from .glueing import fragments_from_json_dict, glue
from .growth import constants_table, growth_estimate
from .posets import FinitePoset, linearize
from .profiles import DEFAULT_BUDGET, profile
from .witnesses import build_family, construction_ids, verify_pairwise_nonisomorphic


def _real(x: float) -> float:
    return float(f"{x:.6g}")


_encode = json.JSONEncoder().encode
_DIGITS = str.maketrans("", "", "-0123456789")


def _key(key) -> str:
    """A dict key as json.dumps writes it: a scalar that is not a str is quoted."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_encode(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(value, indent: str, out: list[str]) -> None:
    """Append the indent=2 text of value, opened at this indent, to out."""
    if type(value) is int:
        out.append(int.__repr__(value))
        return
    if isinstance(value, str) or not isinstance(value, (list, tuple, dict)):
        out.append(_encode(value))
        return
    if not value:
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = indent + "  "
    row, cell = "\n" + inner, "\n" + inner + "  "
    sep = "," + row
    # every item is led by sep; the first one's is swapped for the bracket
    start = len(out)
    if isinstance(value, dict):
        for k, v in value.items():
            out += (sep, _key(k), ": ")
            _emit(v, inner, out)
        out[start] = "{" + row
        out.append("\n" + indent + "}")
        return
    # Compact-encode a list that starts like an int row or matrix once; a
    # list of dicts (witness members) is never encoded whole.
    first = value[0]
    if isinstance(first, int) or (isinstance(first, (list, tuple)) and first and isinstance(first[0], int)):
        text = _encode(value)
        shape = text.translate(_DIGITS).replace(", ", "")
        if shape == "[]":
            out += ("[", row, text[1:-1].replace(", ", sep), "\n" + indent + "]")
            return
        if shape == "[" + "[]" * len(value) + "]":
            # rows open on row lines, items on cell lines; an empty row stays []
            body = text[1:-1].replace("], [", "]" + sep + "[").replace(", ", "," + cell)
            body = body.replace("[", "[" + cell).replace("]", row + "]")
            out += ("[", row, body.replace("[" + cell + row + "]", "[]"), "\n" + indent + "]")
            return
    for v in value:
        out.append(sep)
        _emit(v, inner, out)
    out[start] = "[" + row
    out.append("\n" + indent + "]")


def _json_text(payload) -> str:
    out: list[str] = []
    _emit(payload, "", out)
    out.append("\n")
    return "".join(out)


def _finite(text: str) -> float:
    # NaN, Infinity, -Infinity and numbers such as 1e400 are not JSON values
    value = float(text)
    if not math.isfinite(value):
        raise ParameterError(f"invalid JSON input: non-finite number {text}")
    return value


def _load_json(path: str) -> dict:
    # ValueError covers bad syntax, bytes that are not UTF-8 and integers
    # past the interpreter's digit limit
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"invalid JSON input: {exc}") from None


def _cmd_catalogue_list(args) -> str:
    entries = list_entry_ids()
    if args.fmt == "json":
        return _json_text({"entries": list(entries)})
    return "".join(e + "\n" for e in entries)


def _cmd_profile(args) -> str:
    seq = profile(args.entry, args.n_max, budget=args.budget)
    if args.fmt == "json":
        return _json_text(seq.to_json_dict())
    return seq.to_csv()


# Largest growth --n-max, refused before any term is computed: tree_c took
# 1.7 s at 2000 and 15 s at 4000 (2-core x86-64 VM, Python 3.11).
_MAX_GROWTH_N = 2000


def _growth_values(args) -> list[int]:
    if args.file is not None:
        payload = _load_json(args.file)
        try:
            values = payload["values"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed sequence file: {exc}") from None
        if not isinstance(values, list):
            raise ParameterError("malformed sequence file: values must be a list of integers")
        return values
    entry = get_entry(args.entry)
    int_at_least("growth", "--n-max", args.n_max, 1)
    at_most("growth", "terms (--n-max)", args.n_max, _MAX_GROWTH_N)
    return [age_predictor(entry, n) for n in range(1, args.n_max + 1)]


def _cmd_growth(args) -> str:
    values = _growth_values(args)
    report = growth_estimate(values)
    if args.fmt == "json":
        return _json_text(report.to_json_dict())
    rows = []
    for i, v in enumerate(values):
        ratio = "" if i == 0 else f"{_real(report.ratios[i - 1]):g}"
        rows.append((i + 1, v, f"{_real(report.nth_roots[i]):g}", ratio))
    if args.fmt == "csv":
        lines = ["n,value,nth_root,ratio"]
        lines += [f"{n},{v},{r},{q}" for n, v, r, q in rows]
        return "\n".join(lines) + "\n"
    width = max(len(str(v)) for _, v, _, _ in rows)
    lines = [f"{'n':>3}  {'value':>{width}}  {'nth_root':>9}  {'ratio':>9}"]
    lines += [f"{n:>3}  {v:>{width}}  {r:>9}  {q:>9}" for n, v, r, q in rows]
    lines.append(
        f"limit estimate {_real(report.limit_estimate):g}"
        f" ({'monotone' if report.monotone else 'not monotone'} values)"
    )
    return "\n".join(lines) + "\n"


def _cmd_witness(args) -> str:
    family = build_family(args.construction, args.n, args.max_part)
    report = verify_pairwise_nonisomorphic(family)
    return _json_text(
        {"family": family.to_json_dict(), "report": report.to_json_dict()}
    )


def _cmd_linearize(args) -> str:
    poset = FinitePoset.from_json_dict(_load_json(args.in_path))
    result = linearize(poset)
    return _json_text(result.to_json_dict())


def _cmd_glue(args) -> str:
    fragments = fragments_from_json_dict(_load_json(args.in_path))
    components = glue(list(fragments))
    return _json_text({"components": [c.to_json_dict() for c in components]})


def _cmd_constants(args) -> str:
    table = constants_table()
    if args.fmt == "json":
        return _json_text(
            [
                {"key": c.key, "value": _real(c.value), "note": c.note}
                for c in table
            ]
        )
    key_w = max(len(c.key) for c in table)
    lines = [f"{c.key:<{key_w}}  {_real(c.value):<8g} {c.note}" for c in table]
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "catalogue-list": _cmd_catalogue_list,
    "profile": _cmd_profile,
    "growth": _cmd_growth,
    "witness": _cmd_witness,
    "linearize": _cmd_linearize,
    "glue": _cmd_glue,
    "constants": _cmd_constants,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: every command is deterministic"
    )
    common.add_argument(
        "--jobs", type=int, help="accepted and ignored: every command runs in one process"
    )
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="oligoprofile",
        description="orbit profiles, growth rates, witness families, and order reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalogue-list", parents=[common], help="list catalogue entry ids")
    cat.add_argument("--format", dest="fmt", choices=("plain", "json"), default="plain")

    prof = sub.add_parser("profile", parents=[common], help="enumerate f_1..f_n for an entry")
    prof.add_argument("entry")
    prof.add_argument("--n-max", type=int, required=True)
    prof.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    prof.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="largest C(sample points, n) a profile count may have",
    )

    gro = sub.add_parser("growth", parents=[common], help="nth roots and ratios of a counting sequence")
    gro.add_argument("entry", nargs="?", default=None)
    gro.add_argument("--file", default=None, help="JSON file with a 'values' list")
    gro.add_argument("--n-max", type=int, default=24)
    gro.add_argument("--format", dest="fmt", choices=("table", "csv", "json"), default="table")

    wit = sub.add_parser("witness", parents=[common], help="build and verify a witness family")
    wit.add_argument("construction", choices=construction_ids())
    wit.add_argument("--n", type=int, required=True)
    wit.add_argument("--max-part", type=int, default=None)

    lin = sub.add_parser("linearize", parents=[common], help="collapse a poset to ordered antichain classes")
    lin.add_argument("--in", dest="in_path", required=True)

    glu = sub.add_parser("glue", parents=[common], help="assemble order fragments into components")
    glu.add_argument("--in", dest="in_path", required=True)

    con = sub.add_parser("constants", parents=[common], help="print the named growth constants")
    con.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "growth" and (args.entry is None) == (args.file is None):
        print("error: growth needs exactly one of <entry> or --file", file=sys.stderr)
        return 2
    try:
        text = _HANDLERS[args.command](args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OligoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Print a gnuplot-ready growth table for a counting sequence.

Columns: n, value, nth root, consecutive ratio. The sequence comes
from the catalogue entry's closed-form predictor.

Example:
    python3 scripts/growth_table.py tree_c --n-max 40
"""

import argparse
import sys

from oligoprofile import age_predictor, get_entry, growth_estimate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("entry")
    parser.add_argument("--n-max", type=int, default=30)
    args = parser.parse_args()

    entry = get_entry(args.entry)
    values = [age_predictor(entry, n) for n in range(1, args.n_max + 1)]
    report = growth_estimate(values)
    print("# n  value  nth_root  ratio")
    for i, v in enumerate(values):
        ratio = "-" if i == 0 else f"{report.ratios[i - 1]:.6g}"
        print(f"{i + 1}  {v}  {report.nth_roots[i]:.6g}  {ratio}")
    print(f"# limit estimate: {report.limit_estimate:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

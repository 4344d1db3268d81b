"""Sweep the catalogue and print every profile with its saturation sizes.

Example:
    python3 scripts/profile_catalogue.py --n-max 6
"""

import argparse
import sys
import time

from oligoprofile import OligoError, age_predictor, default_sweep_ids, profile


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--entries", nargs="*", default=None,
                        help="entry ids; defaults to the whole sweep list")
    args = parser.parse_args()

    entries = args.entries if args.entries else list(default_sweep_ids())
    status = 0
    for entry_id in entries:
        t0 = time.perf_counter()
        try:
            seq = profile(entry_id, args.n_max)
        except OligoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        predicted = [age_predictor(entry_id, n) for n in range(1, args.n_max + 1)]
        agree = all(p == v for p, v in zip(predicted, seq.values))
        if not agree:
            status = 1
        print(f"{entry_id:>16}  f = {list(seq.values)}  "
              f"sizes = {list(seq.saturated_at)}  "
              f"{'ok' if agree else 'MISMATCH'}  {elapsed:.1f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())

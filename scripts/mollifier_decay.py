#!/usr/bin/env python3
"""Trace the mollified second-derivative pairing as the bump sharpens.

For norms whose x1-sections are flat at x1 = 0 the pairing decays toward
zero (at the slow rate ~ n^-p); for the Euclidean norm it converges to a
positive limit. Prints one CSV row per mollifier index n.
"""

import argparse
import sys

from levylab import lhs_integral, parse_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="lq:q=4:dim=3")
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--n-max", type=int, default=4096)
    args = ap.parse_args()

    spec = parse_spec(args.spec)
    print("n,value,error,term_first,term_second,ratio_to_first")
    base = None
    n = 2
    while n <= args.n_max:
        res = lhs_integral(spec, args.p, n)
        if base is None:
            base = res.value
        print(f"{n},{res.value:.10e},{res.error:.3e},{res.term_first:.10e},"
              f"{res.term_second:.10e},{res.value / base:.6f}", flush=True)
        n *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

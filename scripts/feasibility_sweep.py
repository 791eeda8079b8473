#!/usr/bin/env python3
"""Sweep the moment-problem feasibility scan over a grid of norms and p.

Prints one CSV row per (spec, p): each refinement level as
residual:iterations:active (the NNLS iteration count and the number of atoms
with positive weight), the plateau probe in the same form when it ran, and
the interpretation. Useful for mapping where the embeddable/non-embeddable
boundary shows up numerically.
"""

import argparse
import sys

from levylab import NormSpec, feasibility_scan


def level_text(lv) -> str:
    return f"{lv.relative_residual:.3e}:{lv.iterations}:{lv.active}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", default="1,2,3,4", help="comma list of l_q exponents")
    ap.add_argument("--dims", default="2,3", help="comma list of dimensions")
    ap.add_argument("--ps", default="0.5,1.0,1.5", help="comma list of p values")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print("spec,p,levels,probe,interpretation")
    for dim in (int(d) for d in args.dims.split(",")):
        for q in (float(v) for v in args.qs.split(",")):
            spec = NormSpec.lq(q, dim)
            for p in (float(v) for v in args.ps.split(",")):
                result = feasibility_scan(spec, p, seed=args.seed)
                levels = ";".join(level_text(lv) for lv in result.levels)
                probe = level_text(result.plateau_probe) if result.plateau_probe else ""
                print(f"{spec.label},{p:g},{levels},{probe},{result.interpretation}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

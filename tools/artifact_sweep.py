"""Write the CLI artifacts of a fixed list of configs, one directory each.

    python tools/artifact_sweep.py --out DIR

Each config runs through ``levylab.cli.main`` (from this checkout's ``src``)
into ``DIR/<command>_<spec-slug>_<p>_seed<seed>[_<flags-slug>]/``, which also
holds the run's stderr as ``stderr.txt`` (the directory is made for refused
runs too), and ``DIR/exit_codes.txt`` lists every config's exit code, so the
sweeps of two checkouts compare with ``diff -r``. The configs:

* ``all`` on the three benchmark specs (Euclidean and Orlicz at p = 1, l4 at
  p = 0.5) at seeds 0 and 1;
* ``levy`` on the 48 scorecard cells at seed 0: l_q for q in 1.2, 1.5, 2,
  2.5, 3, 4, inf and the Orlicz benchmark norm, dims 2 and 3, p in 0.5, 1, 1.5;
* ``demo`` on l4 and the Euclidean norm in dim 3 at p = 0.5;
* ``criterion`` at p = 1 on a spec for each verdict and report line: l2.2^3
  (FailsConditionIII), t^2.0000001 in dim 3 (the ``disagreement:`` line),
  0.5t^2 + 0.5t^4 (FailsConditionI with analytic reasons), 0.5t^1.5 + 0.5t^3
  (NotApplicable: M'' diverges), l_inf^3, l4^2 and l4^5 (the other
  NotApplicable reasons) and l20^3 (Applies). No known spec reaches
  FailsConditionII, so the sweep has none;
* ``all`` runs that exit 2 before any route: three bad specs (a misspelt
  key, q < 1, dim 9), oversized levels, p = 0, a negative seed, too many
  points and zero trials.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from levylab import cli  # noqa: E402

ORLICZ = "orlicz:terms=0.5*t^3+0.5*t^5:dim={dim}"
LQ_EXPONENTS = ("1.2", "1.5", "2", "2.5", "3", "4", "inf")
SCORECARD_NORMS = [f"lq:q={q}:dim={{dim}}" for q in LQ_EXPONENTS] + [ORLICZ]
CRITERION_SPECS = (
    "lq:q=2.2:dim=3", "orlicz:terms=1*t^2.0000001:dim=3",
    "orlicz:terms=0.5*t^2+0.5*t^4:dim=3", "orlicz:terms=0.5*t^1.5+0.5*t^3:dim=3",
    "lq:q=inf:dim=3", "lq:q=4:dim=2", "lq:q=4:dim=5", "lq:q=20:dim=3",
)


def configs() -> list[tuple[str, str, float, int, tuple[str, ...]]]:
    """(command, spec, p, seed, extra flags) of every run, in sweep order."""
    runs = [("all", spec, p, seed, ())
            for seed in (0, 1)
            for spec, p in (("euclidean:dim=3", 1.0), ("lq:q=4:dim=3", 0.5),
                            (ORLICZ.format(dim=3), 1.0))]
    runs += [("levy", norm.format(dim=dim), p, 0, ())
             for norm in SCORECARD_NORMS for dim in (2, 3) for p in (0.5, 1.0, 1.5)]
    runs += [("demo", spec, 0.5, 0, ()) for spec in ("lq:q=4:dim=3", "euclidean:dim=3")]
    runs += [("criterion", spec, 1.0, 0, ()) for spec in CRITERION_SPECS]
    runs += [("all", spec, 0.5, 0, ())
             for spec in ("lq:qq=4:dim=3", "lq:q=0.5:dim=3", "lq:q=4:dim=9")]
    runs += [("all", "lq:q=4:dim=3", 0.5, 0, ("--levels", "64:128,4096:16")),
             ("all", "lq:q=4:dim=3", 0.0, 0, ()),
             ("all", "lq:q=4:dim=3", 0.5, -1, ()),
             ("all", "lq:q=4:dim=3", 0.5, 0, ("--points", "182")),
             ("all", "lq:q=4:dim=3", 0.5, 0, ("--trials", "0"))]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory the sweep writes into")
    out = Path(parser.parse_args(argv).out)
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for command, spec, p, seed, extra in configs():
        name = f"{command}_{cli.spec_slug(spec)}_{p:g}_seed{seed}"
        if extra:
            name += "_" + cli.spec_slug(" ".join(extra))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--spec", spec, "--p", f"{p:g}", "--seed", str(seed),
                             *extra, "--out", str(out / name)])
        (out / name).mkdir(exist_ok=True)
        (out / name / "stderr.txt").write_text(stderr.getvalue())
        codes.append(f"{name} {code}")
        print(codes[-1], flush=True)
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

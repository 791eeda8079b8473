"""Command-line front end: parse a norm spec, run the checks, write reports.

Spec grammar (exact):

    lq:q=<number|inf>:dim=<int>        e.g.  lq:q=4:dim=3
    orlicz:terms=<terms>:dim=<int>     e.g.  orlicz:terms=0.5*t^3+0.5*t^5:dim=3
    euclidean:dim=<int>

    <terms> := <coef>*t^<exp> ( + <coef>*t^<exp> )*

Subcommands: criterion, levy, posdef, demo, all, derive. Artifacts are
written to --out as <command>_<spec-slug>_<p>.{csv,txt}; a manifest.txt
lists every artifact with its sha256 and echoes the effective config.
Every command writes its CSV and its structured text report (derive
writes CSV only). CSV uses '.' decimals, 17 significant digits, and LF
line endings, so a rerun with the same config is byte-identical. The
--out directory is created before any route runs. --timings prints each
route's wall time to stderr and changes no artifact.

Flags: --spec --p --seed --theta-count --levels --trials --points --out
--timings.

Exit codes: 0 success, 2 invalid configuration, 3 numerical
non-convergence or failure, or a conflict between routes.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import criterion as crit
from . import levy
from . import mollifier as moll
from . import posdef
from .derivatives import DerivativeError, d1_d2_norm_batch, fd_d1, fd_d2
from .norms import NormSpec, SpecError, g17, norm_batch, parse_spec
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DERIVE_PROBES = (
    (0.5, 1.0, 0.25),
    (1.0, 1.0, 1.0),
    (0.0, 1.0, 1.0),
    (2.0, 0.5, 0.5),
    (0.001, 1.0, 0.0),
    (-1.0, 0.3, 0.8),
)


@dataclass
class RunConfig:
    command: str
    spec: str
    p: float = 1.0
    seed: int = 0
    theta_count: int = crit.DEFAULT_THETA_COUNT
    levels: str = ""
    trials: int = 2000
    points: int = 20
    out: str = "."
    timings: bool = False      # stderr only: never echoed, never in an artifact

    def echo_lines(self) -> list[str]:
        return [
            f"command={self.command}",
            f"spec={self.spec}",
            f"p={self.p:g}",
            f"seed={self.seed}",
            f"theta_count={self.theta_count}",
            f"levels={self.levels}",
            f"trials={self.trials}",
            f"points={self.points}",
        ]


def spec_slug(spec_text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", spec_text).strip("-")


def parse_levels(text: str):
    """Level list grammar: 'dirs:samples,dirs:samples,...' (empty = defaults)."""
    if not text:
        return None
    levels = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise SpecError(f"level {chunk!r} is not of the form directions:samples")
        d, s = chunk.split(":", 1)
        try:
            levels.append((int(d), int(s)))
        except ValueError:
            raise SpecError(f"level {chunk!r} must hold two integers") from None
        if levels[-1][0] < 1 or levels[-1][1] < 1:
            raise SpecError(f"level {chunk!r} must hold positive integers")
    return levels


def _artifact_name(config: RunConfig, suffix: str, tag: str = "") -> str:
    base = f"{config.command}_{spec_slug(config.spec)}_{config.p:g}"
    return f"{base}{tag}.{suffix}"


def _run_criterion(config: RunConfig, spec: NormSpec, banner: list):
    report = crit.second_derivative_test(spec, theta_count=config.theta_count)
    artifacts = {
        _artifact_name(config, "csv"): crit.decay_profile_csv(report),
        _artifact_name(config, "txt"): crit.report_text(report),
    }
    return artifacts, report, EXIT_OK


def _run_levy(config: RunConfig, spec: NormSpec, banner: list):
    result = levy.feasibility_scan(spec, config.p,
                                   levels=parse_levels(config.levels),
                                   seed=config.seed)
    artifacts = {
        _artifact_name(config, "csv"): levy.feasibility_csv(result),
        _artifact_name(config, "txt"): levy.feasibility_report_text(result),
        _artifact_name(config, "csv", "_measure"): levy.measure_csv(result.best_measure),
    }
    status = EXIT_OK if result.converged else EXIT_NUMERICAL
    return artifacts, result, status


def _run_posdef(config: RunConfig, spec: NormSpec, banner: list):
    witness = posdef.witness_search(spec, config.p, n_points=config.points,
                                    trials=config.trials, seed=config.seed)
    artifacts = {
        _artifact_name(config, "csv"): posdef.witness_csv(witness),
        _artifact_name(config, "txt"): posdef.witness_report_text(witness),
    }
    return artifacts, witness, EXIT_OK


def _run_demo(config: RunConfig, spec: NormSpec, banner: list):
    report = moll.demo_run(spec, config.p)
    artifacts = {
        _artifact_name(config, "csv"): moll.demo_csv(report),
        _artifact_name(config, "txt"): moll.demo_report_text(report),
    }
    return artifacts, report, EXIT_OK


def _run_derive(config: RunConfig, spec: NormSpec, banner: list):
    if spec.dim != 3:
        raise SpecError("derive probes require dim = 3")
    probes = np.array(DERIVE_PROBES)
    d1, d2, _ = d1_d2_norm_batch(spec.as_power_orlicz(), probes)
    rows = ["x1,x2,x3,norm,d1,d2,fd_d1,fd_d2"]
    for x, nrm, a1, a2 in zip(DERIVE_PROBES, norm_batch(spec, probes), d1, d2):
        rows.append(
            ",".join(g17(c) for c in x)
            + f",{g17(nrm)},{g17(a1)},{g17(a2)}"
            + f",{g17(fd_d1(spec, x))},{g17(fd_d2(spec, x))}")
    artifacts = {_artifact_name(config, "csv"): "\n".join(rows) + "\n"}
    return artifacts, None, EXIT_OK


def _run_route(config: RunConfig, spec: NormSpec, banner: list):
    """Run one command; with --timings a route's wall time goes to stderr
    (``all`` reports each of its routes instead of itself)."""
    runner, _ = COMMANDS[config.command]
    start = time.perf_counter()
    outcome = runner(config, spec, banner)
    if config.timings and config.command != "all":
        print(f"timing: {config.command} {time.perf_counter() - start:.3f}", file=sys.stderr)
    return outcome


def _run_all(config: RunConfig, spec: NormSpec, banner: list):
    artifacts: dict[str, str] = {}
    results = {}
    status = EXIT_OK
    commands = ["criterion"]
    if spec.dim in levy.DEFAULT_LEVELS:
        commands.append("levy")
    else:
        banner.append("note: levy skipped (the moment problem supports dims 2 and 3)")
    commands.append("posdef")
    if 0.0 < config.p < 1.0 and spec.dim == 3 and spec.smooth_in_x1:
        commands.append("demo")
    else:
        banner.append("note: demo skipped (needs dim 3, smooth sections, and 0 < p < 1)")
    for command in commands:
        arts, results[command], sub_status = _run_route(replace(config, command=command),
                                                        spec, banner)
        artifacts.update(arts)
        status = max(status, sub_status)

    crit_report = results["criterion"]
    conflict = []
    if crit_report.disagreement:
        conflict.append(f"criterion routes disagree: {crit_report.disagreement}")
    levy_feasible = "levy" in results and results["levy"].interpretation == levy.FEASIBLE
    if crit_report.verdict == crit.APPLIES and levy_feasible:
        conflict.append("criterion verdict Applies yet the moment problem reports "
                        "FeasibleEvidence")
    if results["posdef"].found and levy_feasible:
        conflict.append("a negative-eigenvalue witness exists yet the moment problem "
                        "reports FeasibleEvidence")
    if conflict:
        banner.append("CONFLICT: " + "; ".join(conflict))
        status = EXIT_NUMERICAL
    return artifacts, results, status


# command -> (runner, default --p); each runner returns (artifacts, result, exit status)
COMMANDS = {
    "criterion": (_run_criterion, 1.0),
    "levy": (_run_levy, 1.0),
    "posdef": (_run_posdef, 1.5),
    "demo": (_run_demo, 0.5),
    "all": (_run_all, 0.5),
    "derive": (_run_derive, 1.0),
}


def run(config: RunConfig) -> int:
    """Execute one config; writes artifacts plus manifest.txt, returns the
    exit code."""
    if config.command not in COMMANDS:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        spec = parse_spec(config.spec)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        parse_levels(config.levels)
    except SpecError as exc:
        print(f"invalid levels: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        Path(config.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"invalid configuration: --out {config.out!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG

    banner: list[str] = []
    try:
        artifacts, _, status = _run_route(config, spec, banner)
    except (SpecError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, DerivativeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_artifacts(config, artifacts, banner, status)
    for line in banner:
        print(line, file=sys.stderr)
    return status


def _write_artifacts(config: RunConfig, artifacts: dict, banner: list, status: int) -> None:
    out_dir = Path(config.out)
    manifest = ["# levylab run manifest"]
    manifest += config.echo_lines()
    manifest.append(f"exit_status={status}")
    manifest += banner
    for name, content in sorted(artifacts.items()):
        data = content.encode()
        (out_dir / name).write_bytes(data)
        manifest.append(f"file={name} sha256={hashlib.sha256(data).hexdigest()}")
    (out_dir / "manifest.txt").write_bytes(("\n".join(manifest) + "\n").encode())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Numerical evidence for or against isometric embeddability in L_p.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, default_p: float):
        sp.add_argument("--spec", required=True, help="norm spec string (see module doc)")
        sp.add_argument("--p", type=float, default=default_p)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--theta-count", type=int, default=crit.DEFAULT_THETA_COUNT)
        sp.add_argument("--levels", default="",
                        help="refinement levels 'dirs:samples,...' (empty = defaults)")
        sp.add_argument("--trials", type=int, default=2000)
        sp.add_argument("--points", type=int, default=20)
        sp.add_argument("--out", default=".")
        sp.add_argument("--timings", action="store_true",
                        help="print each route's wall time to stderr (no artifact changes)")

    for name, (_, default_p) in COMMANDS.items():
        add_common(subs.add_parser(name), default_p)
    return parser


def main(argv=None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    raise SystemExit(main())

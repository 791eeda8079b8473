"""levylab benchmark: `levylab all` on three norms, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test [--workload NAME] [--seed N]

Each invocation is one ``levylab all`` run in a fresh child process, started
one at a time (a closed loop with a single client). The workload fixes the
norm spec and p; ``--seed`` (reduced mod 2^32) is passed to ``--seed``.

``--trace 0`` first measures set-up (CPU time of fresh interpreters
importing ``levylab.cli``), then repeats invocations while the next one is
expected to end within ``--seconds`` (at least one runs), and reports
medians of cpu_s and peak_rss_mb (the child's rusage), plus setup_s. It
also prints the median wall_s (``cli.main``), which is not a result metric:
on a shared virtual machine it includes the time the host withholds the
CPU, which changes from minute to minute. ``--trace 1`` runs one untraced
and one traced invocation, writes the spans file under
``.bench_out/spans/`` and reports the per-layer metrics computed from it;
trace.overhead_s is traced minus untraced CPU time.

Every invocation is checked (see checks.py) and its manifest sha256 lines
must equal those of the first run of the same source tree, workload and
seed (kept under ``.bench_out/manifests/``). A failed check or a nonzero
exit marks the invocation failed. ``--self-test`` also compares
LEVYLAB_THREADS=1 with LEVYLAB_THREADS = the number of usable cores and
checks that the traced counts repeat exactly.

Timed and traced children run with LEVYLAB_THREADS=1 and
OPENBLAS_NUM_THREADS=1: on a shared host a second worker thread makes wall
time follow whatever else holds the other core. The last stdout line is the
JSON result; the lines before it give the environment and every metric with
its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15         # measured fresh-interpreter imports, after one warm-up
TIMED_THREADS = 1          # LEVYLAB_THREADS of timed and traced invocations
TIME_LIMIT_S = 170.0       # the whole run ends well within 180 s
POLL_S = 0.02


@dataclass(frozen=True)
class Workload:
    spec: str
    p: float
    check: Callable     # (out_dir, manifest files) -> None, raises CheckFailed
    norm: Callable      # independent norm oracle: (m, dim) array -> (m,) norms


WORKLOADS = {
    "euclidean-all": Workload("euclidean:dim=3", 1.0, checks.check_euclidean,
                              checks.lq_norm(2.0)),
    "l4-pairing-all": Workload("lq:q=4:dim=3", 0.5, checks.check_l4_pairing,
                               checks.lq_norm(4.0)),
    "orlicz-all": Workload("orlicz:terms=0.5*t^3+0.5*t^5:dim=3", 1.0, checks.check_orlicz,
                           checks.orlicz_norm(((0.5, 3.0), (0.5, 5.0)))),
}

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outer_s: float
    out_dir: Path
    error: str = ""


# ------------------------------------------------------------ environment

def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["LEVYLAB_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "levylab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(seed: int, threads: int) -> dict:
    return {"nproc": usable_cores(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "LEVYLAB_THREADS": threads, "OPENBLAS_NUM_THREADS": 1,
            "seed": seed, "commit": git_commit(), "source_sha256": source_digest()}


# ------------------------------------------------------------ processes

def spawn(cmd: list[str], env: dict, log_path: Path, timeout: float):
    """Run ``cmd`` to completion; returns (exit code, rusage, wall seconds).
    A child still running after ``timeout`` seconds is killed."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() - start > timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, time.perf_counter() - start


def measure_setup(env: dict, deadline: float) -> list[float]:
    """CPU seconds of a fresh interpreter that imports levylab.cli and exits."""
    log = OUT / "setup.log"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        status, usage, _ = spawn([sys.executable, "-c", "import levylab.cli"], env, log,
                                max(1.0, deadline - time.perf_counter()))
        if status != 0:
            raise RuntimeError(f"importing levylab.cli failed:\n{log.read_text()[-2000:]}")
        times.append(usage.ru_utime + usage.ru_stime)
    return times[1:]


def invoke(name: str, seed: int, threads: int, tag: str, deadline: float,
           spans: Path | None = None) -> Invocation:
    """One checked ``levylab all`` invocation."""
    workload = WORKLOADS[name]
    run_dir = OUT / "runs" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir, result = run_dir / "out", run_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result)]
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--", "all", "--spec", workload.spec, "--p", f"{workload.p:g}",
            "--seed", str(seed), "--out", str(out_dir)]
    status, usage, outer = spawn(cmd, child_env(threads), run_dir / "log.txt",
                                 max(1.0, deadline - time.perf_counter()))
    wall = json.loads(result.read_text())["wall_s"] if result.exists() else outer
    run = Invocation(status, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, outer, out_dir)
    if status != 0:
        log = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
        run.error = f"exit code {status}\n{log}"
        return run
    try:
        checks.run_checks(out_dir, workload)
        check_determinism(name, seed, checks.manifest_files(out_dir))
    except Exception as exc:  # a malformed artifact fails the run, not the benchmark
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def check_determinism(name: str, seed: int, files: dict[str, str]) -> None:
    """Manifest sha256 lines must equal the first run's for this source,
    workload and seed."""
    ref = OUT / "manifests" / f"{source_digest()[:16]}-{name}-seed{seed}.json"
    if not ref.exists():
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_text(json.dumps(files, sort_keys=True), encoding="utf-8")
        return
    expected = json.loads(ref.read_text(encoding="utf-8"))
    if files != expected:
        differ = sorted(k for k in expected.keys() | files.keys()
                        if expected.get(k) != files.get(k))
        raise checks.CheckFailed(f"artifacts differ from the first run: {differ}")


# ------------------------------------------------------------ modes

def run_end_to_end(name, seed, seconds, threads, deadline):
    setup = measure_setup(child_env(threads), deadline)
    start = time.perf_counter()
    runs = []
    while True:
        runs.append(invoke(name, seed, threads, f"{name}-seed{seed}", deadline))
        elapsed = time.perf_counter() - start
        expected = statistics.median(r.outer_s for r in runs)
        if elapsed + expected > seconds or time.perf_counter() + expected > deadline:
            break
    metrics = {
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    for i, r in enumerate(runs):
        print(f"  invocation {i}: wall_s {r.wall_s:.4f} s, cpu_s {r.cpu_s:.4f} s, "
              f"peak_rss_mb {r.peak_rss_mb:.2f} MB")
    print("  setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    wall = statistics.median(r.wall_s for r in runs)
    print(f"  {'wall_s (not a result metric)':<40} {wall:>14.6g} s")
    return runs, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def run_traced(name, seed, threads, deadline):
    plain = invoke(name, seed, threads, f"{name}-seed{seed}", deadline)
    spans = OUT / "spans" / f"{name}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.unlink(missing_ok=True)
    traced = invoke(name, seed, threads, f"{name}-seed{seed}-traced", deadline, spans)
    runs = [plain, traced]
    if traced.error or not spans.exists():
        traced.error = traced.error or "no spans file written"
        return runs, {}
    doc = json.loads(spans.read_text(encoding="utf-8"))
    values = tracing.layer_metrics(doc)
    values["cli.artifact_bytes"] = sum(f.stat().st_size for f in traced.out_dir.iterdir())
    values["trace.overhead_s"] = traced.cpu_s - plain.cpu_s
    print(f"  spans: {len(doc['spans'])} in {spans.relative_to(ROOT)}")
    if doc["missing"]:
        print("  not traced (absent from the program): " + ", ".join(doc["missing"]))
    print("  largest self times: " + ", ".join(
        f"{n} {t:.3f} s" for n, t in tracing.top_self_times(doc)))
    return runs, {k: (v, per_layer_units(k)) for k, v in values.items()}


def self_test(name, seed, threads) -> int:
    """Thread-count invariance and exactly repeating traced counts."""
    deadline = time.perf_counter() + 3600.0
    runs = [invoke(name, seed, 1, f"{name}-seed{seed}-threads1", deadline)]
    counts = []
    for _ in range(2):
        traced_runs, metrics = run_traced(name, seed, threads, deadline)
        runs += traced_runs
        counts.append({m: v for m, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    problems = [r.error for r in runs if r.error]
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ: {counts[0]} vs {counts[1]}")
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"PASS {name} seed {seed}: identical artifacts at LEVYLAB_THREADS=1 and "
              f"{threads}, {len(counts[0])} traced counts repeat exactly")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="l4-pairing-all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "levylab" / "cli.py").is_file():
        print(f"no levylab sources under {SRC}; run from a levylab checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    seed = args.seed % 2 ** 32
    threads = usable_cores() if args.self_test else TIMED_THREADS
    OUT.mkdir(exist_ok=True)
    print(f"levylab benchmark: workload {args.workload}, spec "
          f"{WORKLOADS[args.workload].spec}, p {WORKLOADS[args.workload].p:g}")
    print("environment: " + json.dumps(environment(seed, threads)))
    if args.self_test:
        return self_test(args.workload, seed, threads)
    if args.trace:
        runs, metrics = run_traced(args.workload, seed, threads, deadline)
    else:
        runs, metrics = run_end_to_end(args.workload, seed, args.seconds, threads, deadline)

    failed = sum(1 for r in runs if r.error)
    for i, run in enumerate(runs):
        if run.error:
            print(f"invocation {i} failed: {run.error}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<40} {failed / len(runs):>14.6g} ({failed} of {len(runs)} failed)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

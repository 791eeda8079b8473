"""Correctness checks on the artifacts of one ``levylab all`` run.

None of the checks depends on the seed. The posdef check rebuilds the
witness kernel with numpy and a norm evaluation that shares no code with
levylab: the closed form for l_q and a scipy root-find for Orlicz norms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# l4^3, p = 0.5 mollified pairing at n = 2..32; the regression baseline
# LHS_L4_SWEEP of tests/test_acceptance.py.
LHS_L4_SWEEP = {
    2: 0.2583340559839314,
    4: 0.2613190617563506,
    8: 0.21929330635019806,
    16: 0.16700662931062044,
    32: 0.12171152475050216,
}
SWEEP_REL_TOL = 1e-6
LHS_ERR_REL = 1e-4
FEASIBLE_RESIDUAL = 1e-3
EIGENVALUE_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def manifest_files(out_dir: Path) -> dict[str, str]:
    """Artifact name -> sha256, from the run's manifest.txt."""
    files = {}
    for line in (out_dir / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("file="):
            name, digest = line[len("file="):].split(" sha256=")
            files[name] = digest
    return files


def _artifact(out_dir: Path, files: dict, command: str, suffix: str) -> Path:
    names = [n for n in files
             if n.startswith(command + "_") and n.endswith(suffix) and "_measure" not in n]
    _require(len(names) == 1, f"expected one {command}*{suffix} artifact, got {names}")
    return out_dir / names[0]


def _fields(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------ independent norm oracles

def lq_norm(q: float):
    return lambda xs: (np.abs(xs) ** q).sum(axis=1) ** (1.0 / q)


def orlicz_norm(terms):
    """Luxemburg norm of M(t) = sum a t^q (sum a = 1) by scipy's brentq."""
    from scipy.optimize import brentq

    def one(x):
        ax = np.abs(x)
        if not ax.any():
            return 0.0

        def g(s):
            return sum(a * float(((ax / s) ** q).sum()) for a, q in terms) - 1.0

        lo, hi = float(ax.max()), float(ax.sum())
        if abs(g(lo)) <= 1e-15:
            return lo
        return brentq(g, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)

    return lambda xs: np.array([one(x) for x in xs])


def check_witness(out_dir: Path, files: dict, p: float, norm) -> None:
    """Rebuild exp(-||x_i - x_j||^p) from the witness CSV; its smallest
    eigenvalue must match the reported min_eigenvalue."""
    path = _artifact(out_dir, files, "posdef", ".csv")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    reported = float(header.split("min_eigenvalue=")[1].split()[0])
    pts = np.array([[float(c) for c in row] for row in _csv_rows(path)])
    m = len(pts)
    dist = norm((pts[:, None, :] - pts[None, :, :]).reshape(m * m, -1)).reshape(m, m)
    kernel = np.exp(-dist ** p)
    np.fill_diagonal(kernel, 1.0)
    rebuilt = float(np.linalg.eigvalsh(kernel)[0])
    _require(abs(rebuilt - reported) <= EIGENVALUE_TOL,
             f"witness kernel min eigenvalue {rebuilt!r} != reported {reported!r}")


def _verdict(out_dir, files) -> str:
    return _fields(_artifact(out_dir, files, "criterion", ".txt"))["verdict"]


def _levy(out_dir, files):
    report = _fields(_artifact(out_dir, files, "levy", ".txt"))
    rows = _csv_rows(_artifact(out_dir, files, "levy", ".csv"))
    return report["interpretation"], rows


def check_euclidean(out_dir: Path, files: dict) -> None:
    verdict = _verdict(out_dir, files)
    _require(verdict == "FailsConditionI", f"criterion verdict {verdict}")
    interpretation, rows = _levy(out_dir, files)
    _require(interpretation == "FeasibleEvidence", f"levy interpretation {interpretation}")
    final = float(rows[-1][3])
    _require(final < FEASIBLE_RESIDUAL, f"final levy residual {final} >= {FEASIBLE_RESIDUAL}")
    found = _fields(_artifact(out_dir, files, "posdef", ".txt"))["witness_found"]
    _require(found == "False", "a witness was found for the Euclidean norm")


def check_l4_pairing(out_dir: Path, files: dict) -> None:
    verdict = _verdict(out_dir, files)
    _require(verdict == "Applies", f"criterion verdict {verdict}")
    rows = {int(r[0]): (float(r[1]), float(r[2]))
            for r in _csv_rows(_artifact(out_dir, files, "demo", ".csv"))}
    _require(sorted(rows) == sorted(LHS_L4_SWEEP), f"demo n values {sorted(rows)}")
    for n, expected in LHS_L4_SWEEP.items():
        lhs, err = rows[n]
        _require(abs(lhs - expected) <= SWEEP_REL_TOL * abs(expected),
                 f"demo lhs at n={n}: {lhs!r} vs baseline {expected!r}")
        _require(err <= LHS_ERR_REL * abs(lhs), f"demo lhs_err at n={n}: {err!r}")


def check_orlicz(out_dir: Path, files: dict) -> None:
    verdict = _verdict(out_dir, files)
    _require(verdict == "Applies", f"criterion verdict {verdict}")
    interpretation, rows = _levy(out_dir, files)
    _require(interpretation == "InfeasibleEvidence", f"levy interpretation {interpretation}")
    _require(rows[-1][0] == "probe", "levy CSV has no probe row")


def run_checks(out_dir: Path, workload) -> None:
    """Raise CheckFailed unless every check of ``workload`` holds."""
    files = manifest_files(out_dir)
    workload.check(out_dir, files)
    check_witness(out_dir, files, workload.p, workload.norm)

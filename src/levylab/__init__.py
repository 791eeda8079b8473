"""Numerical toolkit for isometric embeddability of finite-dimensional
normed spaces in L_p, 0 < p <= 2.

Four independent routes to the same question:

* :mod:`levylab.criterion` - the second-derivative test on x1-sections
  (rules embeddings out with a quantitative verdict);
* :mod:`levylab.levy` - nonnegative least-squares recovery of a spherical
  representing measure (graded feasibility evidence);
* :mod:`levylab.posdef` - positive-definiteness of exp(-||x||^p) via
  kernel-matrix eigenvalues (a witness rules embeddings out);
* :mod:`levylab.mollifier` - the mollified second-derivative pairing and
  its Fourier-side closed form (desk-scale validation of the machinery).
"""

from .criterion import (CriterionReport, check_orlicz_flatness,
                        second_derivative_test)
from .levy import (FeasibilityResult, SphericalMeasure, assemble_moment_system,
                   feasibility_scan, solve_nnls, uniform_calibrated_measure)
from .mollifier import (ContradictionReport, DemoReport, contradiction_report,
                        demo_run, fourier_constant, lhs_integral, rhs_value)
from .norms import (NormSpec, SpecError, SpecParseError, format_spec, norm_batch,
                    parse_spec)
from .posdef import PsdWitness, witness_search

__version__ = "0.1.0"

__all__ = [
    "ContradictionReport", "CriterionReport", "DemoReport", "FeasibilityResult",
    "NormSpec", "PsdWitness", "SpecError", "SpecParseError",
    "SphericalMeasure", "assemble_moment_system", "check_orlicz_flatness",
    "contradiction_report", "demo_run", "feasibility_scan", "format_spec",
    "fourier_constant", "lhs_integral", "norm_batch", "parse_spec", "rhs_value",
    "second_derivative_test", "solve_nnls", "uniform_calibrated_measure",
    "witness_search",
]

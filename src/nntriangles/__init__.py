"""Random triangles built from planar nearest-neighbor constructions.

Four families are modeled end to end — exact densities, samplers, moments,
and goodness-of-fit machinery:

* ``pinned``: a triangle pinned at the origin whose other two vertices are
  the origin's nearest and second-nearest points of a unit-intensity planar
  Poisson process;
* ``staked`` and ``anchored``: one base-point family, a unit base from
  A = (0, 0) to B = (1, 0) with the third vertex at the Poisson point
  nearest H = (h, 0); staked is h = 0 (H = A), anchored h = 1/2 (H the
  base midpoint);
* ``uniformT``: a unit base with the two base angles drawn uniformly and
  folded to a proper triangle.

The public surface is re-exported here; the ``nntriangles`` console script
(see :mod:`nntriangles.cli`) drives sampling, density evaluation, moment
tables, plots, and the deterministic verification suite.
"""

from .density import CATALOG, DensityKind
from .geom import angles_from_sides, heron_product
from .gof import (EmpiricalSample, GofReport, cdf_from_pdf, chi_square_region,
                  ks_one_sample, ks_two_sample, quantile)
from .moments import (EXPECTED_AC, MomentReport, MomentTarget, acuteness,
                      by_monte_carlo, by_quadrature, closed_form,
                      correlation_ab, expected_ac, moment_report,
                      reference_value, targets)
from .numerics import IntegralResult, QuadratureSpec, integrate_1d, integrate_2d
from .sampler import (FAMILIES, RandomStream, SampleBatch, sample_batch,
                      sample_pinned_oracle_batch)
from .verify import CheckResult, run_suite, suite_passed

__version__ = "0.1.0"

__all__ = [
    "CATALOG", "DensityKind",
    "angles_from_sides", "heron_product",
    "EmpiricalSample", "GofReport", "cdf_from_pdf", "chi_square_region",
    "ks_one_sample", "ks_two_sample", "quantile",
    "EXPECTED_AC", "MomentReport", "MomentTarget", "acuteness",
    "by_monte_carlo", "by_quadrature", "closed_form", "correlation_ab",
    "expected_ac", "moment_report", "reference_value", "targets",
    "IntegralResult", "QuadratureSpec", "integrate_1d", "integrate_2d",
    "FAMILIES", "RandomStream", "SampleBatch", "sample_batch",
    "sample_pinned_oracle_batch",
    "CheckResult", "run_suite", "suite_passed",
    "__version__",
]

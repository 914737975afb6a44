"""Bounds on the distance between a Brownian motion and a submanifold,
with exact model-space laws and Monte Carlo verification.

The central object is a Lyapunov pair (nu, lam) with
(1/2) Lap r_N^2 <= nu + lam r_N^2 off the cut locus of the submanifold N;
everything in `bounds` is an explicit function of that pair. `modelspaces`
supplies scenarios where the pair and various exact laws are known,
`simulate`/`estimate` sample them, and `verify` checks every bound against
its exact or Monte Carlo counterpart at desk scale.
"""

from .bounds import (
    BoundCurve,
    concentration_bound,
    concentration_bound_optimized,
    even_moment_bound,
    exit_time_bound,
    exp_dist_bound,
    exp_sq_bound,
    explosion_time,
    feynman_kac_bound,
    logsob_bound,
    radial_R,
    second_moment_bound,
)
from .errors import ConvergenceError, DomainError
from .estimate import (
    MCEstimate,
    mc_exp_moment,
    mc_moment,
    tail_prob,
)
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    Scenario,
    SphereInEuclidean,
    exact_exp_moment,
    exact_moment,
    heat_kernel,
    lyapunov_params,
    revuz_mean_local_time,
)
from .simulate import stream
from .specfun import ComparisonValues, comparison, kummer, laguerre, upper_gamma

__version__ = "0.1.0"

__all__ = [
    "BoundCurve",
    "CirclePoint",
    "ComparisonValues",
    "ConvergenceError",
    "DomainError",
    "EuclideanAffine",
    "HyperbolicH3Point",
    "LyapunovParams",
    "MCEstimate",
    "Scenario",
    "SphereInEuclidean",
    "comparison",
    "concentration_bound",
    "concentration_bound_optimized",
    "even_moment_bound",
    "exact_exp_moment",
    "exact_moment",
    "exit_time_bound",
    "exp_dist_bound",
    "exp_sq_bound",
    "explosion_time",
    "feynman_kac_bound",
    "heat_kernel",
    "kummer",
    "laguerre",
    "logsob_bound",
    "lyapunov_params",
    "mc_exp_moment",
    "mc_moment",
    "radial_R",
    "revuz_mean_local_time",
    "second_moment_bound",
    "stream",
    "tail_prob",
    "upper_gamma",
]

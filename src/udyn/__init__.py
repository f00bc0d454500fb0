"""Exact p-adic dynamics of the degree-(3,2) rational maps
f(x) = a*x*((x+b)/(x+c))**2.

Subpackages build on one another in order: ``exactnum`` (valuations, square
roots, quadratic extensions, truncated p-adics), ``radiusmaps`` (the induced
dynamics on absolute values), ``mapengine`` (the map itself: orbits and fixed
points), ``portrait`` (symbolic phase portraits), ``oracle`` (brute-force
verification of the portraits), and ``cli`` (the command line).
"""

from .exactnum import QuadExt, TruncatedPadic, sqrt_class, vp_rat
from .mapengine import (
    eval_f,
    fixed_points,
    orbit,
    sample_sphere,
    validate_params,
)
from .oracle import run_verification
from .portrait import classify
from .radiusmaps import (
    LambdaInterval,
    Radius,
    RadiusMapSpec,
    lambda_interval,
    radius_orbit,
    radius_step,
)

__version__ = "0.1.0"

__all__ = [
    "LambdaInterval",
    "QuadExt",
    "Radius",
    "RadiusMapSpec",
    "TruncatedPadic",
    "classify",
    "eval_f",
    "fixed_points",
    "lambda_interval",
    "orbit",
    "radius_orbit",
    "radius_step",
    "run_verification",
    "sample_sphere",
    "sqrt_class",
    "validate_params",
    "vp_rat",
    "__version__",
]

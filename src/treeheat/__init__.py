"""Heat semigroup and subordinated kernel numerics on homogeneous trees.

The tree of degree q+1 (q = 1 gives the integer line) carries the
combinatorial Laplacian L f(x) = f(x) - average of f over neighbors. This
package evaluates the radial kernels of the heat semigroup e^{-tL}, its
alpha/2-stable subordinated family, and the wave-type subordinated family;
applies them to finitely supported functions; computes truncated maximal
operators; checks series/sup weight-admissibility conditions; exposes the
flow-measure conjugation of the Laplacian; and ships a verification harness
plus a CLI front end.
"""

from .errors import NumericalError
from .flow import FlowStructure, flow_constant, flow_laplacian, verify_flow_conjugation
from .geometry import ROOT, TreeGeometry, enumerate_ball, sphere_size
from .kernels import KernelFamily, RadialKernel, kernel_block, tabulate
from .operators import (
    BallOperator,
    MaximalSpec,
    TreeFunction,
    fractional_laplacian,
    laplacian,
    pde_residual,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .verify import ALL_CHECKS, VerificationReport, run_check, run_suite
from .weights import (
    AdmissibilityVerdict,
    WeightSpec,
    check_thm1_i,
    check_thm2_i,
    check_thm3_g,
    companion_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "AdmissibilityVerdict",
    "BallOperator",
    "DEFAULT_SPEC",
    "FlowStructure",
    "KernelFamily",
    "MaximalSpec",
    "NumericalError",
    "QuadratureSpec",
    "ROOT",
    "RadialKernel",
    "TreeFunction",
    "TreeGeometry",
    "VerificationReport",
    "check_thm1_i",
    "check_thm2_i",
    "check_thm3_g",
    "companion_weight",
    "enumerate_ball",
    "flow_constant",
    "flow_laplacian",
    "fractional_laplacian",
    "kernel_block",
    "laplacian",
    "pde_residual",
    "run_check",
    "run_suite",
    "sphere_size",
    "tabulate",
    "verify_flow_conjugation",
]

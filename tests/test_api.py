import importlib

import treeheat

# kernel values come from kernel_block and tabulate, values applied to data and
# maximal functions from BallOperator; nothing else wraps them
PUBLIC = [
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


def test_public_api():
    assert treeheat.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(treeheat, name) is not None, name
    for module, gone in (("kernels", "heat_kernel"), ("kernels", "stable_kernel"),
                         ("kernels", "wave_kernel"), ("kernels", "kernel_value"),
                         ("operators", "heat_apply"), ("operators", "apply_kernel"),
                         ("operators", "maximal"), ("geometry", "distance"),
                         ("geometry", "radial_distance_counts")):
        assert not hasattr(treeheat, gone), gone
        assert not hasattr(importlib.import_module(f"treeheat.{module}"), gone), gone

"""The G7/K15 Gauss-Kronrod rule, its error estimate, and the tolerances
every certified value is checked against (QuadratureSpec)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod nodes/weights on [-1, 1] with the embedded 7-point Gauss
# rule, written from x >= 0 (both rules are symmetric about 0)
_XK_HALF = [0.0, 0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
            0.7415311855993944, 0.8648644233597691, 0.9491079123427585, 0.9914553711208126]
_WK_HALF = [0.2094821410847278, 0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
            0.1406532597155259, 0.1047900103222502, 0.0630920926299786, 0.0229353220105292]
_WG_HALF = [0.4179591836734694, 0.3818300505051189, 0.2797053914892767, 0.1294849661688697]
_XK = np.array([-x for x in _XK_HALF[:0:-1]] + _XK_HALF)
_WK = np.array(_WK_HALF[:0:-1] + _WK_HALF)
_WG = np.array(_WG_HALF[:0:-1] + _WG_HALF)
_WG15 = np.zeros(15)  # the G7 weights at the K15 nodes, 0 at the Kronrod-only ones
_WG15[1::2] = _WG


def kronrod_error(kronrod, gauss):
    """The error estimate of G7/K15 panel sums of a positive integrand,
    elementwise: K min(1, (200 |K - G| / K)^1.5) (Piessens et al., QUADPACK)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 200.0 * np.abs(kronrod - gauss) / kronrod
        return np.where(kronrod > 0, kronrod * np.minimum(1.0, ratio**1.5), 0.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance of every certified value: its error bound must be at
    most max(abs_tol, rel_tol |value|)."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError(
                f"tolerances must be finite and positive, got abs_tol={self.abs_tol}, "
                f"rel_tol={self.rel_tol}")


DEFAULT_SPEC = QuadratureSpec()

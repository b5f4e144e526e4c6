"""Numerics that only the tests use as references: the unscaled Bessel
function and the stable subordinator density at any time."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from treeheat.special import log_y_density

_BESSEL_X_MAX = 700.0  # exp(x) overflows above ~709


class RangeError(ValueError):
    """Argument outside the supported numerical range (e.g. Bessel overflow)."""


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x > _BESSEL_X_MAX:
        raise RangeError(
            f"x={x} beyond supported range (exp overflow); use bessel_i_scaled"
        )
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    return float(ive(order, x) * math.exp(x))


@dataclass(frozen=True)
class StableDensityParams:
    """Subordination order alpha in (0, 2) and time t > 0."""

    alpha: float
    t: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not self.t > 0.0:
            raise ValueError(f"t must be > 0, got {self.t}")


def stable_density(params: StableDensityParams, s):
    """f_{alpha,t}(s) = c f_{alpha,1}(c s), c = t^(-2/alpha), from
    special.log_y_density at every point at once; exactly 0 for s <= 0. Accepts
    scalars or arrays."""
    scale = params.t ** (-2.0 / params.alpha)
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    live = s > 0
    if np.any(live):
        log_y = np.log(s[live] * scale)
        out[live] = log_y_density(params.alpha, log_y)[0] * np.exp(-log_y) * scale
    return float(out) if out.ndim == 0 else out

"""Regularization-weight designs for the sorted-L1 penalty.

All generators emit the *ascending* sequence 0 <= lam_1 <= ... <= lam_p at
unit scale.  The intended use is as the search direction of a weight ray
(lam(eta) = eta * lam) or scaled externally; no generator bakes a scale
factor in.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DenominatorUnderflowError,
    InvalidLevelError,
    NegativeOffsetError,
    ValidationError,
    ZeroWeightsError,
)
from .model import check_weight_order

__all__ = [
    "normal_quantile",
    "bh_sequence",
    "gaussian_sequence",
    "oscar_sequence",
    "qs_sequence",
    "sphericity_ratio",
    "contour_extremes",
    "design_sequence",
    "DESIGN_NAMES",
]


# Rational approximation of the standard normal quantile (lower tail),
# refined by one Halley step through erfc so the result is accurate to a
# few ulp, far below the 1e-9 absolute requirement.
_QA = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
       1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_QB = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
       6.680131188771972e01, -1.328068155288572e01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
       -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
       3.754408661907416e00)

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

#: elements evaluated per pass of the kernel; bounds the temporaries (the
#: Python floats handed to libm above all) to a few MB whatever the input size
_QUANTILE_CHUNK = 1 << 14


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` from :mod:`math` on each element: numpy's exp and log may
    round differently from the C library, and numpy has no erfc."""
    return np.fromiter(map(fn, a.tolist()), float, a.size)


def _quantile_chunk(u: np.ndarray) -> np.ndarray:
    """Quantiles of the 1-d ``u``, all in [0, 1] (checked by the caller).

    Each element goes through the same operations, in the same order, as
    in the one-float-at-a-time recipe (kept in the tests as the oracle);
    numpy's +, *, / and sqrt round as Python floats do, so the results are
    bit-identical to it.
    """
    # central region, evaluated everywhere and overwritten in the tails
    q = u - 0.5
    r = q * q
    x = ((((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]) * q
         / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0))
    lower = u < 0.02425
    upper = u > 0.97575
    tail = np.flatnonzero((lower | upper) & (u != 0.0) & (u != 1.0))
    t = u[tail]
    low = lower[tail]
    q = np.sqrt(-2.0 * _libm(math.log, np.where(low, t, 1.0 - t)))
    v = ((((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5])
         / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0))
    x[tail] = np.where(low, v, -v)
    x[u == 0.0] = -math.inf
    x[u == 1.0] = math.inf
    # One Halley step: e = Phi(x) - u, with Phi via erfc.  Skipped in the
    # extreme tails where exp(x^2/2) overflows; the unrefined value is
    # already accurate to ~1e-9 relative there.
    refine = np.flatnonzero(np.abs(x) < 26.0)
    xr = x[refine]
    e = 0.5 * _libm(math.erfc, -xr / _SQRT2) - u[refine]
    v = e * _SQRT2PI * _libm(math.exp, 0.5 * xr * xr)
    x[refine] = xr - v / (1.0 + 0.5 * xr * v)
    return x


def normal_quantile(u):
    """Standard normal quantile function, elementwise on arrays.

    Accurate to a few ulp (rational approximation plus one Halley
    refinement).  ``u=0`` and ``u=1`` map to -inf and +inf; a scalar
    argument returns a Python float.  The arithmetic runs on whole numpy
    chunks of ``_QUANTILE_CHUNK`` elements, and only the libm calls (log in
    the tails, exp and erfc) go element by element through :mod:`math`, so
    the draws equal, bit for bit, those of the element-at-a-time recipe.
    """
    arr = np.asarray(u, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty(arr.shape)
    flat_out = out.reshape(-1)
    for lo in range(0, flat.size, _QUANTILE_CHUNK):
        chunk = flat[lo:lo + _QUANTILE_CHUNK]
        bad = np.flatnonzero(~((chunk >= 0.0) & (chunk <= 1.0)))  # NaN too
        if bad.size:
            raise ValidationError(
                f"quantile argument must lie in [0, 1], got {float(chunk[bad[0]])}")
        flat_out[lo:lo + chunk.size] = _quantile_chunk(chunk)
    return float(out) if np.isscalar(u) else out


def bh_sequence(p: int, q: float) -> np.ndarray:
    """Threshold-style weights from normal quantiles.

    lam_i = Phi^{-1}(1 - q (p - i + 1) / (2 p)) for i = 1..p, ascending.

    Parameters
    ----------
    p : int
        Number of weights.
    q : float
        Target false-discovery level, in (0, 1].
    """
    if not 0.0 < q <= 1.0:
        raise InvalidLevelError(f"level q must lie in (0, 1], got {q}")
    if p < 1:
        raise ValidationError("p must be >= 1")
    i = np.arange(1, p + 1, dtype=float)
    lam = normal_quantile(1.0 - q * (p - i + 1.0) / (2.0 * p))
    return np.maximum(lam, 0.0)


def gaussian_sequence(p: int, n: int, q: float) -> np.ndarray:
    """Quantile weights with a correction for sample correlation.

    Starts from :func:`bh_sequence` at the top index and recurses downward:

        lam_p = lam^BH_p
        lam_i = min(lam_{i+1}, lam^BH_i * sqrt(1 + sum_{j>i} lam_j^2 / (n - p + i - 3)))

    Requires n >= p + 3 so every denominator is positive.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    n_min = p + 3
    if n < n_min:
        raise DenominatorUnderflowError(
            f"sample count n={n} too small for p={p}; need n >= {n_min}"
        )
    bh = bh_sequence(p, q)
    lam = np.empty(p, dtype=float)
    lam[p - 1] = bh[p - 1]
    tail_sq = lam[p - 1] ** 2
    for i in range(p - 1, 0, -1):  # fills lam[i-1] from lam[i:]
        denom = n - p + i - 3.0
        lam[i - 1] = min(lam[i], bh[i - 1] * math.sqrt(1.0 + tail_sq / denom))
        tail_sq += lam[i - 1] ** 2
    return lam


def oscar_sequence(p: int, q: float) -> np.ndarray:
    """Affine weights lam_i = q + (i - 1), the sorted-L1 form of the
    pairwise-Linf clustering penalty (unit slope; scale externally)."""
    if q < 0:
        raise NegativeOffsetError(f"offset q must be nonnegative, got {q}")
    if p < 1:
        raise ValidationError("p must be >= 1")
    return q + np.arange(p, dtype=float)


def qs_sequence(p: int) -> np.ndarray:
    """Quasi-spherical weights lam_i = sqrt(p - i + 1) - sqrt(p - i).

    Ascending, with lam_p = 1.  The top-i partial sums telescope to
    sqrt(i), which puts every vertex of the penalty's contour surface at
    the same distance from the origin.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    down = np.arange(p, 0, -1, dtype=float)  # p, p-1, ..., 1
    return np.sqrt(down) - np.sqrt(down - 1.0)


def sphericity_ratio(p: int) -> float:
    """Circumradius-to-inradius ratio of the quasi-spherical contour:
    rho_p = sqrt(sum_i (sqrt(i) - sqrt(i-1))^2) = ||qs_sequence(p)||_2."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return float(np.linalg.norm(qs_sequence(p)))


def contour_extremes(weights, r: float = 1.0) -> tuple[float, float]:
    """Extremes of the penalty sum_i lam_i |beta|_(i) on the sphere ||beta|| = r.

    The maximum is r * ||lam||.  The minimum is attained at one of the
    "flat" directions b_i (1/sqrt(i) in the i largest-weight coordinates):
    the feasible set maps to a simplex over those vertices on which the
    objective is linear, so r * min_i <lam, b_i> is the minimum.

    Returns ``(maximum, minimum)``.
    """
    lam = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValidationError("weights must be a nonempty 1-d vector")
    check_weight_order(lam)
    if not np.any(lam > 0):
        raise ZeroWeightsError("weights must not be identically zero")
    if r <= 0:
        raise ValidationError("radius r must be positive")
    top_sums = np.cumsum(lam[::-1])  # sum of the i largest weights
    i = np.arange(1, lam.size + 1, dtype=float)
    vmin = float(np.min(top_sums / np.sqrt(i)))
    return r * float(np.linalg.norm(lam)), r * vmin


DESIGN_NAMES = ("bh", "gauss", "oscar", "qs")


def design_sequence(kind: str, p: int, q: float | None = None, n: int | None = None) -> np.ndarray:
    """Generate an ascending weight vector for a named design."""
    kind = kind.lower()
    if kind == "bh":
        if q is None:
            raise ValidationError("design 'bh' requires a level q")
        lam = bh_sequence(p, q)
    elif kind == "gauss":
        if q is None or n is None:
            raise ValidationError("design 'gauss' requires a level q and a sample count n")
        lam = gaussian_sequence(p, n, q)
    elif kind == "oscar":
        lam = oscar_sequence(p, 1.0 if q is None else q)
    elif kind == "qs":
        lam = qs_sequence(p)
    else:
        raise ValidationError(f"unknown design {kind!r}; expected one of {DESIGN_NAMES}")
    return lam

"""Sorted-L1 proximal operator and an accelerated proximal-gradient solver.

This solver is independent of the path engine and serves both as the
initializer for nonzero starting weights and as a validation oracle for
path values.  It runs one configuration, FISTA with a backtracking step
bound and function-value adaptive restart; the stop tolerance is its one
setting.

The solver's step bound comes from a seeded power iteration on X^T X +
ridge I, a deterministic function of the instance; it is computed once per
instance, after a check of its shapes and finiteness, and cached on it as
``lipschitz_estimate``.  Instances are immutable by contract: do not
change ``X``, ``y`` or ``ridge`` in place once an instance was solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConvergeError, NonFiniteError, ValidationError
from .model import ProblemInstance, check_instance_data, check_weight_order
from .optimality import OptimalityReport, check_optimality

__all__ = ["sorted_l1_prox", "SolveResult", "solve_slope"]


def sorted_l1_prox(v, weights) -> np.ndarray:
    """Minimizer of 0.5 ||b - v||^2 + sum_i lam_i |b|_(i).

    ``weights`` is ascending (smallest weight pairs with the smallest
    absolute entry).  Sort |v| descending, pair with the weights reversed,
    and project the differences onto the nonincreasing cone by
    pool-adjacent-violators; clamping at zero and undoing the sort gives
    the exact minimizer.  Output magnitudes are monotone-consistent with
    the input's.  A call costs about 25 us at p = 20, 50 us at p = 100 and
    0.3 ms at p = 1000 (medians, 2-core Xeon VM).
    """
    v = np.asarray(v, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if v.shape != lam.shape or v.ndim != 1:
        raise ValidationError("v and weights must be 1-d vectors of equal length")
    check_weight_order(lam)
    return _prox(v, lam)


def _prox(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`sorted_l1_prox` on 1-d ``v`` and ascending ``lam``, unchecked."""
    a = np.abs(v)
    order = (-a).argsort(kind="stable")
    values = (a[order] - lam[::-1]).tolist()
    if not values:
        return np.zeros(0)

    # PAV for the nonincreasing fit on Python floats: merge any block whose
    # average exceeds its predecessor's.  The last block is held in (top,
    # size) and the ones before it on the two stacks.
    sums: list[float] = []
    lens: list[int] = []
    top, size = values[0], 1
    for x in values[1:]:
        n = 1
        while x * size > top * n:
            x = top + x
            n += size
            if not sums:
                break
            top, size = sums.pop(), lens.pop()
        else:
            sums.append(top)
            lens.append(size)
        top, size = x, n
    sums.append(top)
    lens.append(size)

    out = np.empty(v.size)
    out[order] = np.maximum(np.array(sums) / np.array(lens, dtype=float), 0.0).repeat(lens)
    return np.sign(v) * out


@dataclass
class SolveResult:
    beta: np.ndarray
    report: OptimalityReport
    iterations: int
    objective: float
    objective_history: list[float] = field(default_factory=list)


def slope_objective(instance: ProblemInstance, weights, beta) -> float:
    """0.5 ||y - X beta||^2 + 0.5 ridge ||beta||^2 + sorted-L1 penalty."""
    beta = np.asarray(beta, dtype=float)
    return _smooth(instance, beta)[1] + _penalty(weights, beta)


def _smooth(instance: ProblemInstance, beta: np.ndarray) -> tuple[np.ndarray, float]:
    """(X beta - y, 0.5 ||y - X beta||^2 + 0.5 ridge ||beta||^2)."""
    r = instance.X @ beta - instance.y
    val = 0.5 * float(r @ r)
    if instance.ridge:
        val += 0.5 * instance.ridge * float(beta @ beta)
    return r, val


def _penalty(weights, beta: np.ndarray) -> float:
    a = np.abs(beta)
    a.sort()
    return float(a @ np.asarray(weights, dtype=float))


#: power iterations, and the seed of their start, behind the step bound L
_POWER_ITERATIONS = 20
_POWER_SEED = 0
#: iterations between optimality checks, and the cap on iterations
_CHECK_EVERY = 10
_MAX_ITERATIONS = 100_000


def _lipschitz_estimate(instance: ProblemInstance) -> float:
    rng = np.random.Generator(np.random.PCG64(_POWER_SEED))
    v = rng.standard_normal(instance.p)
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(_POWER_ITERATIONS):
        w = instance.X.T @ (instance.X @ v) + instance.ridge * v
        with np.errstate(over="ignore"):
            est = float(np.linalg.norm(w))
        if not math.isfinite(est):
            # the sum of squares overflowed: take the norm of w / max|w|
            scale = float(np.abs(w).max())
            if math.isfinite(scale):
                est = scale * float(np.linalg.norm(w / scale))
        if est == 0.0:
            return instance.ridge if instance.ridge > 0 else 1.0
        v = w / est
    return est


def _instance_lipschitz(instance: ProblemInstance) -> float:
    """:func:`_lipschitz_estimate`, computed once per instance and cached on
    it (as :func:`validate_instance` caches ``effective_rank``), after
    :func:`check_instance_data`."""
    est = instance.__dict__.get("lipschitz_estimate")
    if est is None:
        check_instance_data(instance)
        est = _lipschitz_estimate(instance)
        object.__setattr__(instance, "lipschitz_estimate", est)
    return est


def solve_slope(instance: ProblemInstance, weights, *,
                stop_tolerance: float = 1e-9) -> SolveResult:
    """Solve the sorted-L1 penalized least-squares problem from beta = 0.

    Accelerated proximal gradient with function-value adaptive restart;
    the step bound L starts at 1.05 times the power estimate and doubles
    while the quadratic bound fails.  Returns a :class:`SolveResult`
    whose optimality report, checked every ``_CHECK_EVERY`` iterations,
    has worst violation <= stop_tolerance * (1 + max weight), and whose
    ``objective_history`` holds the objective before and after each
    iteration.  Raises :class:`ValidationError` on a ``stop_tolerance``
    that is not positive and on misshapen data or weights
    (:class:`NonFiniteError` on non-finite ones), and
    :class:`DidNotConvergeError` (carrying the best iterate) if the
    iteration cap is hit first, the step search breaks down (a NaN
    trial loss, or a step bound L that overflows), or the iteration
    stalls: a step that changes neither the iterate, the extrapolated
    point nor L repeats forever, so a check that fails there raises at
    once.  That happens on badly scaled data, where the rounding of the
    gradient exceeds the stop tolerance (y = (1e100, 2e100) with
    X = 1e100 I, say).  Deterministic.
    """
    if not stop_tolerance > 0:  # NaN too
        raise ValidationError("stop_tolerance must be positive")
    lipschitz = _instance_lipschitz(instance)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (instance.p,):
        raise ValidationError("weights must have one entry per column of X")
    if not np.isfinite(lam).all():
        raise NonFiniteError("weights contain non-finite entries")
    # lam / L keeps the order for any L > 0, so the prox steps skip the check
    check_weight_order(lam)
    x = np.zeros(instance.p)

    tol = stop_tolerance * (1.0 + float(np.max(lam, initial=0.0)))
    L = max(1.05 * lipschitz, 1e-12)
    lam_step = lam / L

    def _gradient(beta, r):
        # X^T (X beta - y) + ridge * beta from the residual r = X beta - y
        g = instance.X.T @ r
        return g + instance.ridge * beta if instance.ridge else g

    z = x.copy()
    t = 1.0
    rx, fx = _smooth(instance, x)
    fx += _penalty(lam, x)
    history = [fx]

    report = None
    for it in range(1, _MAX_ITERATIONS + 1):
        x_prev, z_prev, f_prev, L_prev = x, z, fx, L
        rz, fz = _smooth(instance, z)
        g = _gradient(z, rz)
        x_new = _prox(z - g / L, lam_step)

        # Lipschitz check; double L on violation
        while True:
            r_new, smooth_new = _smooth(instance, x_new)
            diff = x_new - z
            quad = fz + float(g @ diff) + 0.5 * L * float(diff @ diff)
            if smooth_new <= quad + 1e-12 * (1.0 + abs(quad)):
                break
            L *= 2.0
            if math.isnan(smooth_new) or not math.isfinite(L):
                raise DidNotConvergeError(
                    f"step search broke down at iteration {it} "
                    f"(trial loss {smooth_new!r}, L = {L!r})",
                    beta=x, report=report, iterations=it)
            lam_step = lam / L
            x_new = _prox(z - g / L, lam_step)

        f_new = smooth_new + _penalty(lam, x_new)
        if f_new > fx + 1e-12 * (1.0 + abs(fx)):
            # momentum overshoot: restart and take the plain proximal
            # gradient step, which contracts toward the optimum even when
            # objective differences are below floating-point resolution
            t = 1.0
            x_new = _prox(x - _gradient(x, rx) / L, lam_step)
            r_new, smooth_new = _smooth(instance, x_new)
            f_new = smooth_new + _penalty(lam, x_new)

        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, rx, fx, t = x_new, r_new, f_new, t_new
        history.append(fx)

        if it % _CHECK_EVERY == 0 or it == _MAX_ITERATIONS:
            report = check_optimality(x, _gradient(x, rx), lam,
                                      tol_eq=tol, tol_ineq=tol,
                                      tie_tol=1e-7 * (1.0 + float(np.max(np.abs(x)))))
            if report.worst_magnitude <= tol:
                return SolveResult(beta=x, report=report, iterations=it,
                                   objective=fx, objective_history=history)
            if fx == f_prev and L == L_prev and np.array_equal(x, x_prev) \
                    and np.array_equal(z, z_prev):
                # the step left every input of the next one as it was: each
                # later iterate, and so each later report, is this one
                raise DidNotConvergeError(
                    f"stalled at iteration {it}: the iterate is a fixed point "
                    f"(worst violation {report.worst_magnitude:.3e} > {tol:.3e}); "
                    "typically the gradient's rounding at the data's scale "
                    "exceeds the stop tolerance",
                    beta=x, report=report, iterations=it)

    raise DidNotConvergeError(
        f"no convergence within {_MAX_ITERATIONS} iterations "
        f"(worst violation {report.worst_magnitude:.3e} > {tol:.3e})",
        beta=x, report=report, iterations=_MAX_ITERATIONS,
    )

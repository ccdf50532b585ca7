"""Sorted-L1 proximal operator and an accelerated proximal-gradient solver.

This solver is independent of the path engine and serves both as the
initializer for nonzero starting weights and as a validation oracle for
path values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConvergeError, ValidationError
from .model import ProblemInstance, check_weight_order
from .optimality import OptimalityReport, check_optimality

__all__ = ["sorted_l1_prox", "SolverOptions", "SolveResult", "solve_slope"]


def sorted_l1_prox(v, weights) -> np.ndarray:
    """Minimizer of 0.5 ||b - v||^2 + sum_i lam_i |b|_(i).

    ``weights`` is ascending (smallest weight pairs with the smallest
    absolute entry).  Sort |v| descending, pair with the weights reversed,
    and project the differences onto the nonincreasing cone by
    pool-adjacent-violators; clamping at zero and undoing the sort gives
    the exact minimizer.  Output magnitudes are monotone-consistent with
    the input's.
    """
    v = np.asarray(v, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if v.shape != lam.shape or v.ndim != 1:
        raise ValidationError("v and weights must be 1-d vectors of equal length")
    check_weight_order(lam)

    p = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    d = np.abs(v)[order] - lam[::-1]

    # PAV for the nonincreasing fit: merge any block whose average exceeds
    # its predecessor's
    block_sum = np.empty(p)
    block_len = np.empty(p, dtype=int)
    top = -1
    for i in range(p):
        top += 1
        block_sum[top] = d[i]
        block_len[top] = 1
        while top > 0 and block_sum[top] * block_len[top - 1] > block_sum[top - 1] * block_len[top]:
            block_sum[top - 1] += block_sum[top]
            block_len[top - 1] += block_len[top]
            top -= 1
    fitted = np.empty(p)
    pos = 0
    for b in range(top + 1):
        avg = block_sum[b] / block_len[b]
        fitted[pos: pos + block_len[b]] = avg
        pos += block_len[b]

    out = np.zeros(p)
    out[order] = np.maximum(fitted, 0.0)
    return np.sign(v) * out


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_slope`.

    ``step_rule`` is "power" (fixed 1/L from a seeded power iteration,
    with a 1.05 safety factor and backtracking as a fallback) or
    "backtracking" (pure adaptive steps).  ``stop_tolerance`` bounds the
    worst optimality violation, relative to 1 + max weight.
    """

    max_iterations: int = 100_000
    step_rule: str = "power"
    stop_tolerance: float = 1e-9
    use_restart: bool = True
    check_every: int = 10
    power_iterations: int = 20
    power_seed: int = 0
    record_objective: bool = False

    def __post_init__(self):
        if self.stop_tolerance <= 0:
            raise ValidationError("stop_tolerance must be positive")
        if self.step_rule not in ("power", "backtracking"):
            raise ValidationError("step_rule must be 'power' or 'backtracking'")


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
    resid = instance.y - instance.X @ beta
    val = 0.5 * float(resid @ resid)
    if instance.ridge:
        val += 0.5 * instance.ridge * float(beta @ beta)
    lam = np.asarray(weights, dtype=float)
    return val + float(np.sort(np.abs(beta)) @ lam)


def _lipschitz_estimate(instance: ProblemInstance, options: SolverOptions) -> float:
    rng = np.random.Generator(np.random.PCG64(options.power_seed))
    v = rng.standard_normal(instance.p)
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(options.power_iterations):
        w = instance.X.T @ (instance.X @ v) + instance.ridge * v
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return instance.ridge if instance.ridge > 0 else 1.0
        v = w / est
    return est


def solve_slope(instance: ProblemInstance, weights,
                options: SolverOptions | None = None,
                beta0=None) -> SolveResult:
    """Solve the sorted-L1 penalized least-squares problem.

    Accelerated proximal gradient with function-value adaptive restart.
    Returns a :class:`SolveResult` whose optimality report has worst
    violation <= stop_tolerance * (1 + max weight).  Raises
    :class:`DidNotConvergeError` (carrying the best iterate) if the
    iteration cap is hit first.  Deterministic given the options.
    """
    options = options or SolverOptions()
    lam = np.asarray(weights, dtype=float)
    if lam.size != instance.p:
        raise ValidationError("weights must have one entry per column of X")
    check_weight_order(lam)

    tol = options.stop_tolerance * (1.0 + float(np.max(lam, initial=0.0)))

    if options.step_rule == "power":
        L = 1.05 * _lipschitz_estimate(instance, options)
    else:
        L = 1.0
    L = max(L, 1e-12)

    x = np.zeros(instance.p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    z = x.copy()
    t = 1.0
    fx = slope_objective(instance, lam, x)
    history = [fx] if options.record_objective else []

    def _smooth(beta):
        resid = instance.y - instance.X @ beta
        val = 0.5 * float(resid @ resid)
        if instance.ridge:
            val += 0.5 * instance.ridge * float(beta @ beta)
        return val

    report = None
    for it in range(1, options.max_iterations + 1):
        g = instance.gradient(z)
        x_new = sorted_l1_prox(z - g / L, lam / L)

        # Lipschitz check; double L on violation (also the pure
        # backtracking path)
        fz = _smooth(z)
        while True:
            diff = x_new - z
            quad = fz + float(g @ diff) + 0.5 * L * float(diff @ diff)
            if _smooth(x_new) <= quad + 1e-12 * (1.0 + abs(quad)):
                break
            L *= 2.0
            x_new = sorted_l1_prox(z - g / L, lam / L)

        f_new = slope_objective(instance, lam, x_new)
        if options.use_restart and f_new > fx + 1e-12 * (1.0 + abs(fx)):
            # momentum overshoot: restart and take the plain proximal
            # gradient step, which contracts toward the optimum even when
            # objective differences are below floating-point resolution
            z = x.copy()
            t = 1.0
            g = instance.gradient(z)
            x_new = sorted_l1_prox(z - g / L, lam / L)
            f_new = slope_objective(instance, lam, x_new)

        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, fx, t = x_new, f_new, t_new
        if options.record_objective:
            history.append(fx)

        if it % options.check_every == 0 or it == options.max_iterations:
            report = check_optimality(x, instance.gradient(x), lam,
                                      tol_eq=tol, tol_ineq=tol,
                                      tie_tol=1e-7 * (1.0 + float(np.max(np.abs(x)))))
            if report.worst_magnitude <= tol:
                return SolveResult(beta=x, report=report, iterations=it,
                                   objective=fx, objective_history=history)

    raise DidNotConvergeError(
        f"no convergence within {options.max_iterations} iterations "
        f"(worst violation {report.worst_magnitude:.3e} > {tol:.3e})",
        beta=x, report=report, iterations=options.max_iterations,
    )

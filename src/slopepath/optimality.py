"""Exact optimality verdicts for sorted-L1 penalized problems.

The check takes the loss gradient as data, so any strongly convex
differentiable loss is covered; the quadratic loss used elsewhere in the
package is just the default gradient source.

Writing gbar for the number of nonzero groups, s for the sign vector
(s_i = -sign(beta_i) on nonzero coordinates, sign of the gradient on
zeroed ones) and o for the within-group ascending order of s_i * grad_i,
the candidate is optimal iff the grouped suffix sums satisfy

    sum_{i=q_g+1}^{q_{g+1}} lam_i  ==  suffix gradient sum   (per nonzero group)
    lam suffix  >=  gradient suffix                          (zero group, all k;
                                                              nonzero groups, k >= 2)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentGroupsError, ValidationError
from .model import GroupStructure, check_weight_order

__all__ = [
    "OptimalityReport",
    "structure_from_beta",
    "signs_and_order",
    "check_optimality",
]


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of an optimality check.

    ``cond1_residuals[g-1]`` is the equality residual of nonzero group g;
    ``slack_margins`` lists (g, k, margin) for the inequality conditions
    (g = 0 with k = 1..p_0, g >= 1 with k = 2..p_g).  ``worst_violation``
    is (condition, g, k, magnitude) for the largest violation, with
    magnitude 0 meaning every condition holds exactly.
    """

    optimal: bool
    cond1_residuals: np.ndarray
    slack_margins: list[tuple[int, int, float]]
    worst_violation: tuple[str, int, int, float]
    tol_eq: float
    tol_ineq: float

    @property
    def worst_magnitude(self) -> float:
        return self.worst_violation[3]


def structure_from_beta(beta, gradient, tol: float) -> GroupStructure:
    """Read the fused-group structure off a coefficient vector.

    Coordinates within ``tol`` of zero form the zero group; the rest are
    chained into shared-value clusters whenever consecutive sorted
    magnitudes differ by at most ``tol``.  Signs and the within-group
    order follow :func:`signs_and_order`; each level is the mean magnitude
    of its cluster.
    """
    beta = np.asarray(beta, dtype=float)
    absb = np.abs(beta)
    zero = np.flatnonzero(absb <= tol)
    nz = np.flatnonzero(absb > tol)
    nz = nz[np.argsort(absb[nz], kind="stable")]
    cuts = [0, *(np.flatnonzero(np.diff(absb[nz]) > tol) + 1).tolist(), nz.size] \
        if nz.size else [0]
    clusters = [nz[a:b] for a, b in zip(cuts, cuts[1:])]
    # chained clusters can spread up to (size-1) * tol
    s, order = signs_and_order(beta, gradient, [zero] + clusters,
                               level_tol=max(1.0, beta.size) * tol)
    offsets = zero.size + np.array(cuts)
    levels = np.add.reduceat(absb[order], offsets[:-1]) / np.diff(offsets)
    return GroupStructure(order=order, offsets=offsets, levels=levels, signs=s)


def signs_and_order(beta, gradient, groups,
                    level_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sign vector and within-group ordering for an optimality check.

    ``groups`` is the ascending-level partition [zero group, G_1, ...].
    Returns (s, order): s_i = -sign(beta_i) on nonzero coordinates and
    sign(gradient_i) on zeroed ones (+1 on exact zero gradient); ``order``
    enumerates each group in ascending s_i * gradient_i, ties broken by
    ascending coordinate index.  ``level_tol`` bounds how far a member's
    |beta_i| may sit from its group's shared value (default
    1e-6 * (1 + max |beta|)).
    """
    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if beta.shape != gradient.shape or beta.ndim != 1:
        raise ValidationError("beta and gradient must be 1-d vectors of equal length")

    if level_tol is None:
        level_tol = 1e-6 * (1.0 + (float(np.max(np.abs(beta))) if beta.size else 0.0))
    _check_group_consistency(beta, groups, level_tol)

    s = np.empty(beta.size)
    zero = np.asarray(groups[0], dtype=int)
    nonzero = np.concatenate([np.asarray(g, dtype=int) for g in groups[1:]]) \
        if len(groups) > 1 else np.empty(0, dtype=int)
    s[nonzero] = -np.sign(beta[nonzero])
    s[zero] = np.where(gradient[zero] >= 0, 1.0, -1.0)

    order_parts = []
    for g in groups:
        g = np.asarray(g, dtype=int)
        key = s[g] * gradient[g]
        order_parts.append(g[np.lexsort((g, key))])
    order = np.concatenate(order_parts) if order_parts else np.empty(0, dtype=int)
    return s, order


def _check_group_consistency(beta, groups, level_tol: float) -> None:
    absb = np.abs(np.asarray(beta, dtype=float))
    seen = np.concatenate([np.asarray(g, dtype=int) for g in groups]) \
        if groups else np.empty(0, dtype=int)
    if np.sort(seen).tolist() != list(range(absb.size)):
        raise InconsistentGroupsError("groups do not partition the coordinates")
    for gi, g in enumerate(groups):
        g = np.asarray(g, dtype=int)
        if gi == 0:
            if g.size and absb[g].max() > level_tol:
                raise InconsistentGroupsError("zero group contains nonzero coefficients")
            continue
        if g.size == 0:
            raise InconsistentGroupsError(f"nonzero group {gi} is empty")
        if absb[g].max() - absb[g].min() > level_tol:
            raise InconsistentGroupsError(
                f"group {gi} spans unequal absolute values"
            )


def check_optimality(beta, gradient, weights, tol_eq: float | None = None,
                     tol_ineq: float | None = None,
                     tie_tol: float | None = None) -> OptimalityReport:
    """Verdict on whether ``beta`` minimizes loss + sorted-L1 penalty.

    Parameters
    ----------
    beta, gradient : array
        Candidate point and the loss gradient evaluated there.
    weights : array
        Ascending nonnegative penalty weights.
    tol_eq, tol_ineq : float, optional
        Slack for the equality and inequality conditions; default
        1e-8 * (1 + max weight).
    tie_tol : float, optional
        Absolute-value tolerance used to read the fused groups off
        ``beta``; default 1e-8 * (1 + max |beta|).
    """
    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != beta.shape:
        raise ValidationError("weights must match beta in length")
    check_weight_order(lam)

    scale_l = 1.0 + (float(np.max(lam)) if lam.size else 0.0)
    if tol_eq is None:
        tol_eq = 1e-8 * scale_l
    if tol_ineq is None:
        tol_ineq = 1e-8 * scale_l
    if tie_tol is None:
        scale_b = 1.0 + (float(np.max(np.abs(beta))) if beta.size else 0.0)
        tie_tol = 1e-8 * scale_b

    structure = structure_from_beta(beta, gradient, tie_tol)
    sgrad = structure.signs[structure.order] * gradient[structure.order]
    # group boundaries in position space: zero group first, then ascending
    bounds = np.concatenate(([0], structure.offsets))

    cond1 = []
    margins: list[tuple[int, int, float]] = []
    worst = ("none", 0, 0, 0.0)

    def _consider(cond: str, g: int, k: int, violation: float):
        nonlocal worst
        if violation > worst[3]:
            worst = (cond, g, k, violation)

    for g in range(bounds.size - 1):
        a, b = int(bounds[g]), int(bounds[g + 1])
        if a == b:
            continue
        grad_suffix = np.cumsum(sgrad[a:b][::-1])[::-1]
        lam_suffix = np.cumsum(lam[a:b][::-1])[::-1]
        if g == 0:
            for k in range(b - a):
                margin = float(lam_suffix[k] - grad_suffix[k])
                margins.append((0, k + 1, margin))
                _consider("cond2", 0, k + 1, max(0.0, -margin))
        else:
            residual = float(lam_suffix[0] - grad_suffix[0])
            cond1.append(residual)
            _consider("cond1", g, 1, abs(residual))
            for k in range(1, b - a):
                margin = float(lam_suffix[k] - grad_suffix[k])
                margins.append((g, k + 1, margin))
                _consider("cond3", g, k + 1, max(0.0, -margin))

    cond1_arr = np.asarray(cond1, dtype=float)
    ok_eq = bool(np.all(np.abs(cond1_arr) <= tol_eq)) if cond1_arr.size else True
    ok_ineq = all(m >= -tol_ineq for _, _, m in margins)
    return OptimalityReport(
        optimal=ok_eq and ok_ineq,
        cond1_residuals=cond1_arr,
        slack_margins=margins,
        worst_violation=worst,
        tol_eq=tol_eq,
        tol_ineq=tol_ineq,
    )

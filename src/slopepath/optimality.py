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

The check works on whole arrays; a check costs about 150 us at p = 20,
250 us at p = 100 and 1.4 ms at p = 1000 (medians, 2-core Xeon VM).
"""

from __future__ import annotations

import bisect
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
    beta, gradient = _vectors(beta, gradient)
    absb = np.abs(beta)
    zero = (absb <= tol).nonzero()[0]
    # a NaN magnitude lands in neither set, so the partition test rejects it
    nz = (absb > tol).nonzero()[0]
    nz = nz[absb[nz].argsort(kind="stable")]
    a = absb[nz]
    cuts = ((a[1:] - a[:-1]) > tol).nonzero()[0] + 1
    offsets = zero.size + np.concatenate(([0], cuts, [nz.size])) if nz.size \
        else np.array([zero.size])
    # chained clusters can spread up to (size-1) * tol
    s, order = _signs_and_order(beta, gradient, np.concatenate((zero, nz)),
                                np.concatenate(([0], offsets)),
                                max(1.0, beta.size) * tol)
    levels = np.add.reduceat(absb[order], offsets[:-1]) / (offsets[1:] - offsets[:-1])
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
    beta, gradient = _vectors(beta, gradient)
    if level_tol is None:
        level_tol = 1e-6 * (1.0 + (float(np.abs(beta).max()) if beta.size else 0.0))
    parts = [np.asarray(g, dtype=int) for g in groups]
    members = np.concatenate(parts) if parts else np.empty(0, dtype=int)
    return _signs_and_order(beta, gradient, members,
                            np.cumsum([0] + [g.size for g in parts]), level_tol)


def _vectors(beta, gradient) -> tuple[np.ndarray, np.ndarray]:
    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if beta.shape != gradient.shape or beta.ndim != 1:
        raise ValidationError("beta and gradient must be 1-d vectors of equal length")
    return beta, gradient


def _signs_and_order(beta, gradient, members, bounds,
                     level_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`signs_and_order` for the groups members[bounds[j]:bounds[j+1]],
    checked as a whole: one partition test, then every group's spread of
    |beta| from ``np.maximum.reduceat`` and ``np.minimum.reduceat``."""
    p = beta.size
    if members.size != p or (np.sort(members) != np.arange(p)).any():
        raise InconsistentGroupsError("groups do not partition the coordinates")
    absb = np.abs(beta)
    zero, nonzero = members[:bounds[1]], members[bounds[1]:]
    if zero.size and absb[zero].max() > level_tol:
        raise InconsistentGroupsError("zero group contains nonzero coefficients")
    sizes = bounds[1:] - bounds[:-1]
    bad = sizes[1:] == 0
    if nonzero.size:
        starts = bounds[1:-1][~bad] - bounds[1]
        a = absb[nonzero]
        bad[~bad] = np.maximum.reduceat(a, starts) - np.minimum.reduceat(a, starts) > level_tol
    if bad.any():
        g = int(bad.argmax()) + 1
        raise InconsistentGroupsError(f"nonzero group {g} is empty" if sizes[g] == 0
                                      else f"group {g} spans unequal absolute values")

    s = -np.sign(beta)
    s[zero] = np.where(gradient[zero] >= 0, 1.0, -1.0)
    group = np.repeat(np.arange(sizes.size), sizes)
    return s, members[np.lexsort((members, s[members] * gradient[members], group))]


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

    scale_l = 1.0 + (float(lam.max()) if lam.size else 0.0)
    if tol_eq is None:
        tol_eq = 1e-8 * scale_l
    if tol_ineq is None:
        tol_ineq = 1e-8 * scale_l
    if tie_tol is None:
        scale_b = 1.0 + (float(np.abs(beta).max()) if beta.size else 0.0)
        tie_tol = 1e-8 * scale_b

    structure = structure_from_beta(beta, gradient, tie_tol)
    o, eq = structure.order, structure.offsets[:-1]
    # group bounds in position space: zero group first, then ascending; the
    # first suffix of a nonzero group is its equality, every other suffix
    # an inequality margin
    bounds = [0, *structure.offsets.tolist()]
    margin = _suffix_sums(lam.tolist(), bounds) \
        - _suffix_sums((structure.signs[o] * gradient[o]).tolist(), bounds)
    cond1 = margin[eq]
    ineq = np.ones(margin.size, dtype=bool)
    ineq[eq] = False
    violation = np.maximum(-margin, 0.0)
    violation[eq] = np.abs(cond1)
    violation[np.isnan(violation)] = 0.0

    # the first strict worst, in position order
    worst = ("none", 0, 0, 0.0)
    w = int(violation.argmax()) if violation.size else 0
    if violation.size and violation[w] > 0.0:
        g = bisect.bisect_right(bounds, w) - 1
        k = w - bounds[g] + 1
        worst = ("cond2" if g == 0 else "cond1" if k == 1 else "cond3",
                 g, k, float(violation[w]))
    m = margin.tolist()
    return OptimalityReport(
        optimal=bool((np.abs(cond1) <= tol_eq).all())
        and bool((margin[ineq] >= -tol_ineq).all()),
        cond1_residuals=cond1,
        slack_margins=[(g, i - a + 1, m[i])
                       for g, (a, b) in enumerate(zip(bounds, bounds[1:]))
                       for i in range(a + (g > 0), b)],
        worst_violation=worst,
        tol_eq=tol_eq,
        tol_ineq=tol_ineq,
    )


def _suffix_sums(values: list[float], bounds: list[int]) -> np.ndarray:
    """Suffix sums within each slice [bounds[j], bounds[j+1]), added right
    to left in the order ``np.cumsum(v[a:b][::-1])[::-1]`` adds them."""
    for a, b in zip(bounds, bounds[1:]):
        for i in range(b - 2, a - 1, -1):
            values[i] = values[i + 1] + values[i]
    return np.array(values)

"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they validate: the
proximal operator is checked against exhaustive enumeration, solutions
against dense grid refinement, and quantiles against scipy.
"""

import numpy as np
import pytest
from hypothesis import settings

from slopepath import ProblemInstance, validate_ray

# Property tests draw the same examples on every run (derandomize, no
# example database) and are never timed out, so a slow machine cannot
# turn them into flakes.
settings.register_profile("slopepath", derandomize=True, database=None,
                          deadline=None, max_examples=150)
settings.load_profile("slopepath")


@pytest.fixture
def t2_instance():
    """2x2 identity design with y = (3, 1); the canonical worked example."""
    return ProblemInstance(y=np.array([3.0, 1.0]), X=np.eye(2))


@pytest.fixture
def t2_ray():
    return validate_ray(np.zeros(2), np.array([0.0, 1.0]))


def prox_bruteforce(v, lam_asc):
    """Exact sorted-L1 prox by enumerating sign patterns and consecutive
    partitions in the magnitude-sorted frame, evaluating the true
    objective for every candidate."""
    v = np.asarray(v, dtype=float)
    lam_asc = np.asarray(lam_asc, dtype=float)
    p = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    vs = v[order]
    lam_desc = lam_asc[::-1]

    sign_rows = np.array(np.meshgrid(*([[-1.0, 1.0]] * p), indexing="ij")
                         ).reshape(p, -1).T  # (2^p, p)
    best_obj = np.inf
    best = None
    for mask in range(1 << (p - 1)):
        bounds = [0] + [i + 1 for i in range(p - 1) if (mask >> i) & 1] + [p]
        starts = np.array(bounds[:-1])
        lengths = np.diff(bounds).astype(float)
        lam_blocks = np.add.reduceat(lam_desc, starts)
        sv_blocks = np.add.reduceat(sign_rows * vs, starts, axis=1)
        t = np.maximum((sv_blocks - lam_blocks) / lengths, 0.0)
        B = sign_rows * np.repeat(t, np.diff(bounds), axis=1)
        obj = 0.5 * np.sum((B - vs) ** 2, axis=1) + np.sort(np.abs(B), axis=1) @ lam_asc
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj = float(obj[i])
            best = B[i].copy()
    out = np.empty(p)
    out[order] = best
    return out


def grid_minimize(X, y, lam_asc, ridge=0.0, pts=11, target_step=1e-5):
    """Global minimizer of the penalized least squares by box refinement.

    Convexity keeps the refinement honest; the final grid step bounds the
    per-coordinate error.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam_asc, dtype=float)
    p = X.shape[1]
    G = X.T @ X + ridge * np.eye(p)
    Xty = X.T @ y
    yty = float(y @ y)
    center = np.linalg.solve(G, Xty)
    halfwidth = 1.0 + 2.0 * float(np.max(np.abs(center))) + 2.0 * float(lam.max())

    axes = [np.linspace(-1.0, 1.0, pts)] * p
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
    step = 2.0 * halfwidth / (pts - 1)
    while True:
        B = center + halfwidth * offsets
        quad = 0.5 * np.einsum("ij,jk,ik->i", B, G, B) - B @ Xty + 0.5 * yty
        pen = np.sort(np.abs(B), axis=1) @ lam
        center = B[int(np.argmin(quad + pen))]
        if step <= target_step:
            return center
        halfwidth = 2.4 * step
        step = 2.0 * halfwidth / (pts - 1)


def random_ascending_weights(rng, p, scale=1.0):
    """Random nonnegative ascending weight vector with a positive top."""
    lam = np.sort(rng.uniform(0.0, scale, size=p))
    lam[-1] = max(lam[-1], 1e-3 * scale)
    return lam


def slope_objective_direct(X, y, lam_asc, beta, ridge=0.0):
    resid = y - X @ beta
    val = 0.5 * float(resid @ resid) + 0.5 * ridge * float(beta @ beta)
    return val + float(np.sort(np.abs(beta)) @ np.asarray(lam_asc))

"""Breakpoints of small integer designs against exact rational arithmetic.

Integer X, y and lam_bar and the ridges 0.25 and 0.5 are exact as
fractions.  Before each step the engine is stopped and its structure
(``order``, ``starts``, ``s``) read off.  From that structure alone the
levels A^-1 (S^T X^T y - lamG(eta)), the gradient and every candidate of
the four event families are formed in :class:`fractions.Fraction`.  All
of them are affine in eta, so each candidate's root is exact.  The event
the engine fires must sit at its exact root, and no candidate may have an
exact root earlier than the fired one's by more than the tie window.  A
candidate that is identically zero has every eta as a root.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings

from slopepath import EngineState, PathOptions, validate_ray

from test_engine import _DECISION_CASES, _integer_case, _integer_paths


def _solve(A, B):
    """A^-1 B for a square list-of-lists A and a list of row pairs B, by
    Gauss-Jordan elimination in fractions."""
    m = len(A)
    M = [list(A[r]) + list(B[r]) for r in range(m)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for r in range(m):
            if r != c and M[r][c] != 0:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [tuple(row[m:]) for row in M]


def _add(*pairs):
    return tuple(sum(column, Fraction(0)) for column in zip(*pairs))


def _scale(c, pair):
    return (c * pair[0], c * pair[1])


def _exact_candidates(inst, ray, order, starts, signs):
    """{(kind, index): (value at eta = 0, eta-rate)} of every candidate the
    engine times under the structure (order, starts, signs), indexed as
    :meth:`EngineState.next_event` reports them."""
    X = [[Fraction(v) for v in row] for row in inst.X]
    y = [Fraction(v) for v in inst.y]
    ridge = Fraction(inst.ridge)
    lam = [(Fraction(a), Fraction(b)) for a, b in zip(ray.lam0, ray.lam_bar)]
    s = [Fraction(v) for v in signs]
    n, p = len(X), len(X[0])
    order, starts = [int(i) for i in order], [int(b) for b in starts]
    G = [[sum(X[r][i] * X[r][k] for r in range(n)) for k in range(p)] for i in range(p)]
    Xty = [sum(X[r][i] * y[r] for r in range(n)) for i in range(p)]

    m = len(starts) - 1
    groups = [order[starts[j]:starts[j + 1]] for j in range(m)]
    A = [[sum(s[i] * s[k] * G[i][k] for i in gi for k in gl) + (ridge * len(gi) if j == l else 0)
          for l, gl in enumerate(groups)] for j, gi in enumerate(groups)]
    rhs = [_add((-sum(s[i] * Xty[i] for i in gi), Fraction(0)),
                _scale(-1, _add(*lam[starts[j]:starts[j + 1]])))
           for j, gi in enumerate(groups)]
    levels = _solve(A, rhs) if m else []

    zero = (Fraction(0), Fraction(0))
    beta = [zero] * p
    for j, gi in enumerate(groups):
        for i in gi:
            beta[i] = _scale(-s[i], levels[j])
    grad = [_add(*(_scale(G[i][k], beta[k]) for k in range(p)), _scale(ridge, beta[i]),
                 (-Xty[i], Fraction(0))) for i in range(p)]
    # the gradient signed by the stored convention, position by position
    sg = [_scale(s[i], grad[i]) for i in order]
    end = [starts[0]] * starts[0] + [starts[j + 1] for j in range(m) for _ in groups[j]]

    cands = {}
    for j in range(m):
        cands["fuse", j] = _add(levels[j], _scale(-1, levels[j - 1])) if j else levels[j]
    for k in range(p - 1):
        if end[k] == end[k + 1]:
            cands["switch_order", k] = _add(sg[k + 1], _scale(-1, sg[k]))
    for q in range(p):
        if q not in starts[:-1]:
            cands["split", q] = _add(*lam[q:end[q]], *(_scale(-1, v) for v in sg[q:end[q]]))
    if starts[0]:
        cands["switch_sign", 0] = sg[0]
    return cands


def _root(pair):
    """The eta at which value + eta * rate reaches zero from above, or None."""
    value, rate = pair
    return -value / rate if rate < 0 else None


def _check_exact_breakpoints(inst, ray):
    """Step the engine by hand and hold each event to the exact roots of
    the structure it fired from; return the number of events."""
    options = PathOptions()
    state = EngineState(inst, ray, options)
    cap = 50 * inst.p * inst.p
    for _ in range(cap):
        t, kind, idx = state.next_event()
        cands = _exact_candidates(inst, ray, state.order, state.starts, state.s)
        roots = {key: r for key, r in ((key, _root(c)) for key, c in cands.items())
                 if r is not None}
        label = f"{kind} {idx} at eta={t!r} (event {state.n_events})"
        if math.isinf(t):
            assert not roots, f"no event fired, yet exact roots remain: {roots}"
            return state.n_events
        # an event time the snap rule moved to now is off by up to timing_clamp
        slack = options.timing_clamp if t == state.eta else 0.0
        if cands[kind, idx] == (0, 0):
            # identically zero, so every eta is a root: a split whose margin
            # stays at zero (tied weights) and the fuse of its two groups,
            # whose levels stay equal, fire when rounding alone says so and
            # leave beta as it was
            exact = Fraction(t)
        else:
            exact = roots.get((kind, idx))
            assert exact is not None, f"{label}: the exact candidate has no root"
            bound = 1e-12 * max(1.0, abs(float(exact))) + slack
            assert abs(t - float(exact)) <= bound, \
                f"{label}: exact root {float(exact)!r}, off by {abs(t - float(exact)):.3e}"
        window = Fraction(options.tie_rtol * max(1.0, abs(float(exact))) + slack)
        early = {key: float(r) for key, r in roots.items() if r < exact - window}
        assert not early, f"{label}: exact roots earlier than the fired one: {early}"
        state.step(t, kind, idx)
    raise AssertionError(f"event cap {cap} reached")


class TestExactBreakpoints:
    def test_decision_cases(self):
        for name, case in sorted(_DECISION_CASES.items()):
            assert _check_exact_breakpoints(*_integer_case(*case)) > 0, name

    @settings(max_examples=30)
    @given(_integer_paths())
    def test_integer_designs(self, case):
        inst, lam_bar, _ = case
        _check_exact_breakpoints(inst, validate_ray(np.zeros(lam_bar.size), lam_bar))

"""Exact piecewise-linear solution paths for sorted-L1 penalized least squares.

The engine maintains the fused-group structure of the solution while the
weights move along a ray lam(eta) = lam0 + eta * lam_bar.  With S the
signed membership matrix of the nonzero groups (column j holds -s_i for
each member i of group j) and XG = X S, the grouped values are affine in
eta within one structure:

    levels(eta) = Ainv (S^T X^T y - lamG(eta)),   d levels / d eta = -Ainv lamG_bar

where Ainv is the cached inverse of A = XG^T XG plus the ridge-size
diagonal.  The gradient terms c = X^T y - G beta and d = G slope come from
G = X^T X and X^T y, formed once per run, read on the nonzero coordinates
only (O(p * nnz) per refresh).  XG is never held: a group entering A
borders it with the cross products of its column x_k = X S_k (O(n p) per
insert), and the from-scratch oracle (:func:`grouped_design`,
:func:`segment_solution`, :meth:`EngineState.scratch_check`) builds XG
from X to check the cached inverse.  Three event families end a
segment: adjacent group values colliding (fuse, including a group hitting
zero), a grouped inequality margin reaching zero (split, including
activations out of the zero group), and the within-group gradient order
or the leading zero-coordinate gradient sign changing (switches).  Event
times are kept as absolute eta values so switch events only touch the few
entries they invalidate; each family has one timing formula, evaluated on
every position by ``refresh`` and on the invalidated ones by the switch
updates.  The structure is read off the starting point by
:func:`structure_from_beta`, the same reader the optimality check uses, and
the grouped Gram is built from scratch in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IterationCapError,
    NegativeTimingError,
    NumericalError,
    StructureInvariantBrokenError,
    ValidationError,
)
from .model import (
    GroupStructure,
    PathEvent,
    PathSegment,
    ProblemInstance,
    SolutionPath,
    WeightRay,
    eval_path,
    instance_hash,
    scatter_groups,
    validate_instance,
    validate_ray,
)
from .optimality import structure_from_beta
from .prox import SolverOptions, solve_slope

__all__ = [
    "PathOptions",
    "EngineState",
    "grouped_design",
    "segment_solution",
    "structure_from_beta",
    "next_fuse_times",
    "next_split_times",
    "next_switch_times",
    "apply_event",
    "run_path",
    "eval_path",
]


@dataclass(frozen=True)
class PathOptions:
    """Tuning knobs for a path run.

    ``iteration_cap`` defaults to 50 p^2 events, a safety net against
    cycling rather than a truncation.  ``validate_every`` > 0 checks the
    cached Gram inverse against a from-scratch inversion every K events
    and records the relative error in the path diagnostics;
    ``check_invariants`` additionally asserts that check after every
    structural event (debug mode).  ``negative_margin_rtol`` is how far a
    quantity that must stay nonnegative (a suffix margin, or the gradient
    gap between within-group neighbours) may sit below zero, relative to
    its scale, before the state is declared broken.  ``solver`` configures
    the initializer used when the ray starts at nonzero weights.
    """

    iteration_cap: int | None = None
    validate_every: int = 0
    timing_clamp: float = 1e-10
    tie_rtol: float = 1e-12
    negative_margin_rtol: float = 1e-7
    group_tol_scale: float = 1e-7
    probe_tol: float = 1e-6
    solver: SolverOptions = field(default_factory=SolverOptions)
    check_invariants: bool = False


def _group_ydot(Xty: np.ndarray, signs: np.ndarray, members: np.ndarray) -> float:
    return float(-(signs[members] * Xty[members]).sum())


def _group_column(X: np.ndarray, signs: np.ndarray, members: np.ndarray) -> np.ndarray:
    return -(X[:, members] * signs[members]).sum(axis=1)


def grouped_design(structure: GroupStructure, X: np.ndarray) -> np.ndarray:
    """Signed grouped columns, one per nonzero group.

    Column j is sum_{i in G_j} sign(beta_i) x_i; for the stored sign
    convention that is -sum s_i x_i.  The zero group contributes nothing.
    """
    X = np.asarray(X, dtype=float)
    cols = [_group_column(X, structure.signs, g) for g in structure.groups()[1:]]
    return np.column_stack(cols) if cols else np.zeros((X.shape[0], 0))


def _grouped_system(structure: GroupStructure, X: np.ndarray, Xty: np.ndarray,
                    ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch (XG^T y, A) with A = XG^T XG + ridge * diag(sizes)."""
    XG = grouped_design(structure, X)
    XGty = np.array([_group_ydot(Xty, structure.signs, g) for g in structure.groups()[1:]])
    return XGty, XG.T @ XG + ridge * np.diag(structure.group_sizes().astype(float))


def _grouped_weight_sums(cum0: np.ndarray, cumbar: np.ndarray,
                         offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group sums of lam0 and lam_bar from their prefix sums."""
    lo, hi = offsets[:-1], offsets[1:]
    return cum0[hi] - cum0[lo], cumbar[hi] - cumbar[lo]


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(v)))


def segment_solution(structure: GroupStructure, instance: ProblemInstance,
                     ray: WeightRay, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Grouped values and their eta-slope for a fixed structure.

    Solves the stationarity system of the reduced problem:
    levels = Ainv (XG^T y - lamG(eta)) and slope = -Ainv lamG_bar with
    A = XG^T XG + ridge * diag(group sizes).
    """
    XGty, A = _grouped_system(structure, instance.X, instance.X.T @ instance.y,
                              instance.ridge)
    lam0g, lambarg = _grouped_weight_sums(_prefix_sums(ray.lam0),
                                          _prefix_sums(ray.lam_bar), structure.offsets)
    if not A.size:
        return np.zeros(0), np.zeros(0)
    return np.linalg.solve(A, XGty - lam0g - eta * lambarg), -np.linalg.solve(A, lambarg)


# --- incremental symmetric inverse updates --------------------------------


def _inv_delete(B: np.ndarray, j: int) -> np.ndarray:
    return _sym_delete(B - np.outer(B[:, j], B[j]) / B[j, j], j)


def _sym_delete(M: np.ndarray, j: int) -> np.ndarray:
    """M without row and column ``j``, gathered by slices."""
    m = M.shape[0]
    out = np.empty((m - 1, m - 1))
    out[:j, :j] = M[:j, :j]
    out[:j, j:] = M[:j, j + 1:]
    out[j:, :j] = M[j + 1:, :j]
    out[j:, j:] = M[j + 1:, j + 1:]
    return out


def _sym_insert(M: np.ndarray, a: np.ndarray, alpha: float, at: int) -> np.ndarray:
    """Symmetric border [[M, a], [a^T, alpha]] with the new index moved to
    position ``at``."""
    m = M.shape[0]
    out = np.empty((m + 1, m + 1))
    out[:at, :at] = M[:at, :at]
    out[:at, at + 1:] = M[:at, at:]
    out[at + 1:, :at] = M[at:, :at]
    out[at + 1:, at + 1:] = M[at:, at:]
    out[at, :at] = out[:at, at] = a[:at]
    out[at, at + 1:] = out[at + 1:, at] = a[at:]
    out[at, at] = alpha
    return out


# --- the engine state ------------------------------------------------------


class EngineState:
    """Mutable state of one path run, held in Gram form.

    Positions are 0-based: the zero group occupies positions
    [0, starts[0]) of ``order`` and nonzero group j (ascending level)
    occupies [starts[j], starts[j+1]).  All event times are absolute eta
    values; ``inf`` marks an event that cannot happen under the current
    structure.

    ``G`` = X^T X (p x p, without the ridge) and ``Xty`` = X^T y are formed
    once by ``run_path`` (see :func:`gram_data`).  ``refresh`` takes the
    gradient terms c = Xty - G beta and d = G slope from them; a bordered
    insert takes its cross products from X and the entering group's
    column.  ``A``/``Ainv`` are the grouped Gram XG^T XG + ridge *
    diag(sizes) and its cached inverse, and ``XGty`` = S^T Xty.
    """

    def __init__(self, instance: ProblemInstance, ray: WeightRay,
                 beta0: np.ndarray, options: PathOptions,
                 G: np.ndarray, Xty: np.ndarray):
        self.instance = instance
        self.ray = ray
        self.options = options
        self.X = instance.X
        self.ridge = instance.ridge
        self.p = instance.p
        self.G = G
        self.Xty = Xty
        self.min_schur_ratio: float | None = None
        self.cum0 = _prefix_sums(ray.lam0)
        self.cumbar = _prefix_sums(ray.lam_bar)

        self.eta = 0.0
        tol = options.group_tol_scale * (1.0 + float(np.max(np.abs(beta0), initial=0.0)))
        structure = structure_from_beta(beta0, instance.gradient(beta0), tol)
        self.order, self.starts, self.s = structure.order, structure.offsets, structure.signs
        self.XGty, self.A = _grouped_system(structure, instance.X, self.Xty, self.ridge)
        self.Ainv = np.linalg.inv(self.A) if self.n_groups else np.zeros((0, 0))

        # event bookkeeping
        self.n_events = 0
        self.n_fuse = 0
        self.n_split = 0
        self.n_switch = 0
        self.n_sign_switch = 0
        self.fallbacks = 0
        self.gram_checks: list[tuple[int, float]] = []
        self._suppress: dict = {}

        self.refresh()

    # -- basic derived quantities --

    @property
    def n_groups(self) -> int:
        return self.starts.size - 1

    @property
    def zero_count(self) -> int:
        return int(self.starts[0])

    @property
    def nnz(self) -> int:
        return self.p - self.zero_count

    def group_of_position(self, pos: int) -> int:
        """Nonzero group index for a position, -1 for the zero group."""
        if pos < self.starts[0]:
            return -1
        return int(np.searchsorted(self.starts, pos, side="right")) - 1

    def slice_of_group(self, j: int) -> tuple[int, int]:
        if j < 0:
            return 0, int(self.starts[0])
        return int(self.starts[j]), int(self.starts[j + 1])

    def split_label(self, pos: int) -> tuple[int, int]:
        """Grouped (g, k) label of the split at suffix position ``pos``."""
        j = self.group_of_position(pos)
        return j + 1, pos - self.slice_of_group(j)[0] + 1

    def to_structure(self) -> GroupStructure:
        return GroupStructure(
            order=self.order.copy(),
            offsets=self.starts.copy(),
            levels=self.levels.copy(),
            signs=self.s.copy(),
        )

    def scatter_beta(self) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.levels)

    def scatter_slope(self) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.slopeG)

    # -- linear algebra maintenance --

    def _probe_inverse(self) -> None:
        m = self.n_groups
        if m == 0:
            return
        j = self.n_events % m
        resid = self.A @ self.Ainv[:, j]
        resid[j] -= 1.0
        if float(np.max(np.abs(resid))) > self.options.probe_tol:
            self.Ainv = np.linalg.inv(self.A)
            self.fallbacks += 1

    def _delete_group_algebra(self, j: int) -> None:
        self.XGty = np.delete(self.XGty, j)
        self.Ainv = _inv_delete(self.Ainv, j) if self.A.shape[0] > 1 else np.zeros((0, 0))
        self.A = _sym_delete(self.A, j)

    def _insert_group_algebra(self, k: int, absent: int = 1) -> None:
        """Border A and Ainv with nonzero group k of ``starts``, at index k.

        A must hold every group of ``starts`` except k .. k + absent - 1
        (a split inserts its two halves one at a time), so its columns are
        not those of the old structure: ``starts`` is updated first.  The
        cross products are the grouped rows of w = X^T x_k, x_k being the
        group's column.  They set the rounding of Ainv, and taken from G
        they move an ill-conditioned breakpoint of a stored benchmark path
        (perfbench path-tall, slot 0) by 2.3e-9 relative, past the 1e-9
        the references are held to."""
        starts = self.starts
        members = self.order[starts[k]:starts[k + 1]]
        col = _group_column(self.X, self.s, members)
        w = self.X.T @ col
        sums = np.add.reduceat(-self.s[self.order] * w[self.order], starts[:-1])
        alpha = float(col @ col) + self.ridge * members.size
        a = np.delete(sums, slice(k, k + absent))
        v = self.Ainv @ a
        schur = alpha - float(a @ v)
        ratio = schur / alpha
        if self.min_schur_ratio is None or ratio < self.min_schur_ratio:
            self.min_schur_ratio = ratio
        self.A = _sym_insert(self.A, a, alpha, k)
        if schur > 0:
            self.Ainv = _sym_insert(self.Ainv + np.outer(v, v) / schur,
                                    -v / schur, 1.0 / schur, k)
        else:
            self.Ainv = np.linalg.inv(self.A)
            self.fallbacks += 1
        self.XGty = np.insert(self.XGty, k, _group_ydot(self.Xty, self.s, members))

    def _gram_times(self, grouped: np.ndarray) -> np.ndarray:
        """G times the coefficient-space vector of each column of
        ``grouped`` (one value per nonzero group), reading G only on the
        nonzero coordinates: O(p * nnz) per column."""
        nz = self.order[self.zero_count:]
        coef = -self.s[nz, None] * np.repeat(grouped, np.diff(self.starts), axis=0)
        return self.G[nz].T @ coef

    def scratch_check(self) -> float:
        """Relative Frobenius error of the cached inverse against a fresh
        rebuild of the grouped Gram from the raw design."""
        if self.n_groups == 0:
            return 0.0
        _, A = _grouped_system(self.to_structure(), self.X, self.Xty, self.ridge)
        fresh = np.linalg.inv(A)
        denom = float(np.linalg.norm(fresh))
        return float(np.linalg.norm(self.Ainv - fresh)) / max(denom, 1e-300)

    # -- full refresh: closed-form state and every event timing --

    def refresh(self) -> None:
        m = self.n_groups
        lam0g, lambarg = _grouped_weight_sums(self.cum0, self.cumbar, self.starts)
        if m:
            self.levels = self.Ainv @ (self.XGty - lam0g - self.eta * lambarg)
            self.slopeG = -(self.Ainv @ lambarg)
        else:
            self.levels = np.zeros(0)
            self.slopeG = np.zeros(0)

        level_tol = 1e-9 * (1.0 + float(np.max(self.levels, initial=0.0)))
        if m and (self.levels[0] < -level_tol or np.any(np.diff(self.levels) < -level_tol)):
            raise StructureInvariantBrokenError(
                f"group values not strictly ordered at eta={self.eta!r}: {self.levels}"
            )

        o = self.order
        cd = self._gram_times(np.column_stack((self.levels, self.slopeG)))
        c = self.Xty - cd[:, 0]
        d = cd[:, 1]

        so = self.s[o]
        sizes = np.diff(np.concatenate(([0], self.starts)))
        level_pos = np.repeat(np.concatenate(([0.0], self.levels)), sizes)
        slope_pos = np.repeat(np.concatenate(([0.0], self.slopeG)), sizes)

        # the ridge enters here only: G is the plain X^T X
        self.sgrad_val = -so * c[o] - self.ridge * level_pos
        self.sgrad_rate = so * d[o] - self.ridge * slope_pos

        self.eta_ref = self.eta
        ends = self._slice_end = np.repeat(self.starts, sizes)
        # position constants until the next structural event: which pairs
        # share a group, which suffixes are margins (one starting a nonzero
        # group is its equality), and the weight suffix sums at eta_ref
        self._same_group = ends[:-1] == ends[1:]
        self._split_ok = np.ones(self.p, dtype=bool)
        self._split_ok[self.starts[:-1]] = False
        self._lam_suf_rate = self.cumbar[ends] - self.cumbar[:-1]
        self._lam_suf_ref = (self.cum0[ends] - self.cum0[:-1]) \
            + self.eta_ref * self._lam_suf_rate
        self.suf_val = _suffix_within(self.sgrad_val, ends)
        self.suf_rate = _suffix_within(self.sgrad_rate, ends)

        self._order_check()
        self._mscale = self._margin_scale()
        self._recompute_all_times()
        self._apply_suppressions()

        if self.options.check_invariants:
            err = self.scratch_check()
            if err > 1e-8:
                raise StructureInvariantBrokenError(
                    f"cached inverse off by {err:.3e} at eta={self.eta!r}"
                )

    def _order_check(self) -> None:
        grad_scale = 1.0 + float(np.max(np.abs(self.sgrad_val), initial=0.0))
        tol = self.options.negative_margin_rtol * grad_scale
        bad = self._same_group & (self.sgrad_val[1:] - self.sgrad_val[:-1] < -tol)
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            raise StructureInvariantBrokenError(
                f"within-group gradient order violated at positions {k},{k + 1} "
                f"(eta={self.eta!r})"
            )

    # -- event times --

    def _margin_scale(self) -> float:
        lam_now = float(self.cum0[-1] + abs(self.eta) * np.max(np.abs(self.cumbar)))
        grad = float(np.max(np.abs(self.sgrad_val), initial=0.0))
        return 1.0 + lam_now + grad

    def _time_to_zero(self, value: np.ndarray, rate: np.ndarray) -> np.ndarray:
        """Absolute time at which ``value + (t - eta) * rate`` reaches zero:
        inf unless the rate is negative; a negative value (already past
        zero) and waits up to ``timing_clamp`` snap to now."""
        dt = np.full(value.shape, math.inf)
        np.divide(value, -rate, out=dt, where=rate < 0)
        dt[dt <= self.options.timing_clamp] = 0.0
        dt += self.eta
        return dt

    def _recompute_all_times(self) -> None:
        # fuse: group j colliding with the level below it; the ordering
        # check in refresh() already bounds how negative a gap can be, so
        # event-instant ties are simply clipped to zero here
        self.fuse_t = self._time_to_zero(
            self.levels - np.concatenate(([0.0], self.levels[:-1])),
            self.slopeG - np.concatenate(([0.0], self.slopeG[:-1])))
        self.split_t = self._split_times(0, self.p)
        self.switch_t = self._switch_times(0, max(self.p - 1, 0))
        self.sign_t = self._sign_time()

    def _split_times(self, lo: int, hi: int) -> np.ndarray:
        """Times at which the suffix margins at positions [lo, hi) hit zero."""
        m_rate = self._lam_suf_rate[lo:hi] - self.suf_rate[lo:hi]
        m_now = (self._lam_suf_ref[lo:hi] - self.suf_val[lo:hi]) \
            + (self.eta - self.eta_ref) * m_rate
        ok = self._split_ok[lo:hi]
        bad = ok & (m_now < -self.options.negative_margin_rtol * self._mscale)
        if bad.any():
            worst = lo + int(np.flatnonzero(bad)[np.argmin(m_now[bad])])
            raise NegativeTimingError(
                f"optimality margin {m_now[worst - lo]:.3e} already violated at "
                f"eta={self.eta!r} (suffix position {worst})"
            )
        return np.where(ok, self._time_to_zero(m_now, m_rate), math.inf)

    def _switch_times(self, lo: int, hi: int) -> np.ndarray:
        """Times at which the adjacent pairs (k, k+1), k in [lo, hi), of one
        group swap their gradient order."""
        val, rate_all = self.sgrad_val[lo:hi + 1], self.sgrad_rate[lo:hi + 1]
        same = self._same_group[lo:hi]
        rate = rate_all[1:] - rate_all[:-1]
        diff_now = (val[1:] - val[:-1]) + (self.eta - self.eta_ref) * rate
        order_tol = self.options.negative_margin_rtol \
            * (1.0 + np.abs(val[:-1]) + np.abs(val[1:]))
        bad = same & (diff_now < -order_tol)
        if bad.any():
            k = lo + int(np.flatnonzero(bad)[0])
            raise StructureInvariantBrokenError(
                f"gradient order already inverted at positions {k},{k + 1}"
            )
        return np.where(same, self._time_to_zero(diff_now, rate), math.inf)

    def _sign_time(self) -> float:
        """Time at which the leading zero coordinate's gradient hits zero."""
        if self.zero_count == 0:
            return math.inf
        rate = self.sgrad_rate[:1]
        return float(self._time_to_zero(
            self.sgrad_val[:1] + (self.eta - self.eta_ref) * rate, rate)[0])

    def _apply_suppressions(self) -> None:
        """Blank out candidates that would exactly undo the event just
        applied (floating-point bounces; impossible in exact arithmetic)."""
        sup = self._suppress
        if not sup:
            return
        window = sup["eta"] + max(self.options.timing_clamp,
                                  4.0 * np.spacing(abs(sup["eta"]) + 1.0))
        kind = sup["kind"]
        if kind == "merge":
            j = sup["group"]
            a, b = self.slice_of_group(j)
            upper = sup["upper"]
            for pos in range(a + 1, b):
                if self.split_t[pos] <= window and set(self.order[pos:b]) == upper:
                    self.split_t[pos] = math.inf
        elif kind == "death":
            dead = sup["members"]
            p0 = self.zero_count
            for pos in range(p0):
                if self.split_t[pos] <= window and set(self.order[pos:p0]) == dead:
                    self.split_t[pos] = math.inf
        elif kind == "split":
            j = sup["upper_group"]
            if j < self.fuse_t.size and self.fuse_t[j] <= window:
                self.fuse_t[j] = math.inf
        self._suppress = {}

    # -- event selection and application --

    def next_event(self) -> tuple[float, str, int]:
        """Earliest event as (absolute eta, kind, index).

        On ties within the relative tolerance the priority is
        fuse > sign switch > order switch > split, each class taking its
        smallest index.
        """
        t_fuse = float(np.min(self.fuse_t)) if self.fuse_t.size else math.inf
        t_switch = float(np.min(self.switch_t)) if self.switch_t.size else math.inf
        t_split = float(np.min(self.split_t)) if self.split_t.size else math.inf
        t_sign = self.sign_t
        t_min = min(t_fuse, t_sign, t_switch, t_split)
        if math.isinf(t_min):
            return math.inf, "none", -1
        window = t_min + self.options.tie_rtol * max(1.0, abs(t_min))
        if t_fuse <= window:
            return t_fuse, "fuse", int(np.argmin(self.fuse_t))
        if t_sign <= window:
            return t_sign, "switch_sign", 0
        if t_switch <= window:
            return t_switch, "switch_order", int(np.argmin(self.switch_t))
        return t_split, "split", int(np.argmin(self.split_t))

    def advance(self, eta_new: float) -> None:
        if eta_new < self.eta:
            # tie-priority can pick an event a hair later than another
            # queue's minimum; the loser then fires "in the past" by up to
            # the tie window and is absorbed at the current position
            if self.eta - eta_new > 1e-9 * (1.0 + abs(self.eta)):
                raise NumericalError(f"cannot move backwards: {eta_new} < {self.eta}")
            eta_new = self.eta
        self.levels = self.levels + (eta_new - self.eta) * self.slopeG
        self.eta = eta_new

    def step(self, eta: float, kind: str, idx: int) -> tuple[int | None, int | None]:
        """Advance to ``eta`` and apply the event (kind, idx) reported by
        :meth:`next_event`; returns its grouped (g, k) labels."""
        self.advance(eta)
        self.n_events += 1
        if kind == "fuse":
            return self.apply_fuse(idx)
        if kind == "split":
            return self.apply_split(idx)
        if kind == "switch_order":
            self.apply_switch(idx)
            return None, idx + 1
        self.apply_sign_switch()
        return None, None

    def apply_fuse(self, j: int) -> tuple[int, int | None]:
        """Fuse group j with the level below it (the zero group for j=0)."""
        self.n_fuse += 1
        if j == 0:
            a, b = self.slice_of_group(0)
            members = self.order[a:b].copy()
            self._delete_group_algebra(0)
            self.starts = np.delete(self.starts, 0)
            self.levels = np.delete(self.levels, 0)
            self.slopeG = np.delete(self.slopeG, 0)
            # fresh gradient -c = G beta - Xty of the zero slice, whose tail
            # holds the newly zeroed coordinates: re-sign those, then keep
            # the slice sorted by |gradient|
            zero_members = self.order[:self.zero_count]
            zgrad = self._gram_times(self.levels[:, None])[zero_members, 0] \
                - self.Xty[zero_members]
            self.s[members] = np.where(zgrad[-members.size:] >= 0, 1.0, -1.0)
            self.order[:self.zero_count] = zero_members[np.lexsort((zero_members,
                                                                    np.abs(zgrad)))]
            self._suppress = {"kind": "death", "eta": self.eta,
                              "members": set(int(i) for i in members)}
        else:
            lo_a, lo_b = self.slice_of_group(j - 1)
            hi_a, hi_b = self.slice_of_group(j)
            upper = set(int(i) for i in self.order[hi_a:hi_b])
            members = self.order[lo_a:hi_b].copy()
            # order the merged slice by the current gradient values
            sg_now = self.sgrad_val[lo_a:hi_b] + (self.eta - self.eta_ref) \
                * self.sgrad_rate[lo_a:hi_b]
            self.order[lo_a:hi_b] = members[np.lexsort((members, sg_now))]
            self._delete_group_algebra(j)
            self._delete_group_algebra(j - 1)
            self.starts = np.delete(self.starts, j)
            self._insert_group_algebra(j - 1)
            lvl = self.levels[j - 1]
            self.levels = np.delete(self.levels, j)
            self.levels[j - 1] = lvl
            self.slopeG = np.delete(self.slopeG, j)
            self._suppress = {"kind": "merge", "eta": self.eta,
                              "group": j - 1, "upper": upper}
        self._probe_inverse()
        self.refresh()
        return j, None

    def apply_split(self, pos: int) -> tuple[int, int]:
        """Split at a suffix start position; returns grouped (g, k) labels."""
        self.n_split += 1
        g, k = self.split_label(pos)
        if g == 0:
            self.starts = np.concatenate(([pos], self.starts))
            self._insert_group_algebra(0)
            self.levels = np.concatenate(([0.0], self.levels))
            self.slopeG = np.concatenate(([0.0], self.slopeG))
            self._suppress = {"kind": "split", "eta": self.eta, "upper_group": 0}
        else:
            j = g - 1
            self._delete_group_algebra(j)
            self.starts = np.insert(self.starts, j + 1, pos)
            self._insert_group_algebra(j, absent=2)
            self._insert_group_algebra(j + 1)
            self.levels = np.insert(self.levels, j + 1, self.levels[j])
            self.slopeG = np.insert(self.slopeG, j + 1, self.slopeG[j])
            self._suppress = {"kind": "split", "eta": self.eta, "upper_group": j + 1}
        self._probe_inverse()
        self.refresh()
        return g, k

    def apply_switch(self, k: int) -> None:
        """Swap the coordinates at positions k and k+1 (same group)."""
        self.n_switch += 1
        if self._slice_end[k] != self._slice_end[k + 1]:
            raise NumericalError("switch across a group boundary")
        self.order[[k, k + 1]] = self.order[[k + 1, k]]
        self.sgrad_val[[k, k + 1]] = self.sgrad_val[[k + 1, k]]
        self.sgrad_rate[[k, k + 1]] = self.sgrad_rate[[k + 1, k]]
        end = int(self._slice_end[k])
        nxt = self.suf_val[k + 2] if k + 2 < end else 0.0
        nxt_rate = self.suf_rate[k + 2] if k + 2 < end else 0.0
        self.suf_val[k + 1] = self.sgrad_val[k + 1] + nxt
        self.suf_rate[k + 1] = self.sgrad_rate[k + 1] + nxt_rate
        self.split_t[k + 1] = self._split_times(k + 1, k + 2)[0]
        lo, hi = max(k - 1, 0), min(k + 2, self.switch_t.size)
        self.switch_t[lo:hi] = self._switch_times(lo, hi)
        # the pair that just swapped cannot immediately swap back
        if self.switch_t.size > k and self.switch_t[k] <= self.eta + self.options.timing_clamp:
            self.switch_t[k] = math.inf
        if k == 0:
            self.sign_t = self._sign_time()

    def apply_sign_switch(self) -> None:
        """Flip the sign assigned to the leading zero-group coordinate."""
        self.n_sign_switch += 1
        if self.zero_count == 0:
            raise NumericalError("sign switch without zeroed coordinates")
        i0 = self.order[0]
        self.s[i0] = -self.s[i0]
        self.sgrad_val[0] = -self.sgrad_val[0]
        self.sgrad_rate[0] = -self.sgrad_rate[0]
        p0 = self.zero_count
        nxt = self.suf_val[1] if 1 < p0 else 0.0
        nxt_rate = self.suf_rate[1] if 1 < p0 else 0.0
        self.suf_val[0] = self.sgrad_val[0] + nxt
        self.suf_rate[0] = self.sgrad_rate[0] + nxt_rate
        self.split_t[0] = self._split_times(0, 1)[0]
        self.switch_t[:1] = self._switch_times(0, min(1, self.switch_t.size))
        self.sign_t = self._sign_time()
        if self.sign_t <= self.eta + self.options.timing_clamp:
            self.sign_t = math.inf


def _suffix_within(values: np.ndarray, slice_ends: np.ndarray) -> np.ndarray:
    """Per-position suffix sums restricted to each position's slice."""
    p = values.size
    if p == 0:
        return values.copy()
    total = np.concatenate((np.cumsum(values[::-1])[::-1], [0.0]))
    return total[:p] - total[slice_ends]


# --- public event-timing wrappers (relative times, grouped labels) ---------


def next_fuse_times(state: EngineState) -> np.ndarray:
    """Relative fuse times, entry g for the collision of (grouped) G_g and
    G_{g+1}; entry 0 is the lowest group vanishing into zero."""
    return state.fuse_t - state.eta


def next_split_times(state: EngineState) -> dict[tuple[int, int], float]:
    """Relative split times keyed by grouped labels (g, k)."""
    return {state.split_label(int(pos)): state.split_t[pos] - state.eta
            for pos in np.flatnonzero(~np.isinf(state.split_t))}


def next_switch_times(state: EngineState) -> tuple[dict[int, float], float]:
    """Relative order-switch times keyed by 1-based position, plus the
    sign-switch time."""
    out = {k + 1: state.switch_t[k] - state.eta
           for k in range(state.switch_t.size)
           if not math.isinf(state.switch_t[k])}
    sign = state.sign_t - state.eta if not math.isinf(state.sign_t) else math.inf
    return out, sign


def apply_event(state: EngineState, event: PathEvent) -> EngineState:
    """Advance the state to an event's time and apply it.

    The event must match the queue's earliest candidate (same kind and
    time within tolerance).
    """
    t, kind, idx = state.next_event()
    if kind != event.kind or not math.isclose(t, event.eta, rel_tol=1e-9, abs_tol=1e-12):
        raise ValidationError(
            f"event {event.kind}@{event.eta} is not the queue head ({kind}@{t})"
        )
    state.step(t, kind, idx)
    return state


# --- the path driver --------------------------------------------------------


def gram_data(instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """(X^T X, X^T y): the data as the engine reads them, formed once per run."""
    return instance.X.T @ instance.X, instance.X.T @ instance.y


def _initial_beta(instance: ProblemInstance, ray: WeightRay, options: PathOptions,
                  G: np.ndarray, Xty: np.ndarray) -> np.ndarray:
    if np.any(ray.lam0 != 0):
        return solve_slope(instance, ray.lam0, options.solver).beta
    if instance.ridge:
        G = G + instance.ridge * np.eye(instance.p)
    return np.linalg.solve(G, Xty)


def run_path(instance: ProblemInstance, ray: WeightRay,
             options: PathOptions | None = None) -> SolutionPath:
    """Trace the full solution path over eta in [0, eta_max).

    Starts from the least-squares solution when lam0 = 0, otherwise from
    the proximal-gradient solver at lam0.  Ends at eta_max with a clipped
    final segment, or with an infinite final segment once no further
    event can occur.
    """
    options = options or PathOptions()
    instance = validate_instance(instance)
    checked = validate_ray(ray.lam0, ray.lam_bar)
    ray = WeightRay(checked.lam0, checked.lam_bar,
                    min(ray.eta_max, checked.eta_max))
    if ray.p != instance.p:
        raise ValidationError("weight ray length must match the number of columns")

    cap = options.iteration_cap if options.iteration_cap is not None \
        else 50 * instance.p * instance.p

    G, Xty = gram_data(instance)
    beta0 = _initial_beta(instance, ray, options, G, Xty)
    state = EngineState(instance, ray, beta0, options, G, Xty)

    segments: list[PathSegment] = []
    events: list[PathEvent] = []
    seg_eta = 0.0
    seg_beta = state.scatter_beta()
    seg_slope = state.scatter_slope()

    while True:
        t, kind, idx = state.next_event()
        if t >= ray.eta_max or math.isinf(t):
            end = ray.eta_max if math.isfinite(ray.eta_max) else math.inf
            terminal = PathEvent(kind="terminate", eta=end,
                                 nnz=state.nnz, n_groups=state.n_groups)
            segments.append(PathSegment(seg_eta, end, seg_beta, seg_slope, terminal))
            events.append(terminal)
            break
        if state.n_events >= cap:
            raise IterationCapError(
                f"event cap {cap} reached at eta={state.eta!r}; "
                "raise iteration_cap if the path is genuinely this long"
            )
        g, k = state.step(t, kind, idx)
        event = PathEvent(kind=kind, eta=t, g=g, k=k,
                          nnz=state.nnz, n_groups=state.n_groups)
        events.append(event)
        if options.validate_every and state.n_events % options.validate_every == 0:
            state.gram_checks.append((state.n_events, state.scratch_check()))
        if t > seg_eta:
            segments.append(PathSegment(seg_eta, t, seg_beta, seg_slope, event))
            seg_eta = t
        seg_beta = state.scatter_beta()
        seg_slope = state.scatter_slope()

    provenance = {
        "instance_hash": instance_hash(instance),
        "ray": ray.describe(),
        "options": {
            "iteration_cap": cap,
            "validate_every": options.validate_every,
            "timing_clamp": options.timing_clamp,
        },
        "diagnostics": {
            "events": state.n_events,
            "fuse_events": state.n_fuse,
            "split_events": state.n_split,
            "switch_events": state.n_switch,
            "sign_switch_events": state.n_sign_switch,
            "fallback_refactorizations": state.fallbacks,
            "min_schur_ratio": state.min_schur_ratio,
            "gram_checks": [[i, err] for i, err in state.gram_checks],
        },
    }
    return SolutionPath(segments=tuple(segments), events=tuple(events),
                        provenance=provenance)

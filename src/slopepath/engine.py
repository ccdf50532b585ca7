"""Exact piecewise-linear solution paths for sorted-L1 penalized least squares.

The engine maintains the fused-group structure of the solution while the
weights move along a ray lam(eta) = lam0 + eta * lam_bar.  With S the
signed membership matrix of the nonzero groups (column j holds -s_i for
each member i of group j) and XG = X S, the grouped values are affine in
eta within one structure:

    levels(eta) = Ainv (S^T X^T y - lamG(eta)),   d levels / d eta = -Ainv lamG_bar

where Ainv is the inverse of A = XG^T XG plus the ridge-size diagonal and
the only form of A held.  The gradient terms c = X^T y - G beta and
d = G slope come from G = X^T X and X^T y, formed once per run and read on
the nonzero coordinates only (O(p * nnz) per refresh).  A group entering
Ainv borders it with the cross products of its column X S_k, read from X
(O(n p)) only the first time the group forms in the run and memoized
after that.  One method inverts the grouped Gram from scratch: at the
start, when a bordered insert or the probe after it fails, and to check
the cached inverse.  Three event families end a segment: adjacent group
values colliding (fuse, including a group hitting zero), a grouped
inequality margin reaching zero (split, including activations out of the
zero group), and the within-group gradient order or the leading
zero-coordinate gradient sign changing (switches).  Event times are
absolute eta values; each family has one timing formula and violation
check, indexed by a slice when ``refresh`` times every position and by an
int when a switch re-times the few it invalidates, in scalar arithmetic
with the full kernel's bits; the snap-to-now rule has one scalar twin.
A fuse or split is one structural edit, and the one candidate that would
undo it at once, members and signs alike (a floating-point bounce), is
blanked; under zero weights a dying coordinate may cross zero and
re-enter with the other sign, which is kept.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

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
from .prox import solve_slope

__all__ = [
    "PathOptions",
    "EngineState",
    "grouped_design",
    "segment_solution",
    "structure_from_beta",
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
    and records the relative error in the path diagnostics.  After each
    fuse or split one column of A^-1 A, A's column formed from G, is
    checked against the identity; past ``probe_tol`` A is rebuilt.
    ``negative_margin_rtol`` is how far a quantity that must stay
    nonnegative (a suffix margin, or the gradient gap between within-group
    neighbours) may sit below zero, relative to its scale, before the state
    is declared broken.
    """

    iteration_cap: int | None = None
    validate_every: int = 0
    timing_clamp: float = 1e-10
    tie_rtol: float = 1e-12
    negative_margin_rtol: float = 1e-7
    group_tol_scale: float = 1e-7
    probe_tol: float = 1e-6


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
    w0, wbar = cum0[offsets], cumbar[offsets]
    return w0[1:] - w0[:-1], wbar[1:] - wbar[:-1]


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
    return np.linalg.solve(A, XGty - lam0g - eta * lambarg), -np.linalg.solve(A, lambarg)


# --- incremental symmetric inverse updates --------------------------------


def _inv_delete(B: np.ndarray, j: int) -> np.ndarray:
    return _sym_delete(B - np.multiply.outer(B[:, j], B[j]) / B[j, j], j)


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

    ``G`` = X^T X (without the ridge) and ``Xty`` = X^T y are formed here,
    once per run, and give the start at lam0.  ``_cross`` memoizes the
    insert cross products per (ordered members, signs), at most n entries,
    oldest evicted first, so it never holds more floats than X.
    :meth:`_scratch_system` builds ``Ainv`` and ``XGty`` = S^T Xty from
    scratch.  ``fuse_t``, ``switch_t`` and ``split_t`` are views of one
    array of event times.
    """

    def __init__(self, instance: ProblemInstance, ray: WeightRay, options: PathOptions):
        self.instance = instance
        self.ray = ray
        self.options = options
        self.X = instance.X
        self.ridge = instance.ridge
        self.p = instance.p
        self.G = self.X.T @ self.X
        self.Xty = self.X.T @ instance.y
        beta0 = _initial_beta(instance, ray, self.G, self.Xty)
        self.min_schur_ratio: float | None = None
        self.cum0 = _prefix_sums(ray.lam0)
        self.cumbar = _prefix_sums(ray.lam_bar)
        self._cumbar_absmax = np.abs(self.cumbar).max()

        self.eta = 0.0
        tol = options.group_tol_scale * (1.0 + float(np.max(np.abs(beta0), initial=0.0)))
        structure = structure_from_beta(beta0, instance.gradient(beta0), tol)
        self.order, self.starts, self.s = structure.order, structure.offsets, structure.signs
        self.XGty, self.Ainv = self._scratch_system()
        self._cross: dict[tuple[bytes, bytes], tuple[np.ndarray, float]] = {}
        self.insert_memo = {"hits": 0, "misses": 0}

        # event bookkeeping
        self.n_events = 0
        self.fallbacks = 0
        # tolerance decisions: events absorbed "in the past" by advance,
        # event times snapped to now (see _time_to_zero), and candidates
        # blanked as floating-point bounces, by the kind undone
        self.n_absorbed = 0
        self.n_clamped = 0
        self.suppressed = dict.fromkeys(("merge", "death", "split"), 0)
        self.gram_checks: list[tuple[int, float]] = []
        # (kind, index, members, signs) of the one candidate that would undo
        # the structural event just applied; see _apply_suppressions
        self._undo: tuple | None = None

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
        return int(np.searchsorted(self.starts, pos, side="right")) - 1

    def slice_of_group(self, j: int) -> tuple[int, int]:
        if j < 0:
            return 0, int(self.starts[0])
        return int(self.starts[j]), int(self.starts[j + 1])

    def split_label(self, pos: int) -> tuple[int, int]:
        """Grouped (g, k) label of the split at suffix position ``pos``."""
        j = self.group_of_position(pos)
        return j + 1, pos - self.slice_of_group(j)[0] + 1

    def scatter_beta(self) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.levels)

    def scatter_slope(self) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.slopeG)

    # -- linear algebra maintenance --

    def _scratch_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(XGty, Ainv) built from scratch for the current groups: the one
        place the grouped Gram is inverted."""
        structure = GroupStructure(self.order, self.starts, np.zeros(self.n_groups), self.s)
        XGty, A = _grouped_system(structure, self.X, self.Xty, self.ridge)
        return XGty, np.linalg.inv(A)

    def _group_sums(self, w: np.ndarray) -> np.ndarray:
        """S^T w: the signed per-group sums of a coefficient-space vector."""
        o = self.order
        return np.add.reduceat(-self.s[o] * w[o], self.starts[:-1])

    def _probe_inverse(self) -> None:
        """Rebuild XGty and Ainv from scratch if a bordered insert left Ainv
        unset, or if column j of Ainv A misses e_j by more than probe_tol;
        A's column is S^T G S e_j + ridge |g_j| e_j, formed in O(p |g_j|)."""
        m = self.n_groups
        if m == 0:
            return
        if self.Ainv is not None:
            j = self.n_events % m
            members = self.order[self.starts[j]:self.starts[j + 1]]
            col = self._group_sums(self.G[members].T @ -self.s[members])
            col[j] += self.ridge * members.size
            resid = self.Ainv @ col
            resid[j] -= 1.0
            if float(np.abs(resid).max()) <= self.options.probe_tol:
                return
        self.XGty, self.Ainv = self._scratch_system()
        self.fallbacks += 1

    def _restructure(self, first: int, n_old: int, starts: np.ndarray) -> None:
        """The one structural edit: nonzero groups first .. first + n_old - 1
        make way for the groups that ``starts`` puts at those indices.

        The old groups leave Ainv highest index first; the new ones are
        bordered in lowest index first, each while the groups above it are
        still absent.  That fixes the rounding of Ainv.  XGty is edited once.
        An insert whose Schur complement is <= 0 leaves Ainv unset, and the
        probe then rebuilds the new structure from scratch once."""
        for j in range(first + n_old - 1, first - 1, -1):
            self.Ainv = _inv_delete(self.Ainv, j)
        n_new = n_old + starts.size - self.starts.size
        self.starts = starts
        new = [_group_ydot(self.Xty, self.s, self.order[starts[k]:starts[k + 1]])
               for k in range(first, first + n_new)]
        self.XGty = np.concatenate((self.XGty[:first], new, self.XGty[first + n_old:]))
        for i in range(n_new):
            self._insert_group_algebra(first + i, absent=n_new - i)
            if self.Ainv is None:
                break
        self._probe_inverse()

    def _insert_group_algebra(self, k: int, absent: int) -> None:
        """Border Ainv with nonzero group k of ``starts``, at index k, while
        Ainv holds every group of ``starts`` except k .. k + absent - 1.

        The cross products are S^T X^T x_k for the group's column x_k, read
        from X (:meth:`_cross_products`).  They set the rounding of Ainv:
        taken from G they move an ill-conditioned breakpoint of perfbench
        path-tall (slot 0) by 2.3e-9 relative, past the references' 1e-9."""
        starts = self.starts
        members = self.order[starts[k]:starts[k + 1]]
        w, colsq = self._cross_products(members)
        sums = self._group_sums(w)
        alpha = colsq + self.ridge * members.size
        a = np.concatenate((sums[:k], sums[k + absent:]))
        v = self.Ainv @ a
        schur = alpha - float(a @ v)
        ratio = schur / alpha
        if self.min_schur_ratio is None or ratio < self.min_schur_ratio:
            self.min_schur_ratio = ratio
        if schur <= 0:
            self.Ainv = None
            return
        self.Ainv = _sym_insert(self.Ainv + np.multiply.outer(v, v) / schur, -v / schur,
                                1.0 / schur, k)

    def _cross_products(self, members: np.ndarray) -> tuple[np.ndarray, float]:
        """(X^T x, x . x) for the group column x of ``members`` (in order)
        under the current signs, memoized for the run: the same bits as a
        fresh pass over X, which only a group not seen before pays."""
        key = (members.tobytes(), self.s[members].tobytes())
        hit = self._cross.get(key)
        if hit is not None:
            self.insert_memo["hits"] += 1
            return hit
        self.insert_memo["misses"] += 1
        if len(self._cross) >= self.X.shape[0]:
            del self._cross[next(iter(self._cross))]
        col = _group_column(self.X, self.s, members)
        hit = self._cross[key] = (self.X.T @ col, float(col @ col))
        return hit

    def _gram_times(self, at_nonzero: np.ndarray) -> np.ndarray:
        """G times the coefficient-space vector of each column of
        ``at_nonzero`` (its group's value at each nonzero position), reading
        G only on the nonzero coordinates: O(p * nnz) per column."""
        nz = self.order[self.zero_count:]
        return self.G[nz].T @ (-self.s[nz][:, None] * at_nonzero)

    def scratch_check(self) -> float:
        """Relative Frobenius error of the cached inverse against a fresh
        rebuild of the grouped Gram from the raw design."""
        _, fresh = self._scratch_system()
        denom = float(np.linalg.norm(fresh))
        return float(np.linalg.norm(self.Ainv - fresh)) / max(denom, 1e-300)

    # -- full refresh: closed-form state and every event timing --

    def refresh(self) -> None:
        starts = self.starts
        lam0g, lambarg = _grouped_weight_sums(self.cum0, self.cumbar, starts)
        self.levels = self.Ainv @ (self.XGty - lam0g - self.eta * lambarg)
        self.slopeG = -(self.Ainv @ lambarg)

        # (level, slope) per group, the zero group's first, and per position
        grouped = np.zeros((starts.size, 2))
        grouped[1:, 0] = self.levels
        grouped[1:, 1] = self.slopeG
        sizes = starts.copy()
        sizes[1:] -= starts[:-1]
        at_pos = grouped.repeat(sizes, axis=0)

        o = self.order
        cd = self._gram_times(at_pos[starts[0]:])
        c = self.Xty - cd[:, 0]
        so = self.s[o]
        # the ridge enters here only: G is the plain X^T X
        self.sgrad_val = -so * c[o] - self.ridge * at_pos[:, 0]
        self.sgrad_rate = so * cd[:, 1][o] - self.ridge * at_pos[:, 1]

        self.eta_ref = self.eta
        ends = self._slice_end = starts.repeat(sizes)
        # position constants until the next structural event: which pairs
        # share a group, which suffixes are margins (one starting a nonzero
        # group is its equality), and the weight suffix sums at eta_ref
        self._same_group = ends[:-1] == ends[1:]
        self._split_ok = np.ones(self.p, dtype=bool)
        self._split_ok[starts[:-1]] = False
        self._lam_suf_rate = self.cumbar[ends] - self.cumbar[:-1]
        self._lam_suf_ref = (self.cum0[ends] - self.cum0[:-1]) \
            + self.eta_ref * self._lam_suf_rate
        self.suf_val = _suffix_within(self.sgrad_val, ends)
        self.suf_rate = _suffix_within(self.sgrad_rate, ends)

        # the scale of the margins' violation check
        self._mscale = 1.0 + float(self.cum0[-1] + abs(self.eta) * self._cumbar_absmax) \
            + float(np.abs(self.sgrad_val).max(initial=0.0))
        self._recompute_all_times()
        self._apply_suppressions()

    # -- event times --

    def _time_to_zero(self, value: np.ndarray, rate: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Absolute time at which ``value + (t - eta) * rate`` reaches zero
        where ``keep`` holds: inf unless the rate is negative; a negative
        value (already past zero) and waits up to ``timing_clamp`` snap to
        now, and are counted in ``n_clamped``."""
        dt = np.full(value.shape, math.inf)
        np.divide(value, -rate, out=dt, where=keep & (rate < 0))
        snap = dt <= self.options.timing_clamp
        dt[snap] = 0.0
        self.n_clamped += int(np.count_nonzero(snap))
        dt += self.eta
        return dt

    def _time_to_zero_at(self, value: float, rate: float, keep: bool) -> float:
        """Scalar twin of :meth:`_time_to_zero`: its operations in its order."""
        if not (keep and rate < 0):
            return math.inf
        dt = value / -rate
        if dt <= self.options.timing_clamp:
            dt = 0.0
            self.n_clamped += 1
        return dt + self.eta

    def _recompute_all_times(self) -> None:
        # fuse: group j colliding with the level below it (zero for j = 0); a gap
        # below -level_tol breaks the structure, event-instant ties clip to zero
        levels, slope = self.levels, self.slopeG
        gap = levels - np.concatenate(([0.0], levels[:-1]))
        level_tol = 1e-9 * (1.0 + float(levels.max(initial=0.0)))
        if _any(gap < -level_tol):
            raise StructureInvariantBrokenError(
                f"group values not strictly ordered at eta={self.eta!r}: {levels}"
            )
        rate = slope - np.concatenate(([0.0], slope[:-1]))
        # the switch times check the within-group gradient order of every
        # pair, before the split times check the margins; the three
        # families are timed in one pass and held as views of one array
        m, p = gap.size, self.p
        families = ((gap, rate, np.ones(m, dtype=bool)),
                    self._order_gaps(slice(0, p - 1), slice(1, p)),
                    self._split_margins(slice(None)))
        times = self._time_to_zero(*(np.concatenate(parts) for parts in zip(*families)))
        self.fuse_t, self.switch_t, self.split_t = times[:m], times[m:m + p - 1], times[m + p - 1:]
        self.sign_t = self._sign_time()

    def _split_margins(self, i: int | slice) -> tuple:
        """(margin now, its eta-rate, is a margin) of the suffixes at
        positions ``i``, an int or a slice; raises if one is violated."""
        rate = self._lam_suf_rate[i] - self.suf_rate[i]
        now = (self._lam_suf_ref[i] - self.suf_val[i]) + (self.eta - self.eta_ref) * rate
        ok = self._split_ok[i]
        bad = ok & (now < -self.options.negative_margin_rtol * self._mscale)
        if _any(bad):
            worst = int(np.argmin(now[bad]))
            raise NegativeTimingError(
                f"optimality margin {now[bad][worst]:.3e} already violated at "
                f"eta={self.eta!r} (suffix position {np.arange(self.p)[i][bad][worst]})"
            )
        return now, rate, ok

    def _order_gaps(self, k: int | slice, k1: int | slice) -> tuple:
        """(gradient gap now, its eta-rate, same group) of the pairs at ``k``
        and ``k1`` = k + 1, ints or slices; raises if one is out of order."""
        val, rate_all = self.sgrad_val, self.sgrad_rate
        rate = rate_all[k1] - rate_all[k]
        now = (val[k1] - val[k]) + (self.eta - self.eta_ref) * rate
        same = self._same_group[k]
        floor = -self.options.negative_margin_rtol * (1.0 + abs(val[k]) + abs(val[k1]))
        bad = same & (now < floor)
        if _any(bad):
            first = int(np.arange(self.p)[k][bad][0])
            raise StructureInvariantBrokenError(
                f"gradient order already inverted at positions {first},{first + 1}"
            )
        return now, rate, same

    def _sign_time(self) -> float:
        """Time at which the leading zero coordinate's gradient hits zero."""
        if self.zero_count == 0:
            return math.inf
        rate = self.sgrad_rate[0]
        return float(self._time_to_zero_at(
            self.sgrad_val[0] + (self.eta - self.eta_ref) * rate, rate, True))

    def _apply_suppressions(self) -> None:
        """Blank the one candidate that would exactly undo the structural
        event just applied, if it is due now (a floating-point bounce;
        impossible in exact arithmetic).

        A fuse names the split at the old start of its upper group, which
        undoes it while the suffix from there holds that group's members
        with the signs they had before the fuse.  A death re-signs its
        members by their gradient: under zero weights a dying coordinate
        may cross zero instead of resting there, and a re-entry with a
        flipped sign is a real event.  A split names the fuse of its upper
        group."""
        if self._undo is None:
            return
        kind, idx, members, signs = self._undo
        self._undo = None
        window = self.eta + max(self.options.timing_clamp,
                                4.0 * np.spacing(abs(self.eta) + 1.0))
        times = self.fuse_t if kind == "split" else self.split_t
        undo = times[idx] <= window
        if kind != "split":
            end = self._slice_end[idx]
            undo = undo and np.array_equal(np.sort(self.order[idx:end]), members) \
                and np.array_equal(self.s[members], signs)
        if undo:
            times[idx] = math.inf
            self.suppressed[kind] += 1

    # -- event selection and application --

    def next_event(self) -> tuple[float, str, int]:
        """Earliest event as (absolute eta, kind, index).

        On ties within the relative tolerance the priority is
        fuse > sign switch > order switch > split, each class taking its
        smallest index.
        """
        t_fuse, t_switch, t_split = (float(t[t.argmin()]) if t.size else math.inf
                                     for t in (self.fuse_t, self.switch_t, self.split_t))
        t_sign = self.sign_t
        t_min = min(t_fuse, t_sign, t_switch, t_split)
        if math.isinf(t_min):
            return math.inf, "none", -1
        window = t_min + self.options.tie_rtol * max(1.0, abs(t_min))
        if t_fuse <= window:
            return t_fuse, "fuse", int(self.fuse_t.argmin())
        if t_sign <= window:
            return t_sign, "switch_sign", 0
        if t_switch <= window:
            return t_switch, "switch_order", int(self.switch_t.argmin())
        return t_split, "split", int(self.split_t.argmin())

    def advance(self, eta_new: float) -> None:
        if eta_new < self.eta:
            # tie-priority can pick an event a hair later than another
            # queue's minimum; the loser then fires "in the past" by up to
            # the tie window and is absorbed at the current position
            if self.eta - eta_new > 1e-9 * (1.0 + abs(self.eta)):
                raise NumericalError(f"cannot move backwards: {eta_new} < {self.eta}")
            eta_new = self.eta
            self.n_absorbed += 1
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
        a, b = self.slice_of_group(j)
        upper = self.order[a:b].copy()
        members = np.sort(upper)
        self._undo = ("merge" if j else "death", a, members, self.s[members])
        if j:
            # order the merged slice by the current gradient values
            lo = int(self.starts[j - 1])
            merged = self.order[lo:b].copy()
            sg_now = self.sgrad_val[lo:b] + (self.eta - self.eta_ref) * self.sgrad_rate[lo:b]
            self.order[lo:b] = merged[np.lexsort((merged, sg_now))]
        self._restructure(max(j - 1, 0), 1 + (j > 0),
                         np.concatenate((self.starts[:j], self.starts[j + 1:])))
        if not j:
            # fresh gradient -c = G beta - Xty of the zero slice, beta from
            # the advanced levels of the groups left; the slice's tail holds
            # the newly zeroed coordinates: re-sign those, then keep the
            # slice sorted by |gradient|
            self.levels = self.levels[1:]
            zero_members = self.order[:self.zero_count]
            at_nonzero = self.levels.repeat(self.starts[1:] - self.starts[:-1])
            zgrad = self._gram_times(at_nonzero[:, None])[zero_members, 0] \
                - self.Xty[zero_members]
            self.s[upper] = np.where(zgrad[-upper.size:] >= 0, 1.0, -1.0)
            self.order[:self.zero_count] = zero_members[np.lexsort((zero_members,
                                                                    np.abs(zgrad)))]
        self.refresh()
        return j, None

    def apply_split(self, pos: int) -> tuple[int, int]:
        """Split at a suffix start position; returns grouped (g, k) labels."""
        g, k = self.split_label(pos)
        self._restructure(max(g - 1, 0), int(g > 0),
                         np.concatenate((self.starts[:g], [pos], self.starts[g:])))
        self._undo = ("split", g, None, None)
        self.refresh()
        return g, k

    def apply_switch(self, k: int) -> None:
        """Swap the coordinates at positions k and k+1 (same group).

        The swap negates the pair's gradient difference and rate exactly,
        so the pair's new switch time is inf."""
        if self._slice_end[k] != self._slice_end[k + 1]:
            raise NumericalError("switch across a group boundary")
        for a in (self.order, self.sgrad_val, self.sgrad_rate):
            a[k], a[k + 1] = a[k + 1], a[k]
        self._update_position(k + 1)

    def apply_sign_switch(self) -> None:
        """Flip the sign assigned to the leading zero-group coordinate."""
        if self.zero_count == 0:
            raise NumericalError("sign switch without zeroed coordinates")
        i0 = self.order[0]
        self.s[i0] = -self.s[i0]
        self.sgrad_val[0] = -self.sgrad_val[0]
        self.sgrad_rate[0] = -self.sgrad_rate[0]
        self._update_position(0)

    def _update_position(self, q: int) -> None:
        """After a switch changed the gradient at q (and at q - 1 for a swap):
        q's suffix value and rate and split time, the switch times of the
        pairs q - 2 .. q, and the sign time while q < 2, each one position
        at a time in scalar arithmetic."""
        more = q + 1 < self._slice_end[q]
        self.suf_val[q] = self.sgrad_val[q] + (self.suf_val[q + 1] if more else 0.0)
        self.suf_rate[q] = self.sgrad_rate[q] + (self.suf_rate[q + 1] if more else 0.0)
        self.split_t[q] = self._time_to_zero_at(*self._split_margins(q))
        for k in range(max(q - 2, 0), min(q + 1, self.p - 1)):
            self.switch_t[k] = self._time_to_zero_at(*self._order_gaps(k, k + 1))
        if q < 2:
            self.sign_t = self._sign_time()


def _any(mask) -> bool:
    """``mask.any()`` for an array or one numpy bool, at a fraction of its cost."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _suffix_within(values: np.ndarray, slice_ends: np.ndarray) -> np.ndarray:
    """Per-position suffix sums restricted to each position's slice."""
    total = np.zeros(values.size + 1)
    total[-2::-1] = values[::-1].cumsum()
    return total[:-1] - total[slice_ends]


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


def _initial_beta(instance: ProblemInstance, ray: WeightRay,
                  G: np.ndarray, Xty: np.ndarray) -> np.ndarray:
    if np.any(ray.lam0 != 0):
        return solve_slope(instance, ray.lam0).beta
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
    if not ray.eta_max > 0:
        raise ValidationError(f"eta_max must be positive, got {ray.eta_max!r}")
    options = options or PathOptions()
    instance = validate_instance(instance)
    checked = validate_ray(ray.lam0, ray.lam_bar)
    ray = WeightRay(checked.lam0, checked.lam_bar,
                    min(ray.eta_max, checked.eta_max))
    if ray.p != instance.p:
        raise ValidationError("weight ray length must match the number of columns")

    cap = options.iteration_cap if options.iteration_cap is not None \
        else 50 * instance.p * instance.p

    state = EngineState(instance, ray, options)

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
        # a switch leaves the slope as it was: its segments share the array
        if kind == "fuse" or kind == "split":
            seg_slope = state.scatter_slope()

    kinds = Counter(e.kind for e in events)
    provenance = {
        "instance_hash": instance_hash(instance),
        "ray": ray.describe(),
        # every scalar knob, so a saved path names the tolerances that shaped it
        "options": {**asdict(options), "iteration_cap": cap},
        "diagnostics": {
            "events": state.n_events,
            "fuse_events": kinds["fuse"],
            "split_events": kinds["split"],
            "switch_events": kinds["switch_order"],
            "sign_switch_events": kinds["switch_sign"],
            "fallback_refactorizations": state.fallbacks,
            "min_schur_ratio": state.min_schur_ratio,
            "absorbed_events": state.n_absorbed,
            "clamped_timings": state.n_clamped,
            "suppressed_bounces": dict(state.suppressed),
            "insert_memo": dict(state.insert_memo),
            "gram_checks": [[i, err] for i, err in state.gram_checks],
        },
    }
    return SolutionPath(segments=tuple(segments), events=tuple(events),
                        provenance=provenance)

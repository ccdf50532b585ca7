"""Exact piecewise-linear solution paths for sorted-L1 penalized least squares.

The engine maintains the fused-group structure of the solution while the
weights move along a ray lam(eta) = lam0 + eta * lam_bar.  With S the
signed membership matrix of the nonzero groups (column j holds -s_i for
each member i of group j) and XG = X S, the grouped values are affine in
eta within one structure:

    levels(eta) = Ainv (S^T X^T y - lamG(eta)),   d levels / d eta = -Ainv lamG_bar

where Ainv is the inverse of A = XG^T XG plus the ridge-size diagonal and
the only form of A held.  The gradient terms c = X^T y - G beta and d = G
slope come from G = X^T X and X^T y, the instance's ``gram`` and ``xty``,
formed once for all its paths and read on the nonzero coordinates only
(O(p * nnz) per refresh).  A group entering Ainv borders it with the cross
products of its column X S_k, read from X (O(n p)) only the first time the
group forms in the run and memoized after that.  A group column is summed
member by member from the contiguous columns of a column-major copy of X,
with the bits of a sum over the gathered n x k block, which it never
forms.  One function builds the grouped system (S^T X^T y, A) from
scratch, for :func:`segment_solution` and for the one method that inverts
it: at the start, when a bordered insert or the probe after it fails, and
to check the cached inverse.  Three event families end a segment: adjacent
group values colliding (fuse, including a group hitting zero), a grouped
inequality margin reaching zero (split, including activations out of the
zero group), and the within-group gradient order or the leading
zero-coordinate gradient sign changing (switches).  Event times are
absolute eta values.

A value and its eta-rate travel as the two columns of one (k, 2) array
(levels and slopes, the gradient and its rate, their suffix sums), and a
family's (value, rate) is the difference of two such pairs.  Each family
has one formula and violation check; the switch and split ones take an
int, in Python floats, when a switch re-times the few positions it
invalidates, or a slice, in arrays.  ``refresh`` writes all three families
into one buffer and times them with one masked divide.  The snap-to-now
rule has one scalar twin.

A fuse or split is one structural edit, and the one candidate that would
undo it at once, members and signs alike (a floating-point bounce), is
blanked; under zero weights a dying coordinate may cross zero and
re-enter with the other sign, which is kept.
"""

from __future__ import annotations

import math
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
    KIND_CODES,
    EventLog,
    GroupStructure,
    KnotSegments,
    KnotStore,
    ProblemInstance,
    SolutionPath,
    WeightRay,
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
    "segment_solution",
    "run_path",
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
    is declared broken.  ``iteration_cap`` must be None or at least 1,
    ``validate_every`` at least 0 and every tolerance finite and at least
    0; anything else raises :class:`ValidationError`.
    """

    iteration_cap: int | None = None
    validate_every: int = 0
    timing_clamp: float = 1e-10
    tie_rtol: float = 1e-12
    negative_margin_rtol: float = 1e-7
    group_tol_scale: float = 1e-7
    probe_tol: float = 1e-6

    def __post_init__(self):
        cap = self.iteration_cap
        if cap is not None and not cap >= 1:  # NaN too
            raise ValidationError(f"iteration_cap must be None or at least 1, got {cap!r}")
        if not self.validate_every >= 0:
            raise ValidationError(f"validate_every must be at least 0, got {self.validate_every!r}")
        for name in ("timing_clamp", "tie_rtol", "negative_margin_rtol", "group_tol_scale",
                     "probe_tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and at least 0, "
                                      f"got {getattr(self, name)!r}")


def _group_ydot(Xty: np.ndarray, signs: np.ndarray, members: np.ndarray) -> float:
    return float(-(signs[members] * Xty[members]).sum())


def _group_column(X: np.ndarray, signs: np.ndarray, members: np.ndarray) -> np.ndarray:
    """-sum s_i x_i over ``members``: each column added to zeros or
    subtracted, in member order, and the sum negated in place.  Those are
    the bits of the gathered, signed n x k block summed along its rows,
    formed one column at a time with no n x k temporary; columns are
    contiguous in a column-major X.  A one-row X keeps the block sum,
    which numpy forms pairwise when the row is contiguous."""
    if X.shape[0] == 1:
        return -(X[:, members] * signs[members]).sum(axis=1)
    col = np.zeros(X.shape[0])
    for i in members.tolist():
        if signs.item(i) > 0:
            col += X[:, i]
        else:
            col -= X[:, i]
    return np.negative(col, out=col)


def _grouped_system(order: np.ndarray, starts: np.ndarray, signs: np.ndarray, X: np.ndarray,
                    Xty: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """From-scratch (XG^T y, A) with A = XG^T XG + ridge * diag(sizes) for
    the nonzero groups order[starts[j]:starts[j + 1]]; column j of XG is
    sum_{i in G_j} sign(beta_i) x_i, which the stored convention writes
    -sum s_i x_i.  XG is column-major, so each column is written
    contiguously; XG^T XG has the bits the row-major layout gave.  No
    nonzero group gives a 0 x 0 system."""
    m = starts.size - 1
    XG, XGty = np.empty((X.shape[0], m), order="F"), np.empty(m)
    for j in range(m):
        members = order[starts[j]:starts[j + 1]]
        XG[:, j] = _group_column(X, signs, members)
        XGty[j] = _group_ydot(Xty, signs, members)
    return XGty, XG.T @ XG + ridge * np.diag(np.diff(starts).astype(float))


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
    XGty, A = _grouped_system(structure.order, structure.offsets, structure.signs, instance.X,
                              instance.xty, instance.ridge)
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

    ``G`` = X^T X (without the ridge) and ``Xty`` = X^T y are the
    instance's own ``gram`` and ``xty``, formed once per instance however
    many paths it traces; they give the start at lam0.  ``_XF`` is a
    column-major copy of X, one more n x p array per live state, from whose
    contiguous columns every group column is summed.  ``_cross`` memoizes
    the insert cross products per (ordered members, signs), at most n
    entries, oldest evicted first, so it never holds more floats than X.
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
        self.G = instance.gram
        self.Xty = instance.xty
        self._XF = np.asfortranarray(self.X)
        if np.any(ray.lam0 != 0):
            beta0 = solve_slope(instance, ray.lam0).beta
        else:
            G = self.G + self.ridge * np.eye(self.p) if self.ridge else self.G
            beta0 = np.linalg.solve(G, self.Xty)
        self.min_schur_ratio: float | None = None
        self.cum0 = _prefix_sums(ray.lam0)
        self.cumbar = _prefix_sums(ray.lam_bar)
        # the same, paired as the two columns of one array
        self._cum = np.column_stack((self.cum0, self.cumbar))
        self._cum0_total = self.cum0.item(-1)
        self._cumbar_absmax = float(np.abs(self.cumbar).max())
        # at or above every margin's violation floor: their scale is at
        # least 1 + sum(lam0) (:meth:`_margin_scale`), and at least 1 for a
        # ray that validate_ray accepts
        self._margin_floor = -options.negative_margin_rtol * min(1.0, 1.0 + self._cum0_total)

        self.eta = 0.0
        tol = options.group_tol_scale * (1.0 + float(np.max(np.abs(beta0), initial=0.0)))
        structure = structure_from_beta(beta0, instance.gradient(beta0), tol)
        self.order, self.starts, self.s = structure.order, structure.offsets, structure.signs
        self.XGty, self.Ainv = self._scratch_system()
        self._cross: dict[tuple[bytes, bytes], tuple[np.ndarray, float]] = {}
        self.insert_memo = {"hits": 0, "misses": 0}

        # event bookkeeping; from-scratch rebuilds by cause: a Schur
        # complement <= 0 in a bordered insert, or the probe past probe_tol
        self.n_events = 0
        self.rebuilds = {"schur": 0, "probe": 0}
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
        return self.starts.item(0)

    @property
    def nnz(self) -> int:
        return self.p - self.zero_count

    @property
    def fallbacks(self) -> int:
        """From-scratch rebuilds of Ainv, every cause together."""
        return sum(self.rebuilds.values())

    def group_of_position(self, pos: int) -> int:
        """Nonzero group index for a position, -1 for the zero group."""
        return int(self.starts.searchsorted(pos, side="right")) - 1

    def slice_of_group(self, j: int) -> tuple[int, int]:
        if j < 0:
            return 0, self.starts.item(0)
        return self.starts.item(j), self.starts.item(j + 1)

    def split_label(self, pos: int) -> tuple[int, int]:
        """Grouped (g, k) label of the split at suffix position ``pos``."""
        j = self.group_of_position(pos)
        return j + 1, pos - self.slice_of_group(j)[0] + 1

    def scatter_beta(self, out: np.ndarray | None = None) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.levels, out)

    def scatter_slope(self, out: np.ndarray | None = None) -> np.ndarray:
        return scatter_groups(self.order, self.starts, self.s, self.slopeG, out)

    # -- linear algebra maintenance --

    def _scratch_system(self) -> tuple[np.ndarray, np.ndarray]:
        """(XGty, Ainv) built from scratch for the current groups: the one
        place the grouped Gram is inverted."""
        XGty, A = _grouped_system(self.order, self.starts, self.s, self._XF, self.Xty,
                                  self.ridge)
        return XGty, np.linalg.inv(A)

    def _group_sums(self, w: np.ndarray) -> np.ndarray:
        """S^T w: the signed per-group sums of a coefficient-space vector,
        with -s[order] as :meth:`_restructure` formed it."""
        return np.add.reduceat(self._neg_so * w.take(self.order), self.starts[:-1])

    def _probe_inverse(self) -> None:
        """Rebuild XGty and Ainv from scratch if a bordered insert left Ainv
        unset, or if column j of Ainv A misses e_j by more than probe_tol;
        A's column is S^T G S e_j + ridge |g_j| e_j, formed in O(p |g_j|)."""
        m = self.n_groups
        if m == 0:
            return
        cause = "schur"
        if self.Ainv is not None:
            cause = "probe"
            j = self.n_events % m
            a, b = self.starts[j], self.starts[j + 1]
            members = self.order[a:b]
            col = self._group_sums(self.G.take(members, axis=0).T @ self._neg_so[a:b])
            col[j] += self.ridge * members.size
            resid = self.Ainv @ col
            resid[j] -= 1.0
            if float(np.abs(resid).max()) <= self.options.probe_tol:
                return
        self.XGty, self.Ainv = self._scratch_system()
        self.rebuilds[cause] += 1

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
        # the order and the signs hold still until the edit is done
        self._neg_so = -self.s[self.order]
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
        fresh pass over X, which only a group not seen before pays.  x is
        summed from the column-major copy (:func:`_group_column`)."""
        key = (members.tobytes(), self.s[members].tobytes())
        hit = self._cross.get(key)
        if hit is not None:
            self.insert_memo["hits"] += 1
            return hit
        self.insert_memo["misses"] += 1
        if len(self._cross) >= self.X.shape[0]:
            del self._cross[next(iter(self._cross))]
        col = _group_column(self._XF, self.s, members)
        hit = self._cross[key] = (self.X.T @ col, float(col @ col))
        return hit

    def _gram_times(self, at_nonzero: np.ndarray, neg_s: np.ndarray) -> np.ndarray:
        """G times the coefficient-space vector of each column of
        ``at_nonzero`` (its group's value at each nonzero position), reading
        G only on the nonzero coordinates: O(p * nnz) per column.  ``neg_s``
        is -s at the nonzero positions, as a column."""
        return self.G.take(self.order[self.zero_count:], axis=0).T @ (neg_s * at_nonzero)

    def scratch_check(self) -> float:
        """Relative Frobenius error of the cached inverse against a fresh
        rebuild of the grouped Gram from the raw design."""
        _, fresh = self._scratch_system()
        denom = float(np.linalg.norm(fresh))
        return float(np.linalg.norm(self.Ainv - fresh)) / max(denom, 1e-300)

    # -- full refresh: closed-form state and every event timing --

    def refresh(self) -> None:
        starts, o, p = self.starts, self.order, self.p
        lam0g, lambarg = _grouped_weight_sums(self.cum0, self.cumbar, starts)
        # from here a value and its eta-rate are the two columns of one
        # array: (level, slope) per group, the zero group's first, and per
        # nonzero position
        grouped = self._grouped = np.zeros((starts.size, 2))
        grouped[1:, 0] = self.levels = self.Ainv @ (self.XGty - lam0g - self.eta * lambarg)
        self.slopeG = np.negative(self.Ainv @ lambarg, out=grouped[1:, 1])
        sizes = starts.copy()
        sizes[1:] -= starts[:-1]
        z = starts.item(0)
        at_nz = grouped[1:].repeat(sizes[1:], axis=0)

        # (-s c, s d) per position, with c = Xty - G beta and d = G slope
        so = self.s.take(o)
        neg_so = -so
        sg = self._gram_times(at_nz, neg_so[z:, None]).take(o, axis=0)
        np.subtract(self.Xty.take(o), sg[:, 0], out=sg[:, 0])
        sg[:, 0] *= neg_so
        sg[:, 1] *= so
        # the ridge enters here only: G is the plain X^T X (zero positions
        # would subtract +0, which leaves every value as it is)
        sg[z:] -= self.ridge * at_nz
        self._sg, self.sgrad_val, self.sgrad_rate = sg, sg[:, 0], sg[:, 1]

        self.eta_ref = self.eta
        ends = self._slice_end = starts.repeat(sizes)
        # position constants until the next structural event: which pairs
        # share a group, which suffixes are margins (one starting a nonzero
        # group is its equality), and the weight suffix sums at eta_ref;
        # keep[m:] holds the first two, as _recompute_all_times lays out
        m = starts.size - 1
        keep = self._keep = np.empty(m + 2 * p - 1, dtype=bool)
        keep.fill(True)
        self._same_group = np.equal(ends[:-1], ends[1:], out=keep[m:m + p - 1])
        self._split_ok = keep[m + p - 1:]
        self._split_ok[starts[:-1]] = False
        lam = self._lam_suf = self._cum.take(ends, axis=0)
        lam -= self._cum[:-1]
        lam[:, 0] += self.eta_ref * lam[:, 1]
        # per-position suffix sums within each slice: accumulate runs down
        # each column in turn, so each carries the bits of a 1-d cumsum
        total = np.zeros((p + 1, 2))
        np.add.accumulate(sg[::-1], axis=0, out=total[-2::-1])
        self._suf = total[:-1] - total.take(ends, axis=0)

        self._recompute_all_times()
        self._apply_suppressions()

    def _margin_scale(self) -> float:
        """The scale of the margins' violation check, fixed at eta_ref: a
        switch swaps or negates gradient values, which leaves it as it was."""
        return 1.0 + (self._cum0_total + abs(self.eta_ref) * self._cumbar_absmax) \
            + float(np.abs(self.sgrad_val).max(initial=0.0))

    # -- event times --

    def _time_to_zero(self, value: np.ndarray, rate: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Absolute time at which ``value + (t - eta) * rate`` reaches zero
        where ``keep`` holds: inf unless the rate is negative; a negative
        value (already past zero) and waits up to ``timing_clamp`` snap to
        now, and are counted in ``n_clamped``."""
        dt = np.empty(value.shape)
        dt.fill(math.inf)
        np.divide(value, -rate, out=dt, where=keep & (rate < 0))
        snap = dt <= self.options.timing_clamp
        n_snap = int(np.count_nonzero(snap))
        if n_snap:
            dt[snap] = 0.0
            self.n_clamped += n_snap
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
        """Time every fuse, order switch and split at eta_ref in one (F, 2)
        buffer, F = m + 2p - 1: fuses at [0, m), order switches at
        [m, m + p - 1), splits after, and ``_keep`` alike.  At eta_ref the
        (eta - eta_ref) * rate term of the family formulas is an exact +-0
        and is left out: it could only flip the sign of a zero, which snaps
        to now either way."""
        grouped, sg, keep = self._grouped, self._sg, self._keep
        m, p = grouped.shape[0] - 1, self.p
        vr = np.empty((keep.size, 2))
        np.subtract(grouped[1:], grouped[:-1], out=vr[:m])
        np.subtract(sg[1:], sg[:-1], out=vr[m:m + p - 1])
        np.subtract(self._lam_suf, self._suf, out=vr[m + p - 1:])
        value = vr[:, 0]
        # every floor of the three checks lies at or below -1e-9 (fuses) or
        # _margin_floor (order gaps and margins): past the larger, the
        # family checks decide, in the order fuse, within-group order, margins
        suspect = value < max(-1e-9, self._margin_floor)
        suspect &= keep
        if _any(suspect):
            # fuse: group j below the level under it (zero for j = 0) by more
            # than level_tol breaks the structure; event-instant ties clip to zero
            level_tol = 1e-9 * (1.0 + float(self.levels.max(initial=0.0)))
            if _any(value[:m] < -level_tol):
                raise StructureInvariantBrokenError(
                    f"group values not strictly ordered at eta={self.eta!r}: {self.levels}"
                )
            self._order_gaps(slice(0, p - 1), slice(1, p))
            self._split_margins(slice(None))
        times = self._time_to_zero(value, vr[:, 1], keep)
        self.fuse_t, self.switch_t, self.split_t = times[:m], times[m:m + p - 1], times[m + p - 1:]
        self.sign_t = self._sign_time()

    def _split_margins(self, i: int | slice) -> tuple:
        """(margin now, its eta-rate, is a margin) of the suffixes at
        positions ``i``: Python floats for an int, arrays for a slice;
        raises if one is violated."""
        lam_ref, lam_rate = _pair(self._lam_suf, i)
        suf_val, suf_rate = _pair(self._suf, i)
        rate = lam_rate - suf_rate
        now = (lam_ref - suf_val) + (self.eta - self.eta_ref) * rate
        ok = _entry(self._split_ok, i)
        # the scale is formed only for a margin past the bound on its floor
        bad = ok & (now < self._margin_floor)
        if _any(bad):
            bad = ok & (now < -self.options.negative_margin_rtol * self._margin_scale())
        if _any(bad):
            now, pos = _selected(now, bad), _selected(np.arange(self.p)[i], bad)
            worst = int(np.argmin(now))
            raise NegativeTimingError(
                f"optimality margin {now[worst]:.3e} already violated at "
                f"eta={self.eta!r} (suffix position {pos[worst]})"
            )
        return now, rate, ok

    def _order_gaps(self, k: int | slice, k1: int | slice) -> tuple:
        """(gradient gap now, its eta-rate, same group) of the pairs at ``k``
        and ``k1`` = k + 1, ints (Python floats out) or slices (arrays
        out); raises if one is out of order."""
        val_k, rate_k = _pair(self._sg, k)
        val_k1, rate_k1 = _pair(self._sg, k1)
        rate = rate_k1 - rate_k
        now = (val_k1 - val_k) + (self.eta - self.eta_ref) * rate
        same = _entry(self._same_group, k)
        floor = -self.options.negative_margin_rtol * (1.0 + abs(val_k) + abs(val_k1))
        bad = same & (now < floor)
        if _any(bad):
            first = int(_selected(np.arange(self.p)[k], bad)[0])
            raise StructureInvariantBrokenError(
                f"gradient order already inverted at positions {first},{first + 1}"
            )
        return now, rate, same

    def _sign_time(self) -> float:
        """Time at which the leading zero coordinate's gradient hits zero."""
        if self.zero_count == 0:
            return math.inf
        val, rate = _pair(self._sg, 0)
        return self._time_to_zero_at(val + (self.eta - self.eta_ref) * rate, rate, True)

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
                                4.0 * math.ulp(abs(self.eta) + 1.0))
        times = self.fuse_t if kind == "split" else self.split_t
        undo = times.item(idx) <= window
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
        (t_fuse, i_fuse), (t_switch, i_switch), (t_split, i_split) = (
            _earliest(self.fuse_t), _earliest(self.switch_t), _earliest(self.split_t))
        t_sign = self.sign_t
        t_min = min(t_fuse, t_sign, t_switch, t_split)
        if math.isinf(t_min):
            return math.inf, "none", -1
        window = t_min + self.options.tie_rtol * max(1.0, abs(t_min))
        if t_fuse <= window:
            return t_fuse, "fuse", i_fuse
        if t_sign <= window:
            return t_sign, "switch_sign", 0
        if t_switch <= window:
            return t_switch, "switch_order", i_switch
        return t_split, "split", i_split

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
            lo = self.starts.item(j - 1)
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
            nz = self.order[self.zero_count:]
            zgrad = self._gram_times(at_nonzero[:, None], -self.s[nz][:, None])[zero_members, 0] \
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
        if self._slice_end.item(k) != self._slice_end.item(k + 1):
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
        at a time in Python floats."""
        sg, suf = self._sg, self._suf
        more = q + 1 < self._slice_end.item(q)
        suf[q, 0] = sg.item(q, 0) + (suf.item(q + 1, 0) if more else 0.0)
        suf[q, 1] = sg.item(q, 1) + (suf.item(q + 1, 1) if more else 0.0)
        self.split_t[q] = self._time_to_zero_at(*self._split_margins(q))
        for k in range(max(q - 2, 0), min(q + 1, self.p - 1)):
            self.switch_t[k] = self._time_to_zero_at(*self._order_gaps(k, k + 1))
        if q < 2:
            self.sign_t = self._sign_time()


def _any(mask) -> bool:
    """``mask.any()`` for an array or one numpy bool, at a fraction of its cost."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _entry(a: np.ndarray, i: int | slice):
    """``a[i]``, a Python scalar for an int ``i``."""
    return a.item(i) if type(i) is int else a[i]


def _pair(a: np.ndarray, i: int | slice) -> tuple:
    """Both columns of the (p, 2) ``a`` at ``i``, Python floats for an int."""
    return (a.item(i, 0), a.item(i, 1)) if type(i) is int else (a[i, 0], a[i, 1])


def _selected(values, mask) -> np.ndarray:
    """``values[mask]`` for arrays and scalars alike, as an array."""
    return np.atleast_1d(values)[np.atleast_1d(mask)]


def _earliest(times: np.ndarray) -> tuple[float, int]:
    """(smallest time, its first index), or (inf, -1) when there is none."""
    if not times.size:
        return math.inf, -1
    i = int(times.argmin())
    return times.item(i), i


# --- the path driver --------------------------------------------------------


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

    events = EventLog()
    # one handler around the start and the whole loop, which costs nothing
    # until it catches: a numerical failure leaves with what reproduces it
    try:
        state = EngineState(instance, ray, options)
        # knots: beta and the slope where the slope may change, and where a
        # switch leaves a grouped value on an exact zero (see KnotSegments),
        # scattered straight into the store's next free rows
        knots = KnotStore(instance.p)
        beta, slope = knots.add(0, new_slope=True)
        state.scatter_beta(beta)
        state.scatter_slope(slope)
        while True:
            t, kind, idx = state.next_event()
            if t >= ray.eta_max or math.isinf(t):
                end = ray.eta_max if math.isfinite(ray.eta_max) else math.inf
                events.append("terminate", end, nnz=state.nnz, n_groups=state.n_groups)
                break
            if state.n_events >= cap:
                raise IterationCapError(
                    f"event cap {cap} reached at eta={state.eta!r}; "
                    "raise iteration_cap if the path is genuinely this long"
                )
            g, k = state.step(t, kind, idx)
            events.append(kind, t, g, k, state.nnz, state.n_groups)
            if options.validate_every and state.n_events % options.validate_every == 0:
                state.gram_checks.append((state.n_events, state.scratch_check()))
            structural = kind == "fuse" or kind == "split"
            if structural or np.count_nonzero(state.levels) < state.levels.size:
                # a switch leaves the slope as it was: its knot reuses the row
                beta, slope = knots.add(len(events), new_slope=structural)
                state.scatter_beta(beta)
                if structural:
                    state.scatter_slope(slope)
    except NumericalError as exc:
        exc.add_context(instance_hash(instance), ray.describe(), len(events),
                        [(e.kind, e.eta, e.g, e.k) for e in events[-8:]])
        raise

    count = events.kind.count
    provenance = {
        "instance_hash": instance_hash(instance),
        "ray": ray.describe(),
        # every scalar knob, so a saved path names the tolerances that shaped it
        "options": {**asdict(options), "iteration_cap": cap},
        "diagnostics": {
            "events": state.n_events,
            "fuse_events": count(KIND_CODES["fuse"]),
            "split_events": count(KIND_CODES["split"]),
            "switch_events": count(KIND_CODES["switch_order"]),
            "sign_switch_events": count(KIND_CODES["switch_sign"]),
            "fallback_refactorizations": state.fallbacks,
            "rebuilds": dict(state.rebuilds),
            "min_schur_ratio": state.min_schur_ratio,
            "absorbed_events": state.n_absorbed,
            "clamped_timings": state.n_clamped,
            "suppressed_bounces": dict(state.suppressed),
            "insert_memo": dict(state.insert_memo),
            "gram_checks": [[i, err] for i, err in state.gram_checks],
            "stored_knots": len(knots),
        },
    }
    return SolutionPath(segments=KnotSegments(events, knots), events=events,
                        provenance=provenance)

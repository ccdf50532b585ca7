"""The engine kernel against a frozen copy of its earlier form, bit for bit.

The event-timing kernel (``refresh``, the timing pass, the switch window,
event selection and the bookkeeping around a structural edit) was
rewritten to make fewer numpy calls: values and eta-rates travel as the two
columns of one array, the three event families are timed in one buffer,
and a switch re-times its window in Python floats.  The rewrite must trace
the same path: the same events and breakpoint bits, the same knots, the
same diagnostics and the same failures.  The methods below are the kernel
as it was before, kept verbatim and patched onto :class:`EngineState` in
place of the current ones, so both run from the same start state.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from slopepath import (
    EngineState,
    PathOptions,
    ProblemInstance,
    WeightRay,
    bh_sequence,
    run_path,
    validate_ray,
)
from slopepath.datagen import ScenarioSpec, generate
from slopepath.engine import _grouped_weight_sums
from slopepath.errors import (
    NegativeTimingError,
    NumericalError,
    StructureInvariantBrokenError,
)
from slopepath.weights import design_sequence

# --- the kernel as it was: paired columns, one buffer and Python-float
# switch windows replaced these ------------------------------------------


def _any(mask) -> bool:
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _suffix_within(values: np.ndarray, slice_ends: np.ndarray) -> np.ndarray:
    total = np.zeros(values.size + 1)
    total[-2::-1] = values[::-1].cumsum()
    return total[:-1] - total[slice_ends]


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
    cause = "schur"
    if self.Ainv is not None:
        cause = "probe"
        j = self.n_events % m
        members = self.order[self.starts[j]:self.starts[j + 1]]
        col = self._group_sums(self.G[members].T @ -self.s[members])
        col[j] += self.ridge * members.size
        resid = self.Ainv @ col
        resid[j] -= 1.0
        if float(np.abs(resid).max()) <= self.options.probe_tol:
            return
    self.XGty, self.Ainv = self._scratch_system()
    self.rebuilds[cause] += 1


def _gram_times(self, at_nonzero: np.ndarray) -> np.ndarray:
    """G times the coefficient-space vector of each column of
    ``at_nonzero`` (its group's value at each nonzero position), reading
    G only on the nonzero coordinates: O(p * nnz) per column."""
    nz = self.order[self.zero_count:]
    return self.G[nz].T @ (-self.s[nz][:, None] * at_nonzero)


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


_FROZEN = {name: globals()[name] for name in (
    "_group_sums",
    "_probe_inverse",
    "_gram_times",
    "refresh",
    "_time_to_zero",
    "_recompute_all_times",
    "_split_margins",
    "_order_gaps",
    "_sign_time",
    "_apply_suppressions",
    "next_event",
    "apply_fuse",
    "apply_switch",
    "apply_sign_switch",
    "_update_position",
)}


def _frozen(monkeypatch):
    for name, method in _FROZEN.items():
        monkeypatch.setattr(EngineState, name, method)


def _outcome(fn):
    """What ``fn()`` returned, or the type and message of what it raised."""
    try:
        return "returned", fn()
    except NumericalError as exc:
        return "raised", type(exc).__name__, str(exc)


def _bits(x) -> str:
    return float(x).hex()


def _record(inst, ray, options=None):
    """Everything a path run reports, bit for bit: events, knots, the
    segments they give and the diagnostics."""
    path = run_path(inst, ray, options)
    segments, knots = path.segments, path.knots
    return (
        [(e.kind, _bits(e.eta), e.g, e.k, e.nnz, e.n_groups) for e in path.events],
        (list(knots.at), [_bits(x) for x in knots.eta],
         [knots.beta(k).tobytes() for k in range(len(knots))],
         [knots.slope(k).tobytes() for k in range(len(knots))]),
        [(_bits(s.eta_start), _bits(s.eta_end), s.beta_start.tobytes(), s.slope.tobytes())
         for s in segments],
        repr(path.provenance["diagnostics"]),
    )


def _assert_same_run(monkeypatch, inst, ray, options=None):
    current = _outcome(lambda: _record(inst, ray, options))
    with monkeypatch.context() as m:
        _frozen(m)
        frozen = _outcome(lambda: _record(inst, ray, options))
    assert current == frozen
    return current


_PINNED = json.loads((Path(__file__).with_name("pinned_paths.json")).read_text())


def _scenario_case(scenario, p, n, seed, design, q, ridge=0.0):
    inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed))
    if ridge:
        inst = ProblemInstance(y=inst.y, X=inst.X, ridge=ridge)
    return inst, validate_ray(np.zeros(p), design_sequence(design, p, q=q, n=n))


@st.composite
def _integer_cases(draw):
    """Integer designs with exact gradient ties (coincident events), p > n
    included, under a ridge; ascending integer weights with zero first
    weights and ties; zero or nonzero lam0; a finite or infinite horizon."""
    n, p = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    entry = st.integers(-2, 2)
    X = np.array(draw(st.lists(st.lists(entry, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
    ridge = draw(st.sampled_from([0.25, 0.5]))  # integer designs may be singular
    lam_bar = np.sort(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))).astype(float)
    assume(lam_bar[-1] > 0)
    lam0 = np.zeros(p)
    if draw(st.booleans()):
        lam0 = np.sort(draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))).astype(float)
    eta_max = draw(st.sampled_from([math.inf, 0.5, 2.0]))
    return ProblemInstance(y=y, X=X, ridge=ridge), WeightRay(lam0, lam_bar, eta_max)


@st.composite
def _lam0_cases(draw):
    """Scenario 1 and 2 instances under the four designs, with a sorted
    nonzero lam0 and a finite eta_max."""
    scenario = draw(st.sampled_from([1, 2]))
    p = 2 * draw(st.integers(2, 6)) if scenario == 1 else draw(st.integers(4, 12))
    inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=3 * p,
                                    seed=draw(st.integers(0, 999))))
    design, q = draw(st.sampled_from([("bh", 0.1), ("gauss", 0.1), ("oscar", 1.0),
                                      ("qs", None)]))
    lam0 = np.sort(draw(st.lists(st.floats(0.0, 2.0), min_size=p, max_size=p)))
    assume(lam0[-1] > 0)
    return inst, WeightRay(lam0, design_sequence(design, p, q=q, n=3 * p),
                           draw(st.floats(0.01, 50.0)))


def _planted_state(plant):
    """A scenario-1 p = 8 state stepped until ``plant(state)`` returns a
    callable that breaks it; the outcome of that callable."""
    inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=40, seed=21))
    state = EngineState(inst, validate_ray(np.zeros(8), bh_sequence(8, 0.1)), PathOptions())
    while True:
        breaker = plant(state)
        if breaker is not None:
            return _outcome(breaker)
        t, kind, idx = state.next_event()
        assert math.isfinite(t), "the planted state never arose"
        state.step(t, kind, idx)


def _invert_fused_pair(state):
    # TestStructureChecks: two members of a fused group swapped
    sizes = np.diff(state.starts)
    gaps = np.diff(state.sgrad_val)
    for j in np.flatnonzero(sizes > 1):
        a, b = state.slice_of_group(int(j))
        if np.max(gaps[a:b - 1]) > 1e-3:
            k = a + int(np.argmax(gaps[a:b - 1]))

            def breaker():
                state.order[[k, k + 1]] = state.order[[k + 1, k]]
                state.refresh()
            return breaker
    return None


def _invert_levels(state):
    if state.n_groups < 3:
        return None

    def breaker():
        state.XGty = state.XGty[::-1].copy()
        state.refresh()
    return breaker


def _overshoot(kind, rescan):
    """Move eta well past the next event of ``kind`` without applying it,
    then refresh (``rescan``) or re-time that event's window as a switch
    would (otherwise)."""
    def plant(state):
        t, next_kind, idx = state.next_event()
        if next_kind != kind or not math.isfinite(t) or t <= state.eta:
            return None

        def breaker():
            state.advance(t + 0.5 * (t - state.eta) + 1e-3)
            if rescan:
                state.refresh()
            else:
                state._update_position(idx + 1 if kind == "switch_order" else idx)
            return (state.split_t.tobytes(), state.switch_t.tobytes(),
                    _bits(state.sign_t), state.n_clamped)
        return breaker
    return plant


class TestKernelBitIdentity:
    @pytest.mark.parametrize("case", _PINNED,
                             ids=[f"s{c['scenario']}-p{c['p']}-{c['design']}" for c in _PINNED])
    def test_pinned_paths(self, monkeypatch, case):
        inst, ray = _scenario_case(case["scenario"], case["p"], case["n"], case["seed"],
                                   case["design"], case["q"])
        assert _assert_same_run(monkeypatch, inst, ray)[0] == "returned"

    @pytest.mark.parametrize("case", [
        # p > n under a ridge: the insert memo evicts
        (2, 40, 20, 1, "bh", 0.1, 0.5),
        # zero first weights: dying coordinates cross zero and re-enter
        (1, 20, 200, 3, "bh", 1.0, 0.0),
        (1, 20, 200, 4, "oscar", 0.0, 0.0),
        # a tall design whose groups read their cross products from X
        (1, 24, 2400, 0, "qs", None, 0.0),
    ], ids=["wide-ridge", "zero-first-bh", "zero-first-oscar", "tall-qs"])
    def test_degenerate_families(self, monkeypatch, case):
        assert _assert_same_run(monkeypatch, *_scenario_case(*case))[0] == "returned"

    @pytest.mark.parametrize("X, y, ridge, lam_bar", [
        # TestDecisionCounters' designs: an event absorbed "in the past"
        # (coincident events), and a merge and a split bounce blanked
        ([[0, 1, -1], [-2, 1, 0], [-1, 0, 0]], [-1, -3, 3], 0.5, [1, 2, 3]),
        ([[1, 0, 1], [1, -1, 1], [-1, 0, -1]], [2, -1, 1], 0.25, [2, 2, 3]),
        ([[0, 1, 0], [-1, 1, -1], [0, -1, 0]], [-2, 2, -1], 0.25, [1, 3, 3]),
    ], ids=["absorbed", "merge", "split"])
    def test_tolerance_decisions(self, monkeypatch, X, y, ridge, lam_bar):
        inst = ProblemInstance(y=np.array(y, dtype=float), X=np.array(X, dtype=float),
                               ridge=ridge)
        ray = validate_ray(np.zeros(3), np.array(lam_bar, dtype=float))
        assert _assert_same_run(monkeypatch, inst, ray)[0] == "returned"

    def test_validation_checks_and_probe_fallbacks(self, monkeypatch):
        inst, ray = _scenario_case(1, 12, 36, 0, "qs", None)
        for options in (PathOptions(validate_every=3), PathOptions(probe_tol=0.0)):
            assert _assert_same_run(monkeypatch, inst, ray, options)[0] == "returned"

    @given(_integer_cases())
    def test_integer_designs(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_same_run(monkeypatch, *case)

    @given(_lam0_cases())
    def test_nonzero_lam0_and_finite_horizon(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_same_run(monkeypatch, *case)

    @pytest.mark.parametrize("plant, raised", [
        (_invert_fused_pair, StructureInvariantBrokenError),
        (_invert_levels, StructureInvariantBrokenError),
        (_overshoot("split", rescan=True), NegativeTimingError),
        (_overshoot("split", rescan=False), NegativeTimingError),
        (_overshoot("switch_order", rescan=True), StructureInvariantBrokenError),
        (_overshoot("switch_order", rescan=False), StructureInvariantBrokenError),
    ], ids=["fused-pair", "levels", "margin-refresh", "margin-window", "order-refresh",
            "order-window"])
    def test_planted_broken_states_fail_alike(self, monkeypatch, plant, raised):
        current = _planted_state(plant)
        with monkeypatch.context() as m:
            _frozen(m)
            frozen = _planted_state(plant)
        assert current == frozen
        assert current[:2] == ("raised", raised.__name__)

import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from slopepath import (
    EngineState,
    GroupStructure,
    PathOptions,
    ProblemInstance,
    WeightRay,
    bh_sequence,
    check_optimality,
    eval_path,
    load_path,
    path_metrics,
    qs_sequence,
    run_path,
    save_path,
    segment_solution,
    solve_slope,
    structure_from_beta,
    validate_ray,
)
from slopepath.datagen import ScenarioSpec, generate
from slopepath.engine import (
    _group_column,
    _grouped_system,
    _inv_delete,
    _sym_delete,
    _sym_insert,
)
from slopepath.errors import (
    DidNotConvergeError,
    IterationCapError,
    NumericalError,
    StructureInvariantBrokenError,
    ValidationError,
)
from slopepath.model import instance_hash
from slopepath.weights import design_sequence


def make_state(instance, ray, options=None):
    return EngineState(instance, ray, options or PathOptions())


def fused_t2_structure():
    """Both coordinates fused at value 1 with positive signs."""
    return GroupStructure(
        order=np.array([1, 0]),
        offsets=np.array([0, 2]),
        levels=np.array([1.0]),
        signs=np.array([-1.0, -1.0]),
    )


class TestGroupedDesign:
    """Grouped columns and the from-scratch grouped system: column j of XG
    is sum_{i in G_j} sign(beta_i) x_i, -sum s_i x_i in the stored
    convention, and A = XG^T XG + ridge * diag(group sizes)."""

    def test_fused_pair_sums_columns(self, t2_instance):
        structure = fused_t2_structure()
        column = _group_column(t2_instance.X, structure.signs, structure.order)
        assert column == pytest.approx([1.0, 1.0])
        Xty = t2_instance.X.T @ t2_instance.y
        XGty, A = _grouped_system(structure.order, structure.offsets, structure.signs,
                                  t2_instance.X, Xty, 0.5)
        assert XGty == pytest.approx([4.0])
        assert A == pytest.approx(np.array([[2.0 + 0.5 * 2]]))

    def test_negative_sign_flips_column(self):
        X = np.array([[2.0, 0.0], [0.0, 3.0]])
        order, offsets = np.array([0, 1]), np.array([1, 2])  # coordinate 0 zeroed, group {1}
        signs = np.array([1.0, 1.0])  # beta_1 < 0
        assert _group_column(X, signs, order[1:]) == pytest.approx([0.0, -3.0])
        XGty, A = _grouped_system(order, offsets, signs, X, np.array([1.0, 2.0]), 0.0)
        assert XGty == pytest.approx([-2.0])
        assert A == pytest.approx(np.array([[9.0]]))

    def test_zero_group_contributes_nothing(self, t2_instance):
        order, offsets = np.array([0, 1]), np.array([2])
        XGty, A = _grouped_system(order, offsets, np.array([1.0, 1.0]), t2_instance.X,
                                  t2_instance.X.T @ t2_instance.y, 0.5)
        assert XGty.shape == (0,) and A.shape == (0, 0)


class TestGramHelpers:
    """The bordered insert and the deletes move blocks by slices, and group
    columns gather from a column-major copy of X; they must equal, bit for
    bit, the index-permutation formulas and the strided columns they
    replaced."""

    @staticmethod
    def _sym(rng, m):
        M = rng.standard_normal((m, m))
        return M + M.T

    def test_sym_insert_matches_permuted_border(self):
        rng = np.random.default_rng(11)
        for m in range(6):
            M, a, alpha = self._sym(rng, m), rng.standard_normal(m), float(rng.standard_normal())
            border = np.block([[M, a[:, None]], [a[None, :], np.array([[alpha]])]])
            for at in range(m + 1):
                perm = list(range(at)) + [m] + list(range(at, m))
                assert np.array_equal(_sym_insert(M, a, alpha, at), border[np.ix_(perm, perm)])

    def test_deletes_match_index_gathers(self):
        rng = np.random.default_rng(12)
        for m in range(1, 7):
            B = self._sym(rng, m)
            for j in range(m):
                keep = np.delete(np.arange(m), j)
                block = np.ix_(keep, keep)
                assert np.array_equal(_sym_delete(B, j), B[block])
                expected = B[block] - np.outer(B[keep, j], B[j, keep]) / B[j, j]
                assert np.array_equal(_inv_delete(B, j), expected)

    def test_column_major_gather_matches_strided_columns(self):
        # past 8 members numpy sums a contiguous row pairwise, so a gather
        # laid out otherwise would round differently; zeros keep their sign
        rng = np.random.default_rng(13)
        for n, p in ((2, 12), (7, 30), (300, 40), (8000, 80)):
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, size=p)
            X[rng.random((n, p)) < 0.05] = 0.0
            X[rng.random((n, p)) < 0.05] = -0.0
            X[0] = -0.0
            XF = np.asfortranarray(X)
            assert X.flags.c_contiguous and XF.flags.f_contiguous
            signs = rng.choice([-1.0, 1.0], size=p)
            for k in range(1, p + 1):
                members = rng.permutation(p)[:k]
                strided = _group_column(X, signs, members)
                gathered = _group_column(XF, signs, members)
                assert np.array_equal(gathered.view(np.int64), strided.view(np.int64))


# The group-column builders as they were: a gathered n x k block, signed
# and summed along its rows, and the grouped system on a row-major XG.


def _frozen_group_column(X, signs, members):
    return -(X[:, members] * signs[members]).sum(axis=1)


def _frozen_grouped_system(order, starts, signs, X, Xty, ridge):
    m = starts.size - 1
    XG, XGty = np.empty((X.shape[0], m)), np.empty(m)
    for j in range(m):
        members = order[starts[j]:starts[j + 1]]
        XG[:, j] = _frozen_group_column(X, signs, members)
        XGty[j] = -(signs[members] * Xty[members]).sum()
    return XGty, XG.T @ XG + ridge * np.diag(np.diff(starts).astype(float))


class TestGroupColumnKernel:
    """Group columns summed one column at a time, and the grouped system
    on a column-major XG, give the frozen builders' bytes."""

    @staticmethod
    def _design(rng, n, p):
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, size=p)
        X[rng.random((n, p)) < 0.1] = 0.0
        X[rng.random((n, p)) < 0.1] = -0.0
        X[:, 0] = 0.0
        X[:, 1 % p] = -0.0
        return X

    def test_group_column_matches_the_gathered_block(self):
        rng = np.random.default_rng(21)
        for n, p in ((1, 12), (2, 9), (5, 30), (64, 17), (1000, 40)):
            X = self._design(rng, n, p)
            for design in (X, np.asfortranarray(X)):
                for k in range(1, p + 1):
                    signs = rng.choice([-1.0, 1.0], size=p)
                    members = rng.permutation(p)[:k]
                    got = _group_column(design, signs, members)
                    want = _frozen_group_column(design, signs, members)
                    assert got.tobytes() == want.tobytes(), (n, p, k)

    def test_zero_columns_keep_the_block_sums_sign(self):
        # the block sum starts from +0.0, so a lone -0.0 column gives -0.0
        # after the negation, and a -0.0 column subtracted gives +0.0 first
        X = np.zeros((3, 2))
        X[:, 1] = -0.0
        for s in (1.0, -1.0):
            for members in ([1], [0, 1], [1, 0], [1, 1]):
                signs, members = np.array([s, s]), np.array(members)
                got = _group_column(X, signs, members)
                want = _frozen_group_column(X, signs, members)
                assert got.tobytes() == want.tobytes()

    def test_grouped_system_matches_the_row_major_builder(self):
        rng = np.random.default_rng(22)
        # (n, p, ridge, group count): one group; tall; p > n with a ridge
        for n, p, ridge, m in ((40, 6, 0.0, 1), (300, 25, 0.0, 9), (12, 30, 0.5, 11),
                               (8000, 80, 0.0, 23)):
            X = self._design(rng, n, p)
            y = rng.standard_normal(n)
            order = rng.permutation(p)
            zero = int(rng.integers(0, 2))
            cuts = np.sort(rng.choice(np.arange(zero + 1, p), size=m - 1, replace=False))
            starts = np.concatenate(([zero], cuts, [p]))
            signs = rng.choice([-1.0, 1.0], size=p)
            XF = np.asfortranarray(X)
            want = _frozen_grouped_system(order, starts, signs, XF, X.T @ y, ridge)
            got = _grouped_system(order, starts, signs, XF, X.T @ y, ridge)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes(), (n, p, m)


class TestSegmentSolution:
    def test_t2_separate_groups(self, t2_instance, t2_ray):
        structure = GroupStructure(
            order=np.array([1, 0]),
            offsets=np.array([0, 1, 2]),
            levels=np.array([1.0, 3.0]),
            signs=np.array([-1.0, -1.0]),
        )
        for eta in (0.0, 0.5, 1.9):
            levels, slope = segment_solution(structure, t2_instance, t2_ray, eta)
            assert levels == pytest.approx([1.0, 3.0 - eta])
            assert slope == pytest.approx([0.0, -1.0])

    def test_t2_fused_group(self, t2_instance, t2_ray):
        for eta in (2.0, 3.0):
            levels, slope = segment_solution(fused_t2_structure(), t2_instance,
                                             t2_ray, eta)
            assert levels == pytest.approx([(4.0 - eta) / 2.0])
            assert slope == pytest.approx([-0.5])

    def test_zero_direction_sum_means_flat(self, t2_instance):
        # a direction whose grouped sum vanishes leaves the value constant
        ray = WeightRay(np.zeros(2), np.array([0.0, 1.0]))
        structure = fused_t2_structure()
        _, slope = segment_solution(
            structure, t2_instance,
            WeightRay(np.zeros(2), np.array([-1.0, 1.0]), 5.0), 0.5)
        assert slope == pytest.approx([0.0])
        del ray


class TestEventTimings:
    def test_t2_fuse_times_at_start(self, t2_instance, t2_ray):
        state = make_state(t2_instance, t2_ray)
        dt = state.fuse_t - state.eta
        assert math.isinf(dt[0])  # lower group has zero slope, never dies first
        assert dt[1] == pytest.approx(2.0, abs=1e-12)

    def test_t2_death_after_fuse(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        fuse_etas = [e.eta for e in path.events if e.kind == "fuse"]
        assert fuse_etas == pytest.approx([2.0, 4.0], abs=1e-12)

    def test_parallel_trajectories_never_fuse(self):
        # orthogonal columns with equal weights: equal slopes, no fuse
        inst = ProblemInstance(y=np.array([3.0, 1.0]), X=np.eye(2))
        ray = validate_ray(np.zeros(2), np.array([1.0, 1.0]))
        state = make_state(inst, ray)
        dt = state.fuse_t - state.eta
        assert math.isinf(dt[1])  # equal slopes keep the gap constant
        assert dt[0] == pytest.approx(1.0)  # lower value heads to zero

    def test_t2_split_times_all_infinite(self, t2_instance, t2_ray):
        state = make_state(t2_instance, t2_ray)
        assert np.isinf(state.split_t).all()

    def test_t2_switch_times_all_infinite(self, t2_instance, t2_ray):
        state = make_state(t2_instance, t2_ray)
        assert np.isinf(state.switch_t).all()
        assert math.isinf(state.sign_t)

    def test_descending_direction_splits_fused_pair(self, t2_instance):
        # start fused under lam0 = (0, 3); the direction (0, -1) relaxes the
        # top weight until the pair separates at eta = 1
        ray = validate_ray(np.array([0.0, 3.0]), np.array([0.0, -1.0]))
        path = run_path(t2_instance, ray)
        splits = [e for e in path.events if e.kind == "split"]
        assert len(splits) == 1
        assert splits[0].eta == pytest.approx(1.0, abs=1e-8)
        assert (splits[0].g, splits[0].k) == (1, 2)
        # oracle re-solve just past the event confirms the separation
        for eta in (splits[0].eta - 1e-4, splits[0].eta + 1e-4):
            res = solve_slope(t2_instance, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) < 1e-7

    def test_boundary_margin_splits_immediately(self, t2_instance):
        # lam0 = (0, 2) puts the fused pair exactly on the inequality
        # boundary with a shrinking margin: the split fires at eta = 0
        ray = validate_ray(np.array([0.0, 2.0]), np.array([0.0, -1.0]))
        path = run_path(t2_instance, ray)
        splits = [e for e in path.events if e.kind == "split"]
        assert splits and splits[0].eta == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_columns_never_switch(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        inst = ProblemInstance(y=np.array([2.0, 0.0, 2.0]), X=X, ridge=1e-4)
        ray = validate_ray(np.zeros(2), np.array([0.5, 1.0]))
        path = run_path(inst, ray)
        assert all(e.kind != "switch_order" for e in path.events)


class TestApplyEvents:
    def test_t2_fuse_updates_structure(self, t2_instance, t2_ray):
        state = make_state(t2_instance, t2_ray)
        state.advance(2.0)
        state.n_events += 1
        state.apply_fuse(1)
        assert state.n_groups == 1
        assert state.levels == pytest.approx([1.0])
        assert state.slopeG == pytest.approx([-0.5])
        assert state.Ainv == pytest.approx(np.array([[0.5]]))
        assert state.scratch_check() < 1e-12

    def test_switch_leaves_slope_and_fuse_times_untouched(self):
        state = _state_with_pending_switch()
        t, kind, idx = state.next_event()
        assert kind == "switch_order"
        slope_before = state.slopeG.copy()
        fuse_before = state.fuse_t.copy()
        state.advance(t)
        state.apply_switch(idx)
        assert np.array_equal(state.slopeG, slope_before)
        assert np.array_equal(state.fuse_t, fuse_before)

    def test_terminal_structure_after_total_death(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        terminal = path.events[-1]
        assert terminal.kind == "terminate"
        assert terminal.nnz == 0 and terminal.n_groups == 0

    def test_apply_event_at_queue_head_matches_path_step(self):
        state = _bh8_state()
        path = run_path(state.instance, state.ray)
        for event in path.events[:25]:
            t, kind, idx = state.next_event()
            assert (kind, t) == (event.kind, event.eta)
            assert state.step(t, kind, idx) == (event.g, event.k)


def _bh8_state():
    inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=40, seed=21))
    return make_state(inst, validate_ray(np.zeros(8), bh_sequence(8, 0.1)))


def _state_with_pending_switch(kind="switch_order", max_seed=200):
    """Search small instances for a state whose next event is a switch
    (``kind`` "switch_order" or "switch_sign")."""
    rng_master = np.random.default_rng(0)
    for seed in range(max_seed):
        rng = np.random.default_rng(seed)
        p = 4
        n = 12
        X = rng.standard_normal((n, p)) / np.sqrt(n)
        y = X @ (2 * rng.standard_normal(p)) + rng.standard_normal(n)
        inst = ProblemInstance(y=y, X=X)
        ray = validate_ray(np.zeros(p), np.sort(rng.uniform(0.2, 1.0, p)))
        state = make_state(inst, ray)
        for _ in range(60):
            t, kind_next, idx = state.next_event()
            if math.isinf(t):
                break
            if kind_next == kind:
                return state
            state.step(t, kind_next, idx)
    del rng_master
    raise RuntimeError("no switch event found in the search budget")


class TestRunPath:
    def test_orthonormal_design_first_event_matches_sorted_response(self):
        # diagonal Gram: group i has level |y_i| and slope -lam_bar at its
        # rank, so the first event time has a closed form
        y = np.array([0.8, -2.5, 1.6, 3.1])
        inst = ProblemInstance(y=y, X=np.eye(4))
        from slopepath import qs_sequence
        lam_bar = qs_sequence(4)
        ray = validate_ray(np.zeros(4), lam_bar)
        order = np.argsort(np.abs(y))
        levels = np.abs(y)[order]
        slopes = -lam_bar
        death = levels[0] / lam_bar[0]
        gaps = np.diff(levels)
        closing = slopes[:-1] - slopes[1:]
        with np.errstate(divide="ignore"):
            collide = np.where(closing > 0, gaps / np.where(closing > 0, closing, 1.0),
                               np.inf)
        expected_first = min(death, float(np.min(collide)))
        path = run_path(inst, ray)
        first = next(iter(path.breakpoints()))
        assert first.eta == pytest.approx(expected_first, rel=1e-12)

    def test_finite_eta_max_without_events(self, t2_instance):
        ray = WeightRay(np.zeros(2), np.array([0.0, 1.0]), eta_max=1.0)
        path = run_path(t2_instance, ray)
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert (seg.eta_start, seg.eta_end) == (0.0, 1.0)
        assert seg.ending_event.kind == "terminate"
        assert seg.ending_event.eta == 1.0

    def test_eta_max_clipped_to_ray_validity(self, t2_instance):
        # the ray itself turns invalid at eta = 2; the path must stop there
        ray = WeightRay(np.array([0.0, 2.0]), np.array([0.0, -1.0]), math.inf)
        path = run_path(t2_instance, ray)
        assert path.segments[-1].eta_end == pytest.approx(2.0)

    @pytest.mark.parametrize("eta_max", [0.0, -1.0, math.nan])
    def test_rejects_a_horizon_that_is_not_positive(self, t2_instance, eta_max):
        ray = WeightRay(np.zeros(2), np.array([0.0, 1.0]), eta_max)
        with pytest.raises(ValidationError, match="eta_max must be positive"):
            run_path(t2_instance, ray)

    @pytest.mark.parametrize("bad", [
        {"iteration_cap": 0}, {"iteration_cap": -3}, {"iteration_cap": math.nan},
        {"validate_every": -1}, {"validate_every": math.nan},
        {"timing_clamp": -1e-10}, {"tie_rtol": math.nan}, {"negative_margin_rtol": math.inf},
        {"group_tol_scale": math.nan}, {"probe_tol": math.nan}, {"probe_tol": -1.0},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_options_reject_invalid_values(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValidationError, match=name):
            PathOptions(**bad)

    def test_options_accept_their_edges(self, t2_instance, t2_ray):
        # probe_tol = 0 rebuilds after every structural event (TestFallbacks)
        options = PathOptions(iteration_cap=10, validate_every=0, timing_clamp=0.0,
                              tie_rtol=0.0, negative_margin_rtol=0.0, group_tol_scale=0.0,
                              probe_tol=0.0)
        assert [e.kind for e in run_path(t2_instance, t2_ray, options).events] \
            == [e.kind for e in run_path(t2_instance, t2_ray).events]

    def test_iteration_cap_raises(self, t2_instance, t2_ray):
        with pytest.raises(IterationCapError):
            run_path(t2_instance, t2_ray, PathOptions(iteration_cap=1))

    def test_kkt_on_segment_midpoints(self):
        rng = np.random.default_rng(77)
        inst, _ = generate(ScenarioSpec(scenario=2, p=6, n=20, seed=5))
        from slopepath import bh_sequence
        ray = validate_ray(np.zeros(6), bh_sequence(6, 0.15))
        path = run_path(inst, ray)
        for seg in path.segments:
            mid = 0.5 * (seg.eta_start + seg.eta_end) if math.isfinite(seg.eta_end) \
                else seg.eta_start + 1.0
            beta = eval_path(path, mid)
            lam = ray.at(mid)
            report = check_optimality(beta, inst.gradient(beta), lam,
                                      tol_eq=1e-7 * (1 + lam.max()),
                                      tol_ineq=1e-7 * (1 + lam.max()))
            assert report.optimal
        del rng

    def test_sign_switches_mark_gradient_roots(self):
        # at each sign switch some zeroed coordinate's gradient crosses zero;
        # a bisection on the affine gradient recovers the same eta
        found = 0
        for seed in range(40):
            inst, _ = generate(ScenarioSpec(scenario=2, p=5, n=15, seed=seed))
            from slopepath import bh_sequence
            ray = validate_ray(np.zeros(5), bh_sequence(5, 0.2))
            path = run_path(inst, ray)
            signs = [e for e in path.events if e.kind == "switch_sign"]
            for event in signs:
                eta_star = event.eta
                beta = eval_path(path, eta_star)
                grads = inst.gradient(beta)
                zeroed = np.abs(beta) < 1e-12
                assert zeroed.any()
                best = np.min(np.abs(grads[zeroed]))
                scale = 1.0 + float(np.max(np.abs(grads)))
                assert best <= 1e-8 * scale
                found += 1
            if found >= 3:
                return
        pytest.fail("no sign-switch events found across the seed sweep")

    def test_incremental_inverse_matches_scratch(self):
        inst, _ = generate(ScenarioSpec(scenario=1, p=12, n=80, seed=9))
        from slopepath import qs_sequence
        ray = validate_ray(np.zeros(12), qs_sequence(12))
        path = run_path(inst, ray, PathOptions(validate_every=10))
        checks = path.provenance["diagnostics"]["gram_checks"]
        assert checks, "expected at least one scratch comparison"
        assert max(err for _, err in checks) <= 1e-8

    def test_ridge_path_matches_solver(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([rng.standard_normal(15)] * 2) \
            + 0.05 * rng.standard_normal((15, 2))
        y = rng.standard_normal(15)
        inst = ProblemInstance(y=y, X=X, ridge=0.05)
        from slopepath import qs_sequence
        ray = validate_ray(np.zeros(2), qs_sequence(2))
        path = run_path(inst, ray)
        eta_last = max((e.eta for e in path.breakpoints()), default=1.0)
        for eta in rng.uniform(0, eta_last * 1.1, size=8):
            res = solve_slope(inst, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) \
                <= 1e-6 * (1 + np.max(np.abs(res.beta)))

    def test_nonzero_lam0_start(self, t2_instance):
        # starting weights (0, 3) give the fused point (1, 1) via the solver
        ray = validate_ray(np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        path = run_path(t2_instance, ray)
        assert eval_path(path, 0.0) == pytest.approx([0.5, 0.5], abs=1e-7)
        # fused value (4 - (3 + eta)) / 2 shrinks to zero at eta = 1
        deaths = [e for e in path.events if e.kind == "fuse" and e.g == 0]
        assert deaths and deaths[0].eta == pytest.approx(1.0, abs=1e-7)

    def test_event_local_consistency(self):
        """Colliding values agree at each fuse; the optimality conditions
        hold (boundary-tight) right at each event point."""
        inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=40, seed=21))
        from slopepath import bh_sequence
        ray = validate_ray(np.zeros(8), bh_sequence(8, 0.1))
        state = make_state(inst, ray)
        events = 0
        while events < 120:
            t, kind, idx = state.next_event()
            if math.isinf(t):
                break
            if kind == "fuse" and idx > 0:
                gap_now = (state.levels[idx] - state.levels[idx - 1]
                           + (t - state.eta) * (state.slopeG[idx] - state.slopeG[idx - 1]))
                assert abs(gap_now) <= 1e-9 * (1.0 + state.levels[idx])
            state.step(t, kind, idx)
            events += 1
            beta = state.scatter_beta()
            lam = ray.at(state.eta)
            tol = 1e-7 * (1.0 + lam.max())
            report = check_optimality(beta, inst.gradient(beta), lam,
                                      tol_eq=tol, tol_ineq=tol)
            assert report.optimal, f"{kind} at eta={t}: {report.worst_violation}"
        assert events >= 20

    def test_affine_design_parameterizations_agree(self, t2_instance):
        # constant-offset start with slope-only direction versus the pure
        # ray through the origin: both pass through the weights (1, 2)
        ray_a = validate_ray(np.ones(2), np.array([0.0, 1.0]))
        ray_b = validate_ray(np.zeros(2), np.array([1.0, 2.0]))
        path_a = run_path(t2_instance, ray_a)
        path_b = run_path(t2_instance, ray_b)
        assert np.array_equal(ray_a.at(1.0), ray_b.at(1.0))
        assert eval_path(path_a, 1.0) == pytest.approx(
            np.asarray(eval_path(path_b, 1.0)), abs=1e-7)


class TestStructureFromBeta:
    def test_reads_groups_and_signs(self):
        beta = np.array([2.0, -2.0, 0.0, 0.5])
        gradient = np.array([0.1, 0.2, -0.3, 0.4])
        structure = structure_from_beta(beta, gradient, tol=1e-9)
        assert structure.offsets.tolist() == [1, 2, 4]
        assert structure.order.tolist() in ([2, 3, 0, 1], [2, 3, 1, 0])
        assert structure.levels == pytest.approx([0.5, 2.0])
        s = structure.signs
        assert s[0] == -1.0 and s[1] == 1.0 and s[3] == -1.0
        assert s[2] == -1.0  # sign of the (negative) gradient

    def test_all_zero(self):
        structure = structure_from_beta(np.zeros(3), np.array([0.5, -0.1, 0.2]), tol=1e-9)
        assert structure.offsets.tolist() == [3]
        assert structure.levels.size == 0
        assert structure.order.tolist() == [1, 2, 0]

    def test_engine_start_matches_optimality_reading(self):
        # a nonzero lam0 start has zeroed and fused coordinates; the engine
        # must read the same groups, signs and order as the optimality check
        inst, _ = generate(ScenarioSpec(scenario=2, p=8, n=30, seed=3))
        lam0 = 8.0 * bh_sequence(8, 0.2)
        beta0 = solve_slope(inst, lam0).beta
        gradient = inst.gradient(beta0)
        read = structure_from_beta(beta0, gradient, 1e-8 * (1.0 + np.max(np.abs(beta0))))
        assert read.zero_count > 0 and np.any(read.group_sizes() > 1)
        assert check_optimality(beta0, gradient, lam0).optimal
        state = EngineState(inst, validate_ray(lam0, qs_sequence(8)), PathOptions())
        assert np.array_equal(state.order, read.order)
        assert np.array_equal(state.starts, read.offsets)
        assert np.array_equal(state.s, read.signs)


def _gram_case(name):
    """(instance, ray) for the Gram-form tests."""
    if name == "tall":
        inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=800, seed=4))
        return inst, validate_ray(np.zeros(8), qs_sequence(8))
    if name == "wide_ridge":
        inst, _ = generate(ScenarioSpec(scenario=1, p=12, n=8, seed=2))
        inst = ProblemInstance(y=inst.y, X=inst.X, ridge=0.5)
        return inst, validate_ray(np.zeros(12), bh_sequence(12, 0.1))
    if name == "lam0":
        inst, _ = generate(ScenarioSpec(scenario=1, p=10, n=100, seed=6))
        return inst, validate_ray(0.5 * bh_sequence(10, 0.1), qs_sequence(10))
    inst, _ = generate(ScenarioSpec(scenario=2, p=8, n=16, seed=3))
    return inst, validate_ray(np.zeros(8), bh_sequence(8, 0.2))


class TestGramForm:
    @pytest.mark.parametrize("name", ["tall", "wide_ridge"])
    def test_path_depends_on_data_only_through_gram(self, name):
        # ([X; 0], [y; 0]) and (QX, Qy) share X^T X and X^T y with (X, y)
        inst, ray = _gram_case(name)
        n = inst.n
        Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((n, n)))
        variants = [
            ProblemInstance(y=np.concatenate((inst.y, np.zeros(3))),
                            X=np.vstack((inst.X, np.zeros((3, inst.p)))), ridge=inst.ridge),
            ProblemInstance(y=Q @ inst.y, X=Q @ inst.X, ridge=inst.ridge),
        ]
        events = list(run_path(inst, ray).breakpoints())
        assert len(events) >= 10
        for other in variants:
            moved = list(run_path(other, ray).breakpoints())
            assert [e.kind for e in moved] == [e.kind for e in events]
            assert [e.eta for e in moved] == pytest.approx([e.eta for e in events],
                                                           rel=1e-9)

    @pytest.mark.parametrize("name", ["tall", "wide_ridge", "lam0", "integer"])
    def test_gram_gradient_matches_raw_design(self, name):
        inst, ray = _gram_case(name)
        state = EngineState(inst, ray, PathOptions())
        kinds = set()
        while True:
            beta = state.scatter_beta()
            # residual correlations from the raw design; the ridge term is
            # added once, as the engine adds it
            c = inst.X.T @ (inst.y - inst.X @ beta)
            o = state.order
            expected = -state.s[o] * c[o] - inst.ridge * np.abs(beta[o])
            now = state.sgrad_val + (state.eta - state.eta_ref) * state.sgrad_rate
            scale = 1.0 + float(np.max(np.abs(inst.gradient(beta))))
            assert np.max(np.abs(now - expected)) <= 1e-9 * scale, \
                f"after {state.n_events} events"
            t, kind, idx = state.next_event()
            if math.isinf(t):
                break
            state.step(t, kind, idx)
            kinds.add(kind)
        assert {"fuse", "split"} <= kinds

    def test_min_schur_ratio(self):
        inst, ray = _gram_case("tall")
        ratio = run_path(inst, ray).provenance["diagnostics"]["min_schur_ratio"]
        assert 0.0 < ratio <= 1.0
        # one coordinate only ever dies: no group is inserted
        single = ProblemInstance(y=np.array([2.0, 1.0]), X=np.array([[1.0], [0.5]]))
        path = run_path(single, validate_ray(np.zeros(1), np.ones(1)))
        assert [e.kind for e in path.breakpoints()] == ["fuse"]
        assert path.provenance["diagnostics"]["min_schur_ratio"] is None


def _integer_case(X, y, ridge, lam_bar):
    inst = ProblemInstance(y=np.array(y, dtype=float), X=np.array(X, dtype=float),
                           ridge=ridge)
    return inst, validate_ray(np.zeros(len(lam_bar)), np.array(lam_bar, dtype=float))


# Small integer designs (X, y, ridge, lam_bar) whose paths make the named
# tolerance decision at least once
_DECISION_CASES = {
    "absorbed": ([[0, 1, -1], [-2, 1, 0], [-1, 0, 0]], [-1, -3, 3], 0.5, [1, 2, 3]),
    "merge": ([[1, 0, 1], [1, -1, 1], [-1, 0, -1]], [2, -1, 1], 0.25, [2, 2, 3]),
    "split": ([[0, 1, 0], [-1, 1, -1], [0, -1, 0]], [-2, 2, -1], 0.25, [1, 3, 3]),
}


def _kkt_at_midpoints(path, inst, ray):
    for seg in path.segments:
        mid = 0.5 * (seg.eta_start + seg.eta_end) if math.isfinite(seg.eta_end) \
            else seg.eta_start + 1.0
        beta = eval_path(path, mid)
        lam = ray.at(mid)
        tol = 1e-7 * (1.0 + lam.max())
        report = check_optimality(beta, inst.gradient(beta), lam, tol_eq=tol, tol_ineq=tol)
        assert report.optimal, f"eta={mid}: {report.worst_violation}"


class TestDecisionCounters:
    @pytest.mark.parametrize("case", sorted(_DECISION_CASES))
    def test_path_counts_its_decisions(self, case):
        diag = run_path(*_integer_case(*_DECISION_CASES[case])).provenance["diagnostics"]
        counts = {"absorbed": diag["absorbed_events"], **diag["suppressed_bounces"]}
        assert counts[case] >= 1
        assert set(diag["suppressed_bounces"]) == {"merge", "death", "split"}

    @pytest.mark.parametrize("kind", ["switch_order", "switch_sign"])
    def test_swap_back_guard_counts(self, kind):
        # the swap negates the pair's gradient difference and rate exactly,
        # so a switch taken at a negative rate leaves a positive one: the
        # pair's new time is inf, no swap back is due and none is counted
        state = _state_with_pending_switch(kind)
        t, _, idx = state.next_event()
        state.step(t, kind, idx)
        if kind == "switch_order":
            rate = state.sgrad_rate[idx + 1] - state.sgrad_rate[idx]
            assert rate > 0 and math.isinf(state.switch_t[idx])
        else:
            assert state.sgrad_rate[0] > 0 and math.isinf(state.sign_t)
        assert state.suppressed == dict.fromkeys(("merge", "death", "split"), 0)

    def test_death_bounce_is_blanked_under_positive_weights(self):
        # no small design with a positive first weight is known to bounce
        # after a death, so the re-entry split of the dead group is planted
        # as due at the death instant; the bounce rule must blank it
        state = _bh8_state()
        while True:
            t, kind, idx = state.next_event()
            assert math.isfinite(t), "no death on this path"
            if (kind, idx) == ("fuse", 0):
                break
            state.step(t, kind, idx)
        a, b = state.slice_of_group(0)
        assert state.ray.at(t)[a:b].sum() > 0
        recompute = state._recompute_all_times

        def planted():
            recompute()
            state.split_t[a] = state.eta

        state._recompute_all_times = planted
        state.step(t, kind, idx)
        assert state.zero_count == b and math.isinf(state.split_t[a])
        assert state.suppressed == {"merge": 0, "death": 1, "split": 0}


class TestZeroFirstWeight:
    """With a zero first weight a coordinate reaching zero crosses it: the
    re-entry split after its death is a real event, not a bounce."""

    def test_two_column_crossing_matches_solver(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        inst = ProblemInstance(y=y, X=X)
        ray = validate_ray(np.zeros(2), np.array([0.0, 1.0]))
        path = run_path(inst, ray)
        kinds = [(e.kind, e.g) for e in path.breakpoints()]
        assert kinds[:2] == [("fuse", 0), ("split", 0)]
        for eta in (1.5, 1.7, 3.0):
            res = solve_slope(inst, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) < 1e-7
        _kkt_at_midpoints(path, inst, ray)

    def test_decision_case_death_is_not_a_bounce(self):
        # both coordinates reach zero at eta = 1 under the weights (0, 2):
        # the first death keeps its re-entry split, which the second death
        # wins on tie priority
        inst, ray = _integer_case([[-1, -1], [0, -2]], [2, -1], 0.5, [0, 2])
        path = run_path(inst, ray)
        assert [(e.kind, e.g, e.eta) for e in path.breakpoints()] \
            == [("fuse", 0, 1.0), ("fuse", 0, 1.0)]
        assert path.provenance["diagnostics"]["suppressed_bounces"]["death"] == 0
        for eta in (0.5, 2.0):
            res = solve_slope(inst, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) < 1e-7

    def test_integer_design_crossing_is_not_a_bounce(self):
        # at eta = 1/3 the group {0, 1} dies and re-enters at once with
        # beta_0's sign flipped; the weights on its positions sum to eta > 0,
        # yet the re-entry undoes nothing and must be kept
        inst, ray = _integer_case([[-1, -2, 1], [1, 1, -2], [0, 0, -2]], [1, -1, -2],
                                  0.5, [0, 1, 2])
        path = run_path(inst, ray)
        assert list(path.breakpoints())[-1].eta == pytest.approx(4.0, rel=1e-12)
        for eta in (0.5, 2.0, 3.0, 3.6):
            res = solve_slope(inst, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) < 1e-7
        _kkt_at_midpoints(path, inst, ray)

    @pytest.mark.parametrize("design,q", [("bh", 1.0), ("oscar", 0.0)])
    def test_scenario1_paths_run_and_pass_kkt(self, design, q):
        for seed in range(10):
            inst, _ = generate(ScenarioSpec(scenario=1, p=20, n=200, seed=seed))
            lam = design_sequence(design, 20, q=q, n=200)
            assert lam[0] == 0.0
            ray = validate_ray(np.zeros(20), lam)
            _kkt_at_midpoints(run_path(inst, ray), inst, ray)


class TestStructureChecks:
    def test_inverted_pair_in_fused_group_is_caught(self):
        state = _bh8_state()
        while True:
            sizes = np.diff(state.starts)
            gaps = np.diff(state.sgrad_val)
            wide = [j for j in np.flatnonzero(sizes > 1)
                    if np.max(gaps[state.starts[j]:state.starts[j + 1] - 1]) > 1e-3]
            if wide:
                break
            t, kind, idx = state.next_event()
            assert math.isfinite(t), "no fused group on this path"
            state.step(t, kind, idx)
        a, b = state.slice_of_group(int(wide[0]))
        k = a + int(np.argmax(gaps[a:b - 1]))
        state.order[[k, k + 1]] = state.order[[k + 1, k]]
        with pytest.raises(StructureInvariantBrokenError, match="order"):
            state.refresh()


class TestErrorContext:
    """A numerical error out of run_path names the instance, the ray, the
    failing event's index and the events before it."""

    @staticmethod
    def _plant_inversion_after(monkeypatch, min_events):
        # as in TestStructureChecks: once a fused group with distinct
        # gradient values exists, swap two of its members and refresh
        step = EngineState.step

        def planted(self, t, kind, idx):
            out = step(self, t, kind, idx)
            if self.n_events > min_events:
                sizes = np.diff(self.starts)
                gaps = np.diff(self.sgrad_val)
                for j in np.flatnonzero(sizes > 1):
                    a, b = self.slice_of_group(int(j))
                    if np.max(gaps[a:b - 1]) > 1e-3:
                        k = a + int(np.argmax(gaps[a:b - 1]))
                        self.order[[k, k + 1]] = self.order[[k + 1, k]]
                        self.refresh()
            return out

        monkeypatch.setattr(EngineState, "step", planted)

    def test_planted_inversion_carries_reproduction_context(self, monkeypatch):
        inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=40, seed=21))
        ray = validate_ray(np.zeros(8), bh_sequence(8, 0.1))
        clean = run_path(inst, ray)
        self._plant_inversion_after(monkeypatch, 9)
        with pytest.raises(StructureInvariantBrokenError) as info:
            run_path(inst, ray)
        exc = info.value
        assert exc.instance_hash == instance_hash(inst)
        assert exc.ray == ray.describe()
        index = exc.event_index
        assert 9 <= index < len(clean.events) - 1
        # the events the clean path recorded before the failing step
        expected = [(e.kind, e.eta, e.g, e.k) for e in clean.events[index - 8:index]]
        assert list(exc.recent_events) == expected
        message = str(exc)
        assert message.startswith("gradient order already inverted")
        assert instance_hash(inst) in message
        assert f"event index {index}" in message
        assert repr(expected[-1]) in message and str(ray.describe()) in message

    def test_event_cap_carries_context(self):
        inst, _ = generate(ScenarioSpec(scenario=1, p=8, n=40, seed=21))
        ray = validate_ray(np.zeros(8), bh_sequence(8, 0.1))
        clean = run_path(inst, ray)
        with pytest.raises(IterationCapError) as info:
            run_path(inst, ray, PathOptions(iteration_cap=5))
        assert isinstance(info.value, NumericalError)
        assert info.value.event_index == 5
        assert list(info.value.recent_events) == [
            (e.kind, e.eta, e.g, e.k) for e in clean.events[:5]]
        assert str(info.value).startswith("event cap 5 reached")

    def test_failed_start_carries_context(self):
        # the start at lam0 != 0 comes from solve_slope, which stalls on
        # data at this scale before any event
        inst = ProblemInstance(y=np.array([1e100, 2e100]), X=1e100 * np.eye(2))
        ray = WeightRay(lam0=np.array([0.0, 1.0]), lam_bar=np.array([0.0, 1.0]))
        with pytest.raises(DidNotConvergeError) as info:
            run_path(inst, ray)
        exc = info.value
        assert exc.instance_hash == instance_hash(inst)
        assert exc.ray == ray.describe()
        assert exc.event_index == 0 and exc.recent_events == ()
        assert str(exc).startswith("stalled at iteration")
        assert "event index 0" in str(exc)


_PINNED = json.loads((Path(__file__).with_name("pinned_paths.json")).read_text())


class TestPinnedPaths:
    """Small paths recorded before the structural events were unified: event
    kinds and (g, k) labels exactly, breakpoints to 1e-9 relative."""

    @pytest.mark.parametrize("case", _PINNED,
                             ids=[f"s{c['scenario']}-p{c['p']}-{c['design']}" for c in _PINNED])
    def test_path_matches_recording(self, case):
        inst, _ = generate(ScenarioSpec(scenario=case["scenario"], p=case["p"],
                                        n=case["n"], seed=case["seed"]))
        lam = design_sequence(case["design"], case["p"], q=case["q"], n=case["n"])
        path = run_path(inst, validate_ray(np.zeros(case["p"]), lam))
        events = [e for e in path.events if e.kind != "terminate"]
        assert [e.kind for e in events] == case["kinds"]
        assert [[e.g, e.k] for e in events] == case["labels"]
        assert [e.eta for e in events] == pytest.approx(case["eta"], rel=1e-9, abs=0)


def _extended_split_time(state, pos):
    """Time at which the suffix margin at ``pos`` reaches zero under the
    state's structure, recomputed from the raw X in extended precision."""
    L = np.longdouble
    X, y = state.instance.X.astype(L), state.instance.y.astype(L)
    structure = GroupStructure(state.order, state.starts, state.levels, state.s)
    S = np.zeros((state.p, state.n_groups), dtype=L)
    for j, g in enumerate(structure.groups()[1:]):
        S[g, j] = -structure.signs[g]
    XG = X @ S
    lo, hi = structure.offsets[:-1], structure.offsets[1:]
    cum0 = np.concatenate(([0], np.cumsum(state.ray.lam0.astype(L))))
    cumbar = np.concatenate(([0], np.cumsum(state.ray.lam_bar.astype(L))))
    # levels(eta) = v0 + eta * v1 from A [v0 v1] = [XG^T y - lam0G, -lamG_bar],
    # by Gaussian elimination with partial pivoting
    A = XG.T @ XG
    b = np.column_stack((XG.T @ y - (cum0[hi] - cum0[lo]), -(cumbar[hi] - cumbar[lo])))
    m = A.shape[0]
    for k in range(m):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        A[[k, piv]], b[[k, piv]] = A[[piv, k]], b[[piv, k]]
        f = A[k + 1:, k] / A[k, k]
        A[k + 1:] -= np.outer(f, A[k])
        b[k + 1:] -= np.outer(f, b[k])
    v = np.zeros_like(b)
    for k in range(m - 1, -1, -1):
        v[k] = (b[k] - A[k, k + 1:] @ v[k + 1:]) / A[k, k]
    o = state.order
    g0 = -state.s[o] * (X.T @ (y - XG @ v[:, 0]))[o]
    g1 = state.s[o] * (X.T @ (XG @ v[:, 1]))[o]
    end = state.slice_of_group(state.group_of_position(pos))[1]
    lam0 = cum0[end] - cum0[pos]
    lambar = cumbar[end] - cumbar[pos]
    return float((lam0 - g0[pos:end].sum()) / (g1[pos:end].sum() - lambar))


class TestConditioning:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    def test_split_after_close_merge_against_extended_precision(self):
        # the third breakpoint of this path (perfbench path-tall, slot 0,
        # path 2000-qs) is a split 3.8e-5 after a merge: its margin is a
        # 2e-6 difference of gradients near 1.3e-4, so ~1e-13 of rounding
        # in either gradient moves it by ~2e-9 relative
        inst, _ = generate(ScenarioSpec(scenario=1, p=80, n=8000, seed=2000))
        state = make_state(inst, validate_ray(np.zeros(80), qs_sequence(80)))
        for _ in range(2):
            state.step(*state.next_event())
        t, kind, pos = state.next_event()
        assert kind == "split"
        exact = _extended_split_time(state, pos)
        assert exact == pytest.approx(0.0015920879108781, rel=1e-12)
        # float64 engines land 1e-9 to 3.3e-9 relative from it: this one
        # 2.7e-9, an n-space gradient 3.2e-9, insert cross products from G 1.0e-9
        assert t == pytest.approx(exact, rel=5e-9)


class TestSwitchCost:
    def test_switch_handling_does_not_grow_with_dimension(self):
        """Per-switch work depends on the group sizes, not on p."""
        medians = {}
        for p in (40, 80, 160):
            inst, _ = generate(ScenarioSpec(scenario=2, p=p, n=200, seed=1))
            from slopepath import qs_sequence
            ray = validate_ray(np.zeros(p), qs_sequence(p))
            state = make_state(inst, ray)
            times = []
            while len(times) < 400:
                t, kind, idx = state.next_event()
                if math.isinf(t):
                    break
                state.advance(t)
                state.n_events += 1
                if kind == "fuse":
                    state.apply_fuse(idx)
                elif kind == "split":
                    state.apply_split(idx)
                elif kind == "switch_order":
                    tic = time.perf_counter()
                    state.apply_switch(idx)
                    times.append(time.perf_counter() - tic)
                else:
                    state.apply_sign_switch()
            assert len(times) >= 30, f"too few switches at p={p}"
            medians[p] = float(np.median(times))
        assert medians[160] <= 3.0 * medians[40] + 1e-4


def _path_record(path):
    """Everything a path run reports, apart from the insert memo counts."""
    diag = {k: v for k, v in path.provenance["diagnostics"].items() if k != "insert_memo"}
    events = [(e.kind, e.eta, e.g, e.k, e.nnz, e.n_groups) for e in path.events]
    segments = [(s.eta_start, s.eta_end, s.beta_start.tobytes(), s.slope.tobytes())
                for s in path.segments]
    return events, segments, diag


class TestInsertMemo:
    """A group that forms again takes its cross products from the memo, and
    one seen first gathers its column from the column-major copy of X;
    both with the bits a fresh pass over the C-ordered X gives."""

    @staticmethod
    def _reforming_case():
        inst, _ = generate(ScenarioSpec(scenario=1, p=12, n=36, seed=0))
        return inst, validate_ray(np.zeros(12), qs_sequence(12))

    def test_hits_return_fresh_bits(self, monkeypatch):
        lookup = EngineState._cross_products
        sizes = {"hits": [], "misses": []}

        def checked(state, members):
            before = dict(state.insert_memo)
            w, colsq = lookup(state, members)
            assert state.X.flags.c_contiguous
            col = _group_column(state.X, state.s, members)
            assert np.array_equal(w.view(np.int64), (state.X.T @ col).view(np.int64))
            assert np.array_equal(np.float64(colsq).view(np.int64),
                                  np.float64(col @ col).view(np.int64))
            kind, = (k for k in sizes if state.insert_memo[k] > before[k])
            sizes[kind].append(members.size)
            return w, colsq

        monkeypatch.setattr(EngineState, "_cross_products", checked)
        run_path(*self._reforming_case())
        # a tall instance whose groups grow past 8 members
        inst, _ = generate(ScenarioSpec(scenario=1, p=24, n=2400, seed=0))
        run_path(inst, validate_ray(np.zeros(24), qs_sequence(24)))
        assert sizes["hits"] and sizes["misses"]
        assert max(sizes["misses"]) >= 9

    def test_counts_every_insert(self, monkeypatch):
        insert = EngineState._insert_group_algebra
        calls = []

        def counted(state, k, absent):
            calls.append(k)
            insert(state, k, absent)

        monkeypatch.setattr(EngineState, "_insert_group_algebra", counted)
        memo = run_path(*self._reforming_case()).provenance["diagnostics"]["insert_memo"]
        assert memo["hits"] + memo["misses"] == len(calls)
        assert memo["hits"] > 0

    def test_eviction_leaves_the_path_unchanged(self, monkeypatch):
        # p > n with ridge: more distinct groups enter than the n entries
        # the memo holds, so it evicts; the path must not notice
        inst, _ = generate(ScenarioSpec(scenario=2, p=40, n=20, seed=1))
        inst = ProblemInstance(y=inst.y, X=inst.X, ridge=0.5)
        ray = validate_ray(np.zeros(40), bh_sequence(40, 0.1))
        lookup = EngineState._cross_products

        def bounded(state, members):
            out = lookup(state, members)
            assert len(state._cross) <= inst.n
            return out

        monkeypatch.setattr(EngineState, "_cross_products", bounded)
        memoized = run_path(inst, ray)
        memo = memoized.provenance["diagnostics"]["insert_memo"]
        assert memo["misses"] > inst.n and memo["hits"] > 0

        insert = EngineState._insert_group_algebra

        def forgetful(state, k, absent):
            state._cross.clear()
            insert(state, k, absent)

        monkeypatch.setattr(EngineState, "_insert_group_algebra", forgetful)
        fresh = run_path(inst, ray)
        assert fresh.provenance["diagnostics"]["insert_memo"]["hits"] == 0
        assert _path_record(fresh) == _path_record(memoized)


class TestFallbacks:
    """The from-scratch rebuild behind the probe and the Schur fallback
    leaves the path as the bordered updates trace it."""

    @staticmethod
    def _assert_same_path(path, reference, inst, ray):
        assert [e.kind for e in path.events] == [e.kind for e in reference.events]
        assert [e.eta for e in path.breakpoints()] \
            == pytest.approx([e.eta for e in reference.breakpoints()], rel=1e-9, abs=0)
        _kkt_at_midpoints(path, inst, ray)

    def test_probe_rebuilds_past_its_tolerance(self):
        inst, ray = TestInsertMemo._reforming_case()
        options = PathOptions(probe_tol=0.0)
        path = run_path(inst, ray, options)
        diag = path.provenance["diagnostics"]
        assert diag["fallback_refactorizations"] > 0
        assert diag["rebuilds"] == {"schur": 0, "probe": diag["fallback_refactorizations"]}
        self._assert_same_path(path, run_path(inst, ray), inst, ray)
        # a rebuild leaves the scratch inverse itself
        state = make_state(inst, ray, options)
        rebuilds = 0
        while math.isfinite((event := state.next_event())[0]):
            before = state.fallbacks
            state.step(*event)
            if state.fallbacks > before:
                rebuilds += 1
                assert state.scratch_check() == 0.0
        assert rebuilds == path.provenance["diagnostics"]["fallback_refactorizations"]

    def test_schur_fallback_rebuilds_the_new_structure(self, monkeypatch):
        inst, ray = TestInsertMemo._reforming_case()
        reference = run_path(inst, ray)
        insert = EngineState._insert_group_algebra
        forced = []

        def failing_once(state, k, absent):
            if absent == 1 or forced:
                return insert(state, k, absent)
            # the first of a split's two inserts: a ridge this negative
            # makes its Schur complement negative
            forced.append(k)
            ridge, state.ridge = state.ridge, -1e6
            try:
                return insert(state, k, absent)
            finally:
                state.ridge = ridge

        monkeypatch.setattr(EngineState, "_insert_group_algebra", failing_once)
        path = run_path(inst, ray, PathOptions(validate_every=1))
        diag = path.provenance["diagnostics"]
        assert forced and diag["fallback_refactorizations"] == 1
        assert diag["rebuilds"] == {"schur": 1, "probe": 0}
        assert max(err for _, err in diag["gram_checks"]) < 1e-12
        self._assert_same_path(path, reference, inst, ray)


@st.composite
def _integer_paths(draw):
    """Small integer designs with exact gradient ties, p > n included,
    ascending integer weights with zero first weights and ties, and two
    eta drawn across the path."""
    n, p = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    entry = st.integers(-2, 2)
    X = np.array(draw(st.lists(st.lists(entry, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
    ridge = draw(st.sampled_from([0.25, 0.5]))
    lam_bar = np.sort(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p)))
    assume(lam_bar[-1] > 0)  # the validator rejects a zero direction
    fractions = draw(st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2))
    return ProblemInstance(y=y, X=X, ridge=ridge), lam_bar.astype(float), fractions


class TestIntegerDesignProperty:
    @given(_integer_paths())
    def test_path_runs_passes_kkt_and_matches_solver(self, case):
        inst, lam_bar, fractions = case
        ray = validate_ray(np.zeros(lam_bar.size), lam_bar)
        path = run_path(inst, ray)
        _kkt_at_midpoints(path, inst, ray)
        last = max((e.eta for e in path.breakpoints()), default=1.0)
        for f in fractions:
            eta = f * last
            res = solve_slope(inst, ray.at(eta))
            assert np.max(np.abs(eval_path(path, eta) - res.beta)) < 1e-6
        # coincident events (two deaths at one eta, say) survive the file
        with tempfile.TemporaryDirectory() as tmp:
            save_path(path, Path(tmp) / "path.jsonl")
            back = load_path(Path(tmp) / "path.jsonl")
        assert back.events == path.events
        assert path_metrics(back) == path_metrics(path)


class TestWindowUpdate:
    """After a switch the window update re-times q's split, the pairs
    q - 2 .. q and, while q < 2, the sign switch in scalar arithmetic; each
    must carry the bits the array kernel gives at those positions.  Other
    positions were timed at eta_ref and are not compared: re-timing them at
    a later eta rounds differently."""

    @staticmethod
    def _cases():
        inst1, _ = generate(ScenarioSpec(scenario=1, p=12, n=36, seed=0))
        inst2, _ = generate(ScenarioSpec(scenario=2, p=20, n=60, seed=1))
        inst2 = ProblemInstance(y=inst2.y, X=inst2.X, ridge=0.5)
        lam0 = np.linspace(0.1, 0.6, 12)
        return [(inst1, validate_ray(np.zeros(12), qs_sequence(12))),
                (inst2, validate_ray(np.zeros(20), bh_sequence(20, 0.1))),
                (inst1, validate_ray(lam0, bh_sequence(12, 0.1)))]

    @staticmethod
    def _array_kernel(state, q):
        """(split time at q, switch times of pairs q-2..q, sign time) from
        the array code of refresh, restricted to those positions."""
        clamped = state.n_clamped
        lo, hi = max(q - 2, 0), min(q + 1, state.p - 1)
        split = state._time_to_zero(*state._split_margins(slice(q, q + 1)))
        switch = state._time_to_zero(*state._order_gaps(slice(lo, hi), slice(lo + 1, hi + 1)))
        rate = state.sgrad_rate[:1]
        sign = state._time_to_zero(state.sgrad_val[:1] + (state.eta - state.eta_ref) * rate,
                                   rate, state.zero_count > 0)
        state.n_clamped = clamped
        return split, switch, sign, slice(lo, hi)

    def test_window_matches_array_kernel(self):
        checked = {"switch_order": 0, "switch_sign": 0}
        for inst, ray in self._cases():
            state = EngineState(inst, ray, PathOptions())
            while math.isfinite((event := state.next_event())[0]):
                state.step(*event)
                kind, idx = event[1], event[2]
                if kind not in checked:
                    continue
                q = idx + 1 if kind == "switch_order" else 0
                split, switch, sign, pairs = self._array_kernel(state, q)
                assert state.split_t[q:q + 1].tobytes() == split.tobytes()
                assert state.switch_t[pairs].tobytes() == switch.tobytes()
                if q < 2:
                    assert np.float64(state.sign_t).tobytes() == sign.tobytes()
                checked[kind] += 1
        assert checked["switch_order"] > 0 and checked["switch_sign"] > 0

    def test_scalar_and_array_snap_rules_agree(self):
        state = make_state(*self._cases()[0])
        state.eta = 0.75
        clamp = state.options.timing_clamp
        nan, inf = math.nan, math.inf
        cases = [(1.0, 0.0), (1.0, -0.0), (1.0, nan), (nan, -1.0),
                 (0.0, -1.0), (-0.0, -1.0), (-2.0, -1.0), (-2.0, 0.0),
                 (clamp, -1.0), (np.nextafter(clamp, 1.0), -1.0),
                 (inf, -1.0), (-inf, -1.0), (1.0, -inf)]
        for value, rate in cases:
            for keep in (True, False):
                before = state.n_clamped
                array = state._time_to_zero(np.array([value]), np.array([rate]),
                                            np.array([keep]))
                n_array = state.n_clamped - before
                scalar = state._time_to_zero_at(np.float64(value), np.float64(rate),
                                                np.bool_(keep))
                assert np.float64(scalar).tobytes() == array.tobytes(), (value, rate, keep)
                assert state.n_clamped - before - n_array == n_array
        assert state._time_to_zero_at(np.float64(clamp), np.float64(-1.0), True) == 0.75


@st.composite
def _lam0_paths(draw):
    """Scenario 1 and 2 instances at n = 3p under the four designs, with a
    sorted nonzero lam0 and a finite eta_max."""
    scenario = draw(st.sampled_from([1, 2]))
    p = 2 * draw(st.integers(2, 6)) if scenario == 1 else draw(st.integers(4, 12))
    inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=3 * p,
                                    seed=draw(st.integers(0, 999))))
    design, q = draw(st.sampled_from([("bh", 0.1), ("gauss", 0.1), ("oscar", 1.0),
                                      ("qs", None)]))
    lam0 = np.sort(draw(st.lists(st.floats(0.0, 2.0), min_size=p, max_size=p)))
    assume(lam0[-1] > 0)
    ray = WeightRay(lam0, design_sequence(design, p, q=q, n=3 * p),
                    draw(st.floats(0.01, 50.0)))
    return inst, ray


class TestLam0Property:
    @given(_lam0_paths())
    def test_path_runs_is_continuous_and_ends_at_eta_max(self, case):
        inst, ray = case
        path = run_path(inst, ray)
        _kkt_at_midpoints(path, inst, ray)
        assert path.segments[-1].eta_end == ray.eta_max
        for seg, nxt in zip(path.segments, path.segments[1:]):
            gap = np.max(np.abs(seg.value(seg.eta_end) - nxt.beta_start))
            assert gap <= 1e-9 * (1.0 + np.max(np.abs(nxt.beta_start)))


_REVERSAL_SIZES = [(1, 10, 100), (1, 20, 200), (2, 12, 60), (2, 20, 200)]


class TestTimeReversal:
    """The downward path from beta = 0, lam(eta) = (eta0 - eta) * lam_bar,
    traced by the same engine, is the upward path run backwards: a fuse
    going up is a split going down, at eta0 - eta.  gauss is left out: its
    weights tie, and tied weights order coincident events freely."""

    @staticmethod
    def _counts(path):
        diag = path.provenance["diagnostics"]
        return {kind: diag[f"{kind}_events"] for kind in ("fuse", "split", "switch",
                                                          "sign_switch")}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("design", ["bh", "oscar", "qs"])
    @pytest.mark.parametrize("scenario, p, n", _REVERSAL_SIZES,
                             ids=[f"s{s}-p{p}-n{n}" for s, p, n in _REVERSAL_SIZES])
    def test_downward_path_mirrors_the_upward_one(self, scenario, p, n, design, seed):
        inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed))
        lam_bar = design_sequence(design, p, n=n)
        up = run_path(inst, validate_ray(np.zeros(p), lam_bar))
        # beta = 0 exactly when every prefix of |X^T y| sorted descending
        # sums to at most eta times the prefix of lam_bar sorted descending
        prefix = np.cumsum(np.sort(np.abs(inst.xty))[::-1])
        eta0 = 1.001 * float(np.max(prefix / np.cumsum(lam_bar[::-1])))
        down = run_path(inst, validate_ray(eta0 * lam_bar, -lam_bar))

        counts, mirrored = self._counts(up), self._counts(down)
        mirrored["fuse"], mirrored["split"] = mirrored["split"], mirrored["fuse"]
        assert counts == mirrored
        for going_up, going_down in (("fuse", "split"), ("split", "fuse")):
            want = sorted(e.eta for e in up.events if e.kind == going_up)
            got = sorted(eta0 - e.eta for e in down.events if e.kind == going_down)
            assert got == pytest.approx(want, rel=1e-9, abs=0)


def _lars_lasso_kinks(inst):
    """The kinks (eta, beta) of the lasso path, minimising 0.5 ||y - X b||^2
    + eta ||b||_1, by the LARS-lasso homotopy (Efron et al. 2004; Osborne,
    Presnell & Turlach 2000) run upward from least squares.  On a segment
    the active coefficients move along -G_AA^-1 s_A; an active coordinate
    leaves when it reaches zero, and an inactive j enters with the sign of
    c_j when |c_j| reaches eta, where c = X^T y - G beta."""
    G, Xty = inst.X.T @ inst.X, inst.X.T @ inst.y
    p = Xty.size
    beta = np.linalg.solve(G, Xty)
    active, signs = np.ones(p, dtype=bool), np.sign(beta)
    eta, kinks = 0.0, [(0.0, beta.copy())]
    while True:
        A = np.flatnonzero(active)
        d = np.zeros(p)
        d[A] = -np.linalg.solve(G[np.ix_(A, A)], signs[A]) if A.size else 0.0
        c, a = Xty - G @ beta, -G @ d  # the correlations and their rate in eta
        tol = 1e-10 * (1.0 + eta)
        with np.errstate(divide="ignore", invalid="ignore"):
            # |c_j + step a_j| = eta + step: c_j reaching +eta or -eta; a
            # coordinate that just left sits on one of them, at step ~ 0
            roots = np.stack([(eta - c) / (a - 1.0), (-eta - c) / (a + 1.0)])
            roots[~(roots > tol)] = np.inf
            steps = np.where(active, -beta / d, roots.min(axis=0))
        steps[~(steps > tol)] = np.inf
        j = int(np.argmin(steps))
        if not np.isfinite(steps[j]):
            return kinks
        beta, eta = beta + steps[j] * d, eta + steps[j]
        if active[j]:
            active[j], beta[j] = False, 0.0
        else:
            active[j], signs[j] = True, np.sign(c[j] + steps[j] * a[j])
        kinks.append((eta, beta.copy()))


_LARS_SIZES = [(1, 10, 100), (1, 20, 200), (2, 12, 60), (2, 20, 200)]


class TestLarsOracle:
    """With every weight equal, SLOPE is the lasso: the engine's path must
    be the LARS-lasso homotopy's, and every breakpoint of the engine that
    is not a lasso kink must leave beta's slope unchanged."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scenario, p, n", _LARS_SIZES,
                             ids=[f"s{s}-p{p}-n{n}" for s, p, n in _LARS_SIZES])
    def test_tied_weights_trace_the_lasso(self, scenario, p, n, seed):
        inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed))
        path = run_path(inst, validate_ray(np.zeros(p), np.ones(p)))
        kinks = _lars_lasso_kinks(inst)
        etas = np.array([eta for eta, _ in kinks])
        points = list(kinks) + [(0.5 * (e0 + e1), 0.5 * (b0 + b1))
                                for (e0, b0), (e1, b1) in zip(kinks, kinks[1:])]
        for eta, beta in points:
            scale = 1.0 + float(np.max(np.abs(beta)))
            assert np.max(np.abs(eval_path(path, eta) - beta)) <= 1e-9 * scale
        segments = list(path.segments)
        for left, right in zip(segments, segments[1:]):
            t = left.eta_end
            if np.min(np.abs(etas - t)) > 1e-9 * (1.0 + t):
                scale = 1.0 + float(np.max(np.abs(left.slope)))
                assert np.max(np.abs(right.slope - left.slope)) <= 1e-8 * scale
        last = [e.eta for e in path.breakpoints()][-1]
        assert last == pytest.approx(etas[-1], rel=0, abs=1e-9)

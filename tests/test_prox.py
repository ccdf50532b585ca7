import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slopepath import ProblemInstance, solve_slope, sorted_l1_prox
from slopepath.errors import DidNotConvergeError, NonFiniteError, ValidationError
from slopepath.model import check_weight_order
from slopepath.optimality import check_optimality
from slopepath import prox
from slopepath.prox import SolveResult, _lipschitz_estimate, slope_objective

from conftest import prox_bruteforce, random_ascending_weights


class TestSortedL1Prox:
    def test_zero_weights_identity(self):
        v = np.array([3.0, -1.0, 0.5])
        assert sorted_l1_prox(v, np.zeros(3)) == pytest.approx(v)

    def test_reduces_to_soft_threshold(self):
        out = sorted_l1_prox(np.array([3.0, 1.0]), np.array([1.0, 1.0]))
        assert out == pytest.approx([2.0, 0.0])

    def test_averaging_case(self):
        out = sorted_l1_prox(np.array([3.0, 1.0]), np.array([0.0, 2.0]))
        assert out == pytest.approx([1.0, 1.0])

    def test_signs_preserved(self):
        out = sorted_l1_prox(np.array([-3.0, 1.0]), np.array([0.0, 2.0]))
        assert out == pytest.approx([-1.0, 1.0])

    def test_descending_weights_rejected(self):
        with pytest.raises(ValidationError):
            sorted_l1_prox(np.ones(2), np.array([2.0, 1.0]))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            p = int(rng.integers(1, 7))
            v = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
            lam = random_ascending_weights(rng, p, scale=rng.uniform(0.2, 2.5))
            ours = sorted_l1_prox(v, lam)
            brute = prox_bruteforce(v, lam)
            assert np.max(np.abs(ours - brute)) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = int(rng.integers(1, 9))
            lam = random_ascending_weights(rng, p)
            u = rng.standard_normal(p)
            v = rng.standard_normal(p)
            du = sorted_l1_prox(u, lam) - sorted_l1_prox(v, lam)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    def test_output_order_consistent_with_input(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = int(rng.integers(2, 8))
            v = rng.standard_normal(p)
            lam = random_ascending_weights(rng, p)
            out = sorted_l1_prox(v, lam)
            iv = np.argsort(np.abs(v), kind="stable")
            assert np.all(np.diff(np.abs(out)[iv]) >= -1e-12)


class TestSolveSlope:
    def test_zero_weights_gives_least_squares(self, t2_instance):
        res = solve_slope(t2_instance, np.zeros(2))
        assert res.beta == pytest.approx([3.0, 1.0], abs=1e-8)

    def test_t2_fused_point(self, t2_instance):
        res = solve_slope(t2_instance, np.array([0.0, 2.0]))
        assert res.beta == pytest.approx([1.0, 1.0], abs=1e-8)
        assert res.report.optimal

    def test_dominating_weights_give_zero(self, t2_instance):
        # weight suffix sums dominate every gradient suffix at the origin
        res = solve_slope(t2_instance, np.array([4.0, 5.0]))
        assert res.beta == pytest.approx([0.0, 0.0], abs=0.0)

    def test_objective_monotone_with_restarts(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, 12)) / 6.0
        y = X @ rng.standard_normal(12) + 0.1 * rng.standard_normal(40)
        lam = random_ascending_weights(rng, 12)
        inst = ProblemInstance(y=y, X=X)
        res = solve_slope(inst, lam)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))
        assert res.report.worst_magnitude <= 1e-9 * (1.0 + lam.max())

    def test_ridge_instance(self):
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(6), np.ones(6)])  # rank one
        y = rng.standard_normal(6)
        inst = ProblemInstance(y=y, X=X, ridge=1e-3)
        res = solve_slope(inst, np.array([0.1, 0.2]))
        assert res.report.optimal

    def test_did_not_converge_carries_iterate(self, t2_instance, monkeypatch):
        monkeypatch.setattr(prox, "_MAX_ITERATIONS", 2)
        with pytest.raises(DidNotConvergeError) as exc_info:
            solve_slope(t2_instance, np.array([0.0, 2.0]))
        err = exc_info.value
        assert err.beta is not None
        assert err.report is not None
        assert err.iterations == 2

    def test_rejects_nan_stop_tolerance(self, t2_instance):
        with pytest.raises(ValidationError, match="stop_tolerance must be positive"):
            solve_slope(t2_instance, np.array([0.0, 2.0]), stop_tolerance=float("nan"))

    def test_deterministic(self, t2_instance):
        lam = np.array([0.3, 0.8])
        a = solve_slope(t2_instance, lam)
        b = solve_slope(t2_instance, lam)
        assert np.array_equal(a.beta, b.beta)
        assert a.iterations == b.iterations

    def test_objective_helper_matches_direct(self, t2_instance):
        beta = np.array([1.5, -0.5])
        lam = np.array([0.2, 0.9])
        val = slope_objective(t2_instance, lam, beta)
        resid = t2_instance.y - t2_instance.X @ beta
        direct = 0.5 * resid @ resid + np.sort(np.abs(beta)) @ lam
        assert val == pytest.approx(direct)


class TestSolverInputChecks:
    """Non-finite or misshapen input raises at once instead of sending the
    step search into an endless loop (NaN losses never pass its test)."""

    @staticmethod
    def _instance(X=None, y=(1.0, 2.0, 3.0)):
        return ProblemInstance(y=y, X=np.eye(3) if X is None else X)

    @pytest.mark.parametrize("weights", [[0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]])
    def test_non_finite_weight(self, weights):
        with pytest.raises(NonFiniteError, match="weights"):
            solve_slope(self._instance(), weights)

    @pytest.mark.parametrize("where", ["X", "y", "ridge"])
    def test_non_finite_unvalidated_instance(self, where):
        X = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        ridge = 0.0
        if where == "X":
            X[1, 1] = float("nan")
        elif where == "y":
            y[0] = float("inf")
        else:
            ridge = float("nan")
        with pytest.raises(NonFiniteError, match="instance"):
            solve_slope(ProblemInstance(y=y, X=X, ridge=ridge), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("y, ridge, message", [
        ((1.0, 2.0), 0.0, "inconsistent shapes"),
        ((1.0, 2.0, 3.0), -0.5, "ridge must be nonnegative"),
    ])
    def test_misshapen_unvalidated_instance(self, y, ridge, message):
        with pytest.raises(ValidationError, match=message):
            solve_slope(ProblemInstance(y=y, X=np.eye(3), ridge=ridge), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("estimate, X", [
        (None, [[1e300, 1e300], [1e300, -1e300]]),
        (1.0, [[1e300, 1e300], [1e300, -1e300]]),
        (None, [[1e155, 0.0], [0.0, 1e155]]),
    ], ids=["power", "backtracking", "power-1e155"])
    def test_overflowing_losses_stop_the_step_search(self, estimate, X, monkeypatch):
        # finite data whose X^T X v overflows float64 (X^T X = 1e310 I for
        # X = 1e155 I): the power estimate is not finite, so the solve stops
        # before its first step and caches no estimate; from a finite start
        # bound that the search doubles, the trial loss is NaN at once
        inst = ProblemInstance(y=[1e300, -1e300], X=np.array(X))
        if estimate is None:
            with np.errstate(all="ignore"), \
                    pytest.raises(NonFiniteError, match=r"X\^T X overflows float64; rescale X"):
                solve_slope(inst, [0.0, 1.0])
            assert "lipschitz_estimate" not in inst.__dict__
            return
        monkeypatch.setattr(prox, "_lipschitz_estimate", lambda instance: estimate)
        with np.errstate(all="ignore"), pytest.raises(DidNotConvergeError) as info:
            solve_slope(inst, [0.0, 1.0])
        assert info.value.beta.tolist() == [0.0, 0.0]
        assert info.value.iterations == 1
        assert "step search broke down" in str(info.value)
        assert "(trial loss nan, L = 2.1)" in str(info.value)

    @pytest.mark.parametrize("scale", [1e100, 1e10])
    def test_badly_scaled_data_stalls_fast(self, scale):
        # the optimum sits within rounding of (1, 2), where the gradient is
        # exactly zero: the iterate stops moving long before the cap, and
        # the solver says so at the first check after it stopped
        inst = ProblemInstance(y=(scale, 2.0 * scale), X=np.diag([scale, scale]))
        start = time.perf_counter()
        with np.errstate(all="ignore"), pytest.raises(DidNotConvergeError) as info:
            solve_slope(inst, (0.0, 1.0))
        assert time.perf_counter() - start < 0.5
        assert "stalled" in str(info.value)
        assert info.value.beta.tolist() == [1.0, 2.0]
        assert info.value.iterations <= 100
        assert info.value.report.worst_magnitude == 1.0

    @pytest.mark.parametrize("scale", [1e60, 1e100, 1e150])
    def test_lipschitz_estimate_survives_an_overflowing_norm(self, scale):
        # X = scale * I: the largest eigenvalue of X^T X is scale^2; past
        # 1e77 or so the plain sum of squares of a power iterate overflows
        inst = ProblemInstance(y=(1.0, 2.0), X=np.diag([scale, scale]))
        assert _lipschitz_estimate(inst) == pytest.approx(scale * scale, rel=1e-12)

    def test_lipschitz_estimate_is_computed_once_per_instance(self, monkeypatch):
        inst = self._instance(X=np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]]))
        first = solve_slope(inst, [0.1, 0.2, 0.4])
        assert inst.lipschitz_estimate == _lipschitz_estimate(inst)

        def fail(instance):
            raise AssertionError("estimate recomputed")

        monkeypatch.setattr(prox, "_lipschitz_estimate", fail)
        again = solve_slope(inst, [0.1, 0.2, 0.4])
        assert again.beta.tobytes() == first.beta.tobytes()
        assert again.iterations == first.iterations
        # a fresh instance with the same data does not share the cache
        with pytest.raises(AssertionError, match="recomputed"):
            solve_slope(ProblemInstance(y=inst.y, X=inst.X), [0.1, 0.2, 0.4])


# Frozen copies of the numpy-scalar PAV prox and of the solver loop that
# evaluated X z, X x_new and the weight check separately; the current code
# must reproduce their output bit for bit.


def _old_sorted_l1_prox(v, weights):
    v = np.asarray(v, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if v.shape != lam.shape or v.ndim != 1:
        raise ValidationError("v and weights must be 1-d vectors of equal length")
    check_weight_order(lam)
    p = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    d = np.abs(v)[order] - lam[::-1]
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
        fitted[pos: pos + block_len[b]] = block_sum[b] / block_len[b]
        pos += block_len[b]
    out = np.zeros(p)
    out[order] = np.maximum(fitted, 0.0)
    return np.sign(v) * out


def _old_slope_objective(instance, weights, beta):
    beta = np.asarray(beta, dtype=float)
    resid = instance.y - instance.X @ beta
    val = 0.5 * float(resid @ resid)
    if instance.ridge:
        val += 0.5 * instance.ridge * float(beta @ beta)
    return val + float(np.sort(np.abs(beta)) @ np.asarray(weights, dtype=float))


def _old_solve_slope(instance, weights, options, beta0=None):
    lam = np.asarray(weights, dtype=float)
    check_weight_order(lam)
    tol = options.stop_tolerance * (1.0 + float(np.max(lam, initial=0.0)))
    L = 1.05 * _lipschitz_estimate(instance) if options.step_rule == "power" else 1.0
    L = max(L, 1e-12)
    x = np.zeros(instance.p) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    z = x.copy()
    t = 1.0
    fx = _old_slope_objective(instance, lam, x)
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
        x_new = _old_sorted_l1_prox(z - g / L, lam / L)
        fz = _smooth(z)
        while True:
            diff = x_new - z
            quad = fz + float(g @ diff) + 0.5 * L * float(diff @ diff)
            if _smooth(x_new) <= quad + 1e-12 * (1.0 + abs(quad)):
                break
            L *= 2.0
            x_new = _old_sorted_l1_prox(z - g / L, lam / L)
        f_new = _old_slope_objective(instance, lam, x_new)
        if options.use_restart and f_new > fx + 1e-12 * (1.0 + abs(fx)):
            z = x.copy()
            t = 1.0
            g = instance.gradient(z)
            x_new = _old_sorted_l1_prox(z - g / L, lam / L)
            f_new = _old_slope_objective(instance, lam, x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, fx, t = x_new, f_new, t_new
        if options.record_objective:
            history.append(fx)
        if it % options.check_every == 0 or it == options.max_iterations:
            report = check_optimality(x, instance.gradient(x), lam, tol_eq=tol, tol_ineq=tol,
                                      tie_tol=1e-7 * (1.0 + float(np.max(np.abs(x)))))
            if report.worst_magnitude <= tol:
                return SolveResult(beta=x, report=report, iterations=it,
                                   objective=fx, objective_history=history)
    raise DidNotConvergeError("", beta=x, report=report, iterations=options.max_iterations)


def _one_config(max_iterations=100_000):
    """The one configuration solve_slope runs, in the form the frozen loop
    reads: the power step bound, restarts on, a check every 10 iterations
    and the objective recorded."""
    return SimpleNamespace(step_rule="power", stop_tolerance=1e-9, use_restart=True,
                           check_every=10, record_objective=True,
                           max_iterations=max_iterations)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


_PROX_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, 2.5, -2.5, 0.3, float("nan"),
                 float("inf"), -float("inf")]


@st.composite
def _prox_inputs(draw):
    p = draw(st.integers(0, 12))
    entry = st.one_of(st.sampled_from(_PROX_SPECIAL), st.floats(-4.0, 4.0, width=64))
    v = np.array(draw(st.lists(entry, min_size=p, max_size=p)), dtype=float)
    weight = st.one_of(st.sampled_from([0.0, 0.0, 0.4, 1.0, 1.0]), st.floats(0.0, 3.0))
    lam = np.sort(np.array(draw(st.lists(weight, min_size=p, max_size=p)), dtype=float))
    shape = draw(st.integers(0, 19))
    if shape == 0 and p >= 2:
        lam = lam[::-1].copy()  # descending
    elif shape == 1:
        lam = lam[:-1] if p else np.zeros(1)  # length mismatch
    elif shape == 2:
        v, lam = v.reshape(1, -1), lam.reshape(1, -1)  # not 1-d
    return v, lam


class TestProxBitIdentity:
    @given(_prox_inputs())
    def test_matches_frozen_oracle(self, inputs):
        v, lam = inputs
        try:
            old = _old_sorted_l1_prox(v, lam)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                sorted_l1_prox(v, lam)
            assert str(info.value) == str(exc)
            return
        new = sorted_l1_prox(v, lam)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    def test_long_input_with_ties(self):
        rng = np.random.default_rng(40)
        for p in (1, 100, 1000):
            v = np.round(rng.standard_normal(p), 1) * 3.0
            lam = np.sort(np.round(rng.uniform(0.0, 2.0, p), 1))
            assert sorted_l1_prox(v, lam).tobytes() == _old_sorted_l1_prox(v, lam).tobytes()


def _solver_cases():
    """Seeded solver inputs: plain and rank-deficient ridge designs, zero,
    tied and spread weights, as in the lam0 starts that run_path hands to
    the solver."""
    rng = np.random.default_rng(41)
    cases = []
    for trial in range(24):
        n, p = int(rng.integers(3, 25)), int(rng.integers(1, 10))
        X = rng.standard_normal((n, p)) / np.sqrt(n)
        ridge = 0.0
        if trial % 4 == 1:
            X[:, -1] = X[:, 0]
            ridge = 0.3
        y = X @ rng.standard_normal(p) + 0.2 * rng.standard_normal(n)
        lam = np.sort(rng.uniform(0.0, 1.0, p)) * rng.uniform(0.05, 2.0)
        if trial % 6 == 2:
            lam = np.full(p, 0.4)
        elif trial % 6 == 3:
            lam[: p // 2] = 0.0
        if trial % 7 == 6:
            rng.standard_normal(p)  # once a warm start; kept so later cases keep their data
        cases.append((ProblemInstance(y=y, X=X, ridge=ridge), lam))
    return cases


class TestSolverBitIdentity:
    @pytest.mark.parametrize("case", range(24))
    def test_matches_frozen_loop(self, case):
        instance, lam = _solver_cases()[case]
        new = solve_slope(instance, lam)
        old = _old_solve_slope(instance, lam, _one_config())
        assert _bits(new.beta) == _bits(old.beta)
        assert new.iterations == old.iterations
        assert _bits(new.objective) == _bits(old.objective)
        assert _bits(new.objective_history) == _bits(old.objective_history)
        assert new.report.worst_violation == old.report.worst_violation

    def test_iteration_cap_matches_frozen_loop(self, monkeypatch):
        instance, lam = _solver_cases()[0]
        monkeypatch.setattr(prox, "_MAX_ITERATIONS", 7)
        with pytest.raises(DidNotConvergeError) as new:
            solve_slope(instance, lam)
        with pytest.raises(DidNotConvergeError) as old:
            _old_solve_slope(instance, lam, _one_config(max_iterations=7))
        assert _bits(new.value.beta) == _bits(old.value.beta)
        assert new.value.iterations == old.value.iterations == 7

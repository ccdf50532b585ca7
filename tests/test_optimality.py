import numpy as np
import pytest
from hypothesis import given, strategies as st

from slopepath import (
    GroupStructure,
    OptimalityReport,
    ProblemInstance,
    check_optimality,
    signs_and_order,
    structure_from_beta,
)
from slopepath.errors import (
    InconsistentGroupsError,
    NonFiniteError,
    SlopePathError,
    ValidationError,
)
from slopepath.model import check_weight_order

from conftest import grid_minimize, random_ascending_weights


def _groups(beta, tol):
    return structure_from_beta(beta, np.zeros(len(beta)), tol).groups()


class TestDeriveGroups:
    def test_distinct_values_are_singletons(self):
        groups = _groups(np.array([2.0, 1.0]), tol=1e-9)
        assert [g.tolist() for g in groups] == [[], [1], [0]]

    def test_ties_cluster(self):
        groups = _groups(np.array([1.0, -1.0, 0.0, 2.0]), tol=1e-9)
        assert [sorted(g.tolist()) for g in groups] == [[2], [0, 1], [3]]


class TestSignsAndOrder:
    def test_t2_at_unit_eta(self):
        beta = np.array([2.0, 1.0])
        gradient = np.array([-1.0, 0.0])  # X^T(X beta - y) for the 2x2 case
        groups = [np.array([], dtype=int), np.array([1]), np.array([0])]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, -1.0]
        assert order.tolist() == [1, 0]

    def test_zero_vector_orders_by_gradient(self):
        beta = np.zeros(3)
        gradient = np.array([-2.0, 0.5, -1.0])
        groups = [np.arange(3)]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, 1.0, -1.0]
        # ascending |gradient| within the zero group
        assert order.tolist() == [1, 2, 0]

    def test_gradient_ties_break_by_index(self):
        beta = np.array([1.0, -1.0])
        gradient = np.zeros(2)
        groups = [np.array([], dtype=int), np.array([0, 1])]
        s, order = signs_and_order(beta, gradient, groups)
        assert s.tolist() == [-1.0, 1.0]
        assert order.tolist() == [0, 1]

    def test_inconsistent_groups_rejected(self):
        beta = np.array([1.0, 5.0])
        with pytest.raises(InconsistentGroupsError):
            signs_and_order(beta, np.zeros(2),
                            [np.array([], dtype=int), np.array([0, 1])])


class TestCheckOptimality:
    def test_scalar_soft_threshold(self):
        # a zeroed scalar is optimal exactly when the weight dominates
        report = check_optimality(np.zeros(1), np.array([0.7]), np.array([1.0]))
        assert report.optimal
        report = check_optimality(np.zeros(1), np.array([1.3]), np.array([1.0]))
        assert not report.optimal

    def test_t2_optimal_point(self, t2_instance):
        beta = np.array([2.0, 1.0])
        report = check_optimality(beta, t2_instance.gradient(beta),
                                  np.array([0.0, 1.0]))
        assert report.optimal
        assert report.cond1_residuals == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_t2_unpenalized_solution_fails(self, t2_instance):
        beta = np.array([3.0, 1.0])  # least-squares solution, zero gradient
        report = check_optimality(beta, t2_instance.gradient(beta),
                                  np.array([0.0, 1.0]))
        assert not report.optimal
        assert report.worst_violation[0] == "cond1"
        assert report.worst_violation[3] == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = 5
            beta = rng.standard_normal(p)
            beta[rng.integers(0, p)] = 0.0
            grad = rng.standard_normal(p)
            lam = random_ascending_weights(rng, p)
            base = check_optimality(beta, grad, lam)
            perm = rng.permutation(p)
            other = check_optimality(beta[perm], grad[perm], lam)
            assert base.optimal == other.optimal
            assert base.worst_violation[3] == pytest.approx(
                other.worst_violation[3], rel=1e-12, abs=1e-15)

    def test_scale_consistency(self):
        rng = np.random.default_rng(8)
        beta = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        lam = random_ascending_weights(rng, 4)
        c = 37.5
        base = check_optimality(beta, grad, lam, tol_eq=1e-9, tol_ineq=1e-9)
        scaled = check_optimality(beta, c * grad, c * lam, tol_eq=1e-9, tol_ineq=1e-9)
        assert scaled.cond1_residuals == pytest.approx(c * base.cond1_residuals)
        for (g1, k1, m1), (g2, k2, m2) in zip(base.slack_margins, scaled.slack_margins):
            assert (g1, k1) == (g2, k2)
            assert m2 == pytest.approx(c * m1, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [[float("nan"), 1.0], [0.0, float("nan")],
                                     [0.0, float("inf")], [-float("inf"), 1.0]],
                             ids=["nan-first", "nan-last", "inf", "minus-inf"])
    def test_non_finite_weights_rejected(self, lam):
        # +inf passes every order comparison when it sits last
        with pytest.raises(NonFiniteError, match="weights contain non-finite entries"):
            check_optimality(np.array([5.0, -7.0]), np.array([100.0, 3.0]), np.array(lam))


class TestOracleAgreement:
    def test_grid_minimizer_passes_and_perturbations_fail(self):
        rng = np.random.default_rng(12)
        trials = 0
        while trials < 200:
            p = int(rng.integers(1, 5))
            n = p + 4
            X = rng.standard_normal((n, p)) / np.sqrt(n)
            gram = X.T @ X
            if np.linalg.cond(gram) > 50:
                continue
            trials += 1
            beta_true = rng.standard_normal(p) * 2
            y = X @ beta_true + 0.3 * rng.standard_normal(n)
            lam = random_ascending_weights(rng, p)
            inst = ProblemInstance(y=y, X=X)

            beta_star = grid_minimize(X, y, lam)
            report = check_optimality(beta_star, inst.gradient(beta_star), lam,
                                      tol_eq=1e-4, tol_ineq=1e-4, tie_tol=3e-5)
            assert report.optimal, (
                f"grid minimizer rejected: worst={report.worst_violation}")

            bumped = beta_star.copy()
            bumped[int(rng.integers(0, p))] += 1e-2
            report = check_optimality(bumped, inst.gradient(bumped), lam,
                                      tol_eq=1e-4, tol_ineq=1e-4, tie_tol=3e-5)
            assert not report.optimal


# Frozen copies of the group-at-a-time routines that the array kernels
# replaced; every report, structure and exception must match them exactly.


def _old_structure_from_beta(beta, gradient, tol):
    beta = np.asarray(beta, dtype=float)
    absb = np.abs(beta)
    zero = np.flatnonzero(absb <= tol)
    nz = np.flatnonzero(absb > tol)
    nz = nz[np.argsort(absb[nz], kind="stable")]
    cuts = [0, *(np.flatnonzero(np.diff(absb[nz]) > tol) + 1).tolist(), nz.size] \
        if nz.size else [0]
    clusters = [nz[a:b] for a, b in zip(cuts, cuts[1:])]
    s, order = _old_signs_and_order(beta, gradient, [zero] + clusters,
                                    level_tol=max(1.0, beta.size) * tol)
    offsets = zero.size + np.array(cuts)
    levels = np.add.reduceat(absb[order], offsets[:-1]) / np.diff(offsets)
    return GroupStructure(order=order, offsets=offsets, levels=levels, signs=s)


def _old_signs_and_order(beta, gradient, groups, level_tol=None):
    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if beta.shape != gradient.shape or beta.ndim != 1:
        raise ValidationError("beta and gradient must be 1-d vectors of equal length")
    if level_tol is None:
        level_tol = 1e-6 * (1.0 + (float(np.max(np.abs(beta))) if beta.size else 0.0))
    _old_check_group_consistency(beta, groups, level_tol)
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


def _old_check_group_consistency(beta, groups, level_tol):
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
            raise InconsistentGroupsError(f"group {gi} spans unequal absolute values")


def _old_check_optimality(beta, gradient, weights, tol_eq=None, tol_ineq=None,
                          tie_tol=None):
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
        tie_tol = 1e-8 * (1.0 + (float(np.max(np.abs(beta))) if beta.size else 0.0))
    structure = _old_structure_from_beta(beta, gradient, tie_tol)
    sgrad = structure.signs[structure.order] * gradient[structure.order]
    bounds = np.concatenate(([0], structure.offsets))
    cond1, margins = [], []
    worst = ("none", 0, 0, 0.0)

    def _consider(cond, g, k, violation):
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
    return OptimalityReport(optimal=ok_eq and ok_ineq, cond1_residuals=cond1_arr,
                            slack_margins=margins, worst_violation=worst,
                            tol_eq=tol_eq, tol_ineq=tol_ineq)


def _same_float(a, b) -> bool:
    """Same bits, or both NaN (a NaN's sign and payload follow the
    compiler's operand order, not the algorithm's)."""
    return type(a) is type(b) and (np.isnan(a) and np.isnan(b)
                                   or np.float64(a).tobytes() == np.float64(b).tobytes())


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and all(_same_float(x, y) for x, y in zip(a.tolist(), b.tolist()))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (SlopePathError, ValueError, IndexError) as exc:
        return exc


def _assert_same_outcome(new, old):
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        return True
    return False


def _assert_same_report(new, old):
    if _assert_same_outcome(new, old):
        return
    assert new.optimal is old.optimal
    assert _same_array(new.cond1_residuals, old.cond1_residuals)
    assert len(new.slack_margins) == len(old.slack_margins)
    for (g1, k1, m1), (g2, k2, m2) in zip(new.slack_margins, old.slack_margins):
        assert (type(g1), type(k1), g1, k1) == (type(g2), type(k2), g2, k2)
        assert _same_float(m1, m2)
    assert new.worst_violation[:3] == old.worst_violation[:3]
    assert _same_float(new.worst_violation[3], old.worst_violation[3])
    assert (new.tol_eq, new.tol_ineq) == (old.tol_eq, old.tol_ineq)


def _assert_same_structure(new, old):
    if _assert_same_outcome(new, old):
        return
    for name in ("order", "offsets", "levels", "signs"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# values that make exact ties, ties inside the default tie_tol, both zeros
# and NaN likely; the strategies never narrow below these
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, -1.0 - 1e-9, 0.5, -0.5, 2.0, 1e-9, -1e-9,
            float("nan")]
_entries = st.one_of(st.sampled_from(_SPECIAL),
                     st.floats(-3.0, 3.0, allow_nan=False, width=64))
_weight_entries = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0]),
                            st.floats(0.0, 3.0, allow_nan=False))
_tols = st.one_of(st.none(), st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 0.6, -1e-9]))


@st.composite
def _check_inputs(draw):
    p = draw(st.integers(0, 8))
    beta = np.array(draw(st.lists(_entries, min_size=p, max_size=p)), dtype=float)
    grad = np.array(draw(st.lists(_entries, min_size=p, max_size=p)), dtype=float)
    mode = draw(st.integers(0, 2))
    if mode == 1:  # a gradient that ties with the coefficients
        grad = np.where(np.isnan(grad), grad, -beta)
    elif mode == 2:  # exact gradient ties within groups
        grad = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                                      min_size=p, max_size=p)), dtype=float)
    lam = np.sort(np.array(draw(st.lists(_weight_entries, min_size=p, max_size=p)),
                           dtype=float))
    if draw(st.integers(0, 9)) == 0 and p >= 2:  # descending weights are rejected
        lam = lam[::-1].copy()
    return beta, grad, lam, draw(_tols), draw(_tols), draw(_tols)


class TestOracleBitIdentity:
    @given(_check_inputs())
    def test_check_matches_frozen_oracle(self, inputs):
        beta, grad, lam, tol_eq, tol_ineq, tie_tol = inputs
        kwargs = dict(tol_eq=tol_eq, tol_ineq=tol_ineq, tie_tol=tie_tol)
        _assert_same_report(_outcome(check_optimality, beta, grad, lam, **kwargs),
                            _outcome(_old_check_optimality, beta, grad, lam, **kwargs))

    @given(_check_inputs())
    def test_structure_matches_frozen_oracle(self, inputs):
        beta, grad, _, _, _, tie_tol = inputs
        tol = 1e-8 if tie_tol is None else tie_tol
        _assert_same_structure(_outcome(structure_from_beta, beta, grad, tol),
                               _outcome(_old_structure_from_beta, beta, grad, tol))

    @given(st.data())
    def test_signs_and_order_matches_frozen_oracle(self, data):
        beta, grad, *_ = data.draw(_check_inputs())
        p = beta.size
        # arbitrary group lists: most partition the coordinates, some drop,
        # repeat or leave out indices, and nonzero groups may be empty
        n_groups = data.draw(st.integers(1, 4))
        label = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=p, max_size=p))
        groups = [data.draw(st.permutations([i for i in range(p) if label[i] == g]))
                  for g in range(n_groups)]
        if p and data.draw(st.integers(0, 4)) == 0:
            groups[data.draw(st.integers(0, n_groups - 1))].append(
                data.draw(st.integers(-1, p)))
        level_tol = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 1e-8, 0.6, 5.0])))
        new = _outcome(signs_and_order, beta, grad, groups, level_tol)
        old = _outcome(_old_signs_and_order, beta, grad, groups, level_tol)
        if not _assert_same_outcome(new, old):
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                       for a, b in zip(new, old))

    @pytest.mark.parametrize("beta, grad", [
        ([], []),
        ([0.0], [0.5]),
        ([-0.0], [-0.5]),
        ([0.0, -0.0, 0.0], [1.0, -1.0, 0.0]),
        ([1.0, -1.0, 1.0 + 1e-9, 2.0], [0.0, 0.0, 0.0, -1.0]),
        ([1.0, 1.0, 1.0], [0.3, 0.3, -0.3]),
        ([np.nan, 1.0], [0.0, 0.0]),
        ([0.0, 1.0], [np.nan, 0.5]),
        ([1.0, 1.0], [np.nan, 0.5]),
        ([0.5, 1.0], [0.0]),
    ])
    @pytest.mark.parametrize("lam", ["zero", "tied", "spread"])
    def test_edge_cases(self, beta, grad, lam):
        beta, grad = np.array(beta, dtype=float), np.array(grad, dtype=float)
        p = beta.size
        lam = {"zero": np.zeros(p), "tied": np.full(p, 0.7),
               "spread": np.linspace(0.0, 1.5, p)}[lam]
        _assert_same_report(_outcome(check_optimality, beta, grad, lam),
                            _outcome(_old_check_optimality, beta, grad, lam))
        _assert_same_structure(_outcome(structure_from_beta, beta, grad, 1e-8),
                               _outcome(_old_structure_from_beta, beta, grad, 1e-8))

    def test_nan_coefficient_breaks_the_partition(self):
        with pytest.raises(InconsistentGroupsError,
                           match="groups do not partition the coordinates"):
            structure_from_beta(np.array([0.0, np.nan, 1.0]), np.zeros(3), 1e-8)
        with pytest.raises(InconsistentGroupsError,
                           match="groups do not partition the coordinates"):
            check_optimality(np.array([np.nan]), np.zeros(1), np.ones(1))


# Frozen copies of the whole-array routines as they stood before the reader
# trusted its own partitions and the margins moved into one Python pass;
# every report, structure and exception must match them bit for bit, NaN
# payloads included.


def _prev_check_weight_order(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.size and (lam[0] < 0 or (np.diff(lam) < 0).any()):
        raise ValidationError("weights must be ascending and nonnegative")
    return lam


def _prev_vectors(beta, gradient):
    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if beta.shape != gradient.shape or beta.ndim != 1:
        raise ValidationError("beta and gradient must be 1-d vectors of equal length")
    return beta, gradient


def _prev_structure_from_beta(beta, gradient, tol):
    beta, gradient = _prev_vectors(beta, gradient)
    absb = np.abs(beta)
    zero = (absb <= tol).nonzero()[0]
    nz = (absb > tol).nonzero()[0]
    nz = nz[absb[nz].argsort(kind="stable")]
    a = absb[nz]
    cuts = ((a[1:] - a[:-1]) > tol).nonzero()[0] + 1
    offsets = zero.size + np.concatenate(([0], cuts, [nz.size])) if nz.size \
        else np.array([zero.size])
    s, order = _prev_kernel(beta, gradient, np.concatenate((zero, nz)),
                            np.concatenate(([0], offsets)), max(1.0, beta.size) * tol)
    levels = np.add.reduceat(absb[order], offsets[:-1]) / (offsets[1:] - offsets[:-1])
    return GroupStructure(order=order, offsets=offsets, levels=levels, signs=s)


def _prev_signs_and_order(beta, gradient, groups, level_tol=None):
    beta, gradient = _prev_vectors(beta, gradient)
    if level_tol is None:
        level_tol = 1e-6 * (1.0 + (float(np.abs(beta).max()) if beta.size else 0.0))
    parts = [np.asarray(g, dtype=int) for g in groups]
    members = np.concatenate(parts) if parts else np.empty(0, dtype=int)
    return _prev_kernel(beta, gradient, members,
                        np.cumsum([0] + [g.size for g in parts]), level_tol)


def _prev_kernel(beta, gradient, members, bounds, level_tol):
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


def _prev_suffix_sums(values, bounds):
    for a, b in zip(bounds, bounds[1:]):
        for i in range(b - 2, a - 1, -1):
            values[i] = values[i + 1] + values[i]
    return np.array(values)


def _prev_check_optimality(beta, gradient, weights, tol_eq=None, tol_ineq=None,
                           tie_tol=None):
    import bisect

    beta = np.asarray(beta, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    lam = np.asarray(weights, dtype=float)
    if lam.shape != beta.shape:
        raise ValidationError("weights must match beta in length")
    _prev_check_weight_order(lam)
    scale_l = 1.0 + (float(lam.max()) if lam.size else 0.0)
    if tol_eq is None:
        tol_eq = 1e-8 * scale_l
    if tol_ineq is None:
        tol_ineq = 1e-8 * scale_l
    if tie_tol is None:
        tie_tol = 1e-8 * (1.0 + (float(np.abs(beta).max()) if beta.size else 0.0))
    structure = _prev_structure_from_beta(beta, gradient, tie_tol)
    o, eq = structure.order, structure.offsets[:-1]
    bounds = [0, *structure.offsets.tolist()]
    margin = _prev_suffix_sums(lam.tolist(), bounds) \
        - _prev_suffix_sums((structure.signs[o] * gradient[o]).tolist(), bounds)
    cond1 = margin[eq]
    ineq = np.ones(margin.size, dtype=bool)
    ineq[eq] = False
    violation = np.maximum(-margin, 0.0)
    violation[eq] = np.abs(cond1)
    violation[np.isnan(violation)] = 0.0
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
        worst_violation=worst, tol_eq=tol_eq, tol_ineq=tol_ineq)


def _outcome_of(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every error, numpy's included, must match
        return exc


def _same_bits(a, b) -> bool:
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_bit_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_report_bits(new, old):
    if _assert_same_outcome(new, old):
        return
    assert new.optimal is old.optimal
    assert _same_bit_array(new.cond1_residuals, old.cond1_residuals)
    assert len(new.slack_margins) == len(old.slack_margins)
    for (g1, k1, m1), (g2, k2, m2) in zip(new.slack_margins, old.slack_margins):
        assert (type(g1), type(k1), g1, k1) == (type(g2), type(k2), g2, k2)
        assert _same_bits(m1, m2)
    assert new.worst_violation[:3] == old.worst_violation[:3]
    assert _same_bits(new.worst_violation[3], old.worst_violation[3])
    assert _same_bits(new.tol_eq, old.tol_eq) and _same_bits(new.tol_ineq, old.tol_ineq)


def _assert_structure_bits(new, old):
    if _assert_same_outcome(new, old):
        return
    for name in ("order", "offsets", "levels", "signs"):
        assert _same_bit_array(getattr(new, name), getattr(old, name)), name


def _rejected_as_non_finite(new, lam, vector_reaches_check=True) -> bool:
    """For weights with a NaN or infinite entry, which the frozen copies let
    through: True if ``new`` is their rejection.  A 1-d vector that reaches
    the weight check must be rejected so.  Weights of another shape, or
    stopped by an earlier check, may instead keep the frozen copy's outcome
    (numpy's own shape errors, a length or 1-d check): False sends them,
    like all finite weights, to the bit-for-bit comparison."""
    if np.isfinite(lam).all():
        return False
    if isinstance(new, NonFiniteError):
        assert str(new) == "weights contain non-finite entries"
        return True
    assert not (lam.ndim == 1 and vector_reaches_check), new
    return False


_INF = float("inf")
# exact and near ties (1 + 1e-9 chains with 1 + 2e-9 inside the default
# tie_tol), values on either side of the zero threshold, both zeros, NaN
# and both infinities
_FAST_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, -1.0 - 2e-9, 1.0 + 2e-9, 2.0, -2.0,
                 0.5, 5e-9, -2e-8, 1e-300, float("nan"), -float("nan"), _INF, -_INF]
_fast_entries = st.one_of(st.sampled_from(_FAST_SPECIAL), st.floats(-3.0, 3.0, width=64))
_fast_weights = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, _INF, float("nan")]),
                          st.floats(0.0, 3.0, allow_nan=False))
_fast_tols = st.one_of(st.none(), st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-12, 1e-8, 1e-6, 0.6, -1e-9, float("nan"), _INF]))


@st.composite
def _fast_inputs(draw):
    p = draw(st.integers(0, 9))
    beta = np.array(draw(st.lists(_fast_entries, min_size=p, max_size=p)), dtype=float)
    grad = np.array(draw(st.lists(_fast_entries, min_size=p, max_size=p)), dtype=float)
    if draw(st.integers(0, 5)) == 0:
        beta = np.zeros(p)  # all zero
    elif p and draw(st.integers(0, 4)) == 0:  # a chained cluster of width (p - 1) * 1e-9
        beta = np.sign(beta + 0.5) * (1.0 + 1e-9 * np.arange(p))
    if draw(st.booleans()):  # gradient ties with the coefficients
        grad = np.where(np.isnan(grad), grad, -beta)
    lam = np.sort(np.array(draw(st.lists(_fast_weights, min_size=p, max_size=p)), dtype=float))
    shape = draw(st.integers(0, 11))
    if shape == 0 and p >= 2:
        lam = lam[::-1].copy()  # descending
    elif shape == 1 and p:
        lam[0] = -0.5  # negative
    elif shape == 2:
        lam = lam[1:] if p else np.zeros(1)  # length mismatch
    elif shape == 3:
        beta, grad, lam = beta[None, :], grad[None, :], lam[None, :]  # not 1-d
    elif shape == 4:
        beta, grad, lam = beta[:, None], grad[:, None], lam[:, None]
    elif shape == 5 and p:
        grad = grad[1:]  # gradient length mismatch
    return beta, grad, lam, draw(_fast_tols), draw(_fast_tols), draw(_fast_tols)


class TestFastPathBitIdentity:
    @given(_fast_inputs())
    def test_check_matches_frozen_copy(self, inputs):
        beta, grad, lam, tol_eq, tol_ineq, tie_tol = inputs
        kwargs = dict(tol_eq=tol_eq, tol_ineq=tol_ineq, tie_tol=tie_tol)
        with np.errstate(all="ignore"):
            new = _outcome_of(check_optimality, beta, grad, lam, **kwargs)
            old = _outcome_of(_prev_check_optimality, beta, grad, lam, **kwargs)
        if not _rejected_as_non_finite(new, lam, lam.shape == beta.shape):
            _assert_report_bits(new, old)

    @given(_fast_inputs())
    def test_structure_matches_frozen_copy(self, inputs):
        beta, grad, _, _, _, tie_tol = inputs
        tol = 1e-8 if tie_tol is None else tie_tol
        with np.errstate(all="ignore"):
            new = _outcome_of(structure_from_beta, beta, grad, tol)
            old = _outcome_of(_prev_structure_from_beta, beta, grad, tol)
        _assert_structure_bits(new, old)

    @given(st.data())
    def test_signs_and_order_matches_frozen_copy(self, data):
        beta, grad, *_ = data.draw(_fast_inputs())
        p = beta.shape[0] if beta.ndim else 0
        n_groups = data.draw(st.integers(1, 4))
        label = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=p, max_size=p))
        groups = [data.draw(st.permutations([i for i in range(p) if label[i] == g]))
                  for g in range(n_groups)]
        if p and data.draw(st.integers(0, 4)) == 0:
            groups[data.draw(st.integers(0, n_groups - 1))].append(
                data.draw(st.integers(-1, p)))
        level_tol = data.draw(st.one_of(st.none(), st.sampled_from(
            [0.0, -1e-9, 1e-8, 0.6, 5.0, float("nan"), _INF])))
        with np.errstate(all="ignore"):
            new = _outcome_of(signs_and_order, beta, grad, groups, level_tol)
            old = _outcome_of(_prev_signs_and_order, beta, grad, groups, level_tol)
        if not _assert_same_outcome(new, old):
            assert all(_same_bit_array(a, b) for a, b in zip(new, old))

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, _INF, -_INF, float("nan")]),
                              st.floats(-2.0, 2.0)), max_size=6),
           st.sampled_from([0, 1, 2]))
    def test_weight_order_matches_frozen_copy(self, values, ndim):
        lam = np.array(values, dtype=float).reshape((1,) * (ndim - 1) + (-1,)) \
            if ndim else np.array(values[0] if values else 0.0)
        new = _outcome_of(check_weight_order, lam)
        old = _outcome_of(_prev_check_weight_order, lam)
        if _rejected_as_non_finite(new, lam):
            return
        if not _assert_same_outcome(new, old):
            assert _same_bit_array(new, old)

    def test_grid_matches_frozen_copy(self):
        # dyadic data, so margins land exactly on zero and on -tol; NaNs of
        # both signs inside one group; every tolerance sign and scale
        nan = float("nan")
        betas = [[], [0.0], [-0.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 2.0],
                 [1.0, 1.0 + 2e-9, -1.0 - 4e-9, 0.5], [3.0, 3.0, 1e-9, 0.0],
                 [nan, 1.0, 1.0], [_INF, -_INF, 1.0], [0.5, -0.5, 0.5, 0.25]]
        tols = [None, 0.0, -0.0, 5e-324, 1e-8, 0.75, -1e-9, nan, _INF]
        for values in betas:
            beta = np.array(values, dtype=float)
            p = beta.size
            grads = [np.zeros(p), -beta, np.resize([0.5, -0.5, 0.25, nan, -nan], p),
                     np.resize([nan, -nan], p), np.resize([_INF, -0.5], p)]
            lams = [np.zeros(p), np.full(p, 0.5), np.arange(p) * 0.25, np.arange(p)[::-1] * 0.25,
                    np.resize([-0.5, 1.0], p), np.resize([0.0, nan], p),
                    np.resize([0.25, _INF], p), np.zeros(p + 1)]
            for grad in grads:
                for lam in lams:
                    for tie_tol in tols:
                        for tol in (None, 0.0, 0.25):
                            kwargs = dict(tol_eq=tol, tol_ineq=tol, tie_tol=tie_tol)
                            for b, g, w in ((beta, grad, lam),
                                            (beta[:, None], grad[:, None], lam[:, None])):
                                with np.errstate(all="ignore"):
                                    new = _outcome_of(check_optimality, b, g, w, **kwargs)
                                    old = _outcome_of(_prev_check_optimality, b, g, w, **kwargs)
                                if not _rejected_as_non_finite(new, w, w.shape == b.shape):
                                    _assert_report_bits(new, old)
                    with np.errstate(all="ignore"):
                        new = _outcome_of(structure_from_beta, beta, grad, tie_tol)
                        old = _outcome_of(_prev_structure_from_beta, beta, grad, tie_tol)
                    _assert_structure_bits(new, old)

    @pytest.mark.parametrize("p", [0, 1, 20, 200])
    def test_seeded_corpus(self, p):
        # ties inside the default tie_tol, exact zeros and a chained cluster
        rng = np.random.default_rng(p)
        for _ in range(25):
            beta = np.round(rng.standard_normal(p), 1)
            beta[rng.random(p) < 0.3] = 0.0
            if p >= 4:
                beta[:4] = 1.5 + 1e-9 * np.arange(4)
            grad = np.round(rng.standard_normal(p), 2)
            lam = np.sort(np.round(rng.uniform(0.0, 2.0, p), 1))
            _assert_report_bits(check_optimality(beta, grad, lam),
                                _prev_check_optimality(beta, grad, lam))
            _assert_structure_bits(structure_from_beta(beta, grad, 1e-8),
                                   _prev_structure_from_beta(beta, grad, 1e-8))

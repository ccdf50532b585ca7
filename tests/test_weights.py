import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from slopepath import (
    bh_sequence,
    contour_extremes,
    design_sequence,
    gaussian_sequence,
    normal_quantile,
    oscar_sequence,
    qs_sequence,
    sphericity_ratio,
)
from slopepath.weights import _QUANTILE_CHUNK, _SCALAR_MAX, _quantile_chunk
from slopepath.errors import (
    DenominatorUnderflowError,
    InvalidLevelError,
    NegativeOffsetError,
    ValidationError,
    ZeroWeightsError,
)

from conftest import random_ascending_weights


# Frozen copy of the element-at-a-time quantile recipe that the array
# kernel replaced; the generated data (and every stored benchmark path) is
# pinned to its exact output.
_QA = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
       1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_QB = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
       6.680131188771972e01, -1.328068155288572e01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
       -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
       3.754408661907416e00)
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _quantile_scalar(u: float) -> float:
    if not 0.0 < u < 1.0:
        if u == 0.0:
            return -math.inf
        if u == 1.0:
            return math.inf
        raise ValidationError(f"quantile argument must lie in [0, 1], got {u}")
    if u < 0.02425:
        q = math.sqrt(-2.0 * math.log(u))
        x = ((((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5])
             / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0))
    elif u > 0.97575:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        x = -((((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5])
              / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0))
    else:
        q = u - 0.5
        r = q * q
        x = ((((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]) * q
             / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0))
    if abs(x) < 26.0:
        e = 0.5 * math.erfc(-x / _SQRT2) - u
        v = e * _SQRT2PI * math.exp(0.5 * x * x)
        x = x - v / (1.0 + 0.5 * x * v)
    return x


def _oracle(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.array([_quantile_scalar(float(v)) for v in u.ravel()]).reshape(u.shape)


def _assert_bits_equal(u):
    ours = normal_quantile(u)
    assert ours.shape == np.shape(u)
    expected = _oracle(u).view(np.int64)
    assert np.array_equal(ours.view(np.int64), expected)
    # inputs of at most _SCALAR_MAX elements go element by element; the
    # array kernel must give the same bits on them too
    flat = np.ravel(u)
    assert np.array_equal(_quantile_chunk(flat).view(np.int64), expected.ravel())


class TestQuantileBitIdentity:
    def test_seeded_uniforms(self):
        gen = np.random.Generator(np.random.Philox(key=[7, 0]))
        u = (gen.integers(0, 1 << 53, size=1_000_000).astype(float) + 0.5) / float(1 << 53)
        _assert_bits_equal(u)

    def test_branch_edges(self):
        edges = np.array([0.02425, 0.97575])
        _assert_bits_equal(np.concatenate(
            (edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0))))

    def test_far_tails(self):
        # below u = 1e-300 the result is left unrefined (|x| >= 26); the
        # upper tail ends at 1 - 2^-53, where x is only about 8.2
        u = np.array([1e-300, 5e-324, 1.0 - 2.0 ** -53])
        assert np.all(np.abs(_oracle(u)[:2]) >= 26.0)
        _assert_bits_equal(u)

    def test_infinite_ends(self):
        _assert_bits_equal(np.array([0.0, 1.0, 0.5]))
        assert normal_quantile(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]

    @pytest.mark.parametrize("shape", [(0,), (3, 5), (_QUANTILE_CHUNK - 1,),
                                       (_QUANTILE_CHUNK,), (_QUANTILE_CHUNK + 1,)])
    def test_shapes_and_chunk_boundaries(self, shape):
        rng = np.random.default_rng(list(shape))
        u = rng.uniform(0.0, 1.0, size=shape)
        if u.size:
            u.flat[0], u.flat[-1] = 1e-4, 1.0 - 1e-4  # both tails
        _assert_bits_equal(u)

    @pytest.mark.parametrize("size", [1, _SCALAR_MAX, _SCALAR_MAX + 1])
    def test_both_sides_of_the_scalar_cutoff(self, size):
        # every branch (both tails, both ends, the unrefined far tails)
        # on either side of the element-by-element cutoff
        special = [0.0, 1.0, 1e-300, 5e-324, 1e-4, 0.02425, 0.5, 0.97575, 1.0 - 1e-4]
        rng = np.random.default_rng(size)
        for value in special:
            u = rng.uniform(size=size)
            u[size // 2] = value
            _assert_bits_equal(u)

    def test_non_contiguous_input(self):
        u = np.random.default_rng(5).uniform(size=(6, 8))
        _assert_bits_equal(np.asfortranarray(u))
        _assert_bits_equal(u[::2, 1::3])

    def test_scalar_returns_python_float(self):
        for u in (0.3, np.float64(0.99), 0.0, 1, 1e-300):
            out = normal_quantile(u)
            assert type(out) is float
            assert out == _quantile_scalar(float(u))

    @pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
    def test_out_of_range_raises(self, bad):
        message = f"quantile argument must lie in [0, 1], got {bad}"
        with pytest.raises(ValidationError) as scalar:
            normal_quantile(bad)
        assert str(scalar.value) == message
        with pytest.raises(ValidationError) as array:
            normal_quantile(np.array([0.5, bad, -2.0]))
        assert str(array.value) == message

    def test_peak_memory_bounded_by_chunking(self):
        u = np.random.default_rng(3).uniform(size=(8000, 80))
        tracemalloc.start()
        try:
            out = normal_quantile(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes


class TestNormalQuantile:
    def test_against_scipy(self):
        u = np.linspace(1e-9, 1 - 1e-9, 4001)
        ours = normal_quantile(u)
        ref = ndtri(u)
        assert np.max(np.abs(ours - ref)) < 1e-9

    def test_pinned_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
        assert normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-12)

    def test_tails(self):
        assert normal_quantile(0.0) == -math.inf
        assert normal_quantile(1.0) == math.inf
        assert abs(normal_quantile(1e-300) - ndtri(1e-300)) < 1e-7


class TestBhSequence:
    def test_median_weight_is_zero(self):
        lam = bh_sequence(2, 1.0)
        assert lam[0] == pytest.approx(0.0, abs=1e-15)

    def test_single_quantile(self):
        assert bh_sequence(1, 0.1)[0] == pytest.approx(1.6448536269514722, abs=1e-10)

    def test_two_quantiles(self):
        lam = bh_sequence(2, 0.2)
        assert lam == pytest.approx([1.2815515655446004, 1.6448536269514722], abs=1e-10)

    def test_invalid_level(self):
        with pytest.raises(InvalidLevelError):
            bh_sequence(3, 0.0)
        with pytest.raises(InvalidLevelError):
            bh_sequence(3, 1.5)


class TestGaussianSequence:
    def test_base_case_matches_bh(self):
        assert gaussian_sequence(1, 50, 0.1) == pytest.approx(bh_sequence(1, 0.1))

    def test_hand_unrolled(self):
        # lam_2 = quantile(0.95); lam_1 = min(lam_2, quantile(0.9) *
        # sqrt(1 + lam_2^2 / 6)); frozen from an independent script
        lam = gaussian_sequence(2, 10, 0.2)
        assert lam[1] == pytest.approx(1.6448536269514722, abs=1e-10)
        assert lam[0] == pytest.approx(1.5436840047421874, abs=1e-10)

    def test_large_n_approaches_bh(self):
        lam = gaussian_sequence(2, 10**8, 0.2)
        assert np.max(np.abs(lam - bh_sequence(2, 0.2))) < 1e-6

    def test_denominator_underflow_names_minimal_n(self):
        with pytest.raises(DenominatorUnderflowError, match="n >= 13"):
            gaussian_sequence(10, 12, 0.1)


class TestOscarSequence:
    def test_unit_offset(self):
        assert oscar_sequence(3, 1.0) == pytest.approx([1.0, 2.0, 3.0])

    def test_zero_offset_single(self):
        assert oscar_sequence(1, 0.0) == pytest.approx([0.0])

    def test_fractional_offset(self):
        assert oscar_sequence(4, 0.5) == pytest.approx([0.5, 1.5, 2.5, 3.5])

    def test_negative_offset(self):
        with pytest.raises(NegativeOffsetError):
            oscar_sequence(3, -0.1)


class TestQsSequence:
    def test_single(self):
        assert qs_sequence(1) == pytest.approx([1.0])

    def test_three(self):
        lam = qs_sequence(3)
        expected = [math.sqrt(3) - math.sqrt(2), math.sqrt(2) - 1.0, 1.0]
        assert lam == pytest.approx(expected, abs=1e-14)

    def test_octagon_vertex_equality_p2(self):
        # the flat and the axis vertices of the contour carry equal penalty
        lam = qs_sequence(2)
        diag = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
        axis = np.array([0.0, 1.0])
        pen = lambda b: float(np.sort(np.abs(b)) @ lam)
        assert pen(diag) == pytest.approx(pen(axis), abs=1e-14)
        assert pen(axis) == pytest.approx(1.0, abs=1e-14)

    def test_top_weight_is_one(self):
        for p in (1, 2, 7, 100):
            assert qs_sequence(p)[-1] == pytest.approx(1.0, abs=1e-14)


class TestSphericityRatio:
    def test_single(self):
        assert sphericity_ratio(1) == 1.0

    def test_matches_norm_of_qs(self):
        for p in (2, 17, 300):
            assert sphericity_ratio(p) == pytest.approx(
                float(np.linalg.norm(qs_sequence(p))), abs=1e-13)

    def test_reported_magnitudes(self):
        assert 1.46 <= sphericity_ratio(100) <= 1.48
        assert 1.81 <= sphericity_ratio(10000) <= 1.83


class TestContourExtremes:
    def test_qs_ratio_is_rho(self):
        for p in (2, 5, 30):
            mx, mn = contour_extremes(qs_sequence(p), r=1.0)
            assert mn == pytest.approx(1.0, abs=1e-12)
            assert mx / mn == pytest.approx(sphericity_ratio(p), abs=1e-12)

    def test_top_weight_only(self):
        p = 6
        lam = np.zeros(p)
        lam[-1] = 1.0
        mx, mn = contour_extremes(lam, r=1.0)
        assert mx == pytest.approx(1.0)
        assert mn == pytest.approx(1.0 / math.sqrt(p))

    def test_affine_weights_p2(self):
        mx, mn = contour_extremes(oscar_sequence(2, 1.0), r=1.0)
        assert mx == pytest.approx(math.sqrt(5.0))
        assert mn == pytest.approx(2.0)  # min(2, 3/sqrt(2)) attained at b_1

    def test_zero_weights_rejected(self):
        with pytest.raises(ZeroWeightsError):
            contour_extremes(np.zeros(3), r=1.0)

    def test_radius_scales_linearly(self):
        lam = qs_sequence(4)
        mx1, mn1 = contour_extremes(lam, r=1.0)
        mx3, mn3 = contour_extremes(lam, r=3.0)
        assert mx3 == pytest.approx(3 * mx1)
        assert mn3 == pytest.approx(3 * mn1)

    def test_monte_carlo_sandwich(self):
        rng = np.random.default_rng(5)
        lam = random_ascending_weights(rng, 7)
        mx, mn = contour_extremes(lam, r=1.0)
        samples = rng.standard_normal((10_000, 7))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        pen = np.sort(np.abs(samples), axis=1) @ lam
        assert np.all(pen <= mx + 1e-12)
        assert np.all(pen >= mn - 1e-12)


class TestDesignProperties:
    @pytest.mark.parametrize("kind,kwargs", [
        ("bh", {"q": 0.07}),
        ("gauss", {"q": 0.07, "n": 500}),
        ("oscar", {"q": 0.3}),
        ("qs", {}),
    ])
    @pytest.mark.parametrize("p", [1, 2, 9, 64])
    def test_ascending_nonnegative(self, kind, kwargs, p):
        lam = design_sequence(kind, p, **kwargs)
        assert lam.shape == (p,)
        assert lam[0] >= 0
        assert np.all(np.diff(lam) >= 0)

    def test_unknown_design(self):
        with pytest.raises(ValidationError):
            design_sequence("ridge", 4)

    def test_design_record(self):
        assert design_sequence("qs", 5) == pytest.approx(qs_sequence(5))
        assert design_sequence("bh", 4, q=0.2) == pytest.approx(bh_sequence(4, 0.2))
        with pytest.raises(ValidationError):
            design_sequence("bh", 4)  # missing level

    def test_qs_minimizes_contour_ratio(self):
        rng = np.random.default_rng(11)
        for p in (2, 5, 10):
            rho = sphericity_ratio(p)
            for _ in range(40):
                lam = random_ascending_weights(rng, p)
                mx, mn = contour_extremes(lam, r=1.0)
                assert mx / mn >= rho - 1e-9

    def test_affine_design_ratio_diverges(self):
        previous = 0.0
        for p in (10, 100, 1000):
            lam = oscar_sequence(p, 1.0)
            ratio = float(np.linalg.norm(lam)) / lam[-1]
            assert ratio >= math.sqrt((p - 1) / 3.0)
            assert ratio > sphericity_ratio(p)
            assert ratio > previous
            previous = ratio

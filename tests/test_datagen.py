import hashlib
import tracemalloc

import numpy as np
import pytest

from slopepath import ScenarioSpec, generate
from slopepath.datagen import _stream, _uniform_open
from slopepath.errors import OddDimensionError, ValidationError
from slopepath.model import instance_hash
from slopepath.weights import _QUANTILE_CHUNK, normal_quantile


class TestScenarioOne:
    def test_shapes_and_pairing(self):
        inst, beta = generate(ScenarioSpec(scenario=1, p=20, n=200, seed=3))
        assert inst.X.shape == (200, 20)
        assert inst.y.shape == (200,)
        assert np.array_equal(beta[10:], -beta[:10])

    def test_cross_correlation(self):
        # average correlation of paired columns over a few seeds
        rs = []
        for seed in range(5):
            inst, _ = generate(ScenarioSpec(scenario=1, p=20, n=200, seed=seed))
            for i in range(10):
                rs.append(np.corrcoef(inst.X[:, i], inst.X[:, i + 10])[0, 1])
        assert abs(np.mean(rs) - 0.8) < 0.1

    def test_column_variance_scales_inverse_root_n(self):
        n, p, reps = 50, 10, 100
        variances = []
        for seed in range(reps):
            inst, _ = generate(ScenarioSpec(scenario=1, p=p, n=n, seed=seed))
            variances.extend(np.var(inst.X, axis=0, ddof=1))
        variances = np.asarray(variances)
        target = 1.0 / np.sqrt(n)
        # standard error of the mean of ~Gaussian sample variances
        se = target * np.sqrt(2.0 / (n - 1)) / np.sqrt(len(variances))
        assert abs(variances.mean() - target) < 5 * se

    def test_odd_p_rejected(self):
        with pytest.raises(OddDimensionError):
            ScenarioSpec(scenario=1, p=7, n=50, seed=0)


class TestScenarioTwo:
    def test_supports(self):
        inst, beta = generate(ScenarioSpec(scenario=2, p=4, n=8, seed=5))
        assert set(np.unique(inst.X)).issubset({-1.0, 0.0, 1.0})
        assert set(np.unique(beta)).issubset({-2.0, -1.0, 0.0, 1.0, 2.0})
        assert inst.X.shape == (8, 4)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a, beta_a = generate(ScenarioSpec(scenario=1, p=8, n=30, seed=123))
        b, beta_b = generate(ScenarioSpec(scenario=1, p=8, n=30, seed=123))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(beta_a, beta_b)

    def test_distinct_seeds_distinct_instances(self):
        hashes = set()
        for seed in range(100):
            inst, _ = generate(ScenarioSpec(scenario=2, p=4, n=10, seed=seed))
            hashes.add(instance_hash(inst))
        assert len(hashes) == 100

    @pytest.mark.parametrize("spec, digest", [
        # the first path-tall benchmark instance (slot 0)
        (ScenarioSpec(scenario=1, p=80, n=8000, seed=2000),
         "8e50da79defc6410dbdc71b216b8aafb513fcabb5b19f19a8a90df3dc7733e9c"),
        # the first replicate-verify benchmark instance (slot 0)
        (ScenarioSpec(scenario=2, p=20, n=200, seed=42),
         "8f2c167c2fe08c45549d3f0fa9be473ecc079735cc27423a7b8f8dace44cd4f0"),
    ], ids=["scenario1-tall", "scenario2"])
    def test_pinned_across_versions(self, spec, digest):
        # the stored benchmark paths hold only on these exact bytes
        inst, beta = generate(spec)
        h = hashlib.sha256()
        for a in (inst.X, inst.y, beta):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == digest

    def test_invalid_scenario(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(scenario=3, p=4, n=10, seed=0)


def _generate_whole(spec):
    """``generate`` as it was when it drew X as one whole array: the
    reference for the row-block generator's bytes."""
    def standard_normal(gen, size):
        u = (gen.integers(0, 1 << 53, size=size).astype(float) + 0.5) / float(1 << 53)
        return normal_quantile(u)

    p, n = spec.p, spec.n
    if spec.scenario == 1:
        half = p // 2
        theta = standard_normal(_stream(spec.seed, "theta"), half)
        beta = np.concatenate((theta, -theta))
        a = 0.5 * (np.sqrt(1.0 + 0.8) + np.sqrt(1.0 - 0.8))
        b = 0.5 * (np.sqrt(1.0 + 0.8) - np.sqrt(1.0 - 0.8))
        scale = n ** (-0.25)
        z = standard_normal(_stream(spec.seed, "X"), (n, p))
        z1, z2 = z[:, :half], z[:, half:]
        X = np.empty((n, p))
        X[:, :half] = scale * (a * z1 + b * z2)
        X[:, half:] = scale * (b * z1 + a * z2)
    else:
        beta = _stream(spec.seed, "beta").integers(-2, 3, size=p).astype(float)
        X = _stream(spec.seed, "X").integers(-1, 2, size=(n, p)).astype(float)
    e = standard_normal(_stream(spec.seed, "noise"), n)
    return X, X @ beta + e, beta


def _block_edges(p):
    """Row counts around the block of ``generate``: one row, one short of
    a block, a block, one over, and a ragged last block."""
    rows = max(1, _QUANTILE_CHUNK // p)
    return sorted({n for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5) if n >= 1})


class TestRowBlocks:
    # p = 16386 makes a block of one row
    @pytest.mark.parametrize("scenario, p, n", [
        (scenario, p, n)
        for scenario, ps in ((1, (2, 80, 16386)), (2, (1, 7, 20)))
        for p in ps for n in _block_edges(p)])
    def test_bytes_equal_the_whole_array_draw(self, scenario, p, n):
        spec = ScenarioSpec(scenario=scenario, p=p, n=n, seed=11)
        inst, beta = generate(spec)
        for got, want in zip((inst.X, inst.y, beta), _generate_whole(spec)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec, bound", [
        (ScenarioSpec(scenario=1, p=80, n=8000, seed=2000), 2.0),
        (ScenarioSpec(scenario=2, p=80, n=8000, seed=1), 1.5),
    ], ids=["scenario1", "scenario2"])
    def test_peak_memory_is_about_x(self, spec, bound):
        # the whole-array draw peaked at 3.0x (scenario 1) and 2.0x
        # (scenario 2) X's bytes; the blocks leave X plus one block
        tracemalloc.start()
        try:
            inst, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * inst.X.nbytes


class TestUniformOpen:
    def test_top_integer_stays_below_one(self):
        # (2^53 - 1 + 1/2) / 2^53 rounds to 1, whose quantile is +inf; it
        # becomes the largest double below 1, and every other integer keeps
        # its value (2^52 + 1 and 2^53 - 2 round to even)
        class Stub:
            def integers(self, low, high, size):
                return np.array([0, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1])

        u = _uniform_open(Stub(), 4)
        assert u.tolist() == [2.0 ** -54, 0.5 + 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]
        assert np.isfinite(normal_quantile(u)).all()

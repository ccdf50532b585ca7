import hashlib

import numpy as np
import pytest

from slopepath import ScenarioSpec, generate
from slopepath.errors import OddDimensionError, ValidationError
from slopepath.model import instance_hash


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

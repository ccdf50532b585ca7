"""Seeded synthetic instances for the two benchmark scenarios.

Scenario 1: true coefficients beta = (theta, -theta) with theta standard
normal, and rows of X drawn from N(0, Sigma) with

    Sigma = (1 / sqrt(n)) [[I, 0.8 I], [0.8 I, I]],

so each column pairs with its opposite-signed partner at correlation 0.8.
Scenario 2: beta entries uniform on {-2,-1,0,1,2} and X entries uniform
on {-1,0,1}.  Both use y = X beta + e with standard normal noise.

Randomness comes from the counter-based Philox generator keyed by
(seed, stream), with the streams below, so drawing one quantity never
perturbs the others and replicate seeds are independent by construction.
Gaussian variates are produced by inverse-CDF of uniforms drawn from 53-bit
integers, which keeps the draws reproducible across languages given the
same generator.  The inverse CDF is
:func:`~slopepath.weights.normal_quantile`, evaluated on whole arrays in
fixed-size chunks with numpy arithmetic, per-element libm calls for log and
erfc, and numpy's exp where a rounding certificate shows that it gives
libm's bits (libm's exp on the rest), so every draw is bit-identical to the
element-at-a-time recipe that the stored benchmark paths were traced on.
It is called through this module's global name, where a tracer can wrap
it.

X is allocated once and filled in row blocks of ``_QUANTILE_CHUNK // p``
rows (at least one), so the temporaries beside it are one block's worth,
not several copies of X.  The blocks draw from the same stream in the same
order, and the quantile map and the mixing are elementwise, so X, y and
beta are byte-identical to the whole-array (and element-at-a-time) recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OddDimensionError, ValidationError
from .model import ProblemInstance
from .weights import _QUANTILE_CHUNK, normal_quantile

__all__ = ["ScenarioSpec", "generate", "STREAMS"]

#: substream labels -> Philox key second word
STREAMS = {"theta": 1, "X": 2, "noise": 3, "beta": 4}

_RHO = 0.8
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic dataset configuration (scenario 1 needs even p)."""

    scenario: int
    p: int
    n: int
    seed: int

    def __post_init__(self):
        if self.scenario not in (1, 2):
            raise ValidationError(f"scenario must be 1 or 2, got {self.scenario}")
        if self.p < 1 or self.n < 1:
            raise ValidationError("p and n must be positive")
        if self.scenario == 1 and self.p % 2:
            raise OddDimensionError(f"scenario 1 requires even p, got {self.p}")


def _stream(seed: int, name: str) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(STREAMS[name])],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniform draws strictly inside (0, 1): (k + 1/2) / 2^53 for a 53-bit
    integer k.  Below 1/2 that is exact; above it k + 1/2 rounds to even, so
    the resolution there is 2^-52, and k = 2^53 - 1, which would round to 1,
    becomes the largest double below 1."""
    u = (gen.integers(0, 1 << 53, size=size).astype(float) + 0.5) / float(1 << 53)
    return np.minimum(u, _BELOW_ONE, out=u)


def _standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    return normal_quantile(_uniform_open(gen, size))


def generate(spec: ScenarioSpec) -> tuple[ProblemInstance, np.ndarray]:
    """Instance and true coefficient vector for a scenario spec.

    Deterministic per seed; distinct streams for theta/beta, X, and the
    noise, so the same (seed, scenario, p, n) always yields bit-identical
    output.
    """
    p, n = spec.p, spec.n
    X = np.empty((n, p))
    gen = _stream(spec.seed, "X")
    rows = max(1, _QUANTILE_CHUNK // p)  # one quantile chunk per block
    if spec.scenario == 1:
        half = p // 2
        theta = _standard_normal(_stream(spec.seed, "theta"), half)
        beta = np.concatenate((theta, -theta))
        # closed-form square root of the block covariance: with
        # C = [[I, rho I], [rho I, I]], C^{1/2} = [[aI, bI], [bI, aI]]
        a = 0.5 * (np.sqrt(1.0 + _RHO) + np.sqrt(1.0 - _RHO))
        b = 0.5 * (np.sqrt(1.0 + _RHO) - np.sqrt(1.0 - _RHO))
        scale = n ** (-0.25)  # sqrt of the 1/sqrt(n) variance factor
        for lo in range(0, n, rows):
            block = X[lo:lo + rows]
            z = _standard_normal(gen, block.shape)
            z1, z2 = z[:, :half], z[:, half:]
            block[:, :half] = scale * (a * z1 + b * z2)
            block[:, half:] = scale * (b * z1 + a * z2)
    else:
        beta = _stream(spec.seed, "beta").integers(-2, 3, size=p).astype(float)
        for lo in range(0, n, rows):
            block = X[lo:lo + rows]
            block[...] = gen.integers(-1, 2, size=block.shape)

    e = _standard_normal(_stream(spec.seed, "noise"), n)
    y = X @ beta + e
    return ProblemInstance(y=y, X=X), beta

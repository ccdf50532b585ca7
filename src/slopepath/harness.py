"""Experiment harness: per-path metrics, replicated benchmark tables, and
plot-ready contour / sphericity data.

Path summaries treat the fuse and split events as the breakpoints: the
state immediately after each one contributes to the averages, the initial
solution and the terminal marker do not, and switch events are skipped
throughout since they leave the path's slope unchanged.

The designs, their default levels (:data:`DEFAULT_DESIGN_PARAMS`, the same
dict object) and rho_p (:func:`.weights.sphericity_ratio`) live in :mod:`.weights`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datagen import ScenarioSpec, generate
from .engine import run_path
from .errors import EmptyPathError, ValidationError, ZeroWeightsError
from .model import KIND_CODES, SolutionPath, check_weight_order, validate_ray
from .weights import DEFAULT_DESIGN_PARAMS, design_sequence, sphericity_ratio

__all__ = [
    "path_metrics",
    "ExperimentReport",
    "run_experiment",
    "emit_contour",
    "emit_sphericity_curve",
    "DEFAULT_DESIGN_PARAMS",
]


def path_metrics(path: SolutionPath) -> tuple[float, float, int]:
    """(mean nonzero coefficients, mean nonzero groups, fuse+split count).

    Means are taken over the post-event states of the fuse and split
    breakpoints, read from the path's event columns.  A path without any
    such event is summarized by its terminal state alone.
    """
    log = path.events
    kinds = np.frombuffer(log.kind, dtype=np.int8)
    structural = (kinds == KIND_CODES["fuse"]) | (kinds == KIND_CODES["split"])
    if not structural.any():
        if not log:
            raise EmptyPathError("path has no events to summarize")
        terminal = log[-1]
        return float(terminal.nnz), float(terminal.n_groups), 0
    # integer counts, so the float64 sums are exact in any order
    nnz = np.frombuffer(log.nnz, dtype=np.int32)[structural]
    ngroups = np.frombuffer(log.n_groups, dtype=np.int32)[structural]
    if nnz.min() < 0 or ngroups.min() < 0:
        raise ValidationError("a fuse or split event has no nnz or n_groups")
    return float(nnz.mean()), float(ngroups.mean()), int(nnz.size)


@dataclass(frozen=True)
class ExperimentCell:
    """Aggregates for one (design, p, n) combination."""

    design: str
    p: int
    n: int
    replicates: int
    seeds: tuple[int, ...]
    mean_nonzero: float
    mean_nonzero_groups: float
    mean_fuse_split_events: float
    half_width_nonzero: float
    half_width_groups: float
    half_width_events: float
    wall_time: float

    def results_dict(self) -> dict:
        """Every field but the wall time, which varies from run to run."""
        out = asdict(self)
        del out["wall_time"]
        return out


@dataclass(frozen=True)
class ExperimentReport:
    scenario: int
    seed_base: int
    design_params: dict
    cells: tuple[ExperimentCell, ...] = field(default_factory=tuple)

    def cell(self, design: str, p: int, n: int) -> ExperimentCell:
        for c in self.cells:
            if (c.design, c.p, c.n) == (design, p, n):
                return c
        raise KeyError((design, p, n))

    def to_json(self, include_timing: bool = False) -> str:
        """Deterministic JSON given the configuration; wall times are
        excluded unless asked for, so repeated runs emit identical bytes."""
        payload = {
            "config": {
                "scenario": self.scenario,
                "seed_base": self.seed_base,
                "design_params": self.design_params,
            },
            "results": [c.results_dict() for c in self.cells],
        }
        if include_timing:
            payload["timing"] = {
                f"{c.design}/{c.p}x{c.n}": c.wall_time for c in self.cells
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [
            f"scenario {self.scenario}, seed base {self.seed_base}, "
            f"breakpoint averages exclude the initial state and include the final event",
            f"{'design':<8} {'p':>5} {'n':>6} {'reps':>5} "
            f"{'nonzero':>10} {'groups':>10} {'events':>10} {'secs':>8}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.design:<8} {c.p:>5} {c.n:>6} {c.replicates:>5} "
                f"{c.mean_nonzero:>10.2f} {c.mean_nonzero_groups:>10.2f} "
                f"{c.mean_fuse_split_events:>10.1f} {c.wall_time:>8.2f}"
            )
        return "\n".join(lines)


def _one_replicate(args) -> tuple[int, dict]:
    scenario, p, n, seed, designs, params = args
    instance, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed))
    out = {}
    for design in designs:
        lam_bar = design_sequence(design, p, q=params.get(f"q_{design}"), n=n)
        ray = validate_ray(np.zeros(p), lam_bar)
        t0 = time.perf_counter()
        path = run_path(instance, ray)
        elapsed = time.perf_counter() - t0
        out[design] = (*path_metrics(path), elapsed)
    return seed, out


def run_experiment(scenario: int, sizes, designs, replicates: int,
                   seed_base: int, threads: int = 1,
                   design_params: dict | None = None) -> ExperimentReport:
    """Replicated benchmark over (p, n) sizes and weight designs.

    One instance is generated per replicate (seed = seed_base + index) and
    every design is run on it with lam0 = 0 and the design's sequence as
    the ray direction.  Results are reduced in replicate order regardless
    of worker scheduling, so reports are deterministic given the
    configuration.  ``design_params`` overrides :data:`DEFAULT_DESIGN_PARAMS`.
    """
    if replicates < 1:
        raise ValidationError(f"replicates must be at least 1, got {replicates}")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    params = dict(DEFAULT_DESIGN_PARAMS)
    if design_params:
        params.update(design_params)
    designs = list(designs)

    cells = []
    for (p, n) in sizes:
        seeds = tuple(seed_base + r for r in range(replicates))
        jobs = [(scenario, p, n, seed, designs, params) for seed in seeds]
        if threads > 1:
            # imported here: it pulls in multiprocessing, which a serial
            # run (and a plain import of the package) never needs
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=threads) as pool:
                raw = list(pool.map(_one_replicate, jobs))
        else:
            raw = [_one_replicate(job) for job in jobs]
        raw.sort(key=lambda item: item[0])

        for design in designs:
            nonzero = np.array([res[design][0] for _, res in raw])
            groups = np.array([res[design][1] for _, res in raw])
            events = np.array([res[design][2] for _, res in raw], dtype=float)
            secs = float(np.sum([res[design][3] for _, res in raw]))

            def hw(a: np.ndarray) -> float:
                if a.size < 2:
                    return 0.0
                return float(1.96 * np.std(a, ddof=1) / np.sqrt(a.size))

            cells.append(ExperimentCell(
                design=design, p=p, n=n, replicates=replicates, seeds=seeds,
                mean_nonzero=float(nonzero.mean()),
                mean_nonzero_groups=float(groups.mean()),
                mean_fuse_split_events=float(events.mean()),
                half_width_nonzero=hw(nonzero),
                half_width_groups=hw(groups),
                half_width_events=hw(events),
                wall_time=secs,
            ))
    return ExperimentReport(scenario=scenario, seed_base=seed_base,
                            design_params=params, cells=tuple(cells))


def emit_contour(weights, n_angles: int = 720) -> np.ndarray:
    """Level set {penalty = 1} restricted to the (beta1, beta2) plane.

    With every other coordinate zero the penalty of a plane point is
    lam_{p-1} min(|b1|, |b2|) + lam_p max(|b1|, |b2|), positively
    homogeneous in the radius, so each ray from the origin crosses the
    level set exactly once.  Returns an (n_angles >= 1, 2) polyline.
    """
    lam = np.asarray(weights, dtype=float)
    if lam.size < 2:
        raise ValidationError("contour needs at least two weights")
    check_weight_order(lam)
    if not np.any(lam > 0):
        raise ZeroWeightsError("weights must not be identically zero")
    if n_angles < 1:
        raise ValidationError(f"n_angles must be at least 1, got {n_angles}")
    phi = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    cx, sx = np.abs(np.cos(phi)), np.abs(np.sin(phi))
    unit_penalty = lam[-2] * np.minimum(cx, sx) + lam[-1] * np.maximum(cx, sx)
    radius = 1.0 / unit_penalty
    return np.column_stack((radius * np.cos(phi), radius * np.sin(phi)))


#: the largest p_max :func:`emit_sphericity_curve` accepts
SPHERICITY_P_MAX = 10**7


def emit_sphericity_curve(p_max: int) -> np.ndarray:
    """(p, rho_p) table for p = 1..p_max, thinned log-spaced above 1000.

    Each row's rho_p is :func:`.weights.sphericity_ratio` of its p, bit for
    bit, so a row costs O(p) time and memory: about 9 ms for p_max = 10,000
    and 0.23 s for p_max = 1,000,000 (medians, 2-core Xeon VM), and about
    32 bytes per p for the row's design vector and its temporaries.  So
    p_max must be between 1 and ``SPHERICITY_P_MAX`` = 10**7 (some 320 MB);
    anything else raises :class:`ValidationError` before any allocation.
    """
    if p_max < 1:
        raise ValidationError("p_max must be >= 1")
    if p_max > SPHERICITY_P_MAX:
        raise ValidationError(
            f"p_max must be at most {SPHERICITY_P_MAX:,}, got {p_max:,}: the row at p holds "
            f"about 32 bytes per p, some {32 * SPHERICITY_P_MAX // 10**6} MB at the bound")
    keep = set(range(1, min(p_max, 1000) + 1))
    if p_max > 1000:
        extra = np.unique(np.round(np.logspace(
            math.log10(1000.0), math.log10(float(p_max)), 200)).astype(int))
        keep.update(int(v) for v in extra if v <= p_max)
        keep.add(p_max)
    return np.asarray([(p, sphericity_ratio(p)) for p in sorted(keep)], dtype=float)

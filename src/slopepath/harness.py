"""Experiment harness: per-path metrics, replicated benchmark tables, and
plot-ready contour / sphericity data.

Path summaries treat the fuse and split events as the breakpoints: the
state immediately after each one contributes to the averages, the initial
solution and the terminal marker do not, and switch events are skipped
throughout since they leave the path's slope unchanged.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .datagen import ScenarioSpec, generate
from .engine import PathOptions, run_path
from .errors import EmptyPathError, ValidationError, ZeroWeightsError
from .model import SolutionPath, check_weight_order, validate_ray
from .weights import design_sequence

__all__ = [
    "path_metrics",
    "ExperimentReport",
    "run_experiment",
    "design_direction",
    "emit_contour",
    "emit_sphericity_curve",
    "DEFAULT_DESIGN_PARAMS",
]

#: harness-level defaults for the design parameters the benchmark tables
#: do not pin down: the false-discovery level for the quantile designs and
#: the offset of the affine design.  Both are plain config, not estimates.
DEFAULT_DESIGN_PARAMS = {"q_bh": 0.1, "q_gauss": 0.1, "q_oscar": 1.0}


def path_metrics(path: SolutionPath) -> tuple[float, float, int]:
    """(mean nonzero coefficients, mean nonzero groups, fuse+split count).

    Means are taken over the post-event states of the fuse and split
    breakpoints.  A path without any such event is summarized by its
    terminal state alone.
    """
    nnz = []
    ngroups = []
    for event in path.breakpoints():
        if event.kind in ("fuse", "split"):
            nnz.append(event.nnz)
            ngroups.append(event.n_groups)
    if not nnz:
        if not path.events:
            raise EmptyPathError("path has no events to summarize")
        terminal = path.events[-1]
        return float(terminal.nnz), float(terminal.n_groups), 0
    return float(np.mean(nnz)), float(np.mean(ngroups)), len(nnz)


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
        return {
            "design": self.design,
            "p": self.p,
            "n": self.n,
            "replicates": self.replicates,
            "seeds": list(self.seeds),
            "mean_nonzero": self.mean_nonzero,
            "mean_nonzero_groups": self.mean_nonzero_groups,
            "mean_fuse_split_events": self.mean_fuse_split_events,
            "half_width_nonzero": self.half_width_nonzero,
            "half_width_groups": self.half_width_groups,
            "half_width_events": self.half_width_events,
        }


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


def design_direction(design: str, p: int, n: int, params: dict) -> np.ndarray:
    """Ray direction of a named design, its level taken from ``params``
    (keys as in :data:`DEFAULT_DESIGN_PARAMS`)."""
    return design_sequence(design, p, q=params.get(f"q_{design}"), n=n)


def _one_replicate(args) -> tuple[int, dict]:
    scenario, p, n, seed, designs, params, path_options = args
    instance, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=n, seed=seed))
    out = {}
    for design in designs:
        lam_bar = design_direction(design, p, n, params)
        ray = validate_ray(np.zeros(p), lam_bar)
        t0 = time.perf_counter()
        path = run_path(instance, ray, path_options)
        elapsed = time.perf_counter() - t0
        out[design] = (*path_metrics(path), elapsed)
    return seed, out


def run_experiment(scenario: int, sizes, designs, replicates: int,
                   seed_base: int, threads: int = 1,
                   design_params: dict | None = None,
                   path_options: PathOptions | None = None) -> ExperimentReport:
    """Replicated benchmark over (p, n) sizes and weight designs.

    One instance is generated per replicate (seed = seed_base + index) and
    every design is run on it with lam0 = 0 and the design's sequence as
    the ray direction.  Results are reduced in replicate order regardless
    of worker scheduling, so reports are deterministic given the
    configuration.
    """
    params = dict(DEFAULT_DESIGN_PARAMS)
    if design_params:
        params.update(design_params)
    path_options = path_options or PathOptions()
    designs = list(designs)

    cells = []
    for (p, n) in sizes:
        seeds = tuple(seed_base + r for r in range(replicates))
        jobs = [(scenario, p, n, seed, designs, params, path_options)
                for seed in seeds]
        if threads > 1:
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
    level set exactly once.  Returns an (n_angles, 2) polyline.
    """
    lam = np.asarray(weights, dtype=float)
    if lam.size < 2:
        raise ValidationError("contour needs at least two weights")
    check_weight_order(lam)
    if not np.any(lam > 0):
        raise ZeroWeightsError("weights must not be identically zero")
    phi = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    cx, sx = np.abs(np.cos(phi)), np.abs(np.sin(phi))
    unit_penalty = lam[-2] * np.minimum(cx, sx) + lam[-1] * np.maximum(cx, sx)
    radius = 1.0 / unit_penalty
    return np.column_stack((radius * np.cos(phi), radius * np.sin(phi)))


def emit_sphericity_curve(p_max: int) -> np.ndarray:
    """(p, rho_p) table for p = 1..p_max, thinned log-spaced above 1000.

    rho accumulates incrementally (each p adds one squared increment), so
    the full curve costs O(p_max).
    """
    if p_max < 1:
        raise ValidationError("p_max must be >= 1")
    dense_top = min(p_max, 1000)
    keep = set(range(1, dense_top + 1))
    if p_max > 1000:
        extra = np.unique(np.round(np.logspace(
            math.log10(1000.0), math.log10(float(p_max)), 200)).astype(int))
        keep.update(int(v) for v in extra if v <= p_max)
        keep.add(p_max)
    rows = []
    acc = 0.0
    prev_sqrt = 0.0
    for p in range(1, p_max + 1):
        sq = math.sqrt(p)
        acc += (sq - prev_sqrt) ** 2
        prev_sqrt = sq
        if p in keep:
            rows.append((p, math.sqrt(acc)))
    return np.asarray(rows, dtype=float)

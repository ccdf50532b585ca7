"""The three benchmark workloads: inputs from a seed, and one timed pass.

Every instance, ray and probe is derived from the seed's slot
(``seed % SLOTS``); the library only receives the generated arrays.  Each
call into the library goes through its module attribute
(``engine.run_path``, not a bound name), so the tracer's patches see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from slopepath import datagen, engine, harness, model, optimality, prox, weights
from slopepath.errors import SlopePathError

#: number of distinct input sets; the stored reference covers each one
SLOTS = 10

#: oracle agreement required at the probes (criterion 2's bound)
ORACLE_RTOL = 1e-6
PROBES_PER_PATH = 5


@dataclass
class Job:
    """One path to trace: a generated instance and a validated ray."""

    label: str
    instance: object
    ray: object
    verify: bool


@dataclass
class PassResult:
    """What one pass measured and which checks it failed."""

    wall_s: float = 0.0
    path_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    check_s: list[float] = field(default_factory=list)
    events: dict[str, int] = field(default_factory=dict)
    fallbacks: int | None = 0
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: int
    p: int
    n: int
    #: instances per pass; the path workloads trace several because path
    #: length, and with it the cost per event, varies from seed to seed
    instances: int
    #: first datagen seed; slot s uses the next ``instances`` seeds from
    #: seed_base + s * instances
    seed_base: int
    #: (design, q) pairs traced on every instance
    designs: tuple
    verify: bool

    def seeds(self, slot: int) -> range:
        start = self.seed_base + slot * self.instances
        return range(start, start + self.instances)


def _replicate_designs():
    params = harness.DEFAULT_DESIGN_PARAMS
    return (("bh", params["q_bh"]), ("gauss", params["q_gauss"]),
            ("oscar", params["q_oscar"]), ("qs", None))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="path-long",
            scenario=1, p=100, n=1000,
            instances=3, seed_base=1000,
            designs=(("bh", 0.1), ("qs", None)), verify=False),
        Workload(
            name="path-tall",
            scenario=1, p=80, n=8000,
            instances=6, seed_base=2000,
            designs=(("qs", None),), verify=False),
        Workload(
            name="replicate-verify",
            scenario=2, p=20, n=200,
            instances=20, seed_base=42,
            designs=_replicate_designs(), verify=True),
    )
}


def setup(workload: Workload, slot: int) -> list[Job]:
    """Generate, build the weights and validate; nothing here is timed
    as part of a pass."""
    jobs = []
    for seed in workload.seeds(slot):
        spec = datagen.ScenarioSpec(scenario=workload.scenario, p=workload.p,
                                    n=workload.n, seed=seed)
        instance, _ = datagen.generate(spec)
        model.validate_instance(instance)
        for design, q in workload.designs:
            lam_bar = weights.design_sequence(design, workload.p, q=q, n=workload.n)
            ray = model.validate_ray(np.zeros(workload.p), lam_bar)
            jobs.append(Job(f"{seed}-{design}", instance, ray, workload.verify))
    return jobs


def probe_etas(slot: int, index: int, eta_last: float) -> np.ndarray:
    """Seeded oracle probes over [0, 1.05 * last reference breakpoint)."""
    rng = np.random.default_rng([slot, index])
    return rng.uniform(0.0, 1.05 * eta_last, size=PROBES_PER_PATH)


def _verify(job: Job, path, probes, out: PassResult) -> None:
    """KKT at every segment midpoint and oracle agreement at the probes."""
    instance, ray = job.instance, job.ray
    for seg in path.segments:
        mid = 0.5 * (seg.eta_start + seg.eta_end) \
            if math.isfinite(seg.eta_end) else seg.eta_start + 1.0
        lam = ray.at(mid)
        tol = 1e-7 * (1.0 + float(lam.max()))
        beta = model.eval_path(path, mid)
        grad = instance.gradient(beta)
        t0 = time.perf_counter()
        report = optimality.check_optimality(beta, grad, lam, tol_eq=tol, tol_ineq=tol)
        out.check_s.append(time.perf_counter() - t0)
        out.attempted += 1
        if not report.optimal:
            out.fail(f"{job.label}: KKT fails at eta={mid!r}")
    for eta in probes:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            solved = prox.solve_slope(instance, ray.at(float(eta)))
        except SlopePathError as exc:
            out.solve_s.append(time.perf_counter() - t0)
            out.fail(f"{job.label}: solve_slope at eta={eta!r}: {exc}")
            continue
        out.solve_s.append(time.perf_counter() - t0)
        out.iterations += solved.iterations
        beta_ref = solved.beta
        err = float(np.max(np.abs(model.eval_path(path, float(eta)) - beta_ref)))
        if err / (1.0 + float(np.max(np.abs(beta_ref)))) > ORACLE_RTOL:
            out.fail(f"{job.label}: oracle error {err:.3e} at eta={eta!r}")


def run_pass(jobs: list[Job], probes: dict[str, np.ndarray], gate,
             out: PassResult | None = None) -> PassResult:
    """Trace every job's path and verify it where asked, adding to ``out``.
    ``gate(label, path)`` returns a mismatch reason or None; it runs
    outside the timed sections, and each path is dropped after it, so one
    path at a time is held in memory."""
    out = out if out is not None else PassResult()
    for job in jobs:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            path = engine.run_path(job.instance, job.ray)
        except SlopePathError as exc:
            out.path_s.append(time.perf_counter() - t0)
            out.wall_s += out.path_s[-1]
            out.fail(f"{job.label}: run_path raised {type(exc).__name__}: {exc}")
            continue
        out.path_s.append(time.perf_counter() - t0)
        if job.verify:
            harness.path_metrics(path)
            _verify(job, path, probes[job.label], out)
        out.wall_s += time.perf_counter() - t0

        reason = gate(job.label, path)
        if reason:
            out.fail(f"{job.label}: {reason}")
        for event in path.breakpoints():
            out.events[event.kind] = out.events.get(event.kind, 0) + 1
        diag = path.provenance.get("diagnostics", {})
        if out.fallbacks is not None and "fallback_refactorizations" in diag:
            out.fallbacks += diag["fallback_refactorizations"]
        else:
            out.fallbacks = None
        del path
    return out


def zero_weight_probe(slot: int) -> tuple[int, int]:
    """(failures, attempts) tracing bh q=1 and oscar q=0, whose first
    weight is 0, on the replicate-verify instances of the slot."""
    w = WORKLOADS["replicate-verify"]
    failures = attempts = 0
    for seed in w.seeds(slot):
        instance, _ = datagen.generate(datagen.ScenarioSpec(
            scenario=w.scenario, p=w.p, n=w.n, seed=seed))
        for design, q in (("bh", 1.0), ("oscar", 0.0)):
            lam_bar = weights.design_sequence(design, w.p, q=q)
            attempts += 1
            try:
                engine.run_path(instance, model.validate_ray(np.zeros(w.p), lam_bar))
            except SlopePathError:
                failures += 1
    return failures, attempts

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload path-long --seed 3 --seconds 35 --trace 0

Set-up (generate, build the weights, validate) runs several times and is
reported as a median.  Then whole passes over the workload's paths repeat
while one more still fits in ``--seconds``; the first pass always runs,
however long it takes.  Every traced path is compared with the stored
reference outside the timed sections; on
``replicate-verify`` each path is also checked for KKT at every segment
midpoint and against ``solve_slope`` at seeded probes.  Any miss counts as
a failed operation.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` set-up runs once, traced; each pass runs every path twice,
untraced and then traced, so the overhead compares like with like; and
the last line holds the per-layer metrics, the tracing overhead and the
zero-first-weight probe.  The line before the last records the machine.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time

import env

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 3.0

#: per-layer self time per pass (or per set-up), in seconds
LAYER_SECONDS = (
    ("engine.record_s", "engine.record", "bench.pass"),
    ("engine.apply_structural_s", "engine.apply_structural", "bench.pass"),
    ("engine.apply_switch_s", "engine.apply_switch", "bench.pass"),
    ("engine.refresh_s", "engine.refresh", "bench.pass"),
    ("engine.select_s", "engine.select", "bench.pass"),
    ("engine.advance_s", "engine.advance", "bench.pass"),
    ("engine.run_path_self_s", "engine.run_path", "bench.pass"),
    ("engine.init_s", "engine.init", "bench.pass"),
    ("model.validate_instance_s", "model.validate_instance", "bench.pass"),
    ("model.instance_hash_s", "model.instance_hash", "bench.pass"),
    ("prox.solve_slope_s", "prox.solve_slope", "bench.pass"),
    ("datagen.generate_s", "datagen.generate", "bench.setup"),
    ("weights.normal_quantile_s", "weights.normal_quantile", "bench.setup"),
    ("weights.design_sequence_s", "weights.design_sequence", "bench.setup"),
)
#: per-layer self time per call, in microseconds
LAYER_MICROS = (
    ("prox.sorted_l1_prox_us", "prox.sorted_l1_prox"),
    ("optimality.check_optimality_us", "optimality.check_optimality"),
    ("model.eval_path_us", "model.eval_path"),
    ("harness.path_metrics_us", "harness.path_metrics"),
)
EVENT_KINDS = ("fuse", "split", "switch_order", "switch_sign")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tail(seconds) -> str:
    """The value at the highest percentile with at least ten samples
    beyond it, with that percentile and the sample count."""
    n = len(seconds)
    if n < 11:
        return f"n/a (fewer than 11 samples, {n})"
    return f"{sorted(seconds)[n - 11]:.6f} s at p{100.0 * (n - 10) / n:.1f} of {n}"


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_repeats(workload, slot):
    from workloads import setup

    times = []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        jobs = setup(workload, slot)
        times.append(time.perf_counter() - t0)
    return jobs, times


def _traced(tracer, name: str, fn, *args):
    """Call ``fn`` with the wrappers installed, under a benchmark span."""
    tracer.install()
    try:
        with tracer.span(name):
            return fn(*args)
    finally:
        tracer.uninstall()


def _paired_pass(tracer, jobs, probes, gate):
    """An untraced and a traced pass, interleaved job by job so that both
    see the same machine conditions; their difference is the overhead."""
    from workloads import PassResult, run_pass

    untraced, traced = PassResult(), PassResult()
    for job in jobs:
        run_pass([job], probes, gate, untraced)
        _traced(tracer, "bench.pass", run_pass, [job], probes, gate, traced)
    return untraced, traced


def _end_to_end(setup_times, passes) -> tuple[dict, list[str]]:
    events = [sum(r.events.values()) for r in passes]
    path_s = [t for r in passes for t in r.path_s]
    solve_s = [t for r in passes for t in r.solve_s]
    check_s = [t for r in passes for t in r.check_s]
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "events_per_s": (_median([e / sum(r.path_s) for r, e in zip(passes, events)]), "1/s"),
        "wall_us_per_event": (_median([1e6 * r.wall_s / max(e, 1)
                                       for r, e in zip(passes, events)]), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = sum(r.attempted for r in passes)
    info = [
        f"passes {len(passes)}, set-ups {len(setup_times)}, events per pass {events[0]}",
        f"wall_s {_median([r.wall_s for r in passes]):.6f} s (median pass)",
        f"path_s_p50 {_median(path_s):.6f} s over {len(path_s)} paths",
        f"path_s_tail {_tail(path_s)} paths",
        f"paths_per_s {len(path_s) / sum(r.wall_s for r in passes):.4f} 1/s",
        f"solve_s_p50 {_median(solve_s):.6f} s over {len(solve_s)} solves",
        f"solve_s_tail {_tail(solve_s)} solves",
        f"check_us_p50 {1e6 * _median(check_s):.3f} us over {len(check_s)} checks",
        f"fail_share {sum(r.failed for r in passes) / attempted:.6f} "
        f"of {attempted} operations",
    ]
    return metrics, info


def _per_layer(tracer, passes, untraced, zero_weight) -> tuple[dict, list[str]]:
    totals = {"bench.setup": tracer.layer_totals("bench.setup"),
              "bench.pass": tracer.layer_totals("bench.pass")}
    per = {"bench.setup": 1, "bench.pass": len(passes)}
    present = tracer.present()
    metrics, absent = {}, []
    for metric, span, root in LAYER_SECONDS:
        if span not in present:
            absent.append(metric)
            continue
        secs, _ = totals[root].get(span, (0.0, 0))
        metrics[metric] = (secs / per[root], "s")
    for metric, span in LAYER_MICROS:
        if span not in present:
            absent.append(metric)
            continue
        secs, calls = totals["bench.pass"].get(span, (0.0, 0))
        metrics[metric] = (1e6 * secs / calls if calls else 0.0, "us")

    n = len(passes)
    events = {k: sum(r.events.get(k, 0) for r in passes) / n for k in EVENT_KINDS}
    metrics["engine.events"] = (sum(events.values()), "count")
    for kind in EVENT_KINDS:
        metrics[f"engine.events.{kind}"] = (events[kind], "count")
    if "engine.refresh" in present:
        refreshes = totals["bench.pass"].get("engine.refresh", (0.0, 0))[1]
        metrics["engine.refresh_calls"] = (refreshes / n, "count")
    else:
        absent.append("engine.refresh_calls")
    if all(r.fallbacks is not None for r in passes):
        metrics["engine.fallbacks"] = (sum(r.fallbacks for r in passes) / n, "count")
    else:
        absent.append("engine.fallbacks")
    iterations = sum(r.iterations for r in passes)
    metrics["prox.iterations"] = (iterations / n, "count")
    if "prox.sorted_l1_prox" in present:
        prox_calls = totals["bench.pass"].get("prox.sorted_l1_prox", (0.0, 0))[1]
        metrics["prox.prox_per_iteration"] = (prox_calls / iterations if iterations else 0.0,
                                              "ratio")
    else:
        absent.append("prox.prox_per_iteration")
    if "optimality.check_optimality" in present:
        checks = totals["bench.pass"].get("optimality.check_optimality", (0.0, 0))[1]
        metrics["optimality.check_calls"] = (checks / n, "count")
    else:
        absent.append("optimality.check_calls")
    metrics["engine.zero_weight_failures"] = (zero_weight[0], "count")
    traced_wall = sum(r.wall_s for r in passes) / n
    plain_wall = sum(r.wall_s for r in untraced) / n
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    info = [
        f"traced passes {n}, spans {len(tracer.start)}",
        f"tracing overhead {traced_wall - plain_wall:+.6f} s per pass "
        f"(traced {traced_wall:.6f} s, untraced {plain_wall:.6f} s, "
        f"interleaved path by path)",
        f"zero-first-weight paths failing: {zero_weight[0]} of {zero_weight[1]}",
    ]
    if absent:
        info.append("absent (wrap target gone): " + ", ".join(absent))
    return metrics, info


def main(argv=None) -> int:
    try:
        env.use_checkout_library()
    except env.MissingLibraryError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from reference import Reference
    from tracing import Tracer
    from workloads import SLOTS, WORKLOADS, probe_etas, run_pass, setup, zero_weight_probe

    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    slot = args.seed % SLOTS
    ref = Reference(workload.name)
    tracer = Tracer() if args.trace else None

    zero_weight = setup_times = None
    if tracer:
        zero_weight = zero_weight_probe(slot)
        jobs = _traced(tracer, "bench.setup", setup, workload, slot)
    else:
        jobs, setup_times = _setup_repeats(workload, slot)
    probes = {job.label: probe_etas(slot, i, ref.last_breakpoint(slot, job.label))
              for i, job in enumerate(jobs) if job.verify}

    gate = functools.partial(ref.mismatch, slot)
    passes, untraced = [], []
    measured = last = 0.0
    # run another pass only while one as long as the last still fits
    while not passes or measured + last <= args.seconds:
        if tracer:
            plain, traced = _paired_pass(tracer, jobs, probes, gate)
            untraced.append(plain)
            passes.append(traced)
            last = plain.wall_s + traced.wall_s
        else:
            passes.append(run_pass(jobs, probes, gate))
            last = passes[-1].wall_s
        measured += last

    checked = passes + untraced
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    if tracer:
        metrics, info = _per_layer(tracer, passes, untraced, zero_weight)
    else:
        metrics, info = _end_to_end(setup_times, passes)

    print(f"workload {workload.name}, seed {args.seed} (slot {slot}), trace {args.trace}")
    for line in info:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in [n for r in checked for n in r.notes][:20]:
        print("  FAIL " + note)
    print(json.dumps({"environment": env.describe(), "seed": args.seed, "slot": slot}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

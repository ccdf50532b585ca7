"""Command-line interface.

Subcommands: weights, solve, check, path, simulate, bench, contour,
sphericity.  Global flags --seed, --threads, --format and --config (a JSON
file mirroring the long option names; explicit flags win).  Exit codes:
0 on success, 2 for validation errors (an input or output file that
cannot be opened included), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import ScenarioSpec, generate
from .engine import PathOptions, run_path
from .errors import NumericalError, ValidationError
from .harness import emit_contour, emit_sphericity_curve, run_experiment
from .model import (
    WeightRay,
    load_instance,
    save_instance,
    save_path,
    validate_instance,
    validate_ray,
)
from .optimality import check_optimality
from .prox import solve_slope
from .weights import DEFAULT_DESIGN_PARAMS, DESIGN_NAMES, design_sequence


def _read_vector(path: str) -> np.ndarray:
    """Numbers separated by commas or whitespace; raises ValidationError,
    naming the file and the line, on one that is not a number."""
    values = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        for cell in line.replace(",", " ").split():
            try:
                values.append(float(cell))
            except ValueError:
                raise ValidationError(f"{path}, line {line_no}: "
                                      f"not a number: {cell!r}") from None
    return np.asarray(values, dtype=float)


def _write_vector(vec: np.ndarray, out, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps([float(v) for v in vec]) + "\n"
    else:
        text = "\n".join(repr(float(v)) for v in vec) + "\n"
    _write_text(text, out)


def _write_text(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _ray_from_args(args, p: int, n_rows: int):
    if getattr(args, "lambda0", None) or getattr(args, "lambdabar", None):
        if not (args.lambda0 and args.lambdabar):
            raise ValidationError("--lambda0 and --lambdabar must be given together")
        lam0 = _read_vector(args.lambda0)
        lam_bar = _read_vector(args.lambdabar)
    else:
        if args.design is None:
            raise ValidationError("give either --design or --lambda0/--lambdabar")
        lam0 = np.zeros(p)
        lam_bar = design_sequence(args.design, p, q=args.q, n=args.design_n or n_rows)
    return lam0, lam_bar


def _worst_violation(report) -> dict:
    return dict(zip(("condition", "g", "k", "magnitude"), report.worst_violation))


def _cmd_weights(args) -> int:
    lam = design_sequence(args.design, args.p, q=args.q, n=args.n)
    _write_vector(lam, args.out, args.format)
    return 0


def _cmd_solve(args) -> int:
    instance = validate_instance(load_instance(args.instance))
    lam = _read_vector(args.weights)
    result = solve_slope(instance, lam, stop_tolerance=args.tol)
    payload = {
        "beta": result.beta.tolist(),
        "iterations": result.iterations,
        "objective": result.objective,
        "optimal": result.report.optimal,
        "worst_violation": _worst_violation(result.report),
    }
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    instance = validate_instance(load_instance(args.instance))
    beta = _read_vector(args.beta)
    lam = _read_vector(args.weights)
    report = check_optimality(beta, instance.gradient(beta), lam)
    payload = {
        "optimal": report.optimal,
        "cond1_residuals": report.cond1_residuals.tolist(),
        "slack_margins": [
            {"g": g, "k": k, "margin": m} for g, k, m in report.slack_margins
        ],
        "worst_violation": _worst_violation(report),
        "tol_eq": report.tol_eq,
        "tol_ineq": report.tol_ineq,
    }
    _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_path(args) -> int:
    instance = validate_instance(load_instance(args.instance))
    lam0, lam_bar = _ray_from_args(args, instance.p, instance.n)
    ray = validate_ray(lam0, lam_bar)
    if args.eta_max is not None:
        # run_path rejects a horizon that is not positive, NaN included, and
        # clips the rest to the ray's own
        ray = WeightRay(ray.lam0, ray.lam_bar, args.eta_max)
    options = PathOptions(validate_every=args.validate_every)
    path = run_path(instance, ray, options)
    save_path(path, args.out)
    if args.events:
        lines = ["index,eta,kind,g,k"]
        for idx, (kind, eta, g, k, *_) in enumerate(path.events.rows()):
            g = "" if g is None else g
            k = "" if k is None else k
            lines.append(f"{idx},{eta!r},{kind},{g},{k}")
        Path(args.events).write_text("\n".join(lines) + "\n")
    diag = path.provenance["diagnostics"]
    sys.stderr.write(
        f"{len(path.segments)} segments, {diag['events']} events "
        f"({diag['fuse_events']} fuse, {diag['split_events']} split, "
        f"{diag['switch_events'] + diag['sign_switch_events']} switch), "
        f"min Schur ratio {diag['min_schur_ratio']}, "
        f"{diag['absorbed_events']} absorbed, "
        f"{sum(diag['suppressed_bounces'].values())} suppressed bounces, "
        f"insert memo {diag['insert_memo']['hits']} hits / "
        f"{diag['insert_memo']['misses']} misses, {diag['clamped_timings']} clamped timings, "
        f"rebuilds {diag['rebuilds']['schur']} schur / {diag['rebuilds']['probe']} probe, "
        f"{diag['stored_knots']} stored knots\n"
    )
    return 0


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec(scenario=args.scenario, p=args.p, n=args.n, seed=args.seed)
    instance, beta = generate(spec)
    save_instance(instance, args.out, metadata={
        "scenario": args.scenario, "seed": args.seed})
    if args.truth:
        _write_vector(beta, args.truth, "csv")
    return 0


def _cmd_bench(args) -> int:
    sizes = []
    for token in args.sizes.split(","):
        p_str, _, n_str = token.lower().partition("x")
        try:
            sizes.append((int(p_str), int(n_str)))
        except ValueError:
            raise ValidationError(f"--sizes: {token!r} is not of the form PxN") from None
    designs = args.designs.split(",")
    for design in designs:
        if design not in DESIGN_NAMES:
            raise ValidationError(f"unknown design {design!r}")
    # --q is the level of every design that has one, as in the other commands
    params = None if args.q is None else dict.fromkeys(DEFAULT_DESIGN_PARAMS, args.q)
    report = run_experiment(
        scenario=args.scenario, sizes=sizes, designs=designs,
        replicates=args.replicates, seed_base=args.seed,
        threads=args.threads, design_params=params,
    )
    if args.format == "json":
        _write_text(report.to_json(include_timing=args.timing) + "\n", args.out)
    else:
        _write_text(report.to_table() + "\n", args.out)
    return 0


def _cmd_contour(args) -> int:
    if args.design is not None:
        lam = design_sequence(args.design, args.p, q=args.q, n=args.n)
    elif args.weights:
        lam = _read_vector(args.weights)
    else:
        raise ValidationError("give either --design or --weights")
    points = emit_contour(lam, n_angles=args.angles)
    lines = ["beta1,beta2"] + [f"{float(x)!r},{float(y)!r}" for x, y in points]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sphericity(args) -> int:
    rows = emit_sphericity_curve(args.p_max)
    lines = ["p,rho"] + [f"{int(p)},{float(rho)!r}" for p, rho in rows]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _common_flags() -> argparse.ArgumentParser:
    """Global flags accepted before and after the subcommand.

    A fresh parser per use: parents= shares action objects, and the
    SUPPRESS defaults must stay untouched on the subcommand side so a
    post-subcommand absence never clobbers a pre-subcommand value.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file of defaults; flags override")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base RNG seed")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopepath",
        description="Exact solution paths and weight designs for sorted-L1 regression",
        parents=[_common_flags()],
    )
    parser.set_defaults(config=None, seed=0, threads=1, format="csv")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        return sub.add_parser(name, parents=[_common_flags()], **kwargs)

    w = add_command("weights", help="emit a weight design as an ascending vector")
    w.add_argument("--design", required=True, choices=DESIGN_NAMES)
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--q", type=float)
    w.add_argument("--n", type=int)
    w.add_argument("--out", default="-")
    w.set_defaults(func=_cmd_weights)

    s = add_command("solve", help="solve one penalized problem")
    s.add_argument("--instance", required=True)
    s.add_argument("--weights", required=True)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--out", default="-")
    s.set_defaults(func=_cmd_solve)

    c = add_command("check", help="optimality report for a candidate solution")
    c.add_argument("--instance", required=True)
    c.add_argument("--beta", required=True)
    c.add_argument("--weights", required=True)
    c.add_argument("--out", default="-")
    c.set_defaults(func=_cmd_check)

    p = add_command("path", help="trace the full solution path")
    p.add_argument("--instance", required=True)
    p.add_argument("--design", choices=DESIGN_NAMES)
    p.add_argument("--q", type=float)
    p.add_argument("--design-n", type=int, dest="design_n",
                   help="sample count for the gauss design (default: instance rows)")
    p.add_argument("--lambda0")
    p.add_argument("--lambdabar")
    p.add_argument("--eta-max", type=float, dest="eta_max")
    p.add_argument("--out", required=True)
    p.add_argument("--events")
    p.add_argument("--validate-every", type=int, default=0, dest="validate_every")
    p.set_defaults(func=_cmd_path)

    g = add_command("simulate", help="generate a synthetic instance")
    g.add_argument("--scenario", type=int, required=True, choices=(1, 2))
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--truth")
    g.set_defaults(func=_cmd_simulate)

    b = add_command("bench", help="replicated path benchmark over designs")
    b.add_argument("--scenario", type=int, required=True, choices=(1, 2))
    b.add_argument("--sizes", required=True, help="comma list like 20x200,40x400")
    b.add_argument("--designs", default="bh,gauss,oscar,qs")
    b.add_argument("--replicates", type=int, default=100)
    b.add_argument("--q", type=float,
                   help="level of every design that has one (bh, gauss: q; oscar: offset)")
    b.add_argument("--timing", action="store_true",
                   help="include wall times in JSON output")
    b.add_argument("--out", default="-")
    b.set_defaults(func=_cmd_bench)

    k = add_command("contour", help="penalty level-set polyline in a plane")
    k.add_argument("--design", choices=DESIGN_NAMES)
    k.add_argument("--weights")
    k.add_argument("--p", type=int, default=2)
    k.add_argument("--q", type=float)
    k.add_argument("--n", type=int)
    k.add_argument("--angles", type=int, default=720)
    k.add_argument("--out", default="-")
    k.set_defaults(func=_cmd_contour)

    r = add_command("sphericity", help="rho_p curve as CSV")
    r.add_argument("--p-max", type=int, required=True, dest="p_max")
    r.add_argument("--out", default="-")
    r.set_defaults(func=_cmd_sphericity)

    return parser


def _apply_config(parser: argparse.ArgumentParser, config_path: str) -> None:
    """Install config values as defaults on every (sub)parser; arguments the
    config satisfies stop being required, so flags stay optional overrides."""
    try:
        defaults = json.loads(Path(config_path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--config {config_path} is not JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValidationError("--config must hold a JSON object")
    defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
    subparsers = [parser]
    for action in parser._subparsers._group_actions:
        subparsers.extend(action.choices.values())
    for sp in subparsers:
        dests = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in defaults.items() if k in dests})
        for action in sp._actions:
            if action.dest in defaults:
                action.required = False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # two-phase parse so --config supplies defaults that flags override
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    try:
        if known.config:
            _apply_config(parser, known.config)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        # OSError: an input file that cannot be read, or an output file
        # that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

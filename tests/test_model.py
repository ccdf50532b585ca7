import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from slopepath import (
    EngineState,
    GroupStructure,
    PathEvent,
    PathOptions,
    PathSegment,
    ProblemInstance,
    SolutionPath,
    WeightRay,
    bh_sequence,
    eval_path,
    load_instance,
    load_path,
    path_metrics,
    run_path,
    save_instance,
    save_path,
    validate_instance,
    validate_ray,
)
from slopepath.datagen import ScenarioSpec, generate
from slopepath.errors import (
    InvalidAtZeroError,
    NonFiniteError,
    OutOfRangeError,
    SingularGramError,
    ValidationError,
    ZeroDirectionError,
)
from slopepath.model import KnotSegments, instance_hash, scatter_groups


class TestGroupStructure:
    def test_scatter_matches_group_loop(self):
        rng = np.random.default_rng(4)
        order = rng.permutation(9)
        offsets = np.array([2, 3, 6, 9])  # zero group of two, then 1, 3, 3
        levels = np.array([0.5, 1.25, 3.0])
        signs = rng.choice([-1.0, 1.0], size=9)
        structure = GroupStructure(order, offsets, levels, signs)
        expected = np.zeros(9)
        for j, members in enumerate(structure.groups()[1:]):
            expected[members] = -signs[members] * levels[j]
        beta = scatter_groups(order, offsets, signs, levels)
        assert np.array_equal(beta, expected)
        assert not np.any(np.signbit(beta[order[:2]]))  # +0.0 on the zero group


class TestValidateInstance:
    def test_orthonormal_ok(self, t2_instance):
        inst = validate_instance(t2_instance)
        assert inst.effective_rank == 2

    def test_duplicated_column_singular(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        inst = ProblemInstance(y=np.ones(3), X=X)
        with pytest.raises(SingularGramError):
            validate_instance(inst)

    def test_duplicated_column_with_ridge(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        inst = validate_instance(ProblemInstance(y=np.ones(3), X=X, ridge=1e-6))
        # independent eigensolver confirms the ridge lifts the spectrum
        eigs = np.linalg.eigvalsh(X.T @ X + 1e-6 * np.eye(2))
        assert eigs[0] >= 1e-6 - 1e-18
        assert inst.ridge == 1e-6

    def test_non_finite(self):
        inst = ProblemInstance(y=np.array([1.0, np.nan]), X=np.eye(2))
        with pytest.raises(NonFiniteError):
            validate_instance(inst)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            validate_instance(ProblemInstance(y=np.ones(3), X=np.eye(2)))

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_gram(self, scale):
        # finite data whose X^T X overflows float64 is rejected before a
        # path starts, not mid-path
        inst = ProblemInstance(y=(1.0, 2.0), X=np.diag([scale, scale]))
        with pytest.raises(NonFiniteError, match="overflows"):
            validate_instance(inst)
        with pytest.raises(NonFiniteError, match="overflows"):
            run_path(inst, validate_ray(np.zeros(2), np.array([0.0, 1.0])))

    def test_overflowing_xty(self):
        # X^T y = (2e308, 1e308) overflows though X^T X is tame: rejected
        # before a path starts, not traced from a start of inf
        inst = ProblemInstance(y=(1e308, 1e308), X=np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(NonFiniteError, match="X\\^T y overflows"):
            validate_instance(inst)
        with pytest.raises(NonFiniteError, match="X\\^T y overflows"):
            run_path(inst, validate_ray(np.zeros(2), np.array([1.0, 2.0])))

    def test_caches_the_plain_gram(self):
        rng = np.random.default_rng(2)
        for n, p, ridge in ((30, 7, 0.0), (6, 9, 0.5), (200, 40, 1e-3)):
            X = rng.standard_normal((n, p))
            inst = validate_instance(ProblemInstance(y=rng.standard_normal(n), X=X,
                                                     ridge=ridge))
            assert np.array_equal(inst.gram.view(np.int64), (X.T @ X).view(np.int64))
            assert not inst.gram.flags.writeable
            # the engine reads the cache, and forms the same bits itself
            # for an instance never validated
            ray = validate_ray(np.zeros(p), np.linspace(0.5, 1.0, p))
            assert EngineState(inst, ray, PathOptions()).G is inst.gram
            fresh = EngineState(ProblemInstance(y=inst.y, X=X, ridge=ridge), ray,
                                PathOptions()).G
            assert np.array_equal(fresh.view(np.int64), inst.gram.view(np.int64))


class TestValidateRay:
    def test_monotone_direction_unbounded(self):
        ray = validate_ray(np.zeros(3), np.array([0.1, 0.2, 0.4]))
        assert ray.eta_max == math.inf

    def test_shrinking_direction_bounded(self):
        ray = validate_ray(np.array([1.0, 2.0]), np.array([-1.0, -2.0]))
        assert ray.eta_max == pytest.approx(1.0)

    def test_descending_start_rejected(self):
        with pytest.raises(InvalidAtZeroError):
            validate_ray(np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirectionError):
            validate_ray(np.zeros(2), np.zeros(2))

    def test_immediately_invalid_direction(self):
        with pytest.raises(InvalidAtZeroError):
            validate_ray(np.zeros(2), np.array([1.0, -1.0]))

    def test_gap_constraint_binds(self):
        # lam(eta) = (1, 2) + eta (2, 1): the gap closes at eta = 1
        ray = validate_ray(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert ray.eta_max == pytest.approx(1.0)


def _save_instance_joined(instance, csv_path, metadata=None):
    """``save_instance`` as it was when it joined the whole CSV text in
    memory before writing: the reference for the row-by-row writer's bytes."""
    csv_path = Path(csv_path)
    lines = [",".join(["y"] + [f"x{j + 1}" for j in range(instance.p)])]
    for i in range(instance.n):
        row = [instance.y[i]] + list(instance.X[i])
        lines.append(",".join(repr(float(v)) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = {"ridge": instance.ridge}
    if metadata:
        sidecar["metadata"] = metadata
    Path(str(csv_path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def _save_path_joined(path, jsonl_path):
    """``save_path`` as it was when it joined the whole JSONL text in
    memory before writing: the reference for the record-by-record writer."""
    segs, events = path.segments, path.events
    out = [json.dumps({"record": "header", "provenance": path.provenance})]
    ends = (*segs._at[1:], len(events))
    for k, (at, end, beta, slope) in enumerate(zip(segs._at, ends, segs._betas, segs._slopes)):
        knot = {"record": "knot", "eta": segs._eta[k], "beta": beta.tolist()}
        if not k or slope is not segs._slopes[k - 1]:
            knot["slope"] = slope.tolist()
        out.append(json.dumps(knot))
        out.extend(json.dumps({"record": "event", "event": e.to_dict()}) for e in events[at:end])
    Path(jsonl_path).write_text("\n".join(out) + "\n")


class TestSerialization:
    @pytest.mark.parametrize("scenario, p", [(1, 6), (2, 5)])
    @pytest.mark.parametrize("metadata", [None, {"scenario": 2, "note": "bytes"}],
                             ids=["no-metadata", "metadata"])
    def test_instance_writer_bytes_unchanged(self, tmp_path, scenario, p, metadata):
        inst, _ = generate(ScenarioSpec(scenario=scenario, p=p, n=40, seed=7))
        inst = ProblemInstance(y=inst.y, X=inst.X, ridge=0.125)
        save_instance(inst, tmp_path / "new.csv", metadata)
        _save_instance_joined(inst, tmp_path / "old.csv", metadata)
        for suffix in ("", ".meta.json"):
            assert (tmp_path / f"new.csv{suffix}").read_bytes() \
                == (tmp_path / f"old.csv{suffix}").read_bytes()

    def test_path_writer_bytes_unchanged(self, tmp_path):
        inst, _ = generate(ScenarioSpec(scenario=2, p=8, n=30, seed=3))
        path = run_path(inst, validate_ray(np.zeros(8), bh_sequence(8, 0.1)))
        save_path(path, tmp_path / "new.jsonl")
        _save_path_joined(path, tmp_path / "old.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_instance_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        inst = ProblemInstance(y=rng.standard_normal(5),
                               X=rng.standard_normal((5, 3)), ridge=1e-7)
        path = tmp_path / "inst.csv"
        save_instance(inst, path, metadata={"note": "round trip"})
        back = load_instance(path)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.X, inst.X)
        assert back.ridge == inst.ridge
        assert instance_hash(back) == instance_hash(inst)

    def test_instance_hash_matches_the_byte_copy_digest(self):
        import hashlib
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 4))
        # a C-ordered instance, and one built from a Fortran-ordered X
        for inst in (ProblemInstance(y=rng.standard_normal(6), X=X, ridge=0.25),
                     ProblemInstance(y=rng.standard_normal(6), X=np.asfortranarray(X))):
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(inst.y).tobytes())
            h.update(np.ascontiguousarray(inst.X).tobytes())
            h.update(np.float64(inst.ridge).tobytes())
            assert instance_hash(inst) == h.hexdigest()

    def test_instance_headerless(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1.5,2.0\n-0.5,1.0\n")
        inst = load_instance(p)
        assert inst.y.tolist() == [1.5, -0.5]
        assert inst.X.tolist() == [[2.0], [1.0]]

    def test_ray_round_trip_via_json(self):
        ray = validate_ray(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
        blob = json.dumps(ray.describe())
        d = json.loads(blob)
        back = WeightRay(np.array(d["lam0"]), np.array(d["lam_bar"]), d["eta_max"])
        assert np.array_equal(back.lam0, ray.lam0)
        assert np.array_equal(back.lam_bar, ray.lam_bar)
        assert back.eta_max == ray.eta_max

    def test_path_round_trip(self, tmp_path, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        file = tmp_path / "path.jsonl"
        save_path(path, file)
        back = load_path(file)
        assert len(back.segments) == len(path.segments)
        for a, b in zip(back.segments, path.segments):
            assert a.eta_start == b.eta_start
            assert a.eta_end == b.eta_end
            assert np.array_equal(a.beta_start, b.beta_start)
            assert np.array_equal(a.slope, b.slope)
            assert a.ending_event == b.ending_event
        assert back.provenance == path.provenance
        assert back.events == path.events

    def test_path_round_trip_keeps_events_that_end_no_segment(self, tmp_path):
        # both coordinates die at eta = 1: the second death ends no segment
        inst = ProblemInstance(y=np.array([2.0, 1.0]), X=np.eye(2))
        path = run_path(inst, validate_ray(np.zeros(2), np.array([1.0, 2.0])))
        assert [(e.kind, e.eta) for e in path.events] \
            == [("fuse", 1.0), ("fuse", 1.0), ("terminate", math.inf)]
        file = tmp_path / "path.jsonl"
        save_path(path, file)
        records = [json.loads(line)["record"] for line in file.read_text().splitlines()]
        assert records == ["header", "knot", "event", "knot", "event", "knot", "event"]
        back = load_path(file)
        assert back.events == path.events
        assert len(back.segments) == len(path.segments)
        assert path_metrics(back) == path_metrics(path) == (0.5, 0.5, 2)

    @pytest.mark.parametrize("bad_line, message", [
        ('{"record": "event"}', "line 2: the record has no 'event' field"),
        ('{"record": "segment"', "line 2: not JSON"),
        ('[1, 2]', "line 2: not a JSON object"),
        ('{"record": "event", "event": 5}', "line 2: the event is not a JSON object"),
        ('{"record": "event", "event": {"kind": "bounce", "eta": 1.0}}',
         "line 2: unknown event kind 'bounce'"),
        ('{"record": "event", "event": {"kind": "fuse", "eta": 1.0}}',
         "line 2: an event precedes the first knot"),
        ('{"record": "knot", "eta": 0.0, "beta": [3.0, 1.0]}',
         "line 2: the first knot has no slope"),
        ('{"record": "knot", "eta": 0.0, "beta": 3.0, "slope": [0.0, 0.0]}',
         "line 2: beta is not a list of numbers"),
        ('{"record": "knot", "eta": 0.0, "beta": [3.0, 1.0], "slope": [0.0]}',
         "line 2: slope has 1 entries, the first knot's beta 2"),
        ('{"record": "knot", "eta": 0.0, "beta": [3.0, 1.0, 0.0], "slope": [0.0, 0.0, 0.0]}',
         "line 3: beta has 2 entries, the first knot's beta 3"),
        ('{"record": "knot", "eta": 0.0, "beta": [null, 1.0], "slope": [0.0, 0.0]}',
         "line 2: beta holds a null or non-finite entry"),
        ('{"record": "knot", "eta": 0.0, "beta": [3.0, 1.0], "slope": [0.0, null]}',
         "line 2: slope holds a null or non-finite entry"),
        ('{"record": "segment", "eta_start": 0.0}',
         "line 2: a segment record: the file uses the old per-segment format"),
        ('{"record": "knots"}', "line 2: unknown record 'knots'"),
    ], ids=["no-event", "not-json", "not-object", "event-not-object", "unknown-kind",
            "event-before-knot", "first-knot-no-slope", "beta-not-list", "short-slope",
            "long-first-beta", "null-beta", "null-slope", "old-segment-format",
            "unknown-record"])
    def test_malformed_path_file(self, tmp_path, t2_instance, t2_ray, bad_line, message):
        file = tmp_path / "path.jsonl"
        save_path(run_path(t2_instance, t2_ray), file)
        lines = file.read_text().splitlines()
        file.write_text("\n".join([lines[0], bad_line, *lines[1:]]) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{file}, {message}")):
            load_path(file)

    def test_path_options_round_trip(self, tmp_path, t2_instance, t2_ray):
        tolerances = dict(timing_clamp=2e-10, tie_rtol=3e-12, negative_margin_rtol=2e-7,
                          group_tol_scale=5e-8, probe_tol=2e-6)
        path = run_path(t2_instance, t2_ray,
                        PathOptions(iteration_cap=40, validate_every=3, **tolerances))
        save_path(path, tmp_path / "path.jsonl")
        back = load_path(tmp_path / "path.jsonl")
        assert back.provenance["options"] == {"iteration_cap": 40, "validate_every": 3,
                                              **tolerances}


class TestPathGeometry:
    def test_segments_are_affine(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        rng = np.random.default_rng(3)
        for seg in path.segments:
            hi = seg.eta_end if math.isfinite(seg.eta_end) else seg.eta_start + 5.0
            for _ in range(10):
                e1 = rng.uniform(seg.eta_start, hi)
                step = rng.uniform(0, (hi - e1) / 2)
                b1 = eval_path(path, e1)
                b2 = eval_path(path, e1 + step)
                b3 = eval_path(path, e1 + 2 * step)
                assert np.allclose(b1 + b3, 2 * b2, rtol=0, atol=1e-12)

    def test_continuity_at_breakpoints(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        for prev, nxt in zip(path.segments[:-1], path.segments[1:]):
            left = prev.value(prev.eta_end)
            scale = 1.0 + float(np.max(np.abs(left)))
            assert np.max(np.abs(left - nxt.beta_start)) <= 1e-9 * scale

    def test_segment_requires_positive_length(self):
        event = PathEvent(kind="terminate", eta=1.0)
        with pytest.raises(ValidationError):
            PathSegment(1.0, 1.0, np.zeros(1), np.zeros(1), event)


class TestEvalPath:
    def test_interior_value(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        assert eval_path(path, 1.0) == pytest.approx([2.0, 1.0])

    def test_breakpoint_takes_right_segment(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        at_break = eval_path(path, 2.0)
        just_left = eval_path(path, 2.0 - 1e-12)
        assert at_break == pytest.approx([1.0, 1.0], abs=1e-15)
        assert np.allclose(at_break, just_left, atol=1e-9)

    def test_initial_point(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        assert eval_path(path, 0.0) == pytest.approx([3.0, 1.0])

    def test_out_of_range(self, t2_instance):
        ray = WeightRay(np.zeros(2), np.array([0.0, 1.0]), eta_max=1.5)
        path = run_path(t2_instance, ray)
        with pytest.raises(OutOfRangeError):
            eval_path(path, -0.5)
        with pytest.raises(OutOfRangeError):
            eval_path(path, 1.5)

    def test_out_of_range_messages(self):
        end = PathEvent(kind="terminate", eta=3.0)
        segments = KnotSegments((end,), [0], [0.0], [np.ones(1)], [np.zeros(1)])
        path = SolutionPath(segments=segments, events=(end,))
        for eta, message in [(-0.5, "eta must be nonnegative, got -0.5"),
                             (math.nan, "eta must be nonnegative, got nan"),
                             (3.0, "eta=3.0 is beyond the path horizon 3.0")]:
            with pytest.raises(OutOfRangeError, match=re.escape(message)):
                eval_path(path, eta)
        with pytest.raises(OutOfRangeError, match="path has no segments"):
            eval_path(SolutionPath(segments=KnotSegments((), [], [], [], []), events=()), 0.0)

    def test_matches_segment_scan(self, tmp_path):
        inst, _ = generate(ScenarioSpec(scenario=1, p=10, n=50, seed=4))
        path = run_path(inst, validate_ray(np.zeros(10), bh_sequence(10, 0.1)))
        save_path(path, tmp_path / "p.jsonl")
        loaded = load_path(tmp_path / "p.jsonl")
        assert len(path.segments) > 20
        rng = np.random.default_rng(5)
        etas = [seg.eta_start for seg in path.segments] \
            + rng.uniform(0.0, path.segments[-1].eta_start + 1.0, 50).tolist()
        for eta in etas:
            seg = [s for s in path.segments if s.eta_start <= eta < s.eta_end][-1]
            assert np.array_equal(eval_path(path, eta), seg.value(eta))
            assert np.array_equal(eval_path(loaded, eta), seg.value(eta))

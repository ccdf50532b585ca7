"""Knot storage of traced paths: the lazy segments of :func:`run_path` are
byte-identical to the ones the eager recorder built, and a path holds one
beta array per knot, not one per event."""

import gc
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slopepath import (
    EngineState,
    PathEvent,
    PathOptions,
    PathSegment,
    ProblemInstance,
    WeightRay,
    eval_path,
    load_path,
    run_path,
    save_path,
    validate_instance,
    validate_ray,
)
from slopepath.datagen import ScenarioSpec, generate
from slopepath.model import _BLOCK_ROWS
from slopepath.weights import design_sequence

STRUCTURAL = ("fuse", "split")


def eager_run_path(instance, ray, options=None):
    """The recorder as it was before knot storage, frozen as the oracle:
    a PathSegment per segment, a fresh beta scattered after every event and
    the slope re-scattered after each fuse or split.  Returns (segments,
    events) as lists."""
    options = options or PathOptions()
    instance = validate_instance(instance)
    checked = validate_ray(ray.lam0, ray.lam_bar)
    ray = WeightRay(checked.lam0, checked.lam_bar, min(ray.eta_max, checked.eta_max))
    state = EngineState(instance, ray, options)
    segments, events = [], []
    seg_eta = 0.0
    seg_beta = state.scatter_beta()
    seg_slope = state.scatter_slope()
    while True:
        t, kind, idx = state.next_event()
        if t >= ray.eta_max or math.isinf(t):
            end = ray.eta_max if math.isfinite(ray.eta_max) else math.inf
            terminal = PathEvent(kind="terminate", eta=end,
                                 nnz=state.nnz, n_groups=state.n_groups)
            segments.append(PathSegment(seg_eta, end, seg_beta, seg_slope, terminal))
            events.append(terminal)
            return segments, events
        g, k = state.step(t, kind, idx)
        event = PathEvent(kind=kind, eta=t, g=g, k=k,
                          nnz=state.nnz, n_groups=state.n_groups)
        events.append(event)
        if t > seg_eta:
            segments.append(PathSegment(seg_eta, t, seg_beta, seg_slope, event))
            seg_eta = t
        seg_beta = state.scatter_beta()
        if kind == "fuse" or kind == "split":
            seg_slope = state.scatter_slope()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _event_key(e):
    return (e.kind, float(e.eta).hex(), e.g, e.k, e.nnz, e.n_groups)


def _segment_key(s):
    return (float(s.eta_start).hex(), float(s.eta_end).hex(), _bits(s.beta_start).tobytes(),
            _bits(s.slope).tobytes(), _event_key(s.ending_event))


def _shares(segments):
    """Whether each segment shares its slope object with the next."""
    return [a.slope is b.slope for a, b in zip(segments, segments[1:])]


def assert_identical(path, eager, tmp_path):
    """Every event, every segment (by iteration and by index), the slope
    sharing and eval_path at each segment start and midpoint equal the
    eager recording, bit for bit, on the traced path and on the path read
    back from its file.  The file holds one knot record per stored knot,
    the loaded path keeps the provenance, and saving it again writes the
    same bytes."""
    segments, events = eager
    file = tmp_path / "path.jsonl"
    save_path(path, file)
    records = [json.loads(line)["record"] for line in file.read_text().splitlines()]
    assert records.count("knot") == path.provenance["diagnostics"]["stored_knots"]
    loaded = load_path(file)
    assert loaded.provenance == path.provenance
    save_path(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == file.read_bytes()

    want = [_segment_key(s) for s in segments]
    for read in (path, loaded):
        assert [_event_key(e) for e in read.events] == [_event_key(e) for e in events]
        assert len(read.segments) == len(want)
        iterated = list(read.segments)
        indexed = [read.segments[i] for i in range(len(read.segments))]
        assert [_segment_key(s) for s in iterated] == want
        assert [_segment_key(s) for s in indexed] == want
        assert _shares(iterated) == _shares(indexed) == _shares(segments)

    for seg in segments:
        mid = 0.5 * (seg.eta_start + seg.eta_end) if math.isfinite(seg.eta_end) \
            else seg.eta_start + 1.0
        for eta in (seg.eta_start, mid):
            value = _bits(seg.value(eta))
            assert np.array_equal(_bits(eval_path(path, eta)), value)
            assert np.array_equal(_bits(eval_path(loaded, eta)), value)


def _check(instance, ray, tmp_path, options=None):
    path = run_path(instance, ray, options)
    assert_identical(path, eager_run_path(instance, ray, options), tmp_path)
    return path


_PINNED = json.loads((Path(__file__).with_name("pinned_paths.json")).read_text())


@st.composite
def _corpus_cases(draw):
    """Integer designs with exact ties (p > n included), scenario
    instances under bh q = 1 and oscar q = 0 (zero first weights), a
    nonzero lam0, a finite eta_max clip, and ridge with p > n."""
    family = draw(st.sampled_from(["integer", "zero_first", "lam0", "clip", "wide_ridge"]))
    if family == "integer":
        n, p = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        entry = st.integers(-2, 2)
        X = np.array(draw(st.lists(st.lists(entry, min_size=p, max_size=p),
                                   min_size=n, max_size=n)), dtype=float)
        y = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
        lam_bar = np.sort(draw(st.lists(st.integers(0, 3), min_size=p, max_size=p)))
        lam_bar[-1] = max(lam_bar[-1], 1)
        inst = ProblemInstance(y=y, X=X, ridge=draw(st.sampled_from([0.25, 0.5])))
        return inst, validate_ray(np.zeros(p), lam_bar.astype(float))
    seed = draw(st.integers(0, 999))
    if family == "wide_ridge":
        p = draw(st.integers(6, 16))
        base, _ = generate(ScenarioSpec(scenario=2, p=p, n=p // 2, seed=seed))
        inst = ProblemInstance(y=base.y, X=base.X, ridge=draw(st.sampled_from([0.1, 0.5])))
        design, q = draw(st.sampled_from([("bh", 0.1), ("qs", None)]))
        return inst, validate_ray(np.zeros(p), design_sequence(design, p, q=q, n=p // 2))
    p = 2 * draw(st.integers(2, 6))
    inst, _ = generate(ScenarioSpec(scenario=1, p=p, n=3 * p, seed=seed))
    if family == "zero_first":
        design, q = draw(st.sampled_from([("bh", 1.0), ("oscar", 0.0)]))
        return inst, validate_ray(np.zeros(p), design_sequence(design, p, q=q, n=3 * p))
    lam_bar = design_sequence(draw(st.sampled_from(["bh", "gauss", "qs"])), p, q=0.1, n=3 * p)
    if family == "clip":
        return inst, WeightRay(np.zeros(p), lam_bar, draw(st.floats(0.01, 5.0)))
    lam0 = np.sort(draw(st.lists(st.floats(0.0, 2.0), min_size=p, max_size=p)))
    lam0[-1] = max(lam0[-1], 0.5)
    return inst, WeightRay(lam0, lam_bar, draw(st.sampled_from([math.inf, 20.0])))


class TestByteIdentity:
    @pytest.mark.parametrize("case", _PINNED,
                             ids=[f"s{c['scenario']}-p{c['p']}-{c['design']}" for c in _PINNED])
    def test_pinned_paths(self, case, tmp_path):
        inst, _ = generate(ScenarioSpec(scenario=case["scenario"], p=case["p"],
                                        n=case["n"], seed=case["seed"]))
        lam = design_sequence(case["design"], case["p"], q=case["q"], n=case["n"])
        _check(inst, validate_ray(np.zeros(case["p"]), lam), tmp_path)

    def test_coincident_events(self, tmp_path):
        # both coordinates die at eta = 1: the second death ends no segment
        inst = ProblemInstance(y=np.array([2.0, 1.0]), X=np.eye(2))
        path = _check(inst, validate_ray(np.zeros(2), np.array([1.0, 2.0])), tmp_path)
        assert [e.eta for e in path.events[:2]] == [1.0, 1.0]

    def test_absorbed_events(self, tmp_path):
        inst = ProblemInstance(y=np.array([-1.0, -3.0, 3.0]),
                               X=np.array([[0, 1, -1], [-2, 1, 0], [-1, 0, 0]], dtype=float),
                               ridge=0.5)
        path = _check(inst, validate_ray(np.zeros(3), np.array([1.0, 2.0, 3.0])), tmp_path)
        assert path.provenance["diagnostics"]["absorbed_events"] >= 1

    def test_validated_gram_checks(self, tmp_path):
        inst, _ = generate(ScenarioSpec(scenario=1, p=12, n=36, seed=0))
        ray = validate_ray(np.zeros(12), design_sequence("qs", 12))
        _check(inst, ray, tmp_path, PathOptions(validate_every=3))

    @given(_corpus_cases())
    def test_corpus(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            _check(*case, Path(tmp))


class TestKnotSegments:
    @staticmethod
    def _path():
        inst, _ = generate(ScenarioSpec(scenario=1, p=10, n=50, seed=4))
        return run_path(inst, validate_ray(np.zeros(10), design_sequence("bh", 10, q=0.1)))

    def test_sequence_protocol(self):
        path = self._path()
        segs = path.segments
        built = list(segs)
        n = len(segs)
        assert n == len(built) > 20
        keys = [_segment_key(s) for s in built]
        for i in (-1, -2, -n, 0, n - 1):
            assert _segment_key(segs[i]) == keys[i]
        for cut in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -3),
                    slice(2, -2, 4), slice(n + 5, None)):
            assert [_segment_key(s) for s in segs[cut]] == keys[cut]
        assert isinstance(segs[1:4], tuple)
        assert [_segment_key(s) for s in reversed(segs)] == keys[::-1]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                segs[bad]
        assert path.eta_end == built[-1].eta_end

    def test_switches_share_the_slope(self):
        path = self._path()
        shared = 0
        built = list(path.segments)
        # events are built on access, so a segment's ending event is found
        # by position: the next event that moves eta past the segment start
        ends, eta = [], 0.0
        for j, e in enumerate(path.events):
            if e.eta > eta:
                ends.append(j)
                eta = e.eta
        assert [path.events[j] for j in ends] == [s.ending_event for s in built]
        for i, (a, b) in enumerate(zip(built, built[1:])):
            kinds = {e.kind for e in path.events[ends[i]:ends[i + 1]]}
            if not kinds & set(STRUCTURAL):
                assert a.slope is b.slope
                shared += 1
        assert shared > 0

    def test_stored_arrays_are_read_only(self):
        seg = self._path().segments[0]
        with pytest.raises(ValueError):
            seg.slope[0] = 1.0
        with pytest.raises(ValueError):
            seg.beta_start[0] = 1.0

    def test_loaded_path_shares_slopes_where_the_traced_one_does(self, tmp_path):
        path = self._path()
        save_path(path, tmp_path / "path.jsonl")
        loaded = load_path(tmp_path / "path.jsonl")
        assert type(loaded.segments) is type(path.segments)
        knots = loaded.knots
        assert knots.at == path.knots.at
        assert knots.slope_row == path.knots.slope_row
        shares = _shares(list(loaded.segments))
        assert shares == _shares(list(path.segments)) and any(shares) and not all(shares)
        for k in range(len(knots)):
            for a in (knots.beta(k), knots.slope(k)):
                with pytest.raises(ValueError):
                    a[0] = 1.0

    def test_length_and_starts_build_no_segment(self, monkeypatch):
        path = self._path()

        def fail(*args):
            raise AssertionError("a segment was built")

        monkeypatch.setattr(type(path.segments), "_segment", fail)
        starts = path.segments.starts
        assert len(path.segments) == len(starts) > 20
        assert list(starts) == sorted(starts)


class TestZeroLevelKnots:
    def test_replay_misses_only_the_sign_of_an_exact_zero(self):
        # the engine scatters -s * (L + d * S); the replay adds the scattered
        # -s * L and d * (-s * S), the same bits unless the sum is zero
        rng = np.random.default_rng(0)
        L, S = rng.standard_normal(1000), rng.standard_normal(1000)
        d = rng.uniform(0.0, 1.0, 1000)
        for sign in (1.0, -1.0):
            assert np.array_equal(_bits(sign * (L + d * S)), _bits(sign * L + d * (sign * S)))
        engine = -1.0 * (1.0 + 0.5 * -2.0)
        replay = -1.0 * 1.0 + 0.5 * (-1.0 * -2.0)
        assert engine == replay == 0.0 and _bits(engine) != _bits(replay)

    def test_switch_landing_on_zero_is_a_knot(self, monkeypatch, tmp_path):
        inst, _ = generate(ScenarioSpec(scenario=1, p=10, n=50, seed=4))
        ray = validate_ray(np.zeros(10), design_sequence("bh", 10, q=0.1))
        switch = EngineState.apply_switch
        planted = []

        def landing(state, k):
            # once per run, the first switch leaves a grouped value on an
            # exact zero, in a group of negative coefficients if there is one
            switch(state, k)
            if state not in planted and state.n_groups:
                j = int(np.argmax([state.s[state.order[a]] for a in state.starts[:-1]]))
                state.levels = state.levels.copy()
                state.levels[j] = 0.0
                planted.append(state)

        monkeypatch.setattr(EngineState, "apply_switch", landing)
        path = _check(inst, ray, tmp_path)
        structural = sum(e.kind in STRUCTURAL for e in path.events)
        assert len(planted) == 2
        # such a knot shares the slope, so its record leaves the slope out
        rows = path.knots.slope_row
        shared = sum(a == b for a, b in zip(rows, rows[1:]))
        records = map(json.loads, (tmp_path / "path.jsonl").read_text().splitlines())
        assert sum(r["record"] == "knot" and "slope" not in r for r in records) == shared > 0
        assert path.provenance["diagnostics"]["stored_knots"] > 1 + structural


def _retained(trace):
    """What ``trace()`` returns, and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = trace()
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return kept, after - before


def _drop_knots(path):
    """``path`` with its knot store, knot etas too, emptied in place."""
    path.knots.__init__(path.knots.p)
    return path


class TestRetainedMemory:
    @staticmethod
    def _case(p=60):
        inst, _ = generate(ScenarioSpec(scenario=1, p=p, n=10 * p, seed=0))
        ray = validate_ray(np.zeros(p), design_sequence("bh", p, q=0.1))
        validate_instance(inst)
        return inst, ray

    def test_one_beta_per_knot(self):
        p = 60
        inst, ray = self._case(p)
        path, knots_bytes = _retained(lambda: run_path(inst, ray))
        _, eager_bytes = _retained(lambda: eager_run_path(inst, ray))
        events = len(path.events)
        knots = path.provenance["diagnostics"]["stored_knots"]
        vector = 8 * p
        assert knots < 0.75 * events
        # the eager recorder keeps a beta per event and a slope per knot,
        # knots keep both per knot: the path holds events - knots fewer
        # vectors.  A knot's rows sit in blocks of _BLOCK_ROWS, one partly
        # filled per kind, and its position, slope row and eta cost about
        # 20 bytes; an event costs about 36 bytes in columns, and per-event
        # objects cost 200 more
        assert eager_bytes >= vector * (events + knots)
        blocks = 2 * _BLOCK_ROWS * vector
        assert knots_bytes <= (vector + 16) * 2 * knots + 64 * events + 100_000 + blocks
        assert knots_bytes <= eager_bytes - vector * (events - knots)

        def walk():
            for seg in path.segments:
                eval_path(path, seg.eta_start)

        # reading every segment keeps at most the one built last
        assert _retained(walk)[1] <= 2 * vector + 1_000

    def test_events_cost_at_most_40_bytes_each(self):
        # beyond its knots, a path keeps 25 bytes per event in the event
        # columns and 8 per segment in the segment ends, each array
        # over-allocated by at most 1/16; the provenance does not grow
        # with the events and is left out
        inst, ray = self._case()
        run_path(inst, ray)  # forms what the instance caches

        def trace_and_drop_knots():
            path = _drop_knots(run_path(inst, ray))
            path.provenance.clear()
            return path

        path, kept = _retained(trace_and_drop_knots)
        assert len(path.segments) > 2000
        assert kept <= 40 * len(path.events)

    def test_knots_cost_at_most_24_bytes_each_beyond_their_rows(self):
        # a knot's position (8 bytes), slope row (4) and eta (8), each
        # array over-allocated by at most 1/16, beside its beta and slope
        # rows and the blocks holding them, one per kind partly filled
        inst, ray = self._case()
        run_path(inst, ray)  # forms what the instance caches
        path, kept = _retained(lambda: run_path(inst, ray))
        _, without = _retained(lambda: _drop_knots(run_path(inst, ray)))
        knots = path.knots
        vector = 8 * inst.p
        rows = (len(knots) + knots.slopes.n) * vector
        assert len(knots) > 1000
        assert kept - without <= rows + 2 * _BLOCK_ROWS * vector + 24 * len(knots)

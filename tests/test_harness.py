import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slopepath
from slopepath import (
    ProblemInstance,
    WeightRay,
    emit_contour,
    emit_sphericity_curve,
    load_path,
    oscar_sequence,
    path_metrics,
    qs_sequence,
    run_experiment,
    run_path,
    sphericity_ratio,
    validate_ray,
)
from slopepath.errors import EmptyPathError, NonFiniteError, ValidationError, ZeroWeightsError


class TestPathMetrics:
    def test_t2_breakpoint_averages(self, t2_instance, t2_ray):
        path = run_path(t2_instance, t2_ray)
        mean_nnz, mean_groups, events = path_metrics(path)
        # states after the two fuses: (1,1) then all-zero
        assert mean_nnz == pytest.approx(1.0)
        assert mean_groups == pytest.approx(0.5)
        assert events == 2

    def test_eventless_path_uses_terminal_state(self, t2_instance):
        ray = WeightRay(np.zeros(2), np.array([0.0, 1.0]), eta_max=1.0)
        mean_nnz, mean_groups, events = path_metrics(run_path(t2_instance, ray))
        assert (mean_nnz, mean_groups, events) == (2.0, 2.0, 0)

    def test_all_zero_path(self):
        inst = ProblemInstance(y=np.zeros(2), X=np.eye(2))
        ray = validate_ray(np.zeros(2), np.array([0.5, 1.0]))
        mean_nnz, mean_groups, events = path_metrics(run_path(inst, ray))
        assert mean_nnz == 0.0
        assert events == 0

    def test_path_without_events_is_rejected(self, tmp_path):
        # a file holding a header and one knot but no event
        path_file = tmp_path / "knot-only.jsonl"
        path_file.write_text(
            json.dumps({"record": "header", "provenance": {}}) + "\n"
            + json.dumps({"record": "knot", "eta": 0.0, "beta": [1.0, 2.0],
                          "slope": [0.0, 0.0]}) + "\n")
        with pytest.raises(EmptyPathError, match="path has no events to summarize"):
            path_metrics(load_path(path_file))


class TestRunExperiment:
    def test_small_run_ordering_and_bounds(self):
        report = run_experiment(scenario=2, sizes=[(4, 24)], designs=["bh", "qs"],
                                replicates=4, seed_base=17)
        assert [c.design for c in report.cells] == ["bh", "qs"]
        for cell in report.cells:
            assert 0.0 <= cell.mean_nonzero_groups <= cell.mean_nonzero <= 4.0
            assert cell.replicates == 4
            assert cell.seeds == (17, 18, 19, 20)

    def test_deterministic_json(self):
        kwargs = dict(scenario=2, sizes=[(4, 24)], designs=["qs"],
                      replicates=3, seed_base=5)
        a = run_experiment(**kwargs).to_json()
        b = run_experiment(**kwargs).to_json()
        assert a == b
        assert "timing" not in a

    def test_parallel_matches_serial(self):
        kwargs = dict(scenario=2, sizes=[(4, 24)], designs=["qs", "oscar"],
                      replicates=4, seed_base=9)
        serial = run_experiment(threads=1, **kwargs).to_json()
        parallel = run_experiment(threads=2, **kwargs).to_json()
        assert serial == parallel

    def test_import_leaves_out_multiprocessing(self):
        # only a parallel run_experiment needs the process pool
        src = str(Path(slopepath.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = ("import sys, slopepath; "
                "print([m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_no_replicates_rejected(self, replicates):
        with pytest.raises(ValidationError, match="replicates must be at least 1"):
            run_experiment(scenario=1, sizes=[(4, 20)], designs=["qs"],
                           replicates=replicates, seed_base=0)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_no_threads_rejected(self, threads):
        # a count below 1 used to run serially without a word
        with pytest.raises(ValidationError, match=f"threads must be at least 1, got {threads}"):
            run_experiment(scenario=1, sizes=[(4, 20)], designs=["qs"],
                           replicates=1, seed_base=0, threads=threads)

    def test_table_output_mentions_convention(self):
        report = run_experiment(scenario=2, sizes=[(4, 24)], designs=["qs"],
                                replicates=2, seed_base=3)
        text = report.to_table()
        assert "breakpoint averages exclude the initial state" in text
        assert "qs" in text


class TestEmitContour:
    def test_affine_design_unit_top_vertex(self):
        # weights i/p (top normalized to 1): the 45-degree vertex sits at
        # (p/(2p-1), p/(2p-1)) while the axis vertices sit at distance 1
        for p in (4, 12, 50):
            lam = oscar_sequence(p, 1.0) / p
            pts = emit_contour(lam, n_angles=8)
            diag = pts[1]  # 45 degrees
            expected = p / (2.0 * p - 1.0)
            assert diag == pytest.approx([expected, expected], abs=1e-12)
            assert pts[0] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_quasi_spherical_vertices_on_unit_circle(self):
        for p in (2, 5, 40):
            pts = emit_contour(qs_sequence(p), n_angles=8)
            radii = np.linalg.norm(pts, axis=1)
            assert radii == pytest.approx(np.ones(8), abs=1e-12)

    def test_top_weight_only_gives_square(self):
        lam = np.zeros(5)
        lam[-1] = 1.0
        pts = emit_contour(lam, n_angles=360)
        assert np.max(np.abs(pts), axis=1) == pytest.approx(np.ones(360), abs=1e-12)

    def test_zero_weights_rejected(self):
        with pytest.raises(ZeroWeightsError):
            emit_contour(np.zeros(4))

    @pytest.mark.parametrize("lam", [[float("nan"), 1.0], [0.5, float("nan")],
                                     [0.5, float("inf")]], ids=["nan-first", "nan-last", "inf"])
    def test_non_finite_weights_rejected(self, lam):
        with pytest.raises(NonFiniteError, match="weights contain non-finite entries"):
            emit_contour(np.array(lam))

    @pytest.mark.parametrize("n_angles", [0, -1])
    def test_no_angles_rejected(self, n_angles):
        with pytest.raises(ValidationError, match="n_angles must be at least 1"):
            emit_contour(qs_sequence(4), n_angles=n_angles)


class TestSphericityCurve:
    def test_endpoints_and_monotonicity(self):
        rows = emit_sphericity_curve(150)
        assert rows[0] == pytest.approx([1.0, 1.0])
        by_p = {int(p): rho for p, rho in rows}
        assert 1.46 <= by_p[100] <= 1.48
        assert np.all(np.diff(rows[:, 1]) >= 0)

    @pytest.mark.parametrize("p_max", [1, 150, 3000])
    def test_every_row_is_the_sphericity_ratio(self, p_max):
        rows = emit_sphericity_curve(p_max)
        for p, rho in rows.tolist():
            assert rho == sphericity_ratio(int(p))

    def test_thinning_above_cutoff(self):
        rows = emit_sphericity_curve(5000)
        ps = rows[:, 0].astype(int)
        assert ps[-1] == 5000
        assert (ps <= 1000).sum() == 1000
        assert len(ps) < 1400  # thinned tail

    def test_invalid_pmax(self):
        with pytest.raises(ValidationError):
            emit_sphericity_curve(0)

    def test_pmax_past_the_bound_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="at most 10,000,000, got 10,000,001: "
                                                      "the row at p holds about 32 bytes per p, "
                                                      "some 320 MB at the bound"):
                emit_sphericity_curve(10**7 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

import numpy as np
import pytest

from conftest import desk_config

from leobeam.errors import ConvergenceError, LeobeamError
from leobeam.evaluator import apply_axis, evaluate, sweep, write_eval_csv, write_sweep_csv
from leobeam.network import sinr
from leobeam.robust_avg import design_avg_sinr
from leobeam.scenario import build_scenario


class TestEvaluate:
    def test_zero_sigma_is_deterministic(self, desk_scenario, alg1_design):
        sc = desk_scenario.with_sigma_deg(0.0)
        report = evaluate(alg1_design, sc, samples=500, seed=3)
        assert np.all(report.se_mean <= 1e-12 * report.mean_sinr)  # zero up to rounding
        for i, u in enumerate(sc.users):
            want = sinr(u, u.channel.estimated, alg1_design, sc).gamma
            assert report.mean_sinr[i] == pytest.approx(want, rel=1e-12)

    def test_bit_reproducible(self, desk_scenario, alg1_design):
        a = evaluate(alg1_design, desk_scenario, samples=2000, seed=9)
        b = evaluate(alg1_design, desk_scenario, samples=2000, seed=9)
        assert np.array_equal(a.mean_sinr, b.mean_sinr)
        assert np.array_equal(a.outage, b.outage)

    def test_seed_matters(self, desk_scenario, alg1_design):
        a = evaluate(alg1_design, desk_scenario, samples=2000, seed=9)
        b = evaluate(alg1_design, desk_scenario, samples=2000, seed=10)
        assert not np.array_equal(a.mean_sinr, b.mean_sinr)

    def test_error_shrinks_with_sample_count(self, desk_scenario, alg1_design):
        # CLT: quadrupling the samples should halve the scatter of the mean
        reps = 30
        small, large = [], []
        for r in range(reps):
            small.append(
                evaluate(alg1_design, desk_scenario, samples=500, seed=100 + r).mean_sinr[0]
            )
            large.append(
                evaluate(alg1_design, desk_scenario, samples=8000, seed=500 + r).mean_sinr[0]
            )
        ratio = np.std(small) / np.std(large)
        assert 2.0 < ratio < 8.0  # expect 4x with wide statistical tolerance

    def test_rejects_empty(self, desk_scenario, alg1_design):
        with pytest.raises(LeobeamError):
            evaluate(alg1_design, desk_scenario, samples=0)

    def test_csv_schema(self, tmp_path, desk_scenario, alg1_design):
        report = evaluate(alg1_design, desk_scenario, samples=100, seed=1)
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,mean_sinr_db,outage,se_outage,samples,seed"
        assert len(lines) == 1 + len(desk_scenario.users)


class TestSweep:
    def test_gamma_axis_monotone_and_marks_infeasible(self, desk_scenario):
        rows = sweep(
            desk_scenario,
            "gamma",
            [0.0, 2.0, 30.0],
            lambda sc: design_avg_sinr(sc),
            samples=200,
            seed=4,
        )
        assert [r.status for r in rows] == ["OPTIMAL", "OPTIMAL", "INFEASIBLE"]
        assert rows[0].total_power < rows[1].total_power
        assert rows[2].detail != ""

    def test_convergence_failure_marked_nonconverged(self, desk_scenario):
        def stalls(sc):
            raise ConvergenceError("penalty loop stalled")

        rows = sweep(desk_scenario, "gamma", [0.0], stalls, samples=10, seed=1)
        assert [r.status for r in rows] == ["NONCONVERGED"]
        assert rows[0].detail == "penalty loop stalled"

    def test_apply_axis_unknown(self, desk_scenario):
        with pytest.raises(LeobeamError):
            apply_axis(desk_scenario, "bogus", 1.0)

    def test_empty_grid_rejected(self, desk_scenario):
        with pytest.raises(LeobeamError):
            sweep(desk_scenario, "gamma", [], lambda sc: None)

    def test_csv(self, tmp_path, desk_scenario):
        rows = sweep(
            desk_scenario, "sigma", [0.0, 5.0], lambda sc: design_avg_sinr(sc),
            samples=100, seed=2,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("axis,value,status,total_power_w")
        assert len(lines) == 3

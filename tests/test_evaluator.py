import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import correlated_cov, count_calls, desk_config
from oracles import whole_array_evaluate

from leobeam.baselines import design_tdma
from leobeam.channel import PhaseErrorModel
from leobeam.errors import ConfigError, ConvergenceError, LeobeamError
from leobeam.cli import write_eval_csv, write_sweep_csv
import leobeam
from leobeam import evaluator
from leobeam.evaluator import CHUNK_ELEMENTS, apply_axis, evaluate, sweep
from leobeam.network import sinr, sinr_samples
from leobeam.robust_avg import design_avg_sinr
from leobeam.scenario import build_scenario


class TestEvaluate:
    def test_zero_sigma_is_deterministic(self, desk_scenario, alg1_design):
        sc = desk_scenario.with_config(phase_sigma_deg=0.0)
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
        # Bad sampling arguments are config errors, not TypeError/ValueError.
        bad = [(0, 1), (-3, 1), (2.5, 1), (True, 1), (10, -1), (10, 1.5), (10, False)]
        for samples, seed in bad:
            with pytest.raises(ConfigError):
                evaluate(alg1_design, desk_scenario, samples=samples, seed=seed)

    def test_csv_schema(self, tmp_path, desk_scenario, alg1_design):
        report = evaluate(alg1_design, desk_scenario, samples=100, seed=1)
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,mean_sinr_db,outage,se_outage,samples,seed"
        assert len(lines) == 1 + len(desk_scenario.users)


REPORT_ARRAYS = ("mean_sinr", "se_mean", "outage", "se_outage", "gamma_target")


@pytest.fixture(scope="module")
def correlated_scenario(desk_scenario):
    return build_scenario(desk_config(phase_cov=correlated_cov(desk_scenario.feeds)))


class TestChunking:
    """Chunked sampling against the whole-array oracle, at chunk edges."""

    @pytest.mark.parametrize("cov", [None, "correlated"])
    @pytest.mark.parametrize("algorithm", ["avg", "tdma"])
    @pytest.mark.parametrize(
        "chunks, extra",
        [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+3"],
    )
    def test_bit_identical_to_whole_array(
        self, desk_scenario, correlated_scenario, alg1_design, cov, algorithm, chunks, extra
    ):
        sc = desk_scenario if cov is None else correlated_scenario
        design = alg1_design if algorithm == "avg" else design_tdma(desk_scenario)
        n = chunks * (CHUNK_ELEMENTS // sc.feeds) + extra
        got = evaluate(design, sc, samples=n, seed=21)
        want = whole_array_evaluate(design, sc, n, 21)
        for name in REPORT_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_one_factor_per_terminal(self, monkeypatch, correlated_scenario, alg1_design):
        sc = correlated_scenario
        factors = count_calls(monkeypatch, PhaseErrorModel, "factor")
        evaluate(alg1_design, sc, samples=3 * CHUNK_ELEMENTS // sc.feeds, seed=2)
        assert len(factors) == len(sc.users)

    def test_memory_does_not_grow_with_samples_times_feeds(self, desk_scenario, alg1_design):
        samples = 200_000
        evaluate(alg1_design, desk_scenario, samples=10, seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            evaluate(alg1_design, desk_scenario, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Per sample and per worker: the SINR vector and its statistics'
        # temporaries; each worker's chunk buffers are fixed.  Holding every
        # sample at once took 136 MB.
        assert peak < 4 * 8 * samples + 2 * 2**20


class TestWorkers:
    """Terminals scored on worker threads: the report does not depend on how many."""

    @pytest.mark.parametrize("cov", [None, "correlated"])
    @pytest.mark.parametrize("algorithm", ["avg", "tdma"])
    def test_reports_equal_at_any_worker_count(
        self, monkeypatch, desk_scenario, correlated_scenario, alg1_design, cov, algorithm
    ):
        sc = desk_scenario if cov is None else correlated_scenario
        design = alg1_design if algorithm == "avg" else design_tdma(desk_scenario)
        n = 2 * (CHUNK_ELEMENTS // sc.feeds) + 3
        reports = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            # 7 workers is more than the 6 desk terminals.
            for workers in (1, 2, 3, 7):
                monkeypatch.setattr(evaluator, "WORKERS", workers)
                reports[workers] = evaluate(design, sc, samples=n, seed=5)
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 3, 7):
            for name in REPORT_ARRAYS:
                got, want = getattr(reports[workers], name), getattr(reports[1], name)
                assert np.array_equal(got, want), (workers, name)

    def test_scoring_error_surfaces_and_threads_end(
        self, monkeypatch, desk_scenario, alg1_design
    ):
        class ScoringError(Exception):
            pass

        failing_user = desk_scenario.users[3]

        def scoring(user, h, design, scenario):
            if user is failing_user:
                raise ScoringError("terminal 3")
            return sinr_samples(user, h, design, scenario)

        monkeypatch.setattr(evaluator, "sinr_samples", scoring)
        before = threading.active_count()
        with pytest.raises(ScoringError, match="terminal 3"):
            evaluate(alg1_design, desk_scenario, samples=3 * CHUNK_ELEMENTS, seed=1)
        assert threading.active_count() == before


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

    def test_config_error_raised_not_a_row(self, desk_scenario):
        def bad_input(sc):
            raise ConfigError("bad input")

        with pytest.raises(ConfigError, match="bad input"):
            sweep(desk_scenario, "gamma", [0.0], bad_input, samples=10, seed=1)
        with pytest.raises(ConfigError, match="samples must be an integer"):
            sweep(desk_scenario, "gamma", [0.0], design_tdma, samples=0, seed=1)

    def test_generator_grid(self, desk_scenario):
        grid = (g for g in [0.0, 1.0])
        rows = sweep(desk_scenario, "gamma", grid, design_avg_sinr, samples=100, seed=3)
        assert [(r.value, r.status) for r in rows] == [(0.0, "OPTIMAL"), (1.0, "OPTIMAL")]

    @pytest.mark.parametrize(
        "axis, grid",
        [("gamma", [0.0, float("nan")]), ("sigma", [0.0, -5.0]), ("eta", [0.0, 1.5])]
        + [("p", [0.05, 0.0])],
    )
    def test_bad_grid_value_rejected_before_any_design(self, desk_scenario, axis, grid):
        calls = []
        with pytest.raises(ConfigError):
            sweep(desk_scenario, axis, grid, calls.append, samples=10, seed=1)
        assert calls == []

    def test_points_rebuilt_from_config(self, desk_scenario):
        seen = []
        sweep(desk_scenario, "p", [0.1, 0.2], lambda sc: seen.append(sc) or design_tdma(sc), 10, 1)
        for p, point in zip([0.1, 0.2], seen):
            assert point.config.outage_prob == p
            assert [u.outage_prob for u in point.users] == [p] * len(point.users)

    def test_apply_axis_unknown(self, desk_scenario):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            apply_axis(desk_scenario, "bogus", 1.0)

    def test_empty_grid_rejected(self, desk_scenario):
        with pytest.raises(ConfigError, match="nonempty"):
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


def test_design_and_evaluate_import_numpy_only():
    """A fresh interpreter that designs and evaluates a desk scenario loads
    neither scipy nor logging; concurrent.futures, which imports logging,
    would alone add 0.5 MB of RSS."""
    code = (
        "import sys, leobeam\n"
        "sc = leobeam.build_scenario(leobeam.NetworkConfig())\n"
        "leobeam.evaluate(leobeam.design_avg_sinr(sc), sc, samples=1000)\n"
        "print(sorted(m for m in ('scipy', 'logging', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(leobeam.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

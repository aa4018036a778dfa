import csv
import json

import numpy as np
import pytest

from conftest import count_calls

from leobeam import cli, robust_avg
from leobeam.cli import main
from leobeam.errors import ConvergenceError, InfeasibleDesignError
from leobeam.scenario import build_scenario

SMALL = {
    "scenario": {"feeds": 6, "beams": 2, "users_per_region": 2, "seed": 3},
    "eval": {"samples": 500, "seed": 11},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDesignCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["design", "--config", cfg, "--out", str(out)])
        assert rc == 0
        for name in ("design.csv", "eval.csv", "sinr.csv", "channels.txt", "manifest.json"):
            assert (out / name).exists()
        header = (out / "design.csv").read_text().splitlines()[0]
        assert header == "gamma_db,sigma_deg,eta,total_power_w,iters,max_rank_gap,status"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "leobeam"
        assert manifest["status"] == "OPTIMAL"
        assert "time" not in json.dumps(manifest).lower()

    @pytest.mark.parametrize(
        "gamma_db, cell",
        [(1.0, "1.0"), ([1.0, 2.0, 1.0, 3.0], "1.0;2.0;1.0;3.0")],
        ids=["uniform", "per-terminal"],
    )
    def test_design_csv_reports_configured_values(self, tmp_path, gamma_db, cell):
        # 1 dB and 3 deg do not round-trip through their linear and radian forms.
        scenario = dict(SMALL["scenario"], gamma_db=gamma_db, phase_sigma_deg=3.0)
        cfg = write_cfg(tmp_path, dict(SMALL, scenario=scenario))
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "design.csv") as fh:
            row = next(csv.DictReader(fh))
        assert (row["gamma_db"], row["sigma_deg"]) == (cell, "3.0")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["gamma_db"] == gamma_db
        assert manifest["config"]["scenario"]["phase_sigma_deg"] == 3.0

    def test_outage_schema(self, tmp_path):
        doc = dict(SMALL)
        doc["design"] = {"algorithm": "outage"}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["design", "--config", cfg, "--out", str(out), "--samples", "300"])
        assert rc == 0
        header = (out / "design.csv").read_text().splitlines()[0]
        assert "p_outage" in header and "empirical_outage_max" in header

    @pytest.mark.parametrize(
        "command",
        [["design"], ["sweep", "--axis", "gamma", "--grid", "0,2"], ["compare"]],
        ids=["design", "sweep", "compare"],
    )
    def test_byte_identical_rerun(self, tmp_path, command):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        argv = [*command, "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(argv) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_algorithm_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["design", "--config", cfg, "--out", str(out), "--algorithm", "tdma"])
        assert rc == 0
        assert (out / "design.csv").exists()

    def test_tdma_manifest_lists_written_files(self, tmp_path):
        # a TDMA design writes no sinr.csv, so its manifest must not list one
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out), "--algorithm", "tdma"]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert sorted(outputs) == sorted(written)


class TestValidation:
    def test_alpha_sum_rejected(self, tmp_path, capsys):
        doc = {
            "scenario": {
                "feeds": 6,
                "beams": 2,
                "users_per_region": 2,
                "alpha_policy": "explicit",
                "alpha_explicit": [[0.5, 0.6], [0.2, 0.8]],
            }
        }
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sum" in err and "> 1" in err

    def test_alpha_explicit_under_other_policy_rejected(self, tmp_path, capsys):
        split = [[0.5, 0.5], [0.5, 0.5]]
        block = dict(SMALL["scenario"], alpha_explicit=split)
        doc = {"scenario": dict(block, alpha_policy="geometric")}
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "only the explicit policy reads it" in capsys.readouterr().err
        assert not out.exists()
        # Without alpha_policy, alpha_explicit selects the explicit policy.
        cfg = cli.scenario_from_config({"scenario": block})
        assert [u.alpha for u in build_scenario(cfg).users] == [0.5] * 4

    def test_zero_outage_rejected(self, tmp_path, capsys):
        doc = {"scenario": {"outage_prob": 0.0}, "design": {"algorithm": "outage"}}
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "outage probability" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cov", [np.eye(4), 0.5 * np.eye(6)], ids=["wrong-size", "half-diagonal"]
    )
    def test_bad_phase_cov_rejected(self, tmp_path, capsys, cov):
        doc = {
            "scenario": dict(SMALL["scenario"], phase_cov=cov.tolist()),
            "design": {"algorithm": "outage"},
        }
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "phase covariance" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "a", None])
    @pytest.mark.parametrize("key", ["alpha_explicit", "phase_cov"])
    def test_bad_matrix_entry_rejected(self, tmp_path, capsys, key, bad):
        # json writes NaN and Infinity, and reads null as None
        if key == "alpha_explicit":
            fields = {"alpha_policy": "explicit", key: [[bad, 0.3], [0.3, 0.6]]}
        else:
            cov = np.eye(6).tolist()
            cov[0][1] = cov[1][0] = bad
            fields = {key: cov}
        doc = {"scenario": dict(SMALL["scenario"], **fields), "design": {"algorithm": "outage"}}
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert f"{key} entries must be numeric and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["design", "compare"])
    def test_zero_samples_rejected(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--samples", "0"])
        assert rc == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("samples", "many"), ("samples", 2.7), ("seed", 1.5), ("samples", True)]
    )
    def test_non_integral_eval_rejected(self, tmp_path, capsys, key, value):
        doc = dict(SMALL, eval=dict(SMALL["eval"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert f"eval.{key} must be an integer" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_eval_seed_rejected(self, tmp_path, capsys, where):
        doc = dict(SMALL, eval=dict(SMALL["eval"], seed=-1)) if where == "config" else SMALL
        argv = ["design", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "o")]
        rc = main(argv + (["--seed", "-1"] if where == "flag" else []))
        assert rc == 2
        assert "eval.seed must be nonnegative" in capsys.readouterr().err

    def test_integral_float_eval_accepted(self, tmp_path):
        evals = {"float": {"samples": 500.0, "seed": 11.0}, "int": SMALL["eval"]}
        for name, block in evals.items():
            cfg = write_cfg(tmp_path, dict(SMALL, eval=block), f"{name}.json")
            assert main(["design", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        got, want = (tmp_path / name / "eval.csv" for name in evals)
        assert got.read_bytes() == want.read_bytes()
        manifest = json.loads((tmp_path / "float" / "manifest.json").read_text())
        assert manifest["config"]["eval"] == {"samples": 500, "seed": 11}
        assert all(type(v) is int for v in manifest["config"]["eval"].values())

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", -3, "seed must be nonnegative"),
            ("seed", 1.5, "scenario.seed must be an integer"),
            ("feeds", 6.5, "scenario.feeds must be an integer"),
            ("users_per_region", 1.5, "scenario.users_per_region must be an integer"),
            ("users_per_region", [2, 1.5], "scenario.users_per_region must be an integer"),
            ("beams", True, "scenario.beams must be an integer"),
        ],
    )
    def test_bad_counts_and_seed_rejected(self, tmp_path, capsys, key, value, message):
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sat_gain_dbi", "17"),
            ("altitude_m", "1e6"),
            ("altitude_m", [1e6]),
            ("rain_var_db2", True),
            ("phase_sigma_deg", None),
            ("gamma_db", "3"),
            ("sic_eta", [0.05, "0.05", 0.05, 0.05]),
        ],
    )
    def test_non_numeric_real_field_rejected(self, tmp_path, capsys, key, value):
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert f"{key} must be numeric" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        floats = {"feeds": 6.0, "beams": 2.0, "users_per_region": [2.0, 2], "seed": 3.0}
        docs = {"float": dict(SMALL, scenario=floats), "int": SMALL}
        for name, doc in docs.items():
            cfg = write_cfg(tmp_path, doc, f"{name}.json")
            assert main(["design", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        for artifact in ("design.csv", "eval.csv", "channels.txt"):
            got, want = (tmp_path / name / artifact for name in docs)
            assert got.read_bytes() == want.read_bytes()
        manifest = json.loads((tmp_path / "float" / "manifest.json").read_text())
        scenario = manifest["config"]["scenario"]
        assert scenario == {"feeds": 6, "beams": 2, "users_per_region": [2, 2], "seed": 3}
        counts = [scenario[key] for key in ("feeds", "beams", "seed")]
        assert all(type(v) is int for v in counts + scenario["users_per_region"])

    @pytest.mark.parametrize("name", ["light_speed", "boltzmann", "noise_temp_k"])
    def test_fixed_constants_are_not_fields(self, tmp_path, capsys, name):
        cfg = write_cfg(tmp_path, {"scenario": {name: 1.0}})
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"unknown scenario field(s) ['{name}']" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"scenario": {"feedz": 12}})
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "feedz" in capsys.readouterr().err

    def test_malformed_json_has_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": {,}}')
        rc = main(["design", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_rejected(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"scenario": {"seed": "\xff"}}')
        out = tmp_path / "o"
        rc = main(["design", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert f"config error: {path}: cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, None, ["o"]])
    def test_non_string_output_dir_rejected(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, dict(SMALL, output={"dir": value}))
        rc = main(["design", "--config", cfg])
        assert rc == 2
        assert f"output.dir must be a string, got {value!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL)
        doc["scenario"] = dict(SMALL["scenario"], gamma_db=30.0)
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("altitude_m", float("nan")),
            ("noise_power", float("inf")),
            ("phase_sigma_deg", float("nan")),
            ("gamma_db", [3.0, 3.0, float("-inf"), 3.0]),
        ],
    )
    def test_non_finite_real_field_rejected(self, tmp_path, capsys, key, value):
        # json writes NaN and Infinity, and reads them back as floats
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert f"{key} must be numeric and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sat_gain_dbi", "g_over_t_db"])
    @pytest.mark.parametrize("value", [4000, -4000])
    def test_db_gain_out_of_float_range_rejected(self, tmp_path, capsys, key, value):
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert f"{key} must give a finite, positive linear gain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "gamma_db, algorithm", [(4000, "avg"), (-4000, "outage"), ([3, 3, -4000, 3], "avg")]
    )
    def test_gamma_out_of_float_range_rejected(self, tmp_path, capsys, gamma_db, algorithm):
        # finite in dB, but the linear target overflows or underflows to 0
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], gamma_db=gamma_db))
        out = tmp_path / "o"
        argv = ["design", "--config", write_cfg(tmp_path, doc), "--algorithm", algorithm]
        assert main(argv + ["--out", str(out)]) == 2
        assert "gamma_db must give a finite, positive linear target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "gamma_db, terminal", [(-3080, 0), (-3200, 0), ([3, 3, -3150, 3], 2)]
    )
    def test_outage_rows_out_of_float_range_rejected(
        self, tmp_path, capsys, recwarn, gamma_db, terminal
    ):
        # the linear target is positive, but alpha/gamma times the channel
        # terms overflows in the outage rows
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], gamma_db=gamma_db))
        out = tmp_path / "o"
        argv = ["design", "--config", write_cfg(tmp_path, doc), "--algorithm", "outage"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"gamma_db of terminal {terminal} makes its outage constraint" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_program_past_physical_memory_rejected(self, tmp_path, capsys, monkeypatch):
        # The full-scale outage design (60 feeds, 10 beams, 3 per region)
        # needs about 68 GB for A and S: refused before any row is built,
        # on a machine of 16 GiB whatever the host has.
        monkeypatch.setattr(robust_avg, "physical_memory", lambda: 16 * 2**30)
        doc = dict(SMALL, scenario={"feeds": 60, "beams": 10, "users_per_region": 3})
        out = tmp_path / "o"
        argv = ["design", "--config", write_cfg(tmp_path, doc), "--algorithm", "outage"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "56,790 rows and 92,850 columns" in capsys.readouterr().err
        assert not out.exists()

    def test_outage_rows_overflow_in_sweep_rejected(self, tmp_path, capsys):
        # the grid value is a valid scenario, but the outage rows overflow:
        # the same config error as ``design``, not an INFEASIBLE row
        out = tmp_path / "o"
        argv = ["sweep", "--config", write_cfg(tmp_path, SMALL), "--out", str(out)]
        argv += ["--axis", "gamma", "--grid", "-3200", "--algorithm", "outage"]
        assert main(argv) == 2
        assert "makes its outage constraint coefficients overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("g_over_t_db", 3080), ("sat_gain_dbi", 3080), ("altitude_m", 1e-300), ("altitude_m", 1e300)],
    )
    def test_link_gain_out_of_float_range_rejected(self, tmp_path, capsys, key, value):
        # each field is finite, but the link gain built from them is not
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], **{key: value}))
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "must give a finite, positive link gain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "penalty, message",
        [
            ({"rho0": "1"}, "penalty.rho0 must be numeric and finite"),
            ({"growth": True}, "penalty.growth must be numeric and finite"),
            ({"rank_gap_tol": float("nan")}, "penalty.rank_gap_tol must be numeric and finite"),
            ({"max_iters": 2.5}, "penalty.max_iters must be an integer"),
            (5, "design.penalty must be an object"),
            ({"max_iters": -1}, "iters>=0"),
            ({"growth": 1}, "growth>1"),
        ],
    )
    def test_bad_penalty_rejected(self, tmp_path, capsys, penalty, message):
        doc = dict(SMALL, design={"penalty": penalty})
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_max_iters_accepted(self, tmp_path):
        doc = dict(SMALL, design={"penalty": {"max_iters": 30.0}})
        out = tmp_path / "o"
        assert main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert type(manifest["config"]["design"]["penalty"]["max_iters"]) is int

    @pytest.mark.parametrize(
        "block, key, valid",
        [
            ("eval", "sample", "['samples', 'seed']"),
            ("design", "algoritm", "['algorithm', 'penalty']"),
            ("output", "dri", "['dir']"),
        ],
    )
    def test_unknown_nested_key_rejected(self, tmp_path, capsys, block, key, valid):
        doc = dict(SMALL, **{block: {key: "x"}})
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"unknown {block} key(s) ['{key}']" in err and f"valid keys: {valid}" in err
        assert not out.exists()

    def test_unknown_algorithm_leaves_no_directory(self, tmp_path, capsys):
        doc = dict(SMALL, design={"algorithm": "bogus"})
        out = tmp_path / "o"
        rc = main(["design", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "unknown algorithm 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, grid, algorithm",
        [("p", "0,0.05", "outage"), ("sigma", "-5", "avg"), ("eta", "1.5", "avg")]
        + [("gamma", "nan", "avg"), ("gamma", "0,a", "avg"), ("gamma", ",", "avg")],
    )
    def test_bad_sweep_grid_rejected(self, tmp_path, capsys, monkeypatch, axis, grid, algorithm):
        designs = [count_calls(monkeypatch, cli, f"design_{a}") for a in ("avg_sinr", "outage")]
        out = tmp_path / "o"
        argv = ["sweep", "--config", write_cfg(tmp_path, SMALL), "--out", str(out)]
        rc = main(argv + ["--axis", axis, "--grid", grid, "--algorithm", algorithm])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert designs == [[], []]
        assert not out.exists()


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(
            [
                "sweep",
                "--config",
                cfg,
                "--out",
                str(out),
                "--axis",
                "gamma",
                "--grid",
                "0,2",
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "error, status, code",
        [(ConvergenceError, "NONCONVERGED", 4), (InfeasibleDesignError, "INFEASIBLE", 3)],
    )
    def test_failed_point_exit_code(self, tmp_path, monkeypatch, error, status, code):
        def fails(sc):
            raise error("design failed")

        monkeypatch.setattr(cli, "design_fn", lambda algorithm, penalty: fails)
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--axis", "gamma", "--grid", "0"])
        assert rc == code
        assert f",{status}," in (out / "sweep.csv").read_text()

    def test_bad_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL)
        rc = main(
            ["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--axis", "gamma", "--grid", "a,b"]
        )
        assert rc == 2


class TestCompareCommand:
    def test_compare_all_algorithms(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["compare", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 algorithms
        algos = [ln.split(",")[0] for ln in lines[1:]]
        assert algos == ["avg", "outage", "nonrobust", "zfbf", "tdma"]

    def test_failed_rows_carry_status_and_detail(self, tmp_path, monkeypatch, capsys):
        real_design_fn = cli.design_fn
        errors = {
            "outage": ConvergenceError("penalty loop stalled"),
            "zfbf": InfeasibleDesignError("zero-forcing infeasible", family="zfbf-power"),
        }

        def design_fn(algorithm, penalty):
            if algorithm not in errors:
                return real_design_fn(algorithm, penalty)

            def fails(sc):
                raise errors[algorithm]

            return fails

        monkeypatch.setattr(cli, "design_fn", design_fn)
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "compare.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[-1] == "detail"
        rows = {row[0]: dict(zip(header, row)) for row in rows}
        assert rows["outage"]["status"] == "NONCONVERGED"
        assert rows["outage"]["detail"] == "penalty loop stalled"
        assert rows["zfbf"]["status"] == "INFEASIBLE"
        assert rows["zfbf"]["detail"] == "zero-forcing infeasible"
        for name in ("outage", "zfbf"):
            assert rows[name]["total_power_w"] == "nan"
            assert rows[name]["iters"] == "0"
            assert rows[name]["min_mean_over_target"] == "nan"
        for name in ("avg", "nonrobust", "tdma"):
            assert rows[name]["status"] == "OPTIMAL"
            assert rows[name]["detail"] == ""
            assert float(rows[name]["total_power_w"]) > 0
        assert "outage NONCONVERGED nan" in capsys.readouterr().out

    def test_infeasible_targets_fail_every_algorithm(self, tmp_path):
        doc = dict(SMALL, scenario=dict(SMALL["scenario"], gamma_db=30.0))
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        statuses = {row[0]: row[1] for row in rows}
        assert statuses == {
            "avg": "INFEASIBLE",
            "outage": "INFEASIBLE",
            "nonrobust": "INFEASIBLE",
            "zfbf": "INFEASIBLE",
            "tdma": "INFEASIBLE",
        }
        assert all(row[-1] for row in rows)


class TestWriteCsv:
    def test_cells_are_plain_repr_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        row = [np.float64(0.1), 1 / 3, float("nan"), 7, "x y"]
        cli.write_csv(path, ["a", "b", "c", "d", "e"], [row])
        text = path.read_text()
        assert text == "a,b,c,d,e\n0.1,0.3333333333333333,nan,7,x y\n"
        assert "np.float64(" not in text

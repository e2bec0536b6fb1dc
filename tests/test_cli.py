import csv
import dataclasses
import glob
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab.cli import main
from flowlab.coefficients import builtin_coefficients
from flowlab.config import build_field, parse_config
from flowlab import config, errors, experiments
from flowlab.density import time_threshold
from flowlab.errors import ConfigError, FlowLabError
from flowlab.gaussian import GaussianQuadrature
from flowlab.rng import gaussian_points
from flowlab.sde import MAX_STEPS

from conftest import make_sine_field

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

VALIDATE_BASE = "kind = validate"
DENSITY_BASE = "kind = density_bound\nfield = translate\nt = 0.1\ntrajectories = 8"
FP_BASE = "kind = fokker_planck\nfield = translate\nt = 0.1\ndt = 0.01\ntrajectories = 8"
KRYLOV_BASE = "kind = krylov\nfield = translate\nt = 0.1\ndt = 0.01"
COUPLING_BASE = "kind = coupling\nfield = translate\nt = 0.1\ndt = 0.01\ntrajectories = 8"
# a full chunk of paths on a d = 2 regularized level
SIGN_COUPLING = "kind = coupling\nfield = sign_drift\nd = 2\nt = 0.25\ndt = 0.001\ntrajectories = 8192"
LONG_SIGN_COUPLING = SIGN_COUPLING.replace("t = 0.25", "t = 1.0")
ENTROPY_BASE = "kind = entropy_budget\nfield = translate\nhorizon = 0.1\ndt = 0.01\ntrajectories = 8"
PATH_BASE = "kind = density_bound\nfield = translate\ndt = 0.01\ntrajectories = 8"
# one valid section of each kind, small enough to validate in milliseconds
MINIMAL_SECTIONS = {
    "validate": {"kind": "validate", "field": "ou_linear"},
    "density_bound": {"kind": "density_bound", "field": "translate", "t": "0.1", "dt": "0.01",
                      "trajectories": "8"},
    "entropy_budget": {"kind": "entropy_budget", "field": "sign_drift", "horizon": "0.1", "dt": "0.01",
                       "trajectories": "8"},
    "coupling": {"kind": "coupling", "field": "sign_drift", "t": "0.1", "dt": "0.01", "trajectories": "8"},
    "krylov": {"kind": "krylov", "field": "translate", "t": "0.1", "dt": "0.01", "trajectories": "8"},
    "fokker_planck": {"kind": "fokker_planck", "field": "translate", "t": "0.1", "dt": "0.01",
                      "trajectories": "8", "grid_h": "0.2", "grid_tau": "0.005"},
    "oracle_suite": {"kind": "oracle_suite"},
}
FLOWLAB_ERRORS = {
    c.__name__ for c in vars(errors).values() if isinstance(c, type) and issubclass(c, FlowLabError)
}


@st.composite
def _sections(draw):
    """Body of a small validate, density_bound, krylov, coupling, entropy_budget or fokker_planck section.

    Sections are valid or not; the trajectory counts, horizons and grids are
    kept small.  grid_tau falls on both sides of the Fokker-Planck stability
    bound, which is h^2 / 2 d for translate at grid_h = h; lam, quad_order
    and the slab widths fall on both sides of their limits (> 0, >= 0, > 0);
    t, horizon, grid_R and lam may be nan or inf, and a and beta appear on
    every field, so also on the fields that do not take them.
    """
    kind = draw(st.sampled_from(["validate", "density_bound", "krylov", "coupling", "entropy_budget",
                                 "fokker_planck"]))
    keys = {
        "kind": kind,
        "field": draw(st.sampled_from(["translate", "ou_linear", "sign_drift"])),
        "d": draw(st.sampled_from([1, 2] if kind == "fokker_planck" else [1, 1, 2, 0])),
        "seed": draw(st.integers(0, 2**16)),
    }
    # None (the key left out) is weighted up so that valid sections stay common
    for key, values in (("lam", [None] * 6 + ["-0.5", "0", "0.1", "1.0", "nan", "inf"]),
                        ("a", [None] * 4 + ["1.0", "10.0"]), ("beta", [None] * 4 + ["1.0", "10.0"])):
        value = draw(st.sampled_from(values))
        if value is not None:
            keys[key] = value
    if kind in ("validate", "density_bound", "entropy_budget", "coupling"):
        keys["quad_order"] = draw(st.sampled_from(["-1", "0", "0", "1", "8"]))
    if kind == "fokker_planck":
        keys["t"] = draw(st.sampled_from(["0.02", "0.04"] * 3 + ["nan", "inf"]))
        keys["dt"] = draw(st.sampled_from(["0.005", "0.01"]))
        keys["trajectories"] = draw(st.integers(1, 64))
        keys["grid_R"] = draw(st.sampled_from(["2.0", "3.0"] * 3 + ["nan", "inf"]))
        keys["grid_h"] = draw(st.sampled_from(["0.1", "0.2"]))
        keys["grid_tau"] = draw(st.sampled_from(["0.0005", "0.001", "0.0025", "0.005", "0.01"]))
        if keys["d"] == 1:
            keys["factorization_samples"] = draw(st.sampled_from(["0", "200"]))
    elif kind == "validate":
        keys["horizon"] = draw(st.sampled_from(["0.05", "0.5", "1.0"] * 2 + ["nan", "inf"]))
    elif kind == "entropy_budget":
        keys["horizon"] = draw(st.sampled_from(["0.02", "0.05"] * 3 + ["nan", "inf"]))
        keys["dt"] = draw(st.sampled_from(["0.005", "0.01", "0.03"]))
        keys["trajectories"] = draw(st.integers(1, 64))
        keys["n_list"] = draw(st.sampled_from(["4", "2, 8", "0, 4", ""]))
    else:
        keys["s"] = draw(st.sampled_from(["0.0", "0.0", "0.05"]))
        keys["t"] = draw(st.sampled_from(["0.02", "0.05", "0.1"] * 2 + ["nan", "inf"]))
        keys["dt"] = draw(st.sampled_from(["0.005", "0.01", "0.01", "0.03"]))
        keys["trajectories"] = draw(st.integers(1, 64))
        if kind == "density_bound":
            keys["p_list"] = draw(st.sampled_from(["1.5", "2, 3"]))
        elif kind == "krylov":
            keys["slab_widths"] = draw(st.sampled_from(["0.1, 0.05", "0.5", "-0.1, 0.05", "0.05, 0"]))
        else:
            keys["n_list"] = draw(st.sampled_from(["2, 4", "4, 8", "8", "0, 4", ""]))
            keys["n_ref"] = draw(st.sampled_from(["4", "8", "16"]))
    return "\n".join(f"{k} = {v}" for k, v in keys.items())


def _benchmark_workloads():
    # executed from its source, so nothing is imported or cached under perfbench/
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    namespace = {"__name__": "perfbench_workloads", "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _fault(base, lines, key):
    """A section ``base`` plus the faulty ``lines``; the test id names the fault."""
    return pytest.param(f"{base}\n{lines}", key, id=f"{lines}-{key}")


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
    @pytest.mark.parametrize("body, key", [
        _fault(VALIDATE_BASE, "field = anisotropic\nd = 2", "field"),  # no key supplies its matrix
        _fault(VALIDATE_BASE, "field = translate\nseed = -1", "seed"),
        _fault(VALIDATE_BASE, f"field = translate\nseed = {2**64}", "seed"),
        _fault(VALIDATE_BASE, "field = translate\nd = 0", "d"),
        _fault(KRYLOV_BASE, "trajectories = 1", "trajectories"),  # a one-trajectory error bar
        _fault(DENSITY_BASE, "dt = 0.03", "dt"),
        _fault(FP_BASE, "grid_tau = 0.003", "grid_tau"),
        _fault(FP_BASE, "grid_tau = 0.01", "grid_tau"),  # the companion step 0.04 does not divide 0.1
        _fault(FP_BASE, "grid_tau = 0.0025", "grid_tau"),  # above the bound h^2 / 2 = 0.00125
        # within the bound on grid_h, but 4 grid_tau is above it on the coarse 2 grid_h
        _fault(FP_BASE.replace("translate", "ou_linear"), "a = 10\ngrid_tau = 0.0003125", "grid_tau"),
        _fault(FP_BASE, "grid_tau = 0.005\nd = 3", "d"),
        _fault(FP_BASE, "grid_tau = 0.005\nd = 2\nfactorization_samples = 100", "factorization_samples"),
        _fault(COUPLING_BASE, "n_list = 0, 4\nn_ref = 8", "n_list"),
        _fault(COUPLING_BASE, "n_list =\nn_ref = 8", "n_list"),  # a coupling needs a level
        _fault(COUPLING_BASE, "n_list = 4, 16\nn_ref = 8", "n_ref"),  # the reference is the finest
        _fault(ENTROPY_BASE, "n_list = 0, 4", "n_list"),
        _fault(ENTROPY_BASE, "n_list =", "n_list"),  # a budget section that checks no level
        _fault(ENTROPY_BASE, "lam = 0", "lam"),  # the budget's T0 <= λ / 8e^2 would be 0
        _fault(VALIDATE_BASE, "field = translate\nquad_order = -1", "quad_order"),
        # d >= 3 has one rule, 4096 Monte-Carlo nodes, and no order to set
        _fault(VALIDATE_BASE, "field = translate\nd = 3\nquad_order = 8", "quad_order"),
        _fault(ENTROPY_BASE, "d = 3\nquad_order = 4", "quad_order"),
        _fault(DENSITY_BASE, "dt = 0.01\nd = 12\nquad_order = 1", "quad_order"),
        _fault(KRYLOV_BASE, "trajectories = 8\nslab_widths = -0.1, 0.05", "slab_widths"),
        # non-finite values, each refused by its key's parser
        _fault(PATH_BASE, "t = nan", "t"),
        _fault(PATH_BASE, "t = inf", "t"),
        _fault(PATH_BASE, "t = 0.1\ns = nan", "s"),
        _fault(FP_BASE, "grid_tau = 0.005\ngrid_R = nan", "grid_R"),
        _fault(VALIDATE_BASE, "field = translate\nhorizon = nan", "horizon"),
        _fault(KRYLOV_BASE, "trajectories = 8\nslab_widths = nan", "slab_widths"),
        _fault(VALIDATE_BASE, "field = ou_linear\na = inf", "a"),
        _fault(PATH_BASE, "t = 0.1\np_list = nan", "p_list"),
        _fault(ENTROPY_BASE, "lam = nan", "lam"),
        _fault(KRYLOV_BASE, "trajectories = 8\nlambda_discount = nan", "lambda_discount"),
        # a parameter the field does not take, which run would otherwise ignore
        _fault(VALIDATE_BASE, "field = translate\nbeta = 7", "beta"),
        _fault(VALIDATE_BASE, "field = sign_drift\na = 2", "a"),
        # field parameters whose growth ratio or bound constants overflow
        _fault(VALIDATE_BASE, "field = ou_linear\nd = 2\na = 1e160", "a"),
        _fault(VALIDATE_BASE, "field = ou_linear\nd = 2\na = 1e300", "a"),
        _fault(VALIDATE_BASE, "field = sign_drift\nd = 2\nbeta = 1e160", "beta"),
        _fault(VALIDATE_BASE, "field = sign_drift\nd = 2\nbeta = 1e300", "beta"),
        # more steps than a chunk of increments can hold
        _fault(DENSITY_BASE, "dt = 1e-300", "dt"),
        _fault(ENTROPY_BASE.replace("\ndt = 0.01", ""), "dt = 1e-300", "dt"),
        # arrays far past the size limits (at least 2^40 bytes each, so that
        # without the limits run fails at once instead of filling memory)
        _fault(DENSITY_BASE, "dt = 0.01\nd = 1000000", "d"),
        _fault(VALIDATE_BASE, "field = translate\nquad_order = 1000000", "quad_order"),
        # past the largest Gauss-Hermite order whose weights are computable, 370,
        # directly or through the L^p bound's order doubling
        _fault(VALIDATE_BASE, "field = translate\nquad_order = 371", "quad_order"),
        _fault(DENSITY_BASE, "dt = 0.01\nquad_order = 186", "quad_order"),
        _fault(KRYLOV_BASE.replace("krylov", "density_bound"), "trajectories = 1000000000000", "trajectories"),
        _fault(KRYLOV_BASE.replace("krylov", "density_bound"), "trajectories = 1000000\nreplicas = 1000000",
               "trajectories"),
        _fault(FP_BASE, "grid_tau = 0.005\ngrid_R = 1e12\ngrid_h = 0.001", "grid_h"),
        _fault(FP_BASE, "grid_tau = 0.005\nd = 2\ngrid_R = 1e6\ngrid_h = 0.001", "grid_h"),
        # the occupation functional, squared once per trajectory, overflows
        _fault(KRYLOV_BASE.replace("t = 0.1", "t = 1"), "trajectories = 8\nlambda_discount = -1000",
               "lambda_discount"),
        _fault(KRYLOV_BASE.replace("t = 0.1", "t = 1"), "trajectories = 8\ns = -1000\nlambda_discount = 1",
               "lambda_discount"),
    ])
    def test_config_fault_exits_2(self, tmp_path, capsys, command, body, key):
        p = tmp_path / "bad.ini"
        p.write_text(f"[x]\n{body}\n")
        argv = [command, str(p)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"[section='x' key='{key}']" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_shipped_and_benchmark_configs_validate(self, tmp_path):
        """The two shipped configs and every benchmark workload config pass validate, so no size limit refuses them."""
        workloads = _benchmark_workloads()
        paths = [os.path.join(CONFIG_DIR, name) for name in ("desk_suite.ini", "studies.ini")]
        for name, workload in workloads["WORKLOADS"].items():
            paths.append(tmp_path / f"{name}.ini")
            paths[-1].write_text(workloads["config_text"](workload, seed=0))
        assert len(paths) == 6
        for path in paths:
            assert main(["validate", str(path)]) == 0, path

    @pytest.mark.parametrize("body", [
        "kind = validate\nfield = translate\nd = 12",
        "kind = validate\nfield = translate\nd = 2\nquad_order = 370",
        f"{DENSITY_BASE}\ndt = 0.01\nquad_order = 185",
        f"{KRYLOV_BASE}\nd = 2\ntrajectories = {2**26}",
        f"{KRYLOV_BASE.replace('krylov', 'density_bound')}\ntrajectories = {2**20}\nreplicas = {2**7}",
        f"{FP_BASE}\ngrid_h = 0.2\ngrid_tau = 0.005\nfactorization_samples = {2**27}",
        # regularized levels in d >= 2 smooth on a rule's nodes moved to a chunk of points (or
        # to the budget's rule nodes) in bounded blocks, so no size limit reads them; the last
        # five move 2^27 floats or more in all
        f"{SIGN_COUPLING}\nquad_order = 65",
        f"{SIGN_COUPLING}\nquad_order = 90",
        f"{LONG_SIGN_COUPLING}\nquad_order = 90",
        f"{COUPLING_BASE.replace('trajectories = 8', 'trajectories = 100000')}\nd = 4",
        f"{ENTROPY_BASE}\nd = 2\nquad_order = 90",
        f"{ENTROPY_BASE}\nd = 8",
        f"{SIGN_COUPLING}\nquad_order = 91",
        f"{LONG_SIGN_COUPLING}\nquad_order = 91",
        f"{COUPLING_BASE.replace('trajectories = 8', 'trajectories = 100000')}\nd = 5",
        f"{ENTROPY_BASE}\nd = 2\nquad_order = 91",
        f"{ENTROPY_BASE}\nd = 9",
    ])
    def test_size_limits_accept_their_edge(self, tmp_path, body):
        """Each size limit accepts its largest value; validate only, nothing of that size is run."""
        p = tmp_path / "edge.ini"
        p.write_text(f"[x]\n{body}\n")
        assert main(["validate", str(p)]) == 0

    def test_largest_quad_order_is_a_rule(self):
        """The largest order a config can ask for gives positive weights of unit mass, without a warning."""
        quad = GaussianQuadrature.gauss_hermite(1, config.MAX_QUAD_ORDER)
        assert (quad.weights > 0).all() and quad.weights.sum() == pytest.approx(1.0, rel=1e-12)

    def test_every_key_refuses_non_finite_values(self, tmp_path, capsys):
        """Each schema key but kind and field, set to nan, inf or -inf in a valid section, exits 2 naming it."""
        def validate(body):
            p = tmp_path / "cfg.ini"
            p.write_text("[x]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
            return main(["validate", str(p)]), capsys.readouterr().err

        missed = []
        for kind, schema in config._SCHEMAS.items():
            assert validate(MINIMAL_SECTIONS[kind])[0] == 0, kind
            for key in sorted(schema.keys() - {"kind", "field"}):
                for value in ("nan", "inf", "-inf"):
                    code, err = validate({**MINIMAL_SECTIONS[kind], key: value})
                    if code != 2 or f"[section='x' key='{key}']" not in err:
                        missed.append(f"{kind}: {key} = {value}")
        assert not missed

    @pytest.mark.parametrize("kind", ["validate", "entropy_budget"])
    @pytest.mark.parametrize("field, key", [("ou_linear", "a"), ("sign_drift", "beta")])
    def test_largest_field_parameter_runs_without_overflow(self, tmp_path, kind, field, key):
        """Just below the limit both kinds run to a verdict or a flowlab error; the RuntimeWarning filter is on."""
        p = tmp_path / "big.ini"
        body = {**MINIMAL_SECTIONS[kind], "field": field, "d": "2", key: "9.99e99"}
        p.write_text("[x]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()))
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) in (0, 1)
        section = json.loads((tmp_path / "out" / "summary.json").read_text())["experiments"]["x"]
        assert section.get("error", "FlowLabError:").split(":")[0] in FLOWLAB_ERRORS

    def test_entropy_budget_bounds_the_steps_it_runs(self, tmp_path, capsys):
        """The step cap reads [0, τ], τ = min(T0, horizon), which run simulates at dt and dt / 2."""
        tau = time_threshold(builtin_coefficients("translate", d=1))
        edge = 2 * tau / MAX_STEPS
        p = tmp_path / "eb.ini"

        def validate(dt):
            p.write_text("[x]\nkind = entropy_budget\nfield = translate\nhorizon = 1000\n"
                         f"trajectories = 8\nn_list = 1\ndt = {dt!r}\n")
            return main(["validate", str(p)]), capsys.readouterr().err

        code, err = validate(edge * 0.999)
        assert code == 2 and "[section='x' key='dt']" in err
        assert validate(edge * 1.001)[0] == 0
        # horizon / dt = 1e7 steps is past the cap, but run steps [0, τ] only
        assert 1000 / 1e-4 > MAX_STEPS
        assert validate(1e-4)[0] == 0
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) in (0, 1)
        assert "error" not in json.loads((tmp_path / "out" / "summary.json").read_text())["experiments"]["x"]

    def test_threads_below_one_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", config_path, "--out", str(out), "--threads", "0"]) == 2
        assert "key='threads'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle-suite"])
    @pytest.mark.parametrize("below_a_file", [False, True])
    def test_out_that_cannot_be_a_directory_exits_2(self, config_path, tmp_path, capsys, command, below_a_file):
        """An --out naming a file, or a path below one, is a configuration error: no section runs."""
        existing = tmp_path / "existing"
        existing.write_text("kept\n")
        out = existing / "x" if below_a_file else existing
        argv = ["run", config_path] if command == "run" else ["oracle-suite"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "key='out'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert existing.read_text() == "kept\n"

    def test_fp_stability_fault_names_key_and_solve(self, tmp_path, capsys):
        # stable on grid_h; the coarse companion 4 grid_tau = 0.0016 on 2 grid_h
        # is above its bound 0.001
        p = tmp_path / "cfg.ini"
        p.write_text("[x]\nkind = fokker_planck\nfield = ou_linear\na = 10\nd = 1\nt = 0.2\n"
                     "dt = 0.001\ntrajectories = 8\ngrid_R = 8\ngrid_h = 0.05\ngrid_tau = 0.0004\n")
        for command in ("validate", "run"):
            argv = [command, str(p)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "[section='x' key='grid_tau']" in err
            assert "coarse companion" in err and "stability bound 0.001 " in err

    @pytest.mark.parametrize("grid_h, coarse", [(0.7, False), (0.4, True)])
    def test_fp_grid_step_that_does_not_divide_2R_exits_2(self, tmp_path, capsys, grid_h, coarse):
        # 2 grid_R = 2: h = 0.7 divides it on neither grid, h = 0.4 on the fine grid only
        p = tmp_path / "cfg.ini"
        p.write_text("[x]\nkind = fokker_planck\nfield = translate\nd = 1\nt = 0.1\ndt = 0.01\n"
                     f"trajectories = 8\ngrid_R = 1.0\ngrid_h = {grid_h}\ngrid_tau = 0.001\n")
        for command in ("validate", "run"):
            argv = [command, str(p)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "[section='x' key='grid_h']" in err and "does not divide" in err
            assert ("coarse companion" in err) == coarse

    def test_failed_section_recorded_and_rest_run(self, tmp_path, capsys, monkeypatch):
        # a drift that grows in time breaks the FP stability bound after the
        # first step, a fault only the run can find: validate checks the
        # coefficients at s, fp_solve at every refresh
        def growing_drift(cfg):
            field = build_field(cfg)
            if cfg.kind != "fokker_planck":
                return field
            return dataclasses.replace(field, b=lambda t, X: 1e4 * t * np.ones(np.shape(X)),
                                       b_time_dependent=True)

        monkeypatch.setattr(experiments, "build_field", growing_drift)
        p = tmp_path / "cfg.ini"
        p.write_text(FP_SECTION + "\n[hypotheses]\nkind = validate\nfield = ou_linear\nd = 1\n")
        out = tmp_path / "out"
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert "stability bound" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        failed = summary["experiments"]["fp-small"]
        assert failed["passed"] is False and failed["kind"] == "fokker_planck"
        assert "ConfigError" in failed["error"] and "stability bound" in failed["error"]
        rows = summary["experiments"]["hypotheses"]["rows"]
        assert {r["quantity"] for r in rows} >= {"min_eigenvalue", "sigma_T"}
        assert (out / "hypotheses.csv").exists()

    def test_companion_explosion_recorded(self, tmp_path, capsys, monkeypatch):
        # the factorization's 4000 starts lie in [-2.1, 2.1] and are the run; the 2000 γ starts of
        # the weak-error check are its companion, and those beyond |x| = 3 leave the explosion
        # radius at step 2 under a drift of 6e9 there
        def flare(cfg):
            field = build_field(cfg)
            return dataclasses.replace(field, b=lambda t, X: 6e9 * np.sign(X) * (np.abs(X) > 3.0))

        monkeypatch.setattr(experiments, "build_field", flare)
        p = tmp_path / "cfg.ini"
        p.write_text(FP_SECTION.replace("grid_R = 6.0", "grid_R = 2.0") + "factorization_samples = 4000\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        n_bad = int((np.abs(gaussian_points(42, 2000, 1)) > 3.0).sum())
        failed = json.loads((out / "summary.json").read_text())["experiments"]["fp-small"]
        assert n_bad > 0 and failed["passed"] is False
        assert failed["error"] == f"ExplosionError: {n_bad} trajectories exploded (earliest step 2)"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_override_out_of_range(self, config_path, tmp_path, capsys, seed):
        assert main(["run", config_path, "--out", str(tmp_path / "out"), "--seed", seed]) == 2
        assert "[section='lp-small' key='seed']" in capsys.readouterr().err

    def test_summary_records_config_as_given(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "cfg.ini", "--out", "out"]) == 0
        summary = json.loads(Path("out", "summary.json").read_text())
        assert summary["config"] == "cfg.ini"
        assert summary["config_sha256"] == hashlib.sha256(GOOD_CONFIG.encode()).hexdigest()

    def test_summary_names_the_config_file_not_its_path(self, config_path, tmp_path, monkeypatch):
        """The same config run by a relative and an absolute path writes the same summary bytes."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", "cfg.ini", "--out", "rel"]) == 0
        assert main(["run", str(tmp_path / "cfg.ini"), "--out", "abs"]) == 0
        summary = Path("abs", "summary.json").read_bytes()
        assert json.loads(summary)["config"] == "cfg.ini"
        assert summary == Path("rel", "summary.json").read_bytes()

    def test_summary_is_strict_json_with_a_divergent_sigma_T(self, tmp_path):
        """A non-finite value is written as its CSV text, so a parser that refuses Infinity and NaN reads the file."""
        p = tmp_path / "cfg.ini"
        p.write_text("[x]\nkind = validate\nfield = translate\nlam = 10\n")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 1  # the divergent Σ_T fails its row

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        sigma_T = next(r for r in summary["experiments"]["x"]["rows"] if r["quantity"] == "sigma_T")
        assert sigma_T["value"] == "inf" and sigma_T["passed"] is False
        assert "x,sigma_T,inf,,,false" in (out / "x.csv").read_text()

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
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["passed"] is True
        verdicts = [r["passed"] for e in summary["experiments"].values() for r in e["rows"]]
        assert "fp-small" in summary["experiments"]
        assert all(v is None or isinstance(v, bool) for v in verdicts)
        # the grid file carries the whole mass ledger: start mass 1 = mass + leakage - clipped
        with open(os.path.join(out, "fp-small_grid.csv")) as fh:
            (grid,) = list(csv.DictReader(fh))
        assert list(grid) == ["mass", "leakage", "clipped", "variance"]
        mass, leakage, clipped = (float(grid[k]) for k in ("mass", "leakage", "clipped"))
        assert clipped >= 0.0 and abs((1.0 - leakage + clipped) - mass) <= 1e-9

    def test_rerun_byte_identical_across_threads(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", config_path, "--out", out1, "--threads", "1"])
        main(["run", config_path, "--out", out2, "--threads", "6"])
        for name in sorted(os.listdir(out1)):
            if name.endswith(".json"):
                continue
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_values(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["run", config_path, "--out", out1])
        main(["run", config_path, "--out", out2, "--seed", "99"])
        a = Path(out1, "lp-small.csv").read_text()
        b = Path(out2, "lp-small.csv").read_text()
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
        assert "PASS" in capsys.readouterr().out
        with open(os.path.join(out, "oracle_suite.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out, "oracle_suite_checks.csv")) as fh:
            checks = list(csv.DictReader(fh))
        # each row is the discrepancy of its two routes, checked against the tolerance
        assert [r["quantity"] for r in rows] == [c["quantity"] for c in checks]
        for r, c in zip(rows, checks):
            assert float(r["value"]) == abs(float(c["value"]) - float(c["recomputed"]))
            assert r["bound"] == c["tol"]
            assert r["passed"] == "true" and float(r["value"]) <= float(r["bound"])


# one small section of each kind, with a bounded row of every kind the executor writes
PASS_RULE_SECTIONS = {
    "validate": f"{VALIDATE_BASE}\nfield = translate",
    "density_bound": f"{DENSITY_BASE}\ndt = 0.01\np_list = 1.5, 3",
    "entropy_budget": f"{ENTROPY_BASE}\nn_list = 8",
    "coupling": f"{COUPLING_BASE}\nn_list = 2, 32\nn_ref = 64",
    "krylov": f"{KRYLOV_BASE}\ntrajectories = 8",
    "fokker_planck": f"{FP_BASE}\ngrid_R = 4.0\ngrid_h = 0.2\ngrid_tau = 0.005\nfactorization_samples = 64",
    "oracle_suite": "kind = oracle_suite",
}


class TestPassRule:
    """Every row with a bound carries the verdict value <= bound + 3 * stderr, recomputable from the row."""

    @staticmethod
    def _rows(tmp_path, kind):
        p = tmp_path / "cfg.ini"
        p.write_text(f"[x]\n{PASS_RULE_SECTIONS[kind]}\n")
        (cfg,) = parse_config(str(p))
        rows, _ = experiments.EXECUTORS[kind](cfg, cfg.seed, 1)
        return rows

    @staticmethod
    def _assert_rule(rows):
        bounded = [r for r in rows if r.bound is not None]
        assert bounded
        for r in bounded:
            assert r.passed == (r.value <= r.bound + 3.0 * (r.stderr or 0.0)), r

    @pytest.mark.parametrize("kind", sorted(PASS_RULE_SECTIONS))
    def test_every_executor(self, tmp_path, kind):
        assert set(PASS_RULE_SECTIONS) == set(experiments.EXECUTORS)
        self._assert_rule(self._rows(tmp_path, kind))

    def test_validate_on_a_varying_sigma(self, tmp_path, monkeypatch):
        # σ = 2 + sin x: λ_min = 1.0145 > c1 = 1 must pass, and its row must say so by the rule
        monkeypatch.setattr(experiments, "build_field", lambda cfg: make_sine_field())
        rows = self._rows(tmp_path, "validate")
        self._assert_rule(rows)
        gap = {r.quantity: r for r in rows}["ellipticity_gap"]
        assert gap.value < 0 and gap.passed


class TestValidateMatchesRun:
    def test_validate_and_run_know_the_same_kinds(self):
        assert set(experiments.EXECUTORS) == set(config.EXPERIMENT_KINDS)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_sections(), min_size=1, max_size=2))
    def test_validated_config_runs(self, sections):
        """Whenever validate accepts a config, run exits 0 or 1 and writes summary.json.

        A section may fail only with a flowlab error, never a crash of the program.
        """
        names = [f"s{i}" for i in range(len(sections))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.ini")
            with open(path, "w") as fh:
                fh.write("".join(f"[{n}]\n{body}\n" for n, body in zip(names, sections)))
            if main(["validate", path]) != 0:
                return
            out = os.path.join(tmp, "out")
            assert main(["run", path, "--out", out]) in (0, 1)
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
        assert sorted(summary["experiments"]) == names
        failures = [e["error"] for e in summary["experiments"].values() if "error" in e]
        assert all(err.split(":")[0] in FLOWLAB_ERRORS for err in failures), failures

"""``tools/seed_sweep.py`` on two seeds of a small config, against ``flowlab run --seed``."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from flowlab.cli import main
from flowlab.errors import ExplosionError

ROOT = Path(__file__).resolve().parents[1]
SEED_SWEEP = ROOT / "tools" / "seed_sweep.py"

CONFIG = """
[lp]
kind = density_bound
field = translate
t = 0.1
dt = 0.01
trajectories = 500
p_list = 1.5

[fp]
kind = fokker_planck
field = translate
t = 0.1
dt = 0.01
trajectories = 500
grid_R = 6.0
grid_h = 0.2
grid_tau = 0.005
"""


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    config = tmp / "small.ini"
    config.write_text(CONFIG)
    out = tmp / "sweep.json"
    subprocess.run([sys.executable, str(SEED_SWEEP), "sweep", str(config), "--seeds", "5:7",
                    "--out", str(out)], check=True, capture_output=True, text=True)
    return config, out, json.loads(out.read_text())


def test_rows_hold_every_seed_as_flowlab_run_writes_it(swept, tmp_path):
    config, _, report = swept
    assert report["config"] == "small.ini" and report["seeds"] == [5, 7]
    assert report["flowlab"] == str(ROOT / "src" / "flowlab")
    assert set(report["rows"]) == {"lp mass_abs_error", "lp lp_norm(p=1.5)",
                                   "fp mass_audit_residual", "fp mass_ledger_residual",
                                   "fp heat_variance_abs_error", "fp weak_error_max"}
    for seed in (5, 6):
        main(["run", str(config), "--seed", str(seed), "--out", str(tmp_path / str(seed))])
        for section in ("lp", "fp"):
            with open(tmp_path / str(seed) / f"{section}.csv") as fh:
                for row in csv.DictReader(fh):
                    if not row["passed"]:
                        continue
                    sample = report["rows"][f"{section} {row['quantity']}"]["samples"][seed - 5]
                    assert sample["seed"] == seed
                    assert repr(sample["value"]) == repr(float(row["value"]))
                    assert sample["passed"] == (row["passed"] == "true")


def test_summaries_count_failures_and_margins(swept):
    _, _, report = swept
    for row in report["rows"].values():
        samples = row["samples"]
        assert row["seeds"] == len(samples) == 2
        assert row["failures"] == sum(not s["passed"] for s in samples)
        z = sorted((s["bound"] - s["value"]) / s["stderr"] for s in samples if s["stderr"])
        if z:
            assert row["z_quartiles"][1] == pytest.approx(sum(z) / 2)
            assert z[0] <= row["z_quartiles"][0] <= row["z_quartiles"][2] <= z[-1]
        else:
            assert row["z_quartiles"] is None
    mass = report["rows"]["lp mass_abs_error"]
    assert all(q <= 0 for q in mass["z_quartiles"])  # bound 0: -z is |mass - 1| / stderr
    assert report["errors"] == []


def test_a_section_that_raises_is_recorded_for_each_seed(swept, monkeypatch):
    import flowlab.experiments

    def explode(cfg, seed, threads, out_dir=None):
        raise ExplosionError(f"3 trajectories exploded at seed {seed}")

    namespace = {"__name__": "seed_sweep", "__file__": str(SEED_SWEEP)}
    exec(compile(SEED_SWEEP.read_text(), str(SEED_SWEEP), "exec"), namespace)
    monkeypatch.setitem(flowlab.experiments.EXECUTORS, "fokker_planck", explode)
    report = namespace["sweep"](swept[0], range(5, 7))
    assert report["errors"] == [
        {"seed": seed, "section": "fp", "error": f"ExplosionError: 3 trajectories exploded at seed {seed}"}
        for seed in (5, 6)]
    assert set(report["rows"]) == {"lp mass_abs_error", "lp lp_norm(p=1.5)"}


def test_compare_names_every_row(swept):
    _, out, report = swept
    proc = subprocess.run([sys.executable, str(SEED_SWEEP), "compare", str(out), str(out)],
                          check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert [line.split(" | ")[0] for line in lines] == sorted(report["rows"])
    assert all("failed" in line for line in lines)

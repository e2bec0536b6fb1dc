"""Run every section of a config over a range of seeds; summarize each checked row.

Usage::

    python3 tools/seed_sweep.py sweep CONFIG --seeds 1000:1100 --out FILE.json [--src DIR]
    python3 tools/seed_sweep.py compare BEFORE.json AFTER.json

``sweep`` gives every section each seed of the half-open range in turn, as
``flowlab run --seed`` does, and runs it through its executor on one
thread without writing output files (outputs are the same bits at any
``--threads``).  For each checked row (section, quantity) the JSON
holds every seed's value, stderr, bound and verdict, the number of failed
verdicts, and the quartiles of z = (bound - value) / stderr (the row's
margin in standard errors, over the seeds where stderr is positive) and of
value / bound (where the bound is nonzero).  For ``mass_abs_error`` rows,
whose bound is 0, -z is |mass - 1| / stderr.  A section that raises is
recorded under ``errors`` with its seed and message.  ``--src`` puts
another checkout's ``src`` first on the import path, so one script sweeps a
parent commit and a change alike; by default it is this checkout's.  The
JSON names the package directory that was imported.

``compare`` prints, for each row of two sweeps of one config, the failures
and the median z on each side, the value / bound quartiles, and the
two-sided Mann-Whitney U p-value of value / bound between the sides.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def quartiles(xs):
    """[q1, median, q3] of ``xs`` (numpy's linear interpolation), or None when empty."""
    return [float(q) for q in np.percentile(xs, [25, 50, 75])] if len(xs) else None


def summarize(samples):
    """The failures and quartiles of one row's per-seed samples."""
    z = [(s["bound"] - s["value"]) / s["stderr"] for s in samples if s["stderr"]]
    ratio = [s["value"] / s["bound"] for s in samples if s["bound"]]
    return {"seeds": len(samples),
            "failures": sum(not s["passed"] for s in samples),
            "z_quartiles": quartiles(z),
            "ratio_quartiles": quartiles(ratio)}


def sweep(config, seeds):
    import flowlab
    from flowlab.config import parse_config
    from flowlab.experiments import EXECUTORS

    rows, errors = {}, []
    for seed in seeds:
        for cfg in parse_config(config, seed=seed):
            try:
                checked, _ = EXECUTORS[cfg.kind](cfg, cfg.seed, 1, out_dir=None)
            except Exception as exc:
                errors.append({"seed": seed, "section": cfg.name, "error": f"{type(exc).__name__}: {exc}"})
                continue
            for r in checked:
                if r.passed is not None:
                    rows.setdefault(f"{cfg.name} {r.quantity}", []).append(
                        {"seed": seed, "value": r.value, "stderr": r.stderr, "bound": r.bound,
                         "passed": r.passed})
        print(f"seed {seed} done", file=sys.stderr)
    return {"config": Path(config).name, "seeds": [seeds.start, seeds.stop],
            "flowlab": str(Path(flowlab.__file__).resolve().parent),
            "rows": {name: {**summarize(samples), "samples": samples} for name, samples in rows.items()},
            "errors": errors}


def compare(before, after):
    from scipy.stats import mannwhitneyu

    lines = []
    for name in sorted(before["rows"].keys() | after["rows"].keys()):
        sides = [report["rows"].get(name) for report in (before, after)]
        cells = [name]
        for row in sides:
            if row is None:
                cells.append("absent")
                continue
            z = row["z_quartiles"]
            cells.append(f"{row['failures']}/{row['seeds']} failed"
                         + (f", median z {z[1]:.3f}" if z else "")
                         + (", value/bound q1-q3 {:.4g} {:.4g} {:.4g}".format(*row["ratio_quartiles"])
                            if row["ratio_quartiles"] else ""))
        ratios = [[s["value"] / s["bound"] for s in row["samples"] if s["bound"]] if row else []
                  for row in sides]
        if all(len(r) > 0 for r in ratios) and ratios[0] != ratios[1]:
            cells.append(f"Mann-Whitney p {mannwhitneyu(*ratios, alternative='two-sided').pvalue:.3g}")
        lines.append(" | ".join(cells))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p_sweep = commands.add_parser("sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", required=True, help="half-open range FIRST:STOP")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p_compare = commands.add_parser("compare")
    p_compare.add_argument("before")
    p_compare.add_argument("after")
    args = parser.parse_args(argv)

    if args.command == "compare":
        reports = [json.loads(Path(path).read_text()) for path in (args.before, args.after)]
        print("\n".join(compare(*reports)))
        return 0
    first, stop = map(int, args.seeds.split(":"))
    sys.path.insert(0, args.src)
    report = sweep(args.config, range(first, stop))
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

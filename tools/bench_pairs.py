"""Alternating before/after runs of perfbench, with child-process CPU and memory.

Usage::

    python3 tools/bench_pairs.py --before DIR --after DIR --workload NAME \
        --pairs N --seed S [--seconds 16] --out FILE.json

``DIR`` are two flowlab checkouts (for example ``git archive`` copies of a
parent commit and of a change).  Each pair runs ``perfbench/run.py`` once in
each checkout, the side that goes first alternating from pair to pair, and
records its end-to-end metrics, ``correct`` and ``check_fail_frac``.  After
each of those runs one more pass of ``perfbench/worker.py`` on the same
workload config runs under a shim that reads ``getrusage`` for the worker
itself and for its reaped children (the processes ``--threads`` forks),
which perfbench's ``cpu_s`` and ``peak_rss_mb`` do not see.

Each run also records ``outputs_sha256``, the digest of its first timed
pass's output directory (``.perfbench/<workload>/plain-0``, hashed by
perfbench's own ``digest``), and a sha256 of each file in it.  Each pair
records whether the two sides wrote identical bytes (``outputs_identical``)
and, by those per-file digests, the files that differ or that only one side
wrote (``outputs_differ``, empty when the bytes are identical).

The JSON written holds every sample, each side's median and quartiles
(``statistics.quantiles``, inclusive method), the pairs the ``--after``
side won (ties count for neither) and the environment line of the runs.
Each end-to-end metric also carries its verdict against its ``bound`` in
the ``--after`` checkout's ``BENCHMARK.json`` (see ``verdict``).

Both checkouts start from the same bytecode state: before the first pair
every ``__pycache__`` under their ``src/`` and ``perfbench/`` is removed
(``clear_bytecode_caches``), and every child runs with
``PYTHONDONTWRITEBYTECODE=1``, so no run compiles for a later one.  The
report's ``environment`` records both, per side.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# runs perfbench/worker.py as __main__, then prints the rusage of itself and
# of its reaped children as one JSON line
SHIM = r"""
import json, os, resource, runpy, sys
path = sys.argv[1]
sys.argv = sys.argv[1:]
sys.path.insert(0, os.path.dirname(os.path.abspath(path)))
try:
    runpy.run_path(path, run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
own, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"self_cpu_s": own.ru_utime + own.ru_stime,
                  "children_cpu_s": kids.ru_utime + kids.ru_stime,
                  "self_maxrss_mb": own.ru_maxrss / 1024.0,
                  "children_maxrss_mb": kids.ru_maxrss / 1024.0}))
"""
METRICS = ("wall_s", "traj_steps_per_s", "cpu_s", "peak_rss_mb", "setup_s")
LOWER_IS_BETTER = {"traj_steps_per_s": False}
# every child runs without writing bytecode, so each one's caches are as the last clearing left them
CHILD_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def clear_bytecode_caches(checkout):
    """Remove every ``__pycache__`` under the checkout's ``src/`` and ``perfbench/``; their paths, sorted."""
    caches = sorted(cache for sub in ("src", "perfbench") for cache in (Path(checkout) / sub).rglob("__pycache__")
                    if cache.is_dir())
    for cache in caches:
        shutil.rmtree(cache)
    return [str(cache.relative_to(checkout)) for cache in caches]


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def file_digests(out_dir):
    """Path relative to ``out_dir`` -> sha256 of that file's bytes, for every file under it."""
    return {str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out_dir).rglob("*")) if path.is_file()}


def differing_files(before, after):
    """The names, sorted, whose ``file_digests`` differ or that only one side has."""
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


def run_perfbench(checkout, workload, seed, seconds, digest):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True, check=True)
    lines = _json_lines(proc.stdout)
    result = lines[-1]
    outputs = Path(checkout) / ".perfbench" / workload / "plain-0"
    return {"correct": result["correct"],
            "check_fail_frac": result["failed"] / result["attempted"],
            **{name: result["metrics"][name]["value"] for name in METRICS},
            "outputs_sha256": digest(outputs),
            "outputs_files": file_digests(outputs),
            "environment": lines[-2]["environment"]}


def run_rusage_pass(checkout, workload, threads, pin_env):
    workload_dir = Path(checkout) / ".perfbench" / workload  # left by the run_perfbench before
    proc = subprocess.run(
        [sys.executable, "-c", SHIM, "perfbench/worker.py", str(workload_dir / "workload.ini"),
         str(workload_dir / "rusage-pass"), "--threads", str(threads)],
        cwd=checkout, env={**os.environ, **pin_env, **CHILD_ENV}, capture_output=True, text=True, check=True)
    record, usage = _json_lines(proc.stdout)[-2:]
    return {"wall_s": record["wall_s"],
            "cpu_s": record["cpu_s"],
            # children run only inside the timed sections, so their CPU adds to cpu_s
            "cpu_s_with_children": record["cpu_s"] + usage["children_cpu_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "children_peak_rss_mb": usage["children_maxrss_mb"],
            **usage}


def summary(before, after, lower_is_better=True):
    def stats(xs):
        # one sample is each of its own quartiles; ``quantiles`` wants two
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        return {"median": med, "q1": q1, "q3": q3, "samples": xs}

    wins = sum((a < b) if lower_is_better else (a > b) for b, a in zip(before, after))
    ties = sum(a == b for b, a in zip(before, after))
    base = statistics.median(before)  # 0 for children's memory when nothing forks
    return {"before": stats(before), "after": stats(after),
            "after_over_before_median": statistics.median(after) / base if base else None,
            "after_wins": wins, "ties": ties, "pairs": len(before)}


def verdict(summ, bound, lower_is_better=True):
    """The claim and no-regression reading of one metric's ``summary``.

    ``gain_resolved``: the change won at least nine tenths of the pairs and
    its median beats the parent's by more than the parent's interquartile
    range.  ``worse_beyond_bound``: the change's median is worse than the
    parent's by more than ``bound`` times the parent's median.
    ``spread_wider_than_bound``: the parent's interquartile range is wider
    than ``bound`` times its median, so the metric cannot be told apart.
    """
    before, after = summ["before"], summ["after"]
    gain = before["median"] - after["median"]
    if not lower_is_better:
        gain = -gain
    spread = before["q3"] - before["q1"]
    return {"bound": bound,
            "gain_resolved": 10 * summ["after_wins"] >= 9 * summ["pairs"] and gain > spread,
            "worse_beyond_bound": -gain > bound * before["median"],
            "spread_wider_than_bound": spread > bound * before["median"]}


def end_to_end_bounds(checkout):
    """Metric name -> ``bound`` of each end-to-end metric in the checkout's ``BENCHMARK.json``."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # the imports below leave no cache in the checkout either
    sys.path.insert(0, str(Path(args.after) / "perfbench"))
    import run
    import workloads

    threads = workloads.WORKLOADS[args.workload].threads
    bounds = end_to_end_bounds(args.after)
    sides = {"before": args.before, "after": args.after}
    cleared = {side: clear_bytecode_caches(checkout) for side, checkout in sides.items()}
    runs = {side: [] for side in sides}
    usage = {side: [] for side in sides}
    order = []
    for i in range(args.pairs):
        first = ("before", "after") if i % 2 == 0 else ("after", "before")
        order.append(list(first))
        for side in first:
            runs[side].append(run_perfbench(sides[side], args.workload, args.seed, args.seconds,
                                            run.digest))
            usage[side].append(run_rusage_pass(sides[side], args.workload, threads, run.PIN_ENV))
            print(f"pair {i} {side}: wall_s {runs[side][-1]['wall_s']:.3f}", file=sys.stderr)
            # every sample so far, so that a failure later loses nothing
            Path(args.out).write_text(json.dumps({"runs": runs, "usage": usage}) + "\n")

    def judged(name):
        lower = LOWER_IS_BETTER.get(name, True)
        summ = summary([r[name] for r in runs["before"]], [r[name] for r in runs["after"]], lower)
        return {**summ, **verdict(summ, bounds[name], lower)}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "threads": threads,
        "order": order,
        "correct": {side: [r["correct"] for r in runs[side]] for side in sides},
        "check_fail_frac": {side: [r["check_fail_frac"] for r in runs[side]] for side in sides},
        "outputs_sha256": {side: [r["outputs_sha256"] for r in runs[side]] for side in sides},
        "outputs_identical": [b["outputs_sha256"] == a["outputs_sha256"]
                              for b, a in zip(runs["before"], runs["after"])],
        "outputs_differ": [differing_files(b["outputs_files"], a["outputs_files"])
                           for b, a in zip(runs["before"], runs["after"])],
        "end_to_end": {name: judged(name) for name in METRICS},
        "with_children": {
            name: summary([u[name] for u in usage["before"]], [u[name] for u in usage["after"]])
            for name in ("cpu_s", "cpu_s_with_children", "peak_rss_mb", "children_peak_rss_mb")
        },
        "environment": {side: {**runs[side][0]["environment"], "bytecode_caches_removed": cleared[side],
                               "child_env": CHILD_ENV} for side in sides},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

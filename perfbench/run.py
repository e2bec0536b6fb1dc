"""Desk benchmark for flowlab.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's config sections (see ``workloads.py``) through the
public executors, one pass per fresh worker process, for ``--seconds``
seconds, and reports medians over the passes.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  After timing, and
untimed, it checks the outputs: every checked row must satisfy
value <= bound + 3 * stderr, every pass must write byte-identical files
(traced ones included), and where the workload names a second thread count
a pass at that count must write the same bytes.

Prints a table of metrics with units, the environment as one JSON line, and
last a JSON line with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` counts checked rows and ``failed`` those that
failed.  The BLAS and OpenMP pools of every worker are pinned to one thread,
so ``--threads`` is the only parallelism.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": ("s", "lower"),
    "traj_steps_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PIN_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_PASSES = 3          # of each kind, whatever --seconds says
WORKER_TIMEOUT_S = 150
ROW_SLACK = 3.0         # value <= bound + ROW_SLACK * stderr
# An oracle row stores the recomputed value in `bound` (its tolerance is not
# written), so only its verdict is checked, not the rule.
VERDICT_ONLY_KINDS = ("oracle_suite",)


def traced_names():
    """Per-layer metrics read off the spans of a traced pass."""
    names = list(layer_metrics([], {}))
    return names + [f"experiments.{s}.wall_s" for w in workloads.WORKLOADS.values()
                    for s in workloads.section_names(w)]


def per_layer_names():
    return traced_names() + ["trace.overhead_frac"]


def per_layer_unit(name):
    return ("ratio", "lower") if name == "trace.overhead_frac" else unit_of(name)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def digest(out_dir):
    """sha256 over every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_rows(out_dir, sections, records):
    """(attempted, failures) over the checked rows of every section.

    ``sections`` maps section name to kind.  A checked row has a verdict,
    which must be true; where it has a bound the documented rule must hold
    as well.  A section that raised wrote no rows and counts as one failed
    row.
    """
    attempted, failures = 0, []
    for name, kind in sections.items():
        if "error" in records[name]:
            attempted += 1
            failures.append(f"{name}: raised\n{records[name]['error']}")
            continue
        with open(Path(out_dir) / f"{name}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["passed"] == "":
                    continue
                attempted += 1
                # numpy booleans reach the CSV as "True"/"False"
                ok = row["passed"].lower() == "true"
                if row["bound"] != "" and kind not in VERDICT_ONLY_KINDS:
                    stderr = float(row["stderr"]) if row["stderr"] else 0.0
                    ok = ok and float(row["value"]) <= float(row["bound"]) + ROW_SLACK * stderr
                if not ok:
                    failures.append(f"{name}: {row['quantity']} = {row['value']} "
                                    f"(bound {row['bound']}, stderr {row['stderr']})")
    return attempted, failures


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".perfbench" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.ini"
        self.config.write_text(workloads.config_text(workload, seed))
        self.env = {**os.environ, **PIN_ENV}

    def run_pass(self, tag, threads, traced=False):
        """One worker process; returns its record with the digest of its outputs."""
        out = self.work / tag
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.config), str(out),
               "--threads", str(threads)]
        if traced:
            cmd += ["--trace", str(self.work / "spans.jsonl")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {tag} exceeded {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["digest"] = digest(out)
        record["out"] = out
        return record

    def measure(self, seconds, traced):
        """Alternate untraced (and traced) passes until ``seconds`` have passed."""
        plain, with_trace = [], []
        start = time.perf_counter()
        while True:
            if traced and len(with_trace) < len(plain):
                with_trace.append(self.run_pass(f"traced-{len(with_trace)}", self.workload.threads, True))
            else:
                plain.append(self.run_pass(f"plain-{len(plain)}", self.workload.threads))
            enough = len(plain) >= MIN_PASSES and (not traced or len(with_trace) >= MIN_PASSES)
            if enough and time.perf_counter() - start >= seconds:
                return plain, with_trace

    def gate(self, plain, with_trace):
        """Untimed output checks: (attempted, failures, problems)."""
        problems = []
        ref = plain[0]
        for rec in plain[1:] + with_trace:
            if rec["digest"] != ref["digest"]:
                kind = "traced" if "layers" in rec else "untraced"
                problems.append(f"{kind} pass wrote different bytes from the first untraced pass")
        if self.workload.check_threads is not None:
            other = self.run_pass("threads-check", self.workload.check_threads)
            if other["digest"] != ref["digest"]:
                problems.append(f"output at --threads {self.workload.check_threads} differs from "
                                f"output at --threads {self.workload.threads}")
            shutil.rmtree(other["out"], ignore_errors=True)
        if any(rec["counts"] != with_trace[0]["counts"] for rec in with_trace[1:]):
            problems.append("traced counts differ between passes of one seed")
        attempted, failures = check_rows(ref["out"], workloads.section_kinds(self.workload),
                                         ref["sections"])
        for rec in plain[1:] + with_trace:
            shutil.rmtree(rec["out"], ignore_errors=True)
        return attempted, failures, problems


def median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(plain):
    wall = median(plain, "wall_s")
    return {
        "wall_s": wall,
        "traj_steps_per_s": plain[0]["requested_work"] / wall,
        "cpu_s": median(plain, "cpu_s"),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "setup_s": median(plain, "setup_s"),
    }


def per_layer(plain, with_trace):
    values = {name: statistics.median(r["layers"].get(name, 0.0) for r in with_trace)
              for name in traced_names()}
    values["trace.overhead_frac"] = median(with_trace, "wall_s") / median(plain, "wall_s") - 1.0
    return values


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(bench, plain, threads_seen):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flowlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **plain[0]["versions"],
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "blas_env": PIN_ENV,
        "worker_os_threads": threads_seen,
        "workload": bench.workload.name,
        "threads": bench.workload.threads,
        "seed": bench.seed,
        "passes": len(plain),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")
    if not (ROOT / "src" / "flowlab" / "__init__.py").is_file():
        print(f"no flowlab sources under {ROOT / 'src'}; run from a flowlab checkout",
              file=sys.stderr)
        return 2

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed)
    try:
        plain, with_trace = bench.measure(args.seconds, bool(args.trace))
        attempted, failures, problems = bench.gate(plain, with_trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(plain)
    for name, value in e2e.items():
        print(f"{args.workload:22s} {name:40s} {value:16.6g} {END_TO_END[name][0]}")
    print(f"{args.workload:22s} {'check_fail_frac':40s} {len(failures) / attempted:16.6g} ratio")
    if args.trace:
        metrics = per_layer(plain, with_trace)
        units = {name: per_layer_unit(name)[0] for name in metrics}
        for name, value in metrics.items():
            print(f"{args.workload:22s} {name:40s} {value:16.6g} {units[name]}")
    else:
        metrics = e2e
        units = {name: END_TO_END[name][0] for name in metrics}
    for line in failures + problems:
        print(f"CHECK FAILED: {line}")

    threads_seen = sorted({r["os_threads"] for r in plain + with_trace})
    env = environment(bench, plain, threads_seen)
    print(json.dumps({"environment": env}, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    samples = [{"traced": "layers" in r, **{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}}
               for r in plain + with_trace]
    (bench.work / "result.json").write_text(json.dumps(
        {**result, "end_to_end": e2e, "environment": env, "problems": problems,
         "failures": failures, "passes": samples}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh process.

Usage::

    python3 perfbench/worker.py CONFIG OUT_DIR --threads N [--trace SPANS.jsonl]

Imports flowlab from the ``src`` directory next to this one, sets up (parse
the config, build the fields, fill lazy tables), then runs every section
through ``flowlab.experiments.EXECUTORS`` and writes its outputs to OUT_DIR
as ``flowlab run`` does.  Prints one JSON object: set-up and section times,
CPU time, peak resident memory, requested work and, with ``--trace``, the
per-layer metrics.  A section that raises is recorded with its traceback and
the remaining sections still run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_flowlab():
    """Import flowlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import flowlab

    if Path(flowlab.__file__).resolve().parent != SRC / "flowlab":
        raise ImportError(f"flowlab imported from {flowlab.__file__}, not from {SRC}")
    return flowlab


def setup(config_path):
    """Parse the config, build every field and rule, fill the lazy tables."""
    import numpy as np
    from flowlab import coefficients, config, gaussian

    configs = config.parse_config(config_path)
    for cfg in configs:
        if "field" in cfg.options:
            config.build_field(cfg)
            gaussian.default_quadrature(cfg.d, order=cfg.options.get("quad_order") or None)
    coefficients.cutoff(1, np.zeros(1))  # fills the bump normalisation and CDF tables
    return configs


def run_sections(configs, threads, out_dir, tracer=None):
    """Run each section as ``flowlab run`` does; returns per-section records."""
    from flowlab import experiments, report

    os.makedirs(out_dir, exist_ok=True)
    records = {}
    summary = {"experiments": {}}
    for cfg in configs:
        block = tracer.span(f"experiments.{cfg.name}") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with block:
                rows, details = experiments.EXECUTORS[cfg.kind](cfg, cfg.seed, threads, out_dir=out_dir)
                report.write_rows_csv(rows, os.path.join(out_dir, f"{cfg.name}.csv"))
                for label, (header, table) in details.items():
                    report.write_table_csv(header, table, os.path.join(out_dir, f"{cfg.name}_{label}.csv"))
        except Exception:  # a failed section is a benchmark result, not a crash
            records[cfg.name] = {"wall_s": time.perf_counter() - start,
                                 "error": traceback.format_exc()}
            continue
        records[cfg.name] = {"wall_s": time.perf_counter() - start}
        summary["experiments"][cfg.name] = {
            "kind": cfg.kind, "seed": cfg.seed, "passed": report.rows_all_passed(rows),
            "rows": [{"quantity": r.quantity, "value": r.value, "stderr": r.stderr,
                      "bound": r.bound, "passed": r.passed} for r in rows],
        }
    report.write_summary_json(summary, os.path.join(out_dir, "summary.json"))
    return records


def write_spans(tracer, path):
    with open(path, "w") as fh:
        for sid, name, start, end, parent, thread in tracer.spans:
            fh.write(json.dumps([sid, name, start, end, parent, thread]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here and report layer metrics")
    args = parser.parse_args(argv)

    flowlab = import_flowlab()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
    configs = setup(args.config)
    setup_s = time.perf_counter() - T_START

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    sections = run_sections(configs, args.threads, args.out_dir, tracer)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
              "sections": sections}
    if tracer:
        tracer.uninstall()
        record["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        record["counts"] = dict(tracer.counts)
        write_spans(tracer, args.trace)

    import numpy
    import scipy
    import workloads

    record["requested_work"] = sum(workloads.requested_work(cfg) for cfg in configs)
    record["versions"] = {"flowlab": flowlab.__version__, "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "python": sys.version.split()[0]}
    task_dir = "/proc/self/task"
    record["os_threads"] = len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

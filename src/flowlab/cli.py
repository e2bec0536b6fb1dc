"""Batch experiment driver.

Usage::

    flowlab run <config.ini> [--seed S] [--threads N] [--out DIR]
    flowlab validate <config.ini>
    flowlab oracle-suite [--out DIR]

Experiments run sequentially; within one experiment ``--threads N`` runs
each ensemble's chunks on up to N worker processes (the run's own and
forked children, see :mod:`flowlab.sde`), which changes wall time, never a
byte of output.  A section that raises is recorded in summary.json as
``{"kind", "seed", "passed": false, "error": <message>}`` and the remaining
sections still run; summary.json is always written.  Exit codes: 0 all
checks passed, 1 experiment failure or bound violation beyond the
documented slack, 2 configuration error, whether found by ``validate`` at
parse time (e.g. a grid step above the Fokker-Planck stability bound) or
raised while running, or an ``--out`` that cannot be made a directory (the
one case in which summary.json cannot be written).
The default output directory is $FLOWLAB_OUT, falling back to ./flowlab_out.
"""

import argparse
import hashlib
import os
import sys
import traceback

from .config import parse_config
from .errors import ConfigError, FlowLabError, OracleMismatchError
from .experiments import EXECUTORS
from .oracle_gate import oracle_rows, oracle_suite
from .report import rows_all_passed, write_rows_csv, write_summary_json, write_table_csv


def _out_dir(args):
    out = args.out or os.environ.get("FLOWLAB_OUT") or "flowlab_out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r} cannot be made: {exc}", key="out")
    return out


def _config_error(exc):
    loc = f" [section={exc.section!r} key={exc.key!r}]" if exc.section or exc.key else ""
    print(f"config error: {exc}{loc}", file=sys.stderr)
    return 2


def _write_outputs(out, name, rows, details):
    write_rows_csv(rows, os.path.join(out, f"{name}.csv"))
    for label, (header, table) in details.items():
        write_table_csv(header, table, os.path.join(out, f"{name}_{label}.csv"))


def _run(args):
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}", key="threads")
        configs = parse_config(args.config, seed=args.seed)
        out = _out_dir(args)
    except ConfigError as exc:
        return _config_error(exc)

    # the file name, not the path as typed, plus a content hash: the same
    # config run from any directory or checkout writes the same bytes
    with open(args.config, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    summary = {"config": os.path.basename(args.config), "config_sha256": digest, "experiments": {}}
    status = 0
    for cfg in configs:
        entry = summary["experiments"][cfg.name] = {"kind": cfg.kind, "seed": cfg.seed}
        try:
            rows, details = EXECUTORS[cfg.kind](cfg, cfg.seed, args.threads, out_dir=out)
        except Exception as exc:
            # a failed section is recorded and the remaining sections still run
            if not isinstance(exc, FlowLabError):
                traceback.print_exc()  # a fault of the program, not of the input
            entry.update(passed=False, error=f"{type(exc).__name__}: {exc}")
            print(f"experiment [{cfg.name}] failed: {entry['error']}", file=sys.stderr)
            status = 2 if isinstance(exc, ConfigError) else max(status, 1)
            continue
        _write_outputs(out, cfg.name, rows, details)
        ok = rows_all_passed(rows)
        entry.update(passed=ok, rows=[
            {"quantity": r.quantity, "value": r.value, "stderr": r.stderr,
             "bound": r.bound, "passed": r.passed}
            for r in rows
        ])
        if not ok:
            status = max(status, 1)
        for r in rows:
            mark = "" if r.passed is None else ("  PASS" if r.passed else "  FAIL")
            print(f"[{cfg.name}] {r.quantity} = {r.value:.6g}{mark}")
    summary["passed"] = status == 0
    write_summary_json(summary, os.path.join(out, "summary.json"))
    return status


def _validate(args):
    try:
        configs = parse_config(args.config)
    except ConfigError as exc:
        return _config_error(exc)
    for cfg in configs:
        print(f"[{cfg.name}] kind={cfg.kind} ok")
    return 0


def _oracle(args):
    try:
        out = _out_dir(args)
    except ConfigError as exc:
        return _config_error(exc)
    try:
        checks = oracle_suite()
    except OracleMismatchError as exc:
        print(f"oracle suite FAILED: {exc}", file=sys.stderr)
        return 1
    _write_outputs(out, "oracle_suite", *oracle_rows("oracle_suite", checks))
    for c in checks:
        print(f"[oracle] {c.name}: {c.value:.12g} vs {c.recomputed:.12g}  PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="flowlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all experiments in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override every section seed")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_run)

    p_val = sub.add_parser("validate", help="check a config file against the schema")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_validate)

    p_orc = sub.add_parser("oracle-suite", help="run the dual-computation oracle gate")
    p_orc.add_argument("--out", default=None)
    p_orc.set_defaults(fn=_oracle)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

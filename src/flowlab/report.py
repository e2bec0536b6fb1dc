"""Report rows and deterministic CSV/JSON serialization.

Floats are serialized with 17 significant digits so CSV outputs round-trip
bit-stably; a rerun with the same config and seed produces byte-identical
files at any worker count.  JSON has no infinity or NaN, so summary.json
holds a non-finite float as the text of its CSV cell: "inf", "-inf", "nan".
"""

import json
import math
from dataclasses import dataclass


def fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class ReportRow:
    """One measured quantity, optionally checked against a bound.

    ``passed`` is recomputable from the stored fields by the documented rule
    value <= bound + 3 * stderr (and is None for unchecked quantities).  A
    verdict is stored as a Python bool, so a numpy comparison result is
    written as ``true``/``false`` in CSV and as a JSON boolean.
    """

    experiment: str
    quantity: str
    value: float
    stderr: float = None
    bound: float = None
    passed: bool = None

    def __post_init__(self):
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))

    @staticmethod
    def checked(experiment, quantity, value, stderr, bound):
        ok = value <= bound + 3.0 * (stderr or 0.0)
        return ReportRow(experiment, quantity, value, stderr, bound, ok)


CSV_HEADER = "experiment,quantity,value,stderr,bound,passed"


def write_rows_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    [r.experiment, r.quantity, fmt(r.value), fmt(r.stderr), fmt(r.bound), fmt(r.passed)]
                )
                + "\n"
            )


def write_table_csv(header, table, path):
    """Detail tables (coupling deviations, slab ratios, ...)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _json_safe(value):
    """value with each non-finite float in its dicts and lists written as ``fmt`` writes it."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True, default=fmt, allow_nan=False)
        fh.write("\n")


def rows_all_passed(rows):
    return all(r.passed is not False for r in rows)

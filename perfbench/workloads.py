"""Benchmark workloads: desk-suite sections at benchmark size.

Each workload is a list of config sections run through the public
executors, as ``flowlab run`` runs them, at a fixed ``--threads``.  Sections
keep the desk-suite horizons, step sizes, level ladders and grids; only the
trajectory counts are scaled down so that one pass of a workload takes a few
seconds and a run can time several passes.  The seed is not part of a
template: ``config_text`` writes the benchmark's ``--seed`` into every
section.

``requested_work`` is the throughput numerator: trajectories x Euler steps
x levels, summed over each distinct ensemble the config asks for.  It is
derived from the config alone, never from counters, so a change that stops
re-simulating an ensemble it already has raises ``traj_steps_per_s``.
"""

import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    # thread count whose output must be byte-identical to the timed one
    # (the criterion-9 property), or None when no such check is made
    check_threads: int
    why: str
    sections: str


GAMMA_ENSEMBLES = Workload(
    name="gamma-ensembles",
    threads=1,
    check_threads=None,
    why=("single-field ensembles from gamma_d or a point, plus the oracle gate; "
         "noise dominates, so noise and Euler-step changes show here"),
    sections="""
[lp-translate]
kind = density_bound
field = translate
d = 1
s = 0.0
t = 0.1
dt = 0.001
trajectories = 6250
p_list = 1.5, 2, 3

[lp-ou]
kind = density_bound
field = ou_linear
a = 1.0
d = 1
s = 0.0
t = 0.05
dt = 0.001
trajectories = 6250
p_list = 1.5, 2

[entropy-sign]
kind = entropy_budget
field = sign_drift
beta = 1.0
d = 1
horizon = 0.5
dt = 0.0001
trajectories = 6250
n_list = 8, 32

[occupation-translate]
kind = krylov
field = translate
d = 1
s = 0.0
t = 1.0
dt = 0.001
trajectories = 2500
lambda_discount = 1.0
slab_widths = 0.1, 0.05, 0.025

[oracles]
kind = oracle_suite
""",
)

REGULARIZED_COUPLING = Workload(
    name="regularized-coupling",
    threads=1,
    check_threads=None,
    why=("six regularized levels sharing one noise stream per trajectory; "
         "OU smoothing dominates, so coefficient changes show and noise changes should not"),
    sections="""
[coupling-sign]
kind = coupling
field = sign_drift
beta = 1.0
d = 1
s = 0.0
t = 0.5
dt = 0.001
trajectories = 5000
n_list = 4, 8, 16, 32, 64
n_ref = 128
""",
)

FP_WEAK_MC = Workload(
    name="fp-weak-mc",
    threads=2,
    check_threads=1,
    why=("threaded chunks, one re-simulation per weak-error test function and a "
         "large factorization ensemble; the only place the GIL-bound noise loop shows"),
    # 32768 MC paths make four chunks of 8192 (the chunk size at 250 steps),
    # two per thread, so the weak-error re-simulations run threaded as well
    sections="""
[fp-translate]
kind = fokker_planck
field = translate
d = 1
s = 0.0
t = 0.25
dt = 0.001
trajectories = 32768
grid_R = 8.0
grid_h = 0.05
grid_tau = 0.0005
factorization_samples = 40000
""",
)

FP_GRID_2D = Workload(
    name="fp-grid-2d",
    threads=1,
    check_threads=None,
    why=("a d = 2 Fokker-Planck grid with a small MC ensemble; the only workload "
         "where the PDE step and the solution-frame writer take most of the time"),
    sections="""
[fp-grid-2d]
kind = fokker_planck
field = ou_linear
a = 1.0
d = 2
s = 0.0
t = 0.15
dt = 0.001
trajectories = 1000
grid_R = 4.0
grid_h = 0.04
grid_tau = 0.00025
""",
)

WORKLOADS = {w.name: w for w in (GAMMA_ENSEMBLES, REGULARIZED_COUPLING, FP_WEAK_MC, FP_GRID_2D)}

_SECTION = re.compile(r"^\[([^\]]+)\][ \t]*$", re.MULTILINE)


def section_names(workload):
    return _SECTION.findall(workload.sections)


def section_kinds(workload):
    """Section name -> experiment kind, in config order."""
    kinds = re.findall(r"^kind = (\S+)$", workload.sections, re.MULTILINE)
    return dict(zip(section_names(workload), kinds))


def config_text(workload, seed):
    """The workload's config file with ``seed`` written into every section."""
    return _SECTION.sub(lambda m: f"{m.group(0)}\nseed = {seed}", workload.sections.strip()) + "\n"


def _steps(s, t, dt):
    return int(round((t - s) / dt))


def ensemble_plan(cfg):
    """Distinct ensembles a section asks for, as (trajectories, steps, levels).

    Ensembles that differ only in what is accumulated along the same paths
    (the krylov slabs, the weak-error test functions) count once.
    """
    from flowlab.coefficients import RegularizationLevel, regularize
    from flowlab.config import build_field
    from flowlab.density import time_threshold
    from flowlab.gaussian import default_quadrature

    o = cfg.options
    if cfg.kind in ("density_bound", "krylov", "coupling", "fokker_planck"):
        steps = _steps(o["s"], o["t"], o["dt"])
    if cfg.kind == "density_bound":
        return [(o["trajectories"] * o["replicas"], steps, 1)]
    if cfg.kind == "krylov":
        return [(o["trajectories"], steps, 1)]
    if cfg.kind == "coupling":
        return [(o["trajectories"], steps, len(o["n_list"]) + 1)]
    if cfg.kind == "fokker_planck":
        plan = [(o["trajectories"], steps, 1)]
        if o["factorization_samples"]:
            plan.append((o["factorization_samples"], steps, 1))
        return plan
    if cfg.kind == "entropy_budget":
        # mirrors the executor: each level runs to min(T0, horizon) in at
        # least four steps, and the raw field runs at two step sizes
        field = build_field(cfg)
        quad = default_quadrature(o["d"], order=o["quad_order"] or None)
        plan = []
        for n in o["n_list"]:
            tau = min(time_threshold(regularize(field, RegularizationLevel(n), quad)), o["horizon"])
            plan.append((o["trajectories"], max(4, math.ceil(tau / o["dt"])), 1))
        tau = min(time_threshold(field), o["horizon"])
        steps = max(4, math.ceil(tau / o["dt"]))
        plan += [(o["trajectories"], steps * refine, 1) for refine in (1, 2)]
        return plan
    return []


def requested_work(cfg):
    """Trajectories x steps x levels over the section's distinct ensembles."""
    return sum(n * steps * levels for n, steps, levels in ensemble_plan(cfg))

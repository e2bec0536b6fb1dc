"""Experiment configuration: flat typed key-value sections, strictly checked.

Config files are INI-style; each section is one experiment.  Every key is
parsed against the schema of its experiment kind, whose parser also refuses
a value outside the key's range (every float must be finite).  Unknown keys,
and a field parameter on a field that does not take it, are rejected
outright: a silently ignored misspelt constant would invalidate a bound test
without anyone noticing.  Size limits refuse a section whose largest array
in ``run`` would pass ``MAX_FLOATS``.  Every refusal is a ``ConfigError``
naming its section and key.

Example::

    [lp-translate]
    kind = density_bound
    field = translate
    d = 1
    s = 0.0
    t = 0.1
    dt = 0.001
    trajectories = 50000
    p_list = 1.5, 2, 3
    seed = 42
"""

import configparser
import inspect
import math
import sys
from dataclasses import dataclass, field as dc_field

from .coefficients import CATALOG, builtin_coefficients
from .density import entropy_steps
from .errors import ConfigError
from .gaussian import MAX_GH_ORDER, default_quadrature
from .sde import _chunk_cap, make_grid


def _config_fields():
    """Catalog field -> its config keys, for the fields that config keys alone can build.

    Those are the fields whose every parameter besides ``d`` has a default
    (``anisotropic`` needs a matrix, which no key supplies); their keys are
    the parameters besides ``d`` and ``lam``.
    """
    fields = {}
    for key, build in CATALOG.items():
        params = list(inspect.signature(build).parameters.values())[1:]
        if all(p.default is not p.empty for p in params):
            fields[key] = tuple(p.name for p in params if p.name != "lam")
    return fields


FIELD_PARAMS = _config_fields()

SEED_LIMIT = 1 << 64  # seeds key a Philox generator as one uint64 word

# Size limits keep the largest array ``run`` allocates for a key within
# 2^27 floats (1 GiB):
# - d <= 12: for d >= 3 the rule is 4096 Monte-Carlo nodes, and
#   ``validate_hypotheses`` keeps 17 bundles, each holding ∇σ as d^3 floats
#   per node: 17 * 4096 * 12^3 = 1.20e8 floats;
# - trajectories * replicas * d <= 2^27: the start and end points of the
#   ensemble are (trajectories * replicas, d) arrays, and so are the
#   Gaussian starts drawn for them; factorization_samples <= 2^27 likewise
#   (it needs d = 1);
# - (2 grid_R / grid_h + 1)^d * d^2 <= 2^27: the Fokker-Planck grid holds
#   the diffusion matrix, d^2 floats per cell;
# - in d >= 2, points * nodes * (d m + m d^2) <= 2^27 for the entropy budget,
#   and points * nodes * d m for a coupling: a regularized level smooths σ
#   on the rule's nodes moved to each point (``_check_smoothing_size``; every
#   config field has m = d).  The budget's m d^2 would be a smoothed ∇σ; the
#   density weight takes ∇σ^n as the kernel gradient of P_ε σ, which reads
#   only σ's d m floats per node, so the budget's count is an upper bound.
#   Every config field declares its σ constant, which is not smoothed, so
#   its levels smooth only the drift's d floats per node: both counts are
#   upper bounds for them.
MAX_FLOATS = 1 << 27
MAX_D = 12
# no Gauss-Hermite rule passes MAX_GH_ORDER = 370 (numpy's hermgauss gives
# zero weights from order 371 on); ``theorem_bound_rhs`` re-runs the L^p bound
# at twice the order, so density_bound takes half.  (The d = 2 rule's 17
# bundles then hold 17 * 8 * 370^2 = 1.9e7 floats of ∇σ.)
MAX_QUAD_ORDER = MAX_GH_ORDER
LOG_MAX = math.log(sys.float_info.max)


def _limit(cast, lo, hi=math.inf, strict=False):
    """Parser of ``cast(raw)`` in [lo, hi), or in (lo, hi) when ``strict``; NaN fails both."""
    def parse(raw):
        x = cast(raw)
        if not ((lo < x) if strict else (lo <= x)) or not x < hi:
            raise ValueError(f"outside {'(' if strict else '['}{lo}, {hi})")
        return x
    return parse


def _list(item, min_items=0):
    """Parser of a comma-separated list, each item through ``item``."""
    def parse(raw):
        items = tuple(item(v.strip()) for v in raw.split(",") if v.strip())
        if len(items) < min_items:
            raise ValueError(f"needs at least {min_items} item")
        return items
    return parse


def _field(raw):
    if raw not in FIELD_PARAMS:
        raise ValueError(f"unknown field (choose from {tuple(FIELD_PARAMS)})")
    return raw


_finite = _limit(float, -math.inf, strict=True)
_positive = _limit(float, 0.0, strict=True)

# key -> (parser, default); the REQUIRED sentinel marks keys with no default
REQUIRED = object()

_COMMON = {"kind": (str, REQUIRED), "seed": (_limit(int, 0, SEED_LIMIT), 0)}

# a field parameter absent from a section takes its default from its
# ``CATALOG`` function; every one is a positive float and the field's
# growth constant L, held far below 1e153, where |b|^2 overflows and the
# bounds' T0 = 1 / (112 L (1 + L)) underflows
_FIELD = {
    "field": (_field, REQUIRED),
    "d": (_limit(int, 1, MAX_D + 1), 1),
    "lam": (_positive, None),
    **{key: (_limit(float, 0.0, 1e100, strict=True), None)
       for params in FIELD_PARAMS.values() for key in params},
}

# the kinds that simulate paths on [s, t]
_PATH = {
    "s": (_finite, 0.0),
    "t": (_positive, REQUIRED),
    "dt": (_positive, REQUIRED),
    "trajectories": (_limit(int, 2), REQUIRED),  # error bars need two batches
}
_QUAD_ORDER = (_limit(int, 0, MAX_QUAD_ORDER + 1), 0)  # 0 picks the default rule

_SCHEMAS = {
    "density_bound": {
        **_COMMON, **_FIELD, **_PATH,
        "replicas": (_limit(int, 1), 1),
        "p_list": (_list(_limit(float, 1.0, strict=True)), (2.0,)),
        "quad_order": (_limit(int, 0, MAX_QUAD_ORDER // 2 + 1), 0),
    },
    "entropy_budget": {
        **_COMMON, **_FIELD,
        "horizon": (_positive, REQUIRED),
        "dt": (_positive, REQUIRED),
        "trajectories": _PATH["trajectories"],
        "n_list": (_list(_limit(int, 1), min_items=1), (8, 32)),
        "quad_order": _QUAD_ORDER,
    },
    "coupling": {
        **_COMMON, **_FIELD, **_PATH,
        "n_list": (_list(_limit(int, 1), min_items=1), (4, 8, 16, 32, 64)),
        "n_ref": (_limit(int, 1), 128),
        "quad_order": _QUAD_ORDER,
    },
    "krylov": {
        **_COMMON, **_FIELD, **_PATH,
        "lambda_discount": (_finite, 1.0),
        "slab_widths": (_list(_positive), (0.1, 0.05, 0.025)),
    },
    "fokker_planck": {
        **_COMMON, **_FIELD, **_PATH,
        "grid_R": (_positive, 8.0),
        "grid_h": (_positive, 0.05),
        "grid_tau": (_positive, REQUIRED),
        "factorization_samples": (_limit(int, 0, MAX_FLOATS + 1), 0),
    },
    "validate": {
        **_COMMON, **_FIELD,
        "horizon": (_positive, 1.0),
        "quad_order": _QUAD_ORDER,
    },
    "oracle_suite": dict(_COMMON),
}

EXPERIMENT_KINDS = tuple(_SCHEMAS)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    kind: str
    options: dict = dc_field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.options[key]
        except KeyError:
            raise AttributeError(key)


def _parse_section(name, section):
    if "kind" not in section:
        raise ConfigError(f"section [{name}] is missing 'kind'", section=name, key="kind")
    kind = section["kind"].strip()
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"section [{name}]: unknown kind {kind!r} (choose from {EXPERIMENT_KINDS})",
            section=name, key="kind",
        )
    schema = _SCHEMAS[kind]
    options = {}
    for key, raw in section.items():
        if key == "kind":
            continue
        if key not in schema:
            raise ConfigError(
                f"section [{name}]: unknown key {key!r} for kind {kind!r}",
                section=name, key=key,
            )
        parser, _ = schema[key]
        try:
            options[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(
                f"section [{name}]: cannot accept {key} = {raw!r} ({exc})",
                section=name, key=key,
            )
    for key, (parser, default) in schema.items():
        if key == "kind" or key in options:
            continue
        if default is REQUIRED:
            raise ConfigError(
                f"section [{name}]: required key {key!r} missing", section=name, key=key
            )
        options[key] = default
    cfg = ExperimentConfig(name=name, kind=kind, options=options)
    _validate_numerics(cfg)
    return cfg


def _validate_numerics(cfg):
    """The checks that read two keys or build something; each key's own range is its parser's."""
    opt = cfg.options

    def fault(key, message):
        return ConfigError(f"section [{cfg.name}]: {message}", section=cfg.name, key=key)

    for key in (k for params in FIELD_PARAMS.values() for k in params):
        if opt.get(key) is not None and key not in FIELD_PARAMS[opt["field"]]:
            raise fault(key, f"field {opt['field']!r} takes no {key!r}")
    # every step ``run`` simulates with must divide the horizon [s, t]; the
    # Fokker-Planck check also solves a coarse companion grid with step 4 grid_tau
    steps = [("dt", opt["dt"])] if "t" in opt else []
    if "grid_tau" in opt:
        steps += [("grid_tau", opt["grid_tau"]), ("grid_tau", 4 * opt["grid_tau"])]
    for key, step in steps:
        try:
            make_grid(opt["s"], opt["t"], step)
        except ConfigError as exc:
            raise fault(key, f"{key}: {exc}")
    if cfg.kind == "entropy_budget":
        try:
            entropy_steps(build_field(cfg), opt["horizon"], opt["dt"])
        except ConfigError as exc:
            raise fault("dt", f"dt: {exc}")
    if "trajectories" in opt:
        floats = opt["trajectories"] * opt.get("replicas", 1) * opt["d"]
        if floats > MAX_FLOATS:
            raise fault("trajectories", f"trajectories * replicas * d = {floats} is above {MAX_FLOATS}")
    if cfg.kind == "krylov":
        # a path's occupation functional is at most exp(-lambda_discount u) (t - s),
        # u in [s, t], and its error bar sums up to one square per trajectory
        lam, room = opt["lambda_discount"], (LOG_MAX - math.log(opt["trajectories"])) / 2
        for u in (opt["s"], opt["t"]):
            if not -lam * u + math.log(opt["t"] - opt["s"]) <= room:
                raise fault("lambda_discount", f"lambda_discount: trajectories * (exp(-lambda_discount u) "
                            f"(t - s))^2 overflows at u = {u:g}")
    if "n_ref" in opt and opt["n_ref"] < max(opt["n_list"]):
        raise fault("n_ref", f"n_ref = {opt['n_ref']} is below the finest level {max(opt['n_list'])}")
    if cfg.kind in ("coupling", "entropy_budget") and opt["d"] >= 2:
        _check_smoothing_size(cfg, fault)
    if cfg.kind == "fokker_planck":
        if opt["d"] not in (1, 2):
            raise fault("d", "the Fokker-Planck grid needs d = 1 or 2")
        if opt["factorization_samples"] and opt["d"] != 1:
            raise fault("factorization_samples", "factorization_samples must be 0 unless d = 1")
        d, axis = opt["d"], 2 * opt["grid_R"] / opt["grid_h"] + 1
        if not (axis <= MAX_FLOATS and axis**d * d * d <= MAX_FLOATS):
            raise fault("grid_h", f"grid_h: {axis:.6g}^{d} grid cells on [-grid_R, grid_R]^{d} hold more "
                        f"than {MAX_FLOATS} floats")
        _check_fp_stability(cfg, fault)


def _check_smoothing_size(cfg, fault):
    """The moving-node smoothing of regularized levels within ``MAX_FLOATS``.

    In d >= 2 a level evaluates σ (d m floats) at every node of the rule
    moved to every point, in one array; the entropy budget also counts
    m d^2 floats of a smoothed ∇σ, an upper bound, since ∇σ^n reads σ only.
    The points are a chunk of paths (at least 4 steps each for the entropy
    budget's levels) and, for the entropy budget, also the rule's nodes,
    where ``budget_constants`` evaluates each level.
    """
    opt = cfg.options
    d, m = opt["d"], build_field(cfg).m
    nodes = default_quadrature(d, order=opt["quad_order"] or None).nodes.shape[0]
    if cfg.kind == "coupling":
        per_node, points = d * m, min(opt["trajectories"], _chunk_cap(make_grid(opt["s"], opt["t"], opt["dt"]), m))
    else:
        per_node, points = d * m + m * d * d, max(nodes, min(opt["trajectories"], _chunk_cap(4, m)))
    if not points * nodes * per_node <= MAX_FLOATS:
        key = "quad_order" if d == 2 else "d"
        raise fault(key, f"{key}: smoothing a level at {points} points on {nodes} nodes in d = {d} "
                    f"needs {points * nodes * per_node} floats, more than {MAX_FLOATS}")


def _check_fp_stability(cfg, fault):
    """grid_tau within the stability bound on both grids ``run`` solves.

    Those are grid_tau on grid_h and the coarse companion step 4 grid_tau
    on 2 grid_h, with the coefficients at s; ``fp_solve`` checks again at
    every refresh of time-dependent coefficients.
    """
    from .fokker_planck import FPGrid, stable_coefficients

    opt = cfg.options
    field = build_field(cfg)
    h, tau = opt["grid_h"], opt["grid_tau"]
    for label, h_k, tau_k in (("grid_tau on grid_h", h, tau),
                              ("coarse companion step 4 grid_tau on 2 grid_h", 2 * h, 4 * tau)):
        pts = FPGrid.gaussian(field.d, opt["grid_R"], h_k).points()
        try:
            stable_coefficients(field, opt["s"], pts, h_k, tau_k)
        except ConfigError as exc:
            raise fault("grid_tau", f"{label}: {exc}")


def parse_config(path, seed=None):
    """Parse and validate a config file; returns a list of ExperimentConfig.

    ``seed``, when given, replaces every section's seed before parsing, so
    the ``seed`` parser checks it as it checks a seed in the file.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive, matched exactly
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}")
    if seed is not None:
        for name in parser.sections():
            parser[name]["seed"] = str(seed)
    configs = [_parse_section(name, parser[name]) for name in parser.sections()]
    if not configs:
        raise ConfigError(f"config {path!r} defines no experiments")
    return configs


def build_field(cfg):
    """Instantiate the catalog field named by a config; its ``CATALOG`` function
    holds the default of every parameter the section leaves out."""
    params = {key: cfg.options[key] for key in ("lam",) + FIELD_PARAMS[cfg.field]
              if cfg.options[key] is not None}
    return builtin_coefficients(cfg.field, d=cfg.d, **params)

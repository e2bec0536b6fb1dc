"""Experiment configuration: flat typed key-value sections, strictly checked.

Config files are INI-style; each section is one experiment.  Every key is
parsed against the schema of its experiment kind, whose parser also refuses
a value outside the key's range (every float must be finite).  Unknown keys,
and a field parameter on a field that does not take it, are rejected
outright: a silently ignored misspelt constant would invalidate a bound test
without anyone noticing.  Every refusal is a ``ConfigError`` naming its
section and key.

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
import math
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError
from .sde import MAX_STEPS, make_grid

# fields ``build_field`` can construct from config keys alone, with the
# parameters each takes besides ``lam``; ``anisotropic`` needs a matrix,
# which no config key supplies
FIELD_PARAMS = {"translate": (), "ou_linear": ("a",), "sign_drift": ("beta",)}

SEED_LIMIT = 1 << 64  # seeds key a Philox generator as one uint64 word


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

# a field parameter absent from a section takes its default in
# ``builtin_coefficients``; every one is a positive float and the field's
# growth constant L, held far below 1e153, where |b|^2 overflows and the
# bounds' T0 = 1 / (112 L (1 + L)) underflows
_FIELD = {
    "field": (_field, REQUIRED),
    "d": (_limit(int, 1), 1),
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

_SCHEMAS = {
    "density_bound": {
        **_COMMON, **_FIELD, **_PATH,
        "replicas": (_limit(int, 1), 1),
        "p_list": (_list(_limit(float, 1.0, strict=True)), (2.0,)),
        "quad_order": (_limit(int, 0), 0),  # 0 picks the default rule
    },
    "entropy_budget": {
        **_COMMON, **_FIELD,
        "horizon": (_positive, REQUIRED),
        "dt": (_positive, REQUIRED),
        "trajectories": (_limit(int, 2), REQUIRED),
        "n_list": (_list(_limit(int, 1), min_items=1), (8, 32)),
        "quad_order": (_limit(int, 0), 0),
    },
    "coupling": {
        **_COMMON, **_FIELD, **_PATH,
        "n_list": (_list(_limit(int, 1), min_items=1), (4, 8, 16, 32, 64)),
        "n_ref": (_limit(int, 1), 128),
        "quad_order": (_limit(int, 0), 0),
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
        "factorization_samples": (_limit(int, 0), 0),
    },
    "validate": {
        **_COMMON, **_FIELD,
        "horizon": (_positive, 1.0),
        "quad_order": (_limit(int, 0), 0),
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
        from .density import time_threshold

        # run steps [0, τ], τ = min(T0, horizon), at ⌈τ/dt⌉ steps and at twice as many
        tau = min(time_threshold(build_field(cfg)), opt["horizon"])
        if not 2 * tau / opt["dt"] <= MAX_STEPS:
            raise fault("dt", f"dt: the entropy budget on [0, {tau:g}] needs more than {MAX_STEPS} steps")
    if "n_ref" in opt and opt["n_ref"] < max(opt["n_list"]):
        raise fault("n_ref", f"n_ref = {opt['n_ref']} is below the finest level {max(opt['n_list'])}")
    if cfg.kind == "fokker_planck":
        if opt["d"] not in (1, 2):
            raise fault("d", "the Fokker-Planck grid needs d = 1 or 2")
        if opt["factorization_samples"] and opt["d"] != 1:
            raise fault("factorization_samples", "factorization_samples must be 0 unless d = 1")
        _check_fp_stability(cfg, fault)


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
    """Instantiate the catalog field named by a config; ``builtin_coefficients``
    holds the default of every parameter the section leaves out."""
    from .coefficients import builtin_coefficients

    params = {key: cfg.options[key] for key in ("lam",) + FIELD_PARAMS[cfg.field]
              if cfg.options[key] is not None}
    return builtin_coefficients(cfg.field, d=cfg.d, **params)

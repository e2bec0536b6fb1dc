"""Experiment configuration: flat typed key-value sections, strictly checked.

Config files are INI-style; each section is one experiment.  Every key is
typed against the schema of the experiment kind, and unknown keys are
rejected outright: a silently ignored misspelt constant would invalidate a
bound test without anyone noticing.

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
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError
from .sde import make_grid

# fields ``build_field`` can construct from config keys alone; ``anisotropic``
# needs a matrix, which no config key supplies
FIELD_KEYS = ("translate", "ou_linear", "sign_drift")

SEED_LIMIT = 1 << 64  # seeds key a Philox generator as one uint64 word


def _float_list(raw):
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


def _int_list(raw):
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


# key -> (parser, default); the REQUIRED sentinel marks keys with no default
REQUIRED = object()

_COMMON = {
    "kind": (str, REQUIRED),
    "seed": (int, 0),
}

_FIELD = {
    "field": (str, REQUIRED),
    "d": (int, 1),
    "a": (float, 1.0),
    "beta": (float, 1.0),
    "lam": (float, None),
}

_SCHEMAS = {
    "density_bound": {
        **_COMMON, **_FIELD,
        "s": (float, 0.0),
        "t": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "trajectories": (int, REQUIRED),
        "replicas": (int, 1),
        "p_list": (_float_list, (2.0,)),
        "quad_order": (int, 0),
    },
    "entropy_budget": {
        **_COMMON, **_FIELD,
        "horizon": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "trajectories": (int, REQUIRED),
        "n_list": (_int_list, (8, 32)),
        "quad_order": (int, 0),
    },
    "coupling": {
        **_COMMON, **_FIELD,
        "s": (float, 0.0),
        "t": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "trajectories": (int, REQUIRED),
        "n_list": (_int_list, (4, 8, 16, 32, 64)),
        "n_ref": (int, 128),
        "quad_order": (int, 0),
    },
    "krylov": {
        **_COMMON, **_FIELD,
        "s": (float, 0.0),
        "t": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "trajectories": (int, REQUIRED),
        "lambda_discount": (float, 1.0),
        "slab_widths": (_float_list, (0.1, 0.05, 0.025)),
    },
    "fokker_planck": {
        **_COMMON, **_FIELD,
        "s": (float, 0.0),
        "t": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "trajectories": (int, REQUIRED),
        "grid_R": (float, 8.0),
        "grid_h": (float, 0.05),
        "grid_tau": (float, REQUIRED),
        "factorization_samples": (int, 0),
    },
    "validate": {
        **_COMMON, **_FIELD,
        "horizon": (float, 1.0),
        "quad_order": (int, 0),
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


def _parse_section(name, section, seed=None):
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"section [{name}]: cannot parse {key} = {raw!r} ({exc})",
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
    if seed is not None:
        options["seed"] = seed
    cfg = ExperimentConfig(name=name, kind=kind, options=options)
    _validate_numerics(cfg)
    return cfg


def _validate_numerics(cfg):
    opt = cfg.options

    def fault(key, message):
        return ConfigError(f"section [{cfg.name}]: {message}", section=cfg.name, key=key)

    for key in ("d", "dt", "t", "trajectories", "replicas", "horizon", "grid_R", "grid_h", "grid_tau",
                "a", "beta"):
        if key in opt and opt[key] is not None and opt[key] <= 0:
            raise fault(key, f"{key} must be positive")
    if opt.get("trajectories", 2) < 2:
        raise fault("trajectories", "trajectories must be at least 2 (error bars need two batches)")
    if any(p <= 1.0 for p in opt.get("p_list", ())):
        raise fault("p_list", "p values must exceed 1")
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
    # regularization levels: each n >= 1, at least one, and a coupling's reference is the finest
    levels = opt.get("n_list", ())
    if any(n < 1 for n in levels) or ("n_list" in opt and not levels):
        raise fault("n_list", "n_list needs at least one level, each n >= 1")
    if "n_ref" in opt and levels and opt["n_ref"] < max(levels):
        raise fault("n_ref", f"n_ref = {opt['n_ref']} is below the finest level {max(levels)}")
    if cfg.kind == "fokker_planck" and opt["d"] not in (1, 2):
        raise fault("d", "the Fokker-Planck grid needs d = 1 or 2")
    samples = opt.get("factorization_samples", 0)
    if samples < 0 or (samples and opt["d"] != 1):
        raise fault("factorization_samples", "factorization_samples must be >= 0, and > 0 only for d = 1")
    if not 0 <= opt["seed"] < SEED_LIMIT:
        raise fault("seed", f"seed {opt['seed']} outside [0, 2^64)")
    if "field" in opt and opt["field"] not in FIELD_KEYS:
        raise fault("field", f"unknown field {opt['field']!r}")
    if cfg.kind == "fokker_planck":
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

    ``seed``, when given, replaces every section's seed and is checked as one.
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
    configs = [_parse_section(name, parser[name], seed) for name in parser.sections()]
    if not configs:
        raise ConfigError(f"config {path!r} defines no experiments")
    return configs


def build_field(cfg):
    """Instantiate the catalog field named by a config."""
    from .coefficients import builtin_coefficients

    name = cfg.field
    kwargs = {}
    if cfg.options.get("lam") is not None:
        kwargs["lam"] = cfg.lam
    if name == "ou_linear":
        kwargs["a"] = cfg.a
    elif name == "sign_drift":
        kwargs["beta"] = cfg.beta
    return builtin_coefficients(name, d=cfg.d, **kwargs)

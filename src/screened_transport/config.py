"""Declarative experiment configuration (INI sections, typed schema).

Unknown sections or keys are errors; validation collects every problem
before reporting.  `experiment.seed` is only echoed into the manifest;
nothing reads it, and runs are deterministic without it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

__all__ = ["ExperimentConfig", "ConfigError", "parse_config"]

MODES = ("nd_run", "radial_run", "inequality_sweep", "limit_report")


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


def _pos_float(s):
    v = float(s)
    if not v > 0:
        raise ValueError(f"must be positive, got {v}")
    return v


def _int(s):
    return int(s)


def _even_int(s):
    v = int(s)
    if v % 2 or v < 8:
        raise ValueError(f"must be even and >= 8, got {v}")
    return v


def _dim(s):
    v = int(s)
    if v < 2:
        raise ValueError(f"dimension must be >= 2, got {v}")
    return v


def _delta(s):
    v = float(s)
    if not 0.0 < v < 1.0:
        raise ValueError(f"delta must lie in (0, 1) for blow-up diagnostics, got {v}")
    return v


def _float_list(s):
    return [float(x) for x in s.replace(",", " ").split()]


def _int_list(s):
    return [int(x) for x in s.replace(",", " ").split()]


def _checked(parse, ok, what):
    """`parse`, then a ValueError unless `ok` holds for the parsed value."""
    def check(s):
        v = parse(s)
        if not ok(v):
            raise ValueError(f"must be {what}, got {s.strip()!r}")
        return v
    return check


_markers = _checked(_int, lambda v: v >= 2, ">= 2")
_sweep_a = _checked(_float_list, lambda v: v and min(v) > 0.0, "a nonempty list of positive values")
_sweep_delta = _checked(_float_list, lambda v: v and all(-1.0 < d < 1.0 for d in v),
                        "a nonempty list of values in (-1, 1)")
_seeds = _checked(_int_list, lambda v: min(v, default=0) >= 0, "nonnegative")
_limit_a = _checked(_float_list, lambda v: min(v, default=0.0) >= 0.0 and v == sorted(v),
                    "nonnegative and ascending")


def _str(s):
    return s.strip()


def _family(s):
    v = s.strip()
    allowed = ("bump",)
    if v not in allowed:
        raise ValueError(f"unknown initial data family {v!r} (allowed: {', '.join(allowed)})")
    return v


# schema: section -> key -> (parser, required, default)
_COMMON = {
    "experiment": {
        "mode": (_str, True, None),
        "seed": (_int, False, 0),
        "output_dir": (_str, False, "output"),
    },
    "params": {
        "n": (_dim, True, None),
        "a": (_pos_float, True, None),
        "g": (_pos_float, True, None),
    },
}

_SCHEMAS = {
    "nd_run": {
        **_COMMON,
        "grid": {
            "points_per_dim": (_even_int, False, 256),
            "half_width": (_pos_float, False, 4.0),
        },
        "initial_data": {
            "family": (_family, False, "bump"),
            "support_radius": (_pos_float, False, 2.0),
            "depth": (_pos_float, False, 1.0),
            "sharpness": (_pos_float, False, 4.0),
        },
        "stop": {
            "t_max": (_pos_float, False, 30.0),
            "gradient_factor": (_pos_float, False, 50.0),
        },
        "blowup": {
            "delta": (_delta, False, 0.25),
        },
        "output": {
            "interval": (_pos_float, False, 0.05),
            "snapshot_interval": (_pos_float, False, 0.5),
        },
    },
    "radial_run": {
        **_COMMON,
        "initial_data": {
            "family": (_family, False, "bump"),
            "support_radius": (_pos_float, False, 1.0),
            "depth": (_pos_float, False, 1.0),
            "sharpness": (_pos_float, False, 4.0),
        },
        "markers": {
            "count": (_markers, False, 512),
        },
        "stop": {
            "t_max": (_pos_float, False, 10.0),
            "gradient_factor": (_pos_float, False, 50.0),
        },
        "blowup": {
            "delta": (_delta, False, 0.25),
        },
        "output": {
            "interval": (_pos_float, False, 0.02),
        },
    },
    "inequality_sweep": {
        **_COMMON,
        "sweep": {
            "a_values": (_sweep_a, False, [0.25, 0.5, 1.0, 2.0, 4.0]),
            "delta_values": (_sweep_delta, False, [-0.5, -0.25, 0.0, 0.25, 0.5]),
            "spline_seeds": (_seeds, False, list(range(8))),
            "radii_per_decade": (_int, False, 7),
        },
    },
    "limit_report": {
        **_COMMON,
        "grid": {
            "points_per_dim": (_even_int, False, 128),
            "half_width": (_pos_float, False, 4.0),
        },
        "initial_data": {
            "family": (_family, False, "bump"),
            "support_radius": (_pos_float, False, 1.0),
            "depth": (_pos_float, False, 1.0),
            "sharpness": (_pos_float, False, 2.0),
        },
        "sweep": {
            "a_values": (_limit_a, False, [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 51.0]),
        },
    },
}


@dataclass
class ExperimentConfig:
    """Validated, fully defaulted experiment description."""

    mode: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def section(self, name) -> dict:
        return {k.split(".", 1)[1]: v for k, v in self.values.items()
                if k.startswith(name + ".")}

    def as_dict(self) -> dict:
        return {"mode": self.mode, **self.values}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an INI config; raises ConfigError listing every
    problem (unknown keys included) rather than the first one."""
    cp = configparser.ConfigParser(interpolation=None)
    errors = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"not parseable: {exc}"]) from exc
    mode = cp.get("experiment", "mode", fallback=None)
    if mode is None:
        raise ConfigError(["[experiment] mode is required"])
    if mode not in MODES:
        raise ConfigError([f"unknown mode {mode!r} (allowed: {', '.join(MODES)})"])
    schema = _SCHEMAS[mode]
    values = {}
    for sect in cp.sections():
        if sect not in schema:
            errors.append(f"unknown section [{sect}]")
            continue
        for key in cp[sect]:
            if key not in schema[sect]:
                errors.append(f"unknown key {key!r} in [{sect}]")
    for sect, keys in schema.items():
        for key, (parser, required, default) in keys.items():
            raw = cp.get(sect, key, fallback=None)
            if raw is None:
                if required:
                    errors.append(f"missing required key {key!r} in [{sect}]")
                else:
                    values[f"{sect}.{key}"] = default
                continue
            try:
                values[f"{sect}.{key}"] = parser(raw)
            except ValueError as exc:
                errors.append(f"[{sect}] {key}: {exc}")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(mode=mode, values=values)

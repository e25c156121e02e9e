"""Run configuration: defaults, YAML ingestion and dumping, overrides.

The defaults reproduce the reference simulation parameter set (telecom
C-band fiber, conservative 10 MHz laser, 1000 multiplexed wire pairs, 50
samples per decision). Config files are hierarchical YAML; command-line
flags override file values; a dumped effective config re-ingests to an
identical run. Unit conversions happen here and only here: config keys are
unit-suffixed, internal fields are plain.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError, DomainError, check_seed
from .physics import KljnLineParams, OpticalParams
from .protocol import Protocol
from .session import DEFAULT_BURST_BLOCK, Timing

__all__ = [
    "SweepSpec",
    "RunConfig",
    "KEYS",
    "default_config",
    "with_fields",
    "load_config",
    "config_to_mapping",
    "dump_config",
    "CONFIG_ENV_VAR",
]

CONFIG_ENV_VAR = "HYBRIDKD_CONFIG"

# libyaml's loader and dumper when PyYAML was built with it (several times
# faster, same objects and bytes), the pure-Python classes otherwise.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

DEFAULT_OPTICAL = OpticalParams(
    alpha=0.2,      # dB/km at 1550 nm
    mu=0.1,
    eta_d=0.1,
    p_d=1e-5,
    e_opt=0.015,
    f_ec=1.15,
    f_qkd=1e7,      # Hz
)

DEFAULT_KLJN = KljnLineParams(
    v=2e5,          # km/s in copper
    n_pairs=1000,
    n_samples=50,
    r_low=1e4,      # ohm; 1:10 ratio gives well separated variance bands
    r_high=1e5,
)


SPACINGS = ("linear", "log")
FORMATS = ("csv", "records")


@dataclass(frozen=True)
class SweepSpec:
    distance_min_km: float = 0.1
    distance_max_km: float = 10.0
    points: int = 200
    spacing: str = "log"


@dataclass(frozen=True)
class RunConfig:
    optical: OpticalParams = DEFAULT_OPTICAL
    kljn: KljnLineParams = DEFAULT_KLJN
    sweep: SweepSpec = SweepSpec()
    protocol: Protocol = Protocol.P2
    timing: Timing = Timing.GATED
    burst_block: int = DEFAULT_BURST_BLOCK
    distance_km: float = 2.0
    rounds: int = 100_000
    duration_s: float = 2.0
    ideal_classification: bool = True
    seed: int = 20260810
    bracket: tuple[float, float] = (1.0, 10.0)
    factor: float = 1.0
    out: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        try:
            check_seed(self.seed)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


def default_config() -> RunConfig:
    return RunConfig()


# (section, YAML key, RunConfig field) in dump order: the whole YAML surface.
# A dotted field reaches into the optical/kljn/sweep record. Each value is
# coerced by the type of the field's default; unknown keys are rejected.
KEYS = (
    ("optical", "alpha_db_per_km", "optical.alpha"),
    ("optical", "mu", "optical.mu"),
    ("optical", "eta_d", "optical.eta_d"),
    ("optical", "p_d", "optical.p_d"),
    ("optical", "e_opt", "optical.e_opt"),
    ("optical", "f_ec", "optical.f_ec"),
    ("optical", "f_qkd_hz", "optical.f_qkd"),
    ("kljn", "v_km_per_s", "kljn.v"),
    ("kljn", "n_pairs", "kljn.n_pairs"),
    ("kljn", "n_samples", "kljn.n_samples"),
    ("kljn", "r_low_ohm", "kljn.r_low"),
    ("kljn", "r_high_ohm", "kljn.r_high"),
    ("sweep", "distance_min_km", "sweep.distance_min_km"),
    ("sweep", "distance_max_km", "sweep.distance_max_km"),
    ("sweep", "points", "sweep.points"),
    ("sweep", "spacing", "sweep.spacing"),
    ("run", "protocol", "protocol"),
    ("run", "mode", "timing"),
    ("run", "distance_km", "distance_km"),
    ("run", "rounds", "rounds"),
    ("run", "duration_s", "duration_s"),
    ("run", "burst_block", "burst_block"),
    ("run", "ideal_classification", "ideal_classification"),
    ("run", "seed", "seed"),
    ("run", "bracket", "bracket"),
    ("run", "factor", "factor"),
    ("output", "path", "out"),
    ("output", "format", "format"),
)

# the string fields with a fixed set of values
_CHOICES = {"sweep.spacing": SPACINGS, "format": FORMATS}

# section -> {YAML key: field}, grouped once here rather than on every load
_SECTIONS = {
    section: {key: field for sec, key, field in KEYS if sec == section}
    for section, _, _ in KEYS
}


def _reject_unknown(section: dict, allowed: Any, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where!r}: {sorted(unknown, key=str)}")


_KIND_TEXT = {bool: "true or false", int: "a whole number", float: "a finite number"}


def _coerce(value: Any, kind: type, name: str) -> Any:
    """`value` as a `kind` (bool, int or float), or a ConfigError naming `name`.

    Bools must be YAML bools. Ints must be integral and floats finite, and
    neither may be a bool. Numeric strings count as numbers, because YAML
    1.1 reads exponents without a dot, such as 1e-5, as strings.
    """
    if kind is bool or isinstance(value, bool):
        if kind is bool and isinstance(value, bool):
            return value
    elif kind is int and isinstance(value, int):
        return value
    else:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ConfigError(f"{name} must be {_KIND_TEXT[kind]}, got {value!r}")


def _convert(value: Any, field: str, default: Any, name: str) -> Any:
    """A YAML value for `field`, coerced by the type of its `default`."""
    if isinstance(default, enum.Enum):
        try:
            return type(default)(str(value).lower())
        except ValueError:
            allowed = "/".join(member.value for member in type(default))
            raise ConfigError(f"{name} must be one of {allowed}, got {value!r}") from None
    if isinstance(default, tuple):
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(f"{name} must be a pair of distances, got {value!r}")
        return tuple(_coerce(d, float, name) for d in value)
    if field in _CHOICES:
        if str(value) not in _CHOICES[field]:
            raise ConfigError(f"{name} must be one of {'/'.join(_CHOICES[field])}, got {value!r}")
        return str(value)
    if default is None:  # output.path
        return None if value is None else str(value)
    return _coerce(value, type(default), name)


def with_fields(cfg: RunConfig, updates: dict[str, Any]) -> RunConfig:
    """`cfg` with the dotted field paths in `updates` replaced.

    Invalid values for the optical/kljn records raise ConfigError.
    """
    top: dict[str, Any] = {}
    records: dict[str, dict[str, Any]] = {}
    for path, value in updates.items():
        record, _, field = path.rpartition(".")
        if record:
            records.setdefault(record, {})[field] = value
        else:
            top[path] = value
    for record, fields in records.items():
        try:
            top[record] = dataclasses.replace(getattr(cfg, record), **fields)
        except DomainError as exc:
            raise ConfigError(f"{record}: {exc}") from exc
    return dataclasses.replace(cfg, **top) if top else cfg


def config_from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed YAML mapping over the defaults."""
    base = RunConfig()
    _reject_unknown(data, _SECTIONS, "top level")
    updates: dict[str, Any] = {}
    for section, fields in _SECTIONS.items():
        values = data.get(section)
        if values is None:
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        _reject_unknown(values, fields, section)
        for key, value in values.items():
            field = fields[key]
            default = attrgetter(field)(base)
            updates[field] = _convert(value, field, default, f"{section}.{key}")
    return with_fields(base, updates)


def load_config(path: str | os.PathLike | None) -> RunConfig:
    """Load YAML config from `path`, the env override, or defaults.

    Resolution order: explicit path, $HYBRIDKD_CONFIG, built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return default_config()
    try:  # ValueError: a file that is not UTF-8, or an int past Python's digit limit
        data = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        return default_config()
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a mapping")
    return config_from_mapping(data)


def config_to_mapping(cfg: RunConfig) -> dict:
    """Effective config as a YAML-ready mapping (inverse of ingestion)."""
    mapping: dict[str, dict] = {}
    for section, fields in _SECTIONS.items():
        mapping[section] = values = {}
        for key, field in fields.items():
            value = attrgetter(field)(cfg)
            if isinstance(value, enum.Enum):
                value = value.value
            values[key] = list(value) if isinstance(value, tuple) else value
    return mapping


def dump_config(cfg: RunConfig, path: str | os.PathLike) -> None:
    text = yaml.dump(config_to_mapping(cfg), Dumper=_DUMPER, sort_keys=False)
    Path(path).write_text(text, encoding="utf-8")

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
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError, DomainError
from .physics import KljnLineParams, OpticalParams
from .protocol import Protocol
from .session import (
    DEFAULT_BUFFER_CAPACITY,
    DEFAULT_BURST_BLOCK,
    Timing,
    TimingMode,
)

__all__ = [
    "SweepSpec",
    "RunConfig",
    "default_config",
    "load_config",
    "config_to_mapping",
    "dump_config",
    "CONFIG_ENV_VAR",
]

CONFIG_ENV_VAR = "HYBRIDKD_CONFIG"

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


@dataclass(frozen=True)
class SweepSpec:
    distance_min_km: float = 0.1
    distance_max_km: float = 10.0
    points: int = 200
    spacing: str = "log"


@dataclass(frozen=True)
class RunConfig:
    optical: OpticalParams
    kljn: KljnLineParams
    temperature_scale: float
    sweep: SweepSpec
    protocol: Protocol
    timing: Timing
    burst_block: int
    buffer_capacity: int
    distance_km: float
    rounds: int
    duration_s: float
    ideal_classification: bool
    seed: int
    bracket: tuple[float, float]
    factor: float
    out: str | None
    format: str

    def timing_mode(self) -> TimingMode:
        if self.timing is Timing.GATED:
            return TimingMode.gated()
        return TimingMode.buffered(self.buffer_capacity, self.burst_block)


def default_config() -> RunConfig:
    return RunConfig(
        optical=DEFAULT_OPTICAL,
        kljn=DEFAULT_KLJN,
        temperature_scale=1.0,
        sweep=SweepSpec(),
        protocol=Protocol.P2,
        timing=Timing.GATED,
        burst_block=DEFAULT_BURST_BLOCK,
        buffer_capacity=DEFAULT_BUFFER_CAPACITY,
        distance_km=2.0,
        rounds=100_000,
        duration_s=2.0,
        ideal_classification=True,
        seed=20260810,
        bracket=(1.0, 10.0),
        factor=1.0,
        out=None,
        format="csv",
    )


# config-key -> (section dataclass field, converter) tables keep the YAML
# surface explicit; unknown keys are rejected rather than ignored.

_OPTICAL_KEYS = {
    "alpha_db_per_km": "alpha",
    "mu": "mu",
    "eta_d": "eta_d",
    "p_d": "p_d",
    "e_opt": "e_opt",
    "f_ec": "f_ec",
    "f_qkd_hz": "f_qkd",
}

_KLJN_KEYS = {
    "v_km_per_s": "v",
    "n_pairs": "n_pairs",
    "n_samples": "n_samples",
    "r_low_ohm": "r_low",
    "r_high_ohm": "r_high",
}

_SWEEP_KEYS = ("distance_min_km", "distance_max_km", "points", "spacing")

_RUN_KEYS = (
    "protocol",
    "mode",
    "distance_km",
    "rounds",
    "duration_s",
    "burst_block",
    "buffer_capacity",
    "ideal_classification",
    "seed",
    "bracket",
    "factor",
    "temperature_scale",
)

_OUTPUT_KEYS = ("path", "format")

FORMATS = ("csv", "records")


def _require_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be a mapping")
    return value


def _reject_unknown(section: dict, allowed: Any, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where!r}: {sorted(unknown)}")


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
        except (TypeError, ValueError):
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ConfigError(f"{name} must be {_KIND_TEXT[kind]}, got {value!r}")


def _scalar(section: dict, key: str, default: Any, where: str) -> Any:
    """`section[key]` coerced to the type of its built-in `default`, else `default`."""
    if key not in section:
        return default
    return _coerce(section[key], type(default), f"{where}.{key}")


def config_from_mapping(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed YAML mapping over the defaults."""
    base = default_config()
    _reject_unknown(data, ("optical", "kljn", "sweep", "run", "output"), "top level")

    opt_sec = _require_mapping(data.get("optical"), "optical")
    _reject_unknown(opt_sec, _OPTICAL_KEYS, "optical")
    opt_fields = {
        f: _scalar(opt_sec, key, getattr(base.optical, f), "optical")
        for key, f in _OPTICAL_KEYS.items()
    }
    try:
        optical = OpticalParams(**opt_fields)
    except DomainError as exc:
        raise ConfigError(f"optical: {exc}") from exc

    kljn_sec = _require_mapping(data.get("kljn"), "kljn")
    _reject_unknown(kljn_sec, _KLJN_KEYS, "kljn")
    kljn_fields = {
        f: _scalar(kljn_sec, key, getattr(base.kljn, f), "kljn") for key, f in _KLJN_KEYS.items()
    }
    try:
        kljn = KljnLineParams(**kljn_fields)
    except DomainError as exc:
        raise ConfigError(f"kljn: {exc}") from exc

    sweep_sec = _require_mapping(data.get("sweep"), "sweep")
    _reject_unknown(sweep_sec, _SWEEP_KEYS, "sweep")
    sweep = SweepSpec(
        distance_min_km=_scalar(sweep_sec, "distance_min_km", base.sweep.distance_min_km, "sweep"),
        distance_max_km=_scalar(sweep_sec, "distance_max_km", base.sweep.distance_max_km, "sweep"),
        points=_scalar(sweep_sec, "points", base.sweep.points, "sweep"),
        spacing=str(sweep_sec.get("spacing", base.sweep.spacing)),
    )
    if sweep.spacing not in ("linear", "log"):
        raise ConfigError(f"sweep.spacing must be linear or log, got {sweep.spacing!r}")

    run_sec = _require_mapping(data.get("run"), "run")
    _reject_unknown(run_sec, _RUN_KEYS, "run")
    protocol = _parse_protocol(run_sec.get("protocol", base.protocol.value))
    timing = _parse_timing(run_sec.get("mode", base.timing.value))
    bracket = run_sec.get("bracket", list(base.bracket))
    if not (isinstance(bracket, (list, tuple)) and len(bracket) == 2):
        raise ConfigError(f"run.bracket must be a pair of distances, got {bracket!r}")
    bracket = tuple(_coerce(d, float, "run.bracket") for d in bracket)

    out_sec = _require_mapping(data.get("output"), "output")
    _reject_unknown(out_sec, _OUTPUT_KEYS, "output")
    fmt = str(out_sec.get("format", base.format))
    if fmt not in FORMATS:
        raise ConfigError(f"output.format must be one of {FORMATS}, got {fmt!r}")
    out = out_sec.get("path", base.out)

    def run(key: str) -> Any:
        return _scalar(run_sec, key, getattr(base, key), "run")

    return RunConfig(
        optical=optical,
        kljn=kljn,
        temperature_scale=run("temperature_scale"),
        sweep=sweep,
        protocol=protocol,
        timing=timing,
        burst_block=run("burst_block"),
        buffer_capacity=run("buffer_capacity"),
        distance_km=run("distance_km"),
        rounds=run("rounds"),
        duration_s=run("duration_s"),
        ideal_classification=run("ideal_classification"),
        seed=run("seed"),
        bracket=bracket,
        factor=run("factor"),
        out=None if out is None else str(out),
        format=fmt,
    )


def _parse_protocol(value: Any) -> Protocol:
    try:
        return Protocol(str(value).lower())
    except ValueError:
        raise ConfigError(
            f"protocol must be one of bb84/p1/p2/p3, got {value!r}"
        ) from None


def _parse_timing(value: Any) -> Timing:
    try:
        return Timing(str(value).lower())
    except ValueError:
        raise ConfigError(f"mode must be gated or buffered, got {value!r}") from None


def load_config(path: str | os.PathLike | None) -> RunConfig:
    """Load YAML config from `path`, the env override, or defaults.

    Resolution order: explicit path, $HYBRIDKD_CONFIG, built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return default_config()
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        return default_config()
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a mapping")
    return config_from_mapping(data)


def config_to_mapping(cfg: RunConfig) -> dict:
    """Effective config as a YAML-ready mapping (inverse of ingestion)."""
    return {
        "optical": {key: getattr(cfg.optical, f) for key, f in _OPTICAL_KEYS.items()},
        "kljn": {key: getattr(cfg.kljn, f) for key, f in _KLJN_KEYS.items()},
        "sweep": dataclasses.asdict(cfg.sweep),
        "run": {
            "protocol": cfg.protocol.value,
            "mode": cfg.timing.value,
            "distance_km": cfg.distance_km,
            "rounds": cfg.rounds,
            "duration_s": cfg.duration_s,
            "burst_block": cfg.burst_block,
            "buffer_capacity": cfg.buffer_capacity,
            "ideal_classification": cfg.ideal_classification,
            "seed": cfg.seed,
            "bracket": list(cfg.bracket),
            "factor": cfg.factor,
            "temperature_scale": cfg.temperature_scale,
        },
        "output": {"path": cfg.out, "format": cfg.format},
    }


def dump_config(cfg: RunConfig, path: str | os.PathLike) -> None:
    text = yaml.safe_dump(config_to_mapping(cfg), sort_keys=False)
    Path(path).write_text(text, encoding="utf-8")

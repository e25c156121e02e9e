"""Exception types shared across the package, and the checks of numeric arguments.

The CLI maps each class to a distinct process exit code, so library code
should raise these rather than bare ValueError/RuntimeError wherever the
failure is a user-facing condition. A mistyped, bool, fractional, non-finite
or oversized library argument is a DomainError naming it (a ConfigError from
`TimingMode`, `RunConfig` and YAML); so is a seed numpy would refuse or misread.
"""

from __future__ import annotations

import numpy as np

_FLOAT_MAX = float(np.finfo(np.float64).max)


class DomainError(ValueError):
    """An argument is outside its physical or mathematical domain."""


class SolverError(RuntimeError):
    """A numerical solver could not produce a result (e.g. no bracketed root)."""


class ConfigError(ValueError):
    """Invalid configuration or an inconsistent combination of options."""


def _shown(value) -> str:
    """repr(value), but an int past int64 as >= 2**k or <= -2**k (repr fails past 4,300 digits)."""
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        return f"{'<= -' if value < 0 else '>= '}2**{abs(value).bit_length() - 1}"
    return repr(value)


def check_int(value, name: str, ge: int = 0) -> None:
    """DomainError naming `name` unless `value` is an int (not a bool) in [ge, 2**63)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < ge:
        raise DomainError(f"{name} must be an integer >= {ge}, got {_shown(value)}")
    if value >= 2**63:
        raise DomainError(f"{name} must be < 2**63, got {_shown(int(value))}")


def check_real(value, name: str, *, gt=-np.inf, ge=-np.inf, lt=np.inf, le=np.inf) -> None:
    """DomainError naming `name` unless `value` is a finite real (not a bool) within the bounds."""
    if isinstance(value, np.generic):  # compare a numpy scalar as the Python number it holds
        value = value.item()
    if (isinstance(value, (float, int)) and not isinstance(value, bool)
            and -_FLOAT_MAX <= value <= _FLOAT_MAX and gt < value < lt and ge <= value <= le):
        return
    bounds = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
    limits = " and ".join(f"{op} {bound}" for op, bound in bounds if -np.inf < bound < np.inf)
    message = f"{name} must be a finite number {limits}".rstrip()
    raise DomainError(f"{message}, got {_shown(value)}")


def check_type(value, kind: type, name: str) -> None:
    """DomainError naming `name` unless `value` is a `kind`: a record, an enum member, a bool."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be {kind.__name__}, got {_shown(value)}")


def check_seed(seed) -> None:
    """DomainError naming `seed` unless it is a SeedSequence or an int in [0, 2**63).

    numpy would refuse -1 or 1.5 with its own bare error, and misread True as 1 and
    None as a request for fresh entropy. An int never touches (so never loads) `np.random`.
    """
    if isinstance(seed, (int, np.integer)) or not isinstance(seed, np.random.SeedSequence):
        check_int(seed, "seed")


def generator(rng) -> np.random.Generator:
    """`rng` itself if it is a Generator, else a new one seeded by `rng` (see `check_seed`)."""
    if not isinstance(rng, np.random.Generator):
        check_seed(rng)
    return np.random.default_rng(rng)

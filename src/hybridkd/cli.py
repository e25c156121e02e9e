"""Command-line front end.

Subcommands:
  sweep      rate/throughput table versus distance (csv or json records)
  trace      round-by-round protocol trace (bundled or user fixture, or
             seeded random rounds)
  simulate   Monte Carlo session with the analytic prediction and the
             deviation in sigma units
  crossover  distance where the hybrid throughput meets (factor times)
             the unthrottled baseline throughput

Every command is deterministic for a fixed config and seed: re-running
produces byte-identical output. Exit codes: 0 success, 2 configuration
error, 3 domain error, 4 solver failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from importlib import resources
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import protocol as proto
from . import rates, session
from .config import RunConfig
from .errors import ConfigError, DomainError, SolverError, check_int
from .protocol import Protocol
from .session import Timing, TimingMode

__all__ = ["main", "build_parser", "bundled_fixture_text"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SOLVER = 4
EXIT_IO = 5

# one sweep row per format: csv at 10 significant digits, stable for diffs; records as the
# bytes json.dumps writes, since every column is finite and a finite float's json is its repr
_CSV_ROW = ",".join(["%.9e"] * len(rates.RATE_POINT_FIELDS)) + "\n"
_RECORD_ROW = "{" + ", ".join(f'"{name}": %r' for name in rates.RATE_POINT_FIELDS) + "}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridkd",
        description="Hybrid optical/wire key distribution simulator and rate models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help=f"YAML config path (or ${cfgmod.CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=cfgmod.FORMATS, help="output format")
        p.add_argument("--dump-config", metavar="PATH",
                       help="write the effective config as YAML and continue")

    p_sweep = sub.add_parser("sweep", help="rates and throughputs versus distance")
    common(p_sweep)
    p_sweep.add_argument("--distance-min", type=float, dest="sweep.distance_min_km",
                         metavar="KM", help="sweep start [km]")
    p_sweep.add_argument("--distance-max", type=float, dest="sweep.distance_max_km",
                         metavar="KM", help="sweep end [km]")
    p_sweep.add_argument("--points", type=int, dest="sweep.points", metavar="N",
                         help="number of sweep points")
    p_sweep.add_argument("--spacing", choices=cfgmod.SPACINGS, dest="sweep.spacing",
                         help="grid spacing")

    p_trace = sub.add_parser("trace", help="round-by-round protocol trace")
    common(p_trace)
    p_trace.add_argument("--protocol", choices=[p.value for p in Protocol],
                         help="protocol to trace")
    p_trace.add_argument("--fixture",
                         help="fixture path with 'a_basis a_bit b_basis b_bit' lines; "
                              "'bundled' selects the packaged 14-round example")
    p_trace.add_argument("--rounds", type=int, default=14, dest="trace_rounds",
                         metavar="ROUNDS", help="random rounds to trace when no fixture is given")

    p_sim = sub.add_parser("simulate", help="Monte Carlo session vs analytic model")
    common(p_sim)
    p_sim.add_argument("--protocol", choices=[p.value for p in Protocol])
    p_sim.add_argument("--mode", choices=[t.value for t in Timing], dest="timing")
    p_sim.add_argument("--distance", type=float, dest="distance_km", metavar="KM",
                       help="link distance [km]")
    p_sim.add_argument("--rounds", type=int, help="gated-mode round count")
    p_sim.add_argument("--duration", type=float, dest="duration_s", metavar="S",
                       help="buffered-mode duration [s]")
    p_sim.add_argument("--burst-block", type=int, help="bits per buffered fill/drain cycle")
    p_sim.add_argument("--classification", choices=("ideal", "sampled"),
                       dest="ideal_classification", help="wire level classification model")

    p_cross = sub.add_parser("crossover", help="hybrid/baseline throughput crossover")
    common(p_cross)
    p_cross.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"),
                         help="search bracket [km km]")
    p_cross.add_argument("--factor", type=float,
                         help="throughput advantage factor (1 = plain crossover)")

    return parser


# fields whose flag's parsed value is not yet the field's value
_FLAG_VALUES = {
    "protocol": Protocol,
    "timing": Timing,
    "ideal_classification": lambda choice: choice == "ideal",
    "bracket": tuple,
}


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """`cfg` with the flags given; a flag's dest is its RunConfig field path."""
    updates = {}
    for _, _, field in cfgmod.KEYS:
        value = getattr(args, field, None)
        if value is not None:
            updates[field] = _FLAG_VALUES.get(field, lambda v: v)(value)
    return cfgmod.with_fields(cfg, updates)


def _emit(lines: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(lines)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


def _json_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def bundled_fixture_text() -> str:
    """The packaged 14-round worked example (one line per round)."""
    return (
        resources.files("hybridkd.data").joinpath("example_rounds.txt").read_text("utf-8")
    )


def cmd_sweep(cfg: RunConfig) -> Iterator[str]:
    """Lines formatted one at a time from `rates._sweep_columns`, evaluated before the first."""
    spec, fields = cfg.sweep, rates.RATE_POINT_FIELDS
    grid = (spec.distance_min_km, spec.distance_max_km, spec.points, spec.spacing)
    rows = zip(*[column.tolist() for column in rates._sweep_columns(cfg.optical, cfg.kljn, *grid)])
    if cfg.format == "csv":
        return itertools.chain([",".join(fields) + "\n"], (_CSV_ROW % row for row in rows))
    return (_RECORD_ROW % row for row in rows)


def cmd_trace(cfg: RunConfig, fixture: str | None, n_rounds: int) -> Iterator[str]:
    """The trace's lines; random rounds are drawn as their lines are read."""
    if fixture == "bundled":
        inputs = proto.parse_trace_fixture(bundled_fixture_text())
    elif fixture is not None:
        try:
            text = Path(fixture).read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"fixture {fixture} is not UTF-8 text: {exc}") from exc
        inputs = proto.parse_trace_fixture(text)
    else:
        check_int(n_rounds, "trace rounds", ge=1)
        inputs_rng = np.random.default_rng(cfg.seed)  # bound once: never the rounds' generator
        inputs = map(proto.random_inputs, itertools.repeat(inputs_rng, n_rounds))
    # Traces illustrate protocol logic on an ideal channel: every pulse
    # detected, no flips, classification from the actual resistor pair.
    channel = proto.ChannelModel(detection_prob=1.0, flip_prob=0.0)
    round_rng = np.random.default_rng(cfg.seed + 1)
    rounds = (proto.run_round(cfg.protocol, inp, channel, round_rng) for inp in inputs)
    return proto._trace_lines(rounds)


def cmd_simulate(cfg: RunConfig) -> str:
    point = rates.throughputs(cfg.optical, cfg.kljn, cfg.distance_km)
    t_gated = {Protocol.BB84: point.t_bb84, Protocol.P1: point.t_p1}.get(cfg.protocol, point.t_p23)

    if cfg.timing is Timing.GATED:
        stats = session.run_gated_session(
            cfg.protocol,
            cfg.optical,
            cfg.kljn,
            cfg.distance_km,
            cfg.rounds,
            cfg.seed,
            ideal_classification=cfg.ideal_classification,
        )
        mean, var = session.per_pulse_yield_moments(cfg.protocol, point.q_mu, point.gamma)
        observed = session.estimate_per_pulse_yield(stats)
        sigma = math.sqrt(var / stats.rounds_executed)
        analytic = {
            "expected_yield_per_pulse": mean,
            "observed_yield_per_pulse": observed,
            "sigma_per_pulse": sigma,
            "deviation_sigma": (observed - mean) / sigma if sigma > 0 else 0.0,
            "throughput_bps": t_gated,
        }
    else:
        stats = session.run_buffered_session(
            cfg.protocol,
            cfg.optical,
            cfg.kljn,
            cfg.distance_km,
            cfg.duration_s,
            cfg.seed,
            # a run of whole fill/drain cycles never holds more than one block
            mode=TimingMode.buffered(cfg.burst_block, cfg.burst_block),
            ideal_classification=cfg.ideal_classification,
        )
        analytic = {
            "gated_bound_bps": t_gated,
            "burst_throughput_bps": stats.burst_throughput_model_bps,
            "long_run_ratio_to_bound": stats.effective_throughput_bps / t_gated,
        }

    return _json_report({"stats": stats.to_dict(), "analytic": analytic})


def cmd_crossover(cfg: RunConfig) -> str:
    distance = rates.short_haul_supremacy_bound(
        cfg.optical, cfg.kljn, factor=cfg.factor, bracket=cfg.bracket
    )
    point = rates.throughputs(cfg.optical, cfg.kljn, distance)
    return _json_report(
        {
            "factor": cfg.factor,
            "bracket_km": list(cfg.bracket),
            "distance_km": distance,
            "t_p23_bps": point.t_p23,
            "t_bb84_bps": point.t_bb84,
            "factor_times_t_bb84_bps": cfg.factor * point.t_bb84,
        }
    )


_parser = functools.cache(build_parser)  # one parser per process: parsing does not change it


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.dump_config:
            cfgmod.dump_config(cfg, args.dump_config)
        if args.command == "sweep":
            lines = cmd_sweep(cfg)
        elif args.command == "trace":
            lines = cmd_trace(cfg, args.fixture, args.trace_rounds)
        elif args.command == "simulate":
            lines = [cmd_simulate(cfg)]
        else:
            lines = [cmd_crossover(cfg)]
        _emit(lines, cfg.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads: operations generated from a seed, and their checks.

A workload is an endless sequence of cycles. Cycle k is built from
`numpy.random.default_rng([seed, k])`, so it is the same on every run with
that seed however many cycles a run gets through, and every cycle holds
the same mix of operations. An operation is one public call into the
package; `finish` checks its output and returns the failed checks, the
bytes that go into the output digest, and the facts the metrics need.
The runner calls `finish` with tracing paused, so checks that call the
package leave no spans.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import reference as ref
from hybridkd import cli, config, rates, session
from hybridkd.protocol import Protocol
from hybridkd.session import TimingMode

SIGMA_LIMIT = 5.0       # ideal gated sessions against the closed-form yield
BUFFERED_TOLERANCE = 0.05  # ideal buffered throughput against the gated bound
FACTORS = (1.0, 1.5, 2.0, 4.0)
SOLVES_PER_FACTOR = 5
GATED_DISTANCES_KM = (0.5, 2.0, 5.0, 10.0)
# Sampled noise block = block * n_samples * 8 B: 1 MB, 4 MB and 16 MB at
# n_samples = 50, from inside a core's L2 to well beyond it.
BURST_BLOCKS = (2_500, 10_000, 40_000)
# Ideal P1 sessions need about 6e6 rounds for a 5-sigma margin on the
# 5% check at 3-6 km, where filling the buffer costs 0.7-1.3% of the bound.
BUFFERED_DISTANCE_KM = (3.0, 6.0)


@dataclass(frozen=True)
class Sizes:
    sweep_points: tuple[int, int]  # log-uniform range for library and CLI sweeps
    gated_rounds: int
    buffered_ideal_rounds: int
    buffered_sampled_rounds: int


FULL = Sizes(sweep_points=(50, 1000), gated_rounds=2_000,
             buffered_ideal_rounds=6_000_000, buffered_sampled_rounds=40_000)
TINY = Sizes(sweep_points=(10, 40), gated_rounds=100,
             buffered_ideal_rounds=6_000_000, buffered_sampled_rounds=1)


@dataclass
class Ctx:
    sizes: Sizes
    workdir: Path


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    finish: Callable[[Any], tuple[list[str], bytes, dict]]
    items: int  # simulated rounds, or distance points evaluated


def cycles(name: str, ctx: Ctx, seed: int, start: int) -> Iterator[list[Op]]:
    build = WORKLOADS[name]
    k = start
    while True:
        yield build(ctx, np.random.default_rng([seed, k]))
        k += 1


# --- rate_study ------------------------------------------------------------

def _log_uniform_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _bracket(rng: np.random.Generator) -> tuple[float, float]:
    # Every factor's root (1.4-7.6 km) lies inside.
    return float(rng.uniform(0.2, 1.0)), float(rng.uniform(8.0, 20.0))


def _format_sweep(points: list, fmt: str) -> str:
    fields = rates.RATE_POINT_FIELDS
    if fmt == "csv":
        rows = [",".join(fields)]
        rows += [",".join(f"{getattr(p, f):.9e}" for f in fields) for p in points]
    else:
        rows = [json.dumps({f: getattr(p, f) for f in fields}) for p in points]
    return "\n".join(rows) + "\n"


def _sweep_errors(optical, line, points, l_min, l_max, n) -> list[str]:
    if len(points) != n:
        return [f"sweep returned {len(points)} points, asked for {n}"]
    errors = []
    ends = (points[0].distance_km, points[-1].distance_km)
    if not (math.isclose(ends[0], l_min, rel_tol=1e-12) and math.isclose(ends[1], l_max, rel_tol=1e-12)):
        errors.append(f"sweep ends {ends} != ({l_min}, {l_max})")
    if any(p.r_p23 - p.r_p1 != 0.5 for p in points):
        errors.append("r_p23 - r_p1 != 0.5 at some point")
    if any(b.r_bb84 >= a.r_bb84 for a, b in zip(points, points[1:])):
        errors.append("r_bb84 not decreasing with distance")
    for p in (points[0], points[n // 2], points[-1]):
        r, r_p23, f_sys = ref.rates(optical, line, p.distance_km)
        if not (math.isclose(p.r_bb84, r, rel_tol=1e-9) and math.isclose(p.t_p23, r_p23 * f_sys, rel_tol=1e-9)):
            errors.append(f"rates at {p.distance_km} km differ from the closed form")
    return errors


def _root_errors(optical, line, root, factor, lo, hi) -> list[str]:
    if not lo < root < hi:
        return [f"root {root} outside bracket ({lo}, {hi})"]
    step = 1e-6
    if not ref.gap(optical, line, root - step, factor) > 0 > ref.gap(optical, line, root + step, factor):
        return [f"gap does not change sign around root {root} (factor {factor})"]
    return []


def _points_bytes(points: list) -> bytes:
    return json.dumps([dataclasses.astuple(p) for p in points]).encode()


def _sweep_op(optical, line, l_min, l_max, n, spacing) -> Op:
    def finish(points):
        return _sweep_errors(optical, line, points, l_min, l_max, n), _points_bytes(points), {}
    return Op("rates.sweep", lambda: rates.sweep(optical, line, l_min, l_max, n, spacing), finish, n)


def _solve_op(optical, line, factor, lo, hi) -> Op:
    def finish(root):
        return _root_errors(optical, line, root, factor, lo, hi), repr(root).encode(), {}
    call = lambda: rates.short_haul_supremacy_bound(optical, line, factor=factor, bracket=(lo, hi))
    return Op("rates.solve", call, finish, ref.bisection_evals(lo, hi))


def _cli_op(kind: str, argv: list[str], out: Path, items: int,
            check: Callable[[str], list[str]]) -> Op:
    def finish(code):
        if code != 0:
            return [f"cli {argv[0]} exited {code}"], b"", {}
        data = out.read_bytes()
        out.unlink()
        return check(data.decode("utf-8")), data, {"cli_bytes": len(data)}
    return Op(kind, lambda: cli.main(argv), finish, items)


def _cli_sweep_op(ctx: Ctx, cfg, cfg_path: Path, fmt: str, spec, flags: list[str]) -> Op:
    out = ctx.workdir / f"sweep.{fmt}"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out), "--format", fmt, *flags]

    def check(text: str) -> list[str]:
        points = rates.sweep(cfg.optical, cfg.kljn, spec.distance_min_km,
                             spec.distance_max_km, spec.points, spec.spacing)
        return [] if text == _format_sweep(points, fmt) else [f"cli sweep {fmt} differs from library"]
    return _cli_op(f"cli.sweep.{fmt}", argv, out, spec.points, check)


def _cli_crossover_op(ctx: Ctx, cfg, cfg_path: Path, factor, lo, hi) -> Op:
    out = ctx.workdir / "crossover.json"
    argv = ["crossover", "--config", str(cfg_path), "--out", str(out),
            "--factor", repr(factor), "--bracket", repr(lo), repr(hi)]

    def check(text: str) -> list[str]:
        report = json.loads(text)
        if report["factor"] != factor or report["bracket_km"] != [lo, hi]:
            return ["cli crossover report does not echo its inputs"]
        return _root_errors(cfg.optical, cfg.kljn, report["distance_km"], factor, lo, hi)
    return _cli_op("cli.crossover", argv, out, ref.bisection_evals(lo, hi), check)


def _sweep_spec(ctx: Ctx, rng: np.random.Generator, spacing: str) -> config.SweepSpec:
    return config.SweepSpec(float(rng.uniform(0.05, 0.2)), float(rng.uniform(8.0, 12.0)),
                            _log_uniform_int(rng, *ctx.sizes.sweep_points), spacing)


def rate_study(ctx: Ctx, rng: np.random.Generator) -> list[Op]:
    """Rate-versus-distance figures, supremacy bounds, the CLI and config I/O."""
    base = config.default_config()
    optical, line = base.optical, base.kljn
    cfg = dataclasses.replace(
        base,
        sweep=_sweep_spec(ctx, rng, "log"),
        distance_km=float(rng.uniform(0.5, 10.0)),
        seed=int(rng.integers(2**31)),
        factor=float(rng.choice(FACTORS)),
        bracket=_bracket(rng),
    )
    cfg_path = ctx.workdir / "config.yaml"

    def dumped(_):
        data = cfg_path.read_bytes()
        return ([] if data else ["dump_config wrote nothing"]), data, {}

    def loaded(got):
        return ([] if got == cfg else ["config changed in a dump/load round trip"]), repr(got).encode(), {}

    ops = [
        Op("config.dump", lambda: config.dump_config(cfg, cfg_path), dumped, 0),
        Op("config.load", lambda: config.load_config(cfg_path), loaded, 0),
    ]
    for spacing in ("linear", "log") * 3:
        spec = _sweep_spec(ctx, rng, spacing)
        ops.append(_sweep_op(optical, line, spec.distance_min_km, spec.distance_max_km,
                             spec.points, spacing))
    # Solves are the fastest operations. With 20 of the cycle's 31, the median
    # latency falls well inside them rather than on the edge of a mixture.
    for factor in FACTORS:
        for _ in range(SOLVES_PER_FACTOR):
            ops.append(_solve_op(optical, line, factor, *_bracket(rng)))
    ops.append(_cli_sweep_op(ctx, cfg, cfg_path, "csv", cfg.sweep, []))
    spec = _sweep_spec(ctx, rng, "linear")
    flags = ["--points", str(spec.points), "--spacing", spec.spacing,
             "--distance-min", repr(spec.distance_min_km), "--distance-max", repr(spec.distance_max_km)]
    ops.append(_cli_sweep_op(ctx, cfg, cfg_path, "records", spec, flags))
    ops.append(_cli_crossover_op(ctx, cfg, cfg_path, float(rng.choice(FACTORS)), *_bracket(rng)))
    return ops


# --- Monte Carlo sessions --------------------------------------------------

def _session_facts(stats, ideal: bool, block_bytes: int = 0) -> dict:
    return {
        "session": stats.timing, "ideal": ideal, "rounds": stats.rounds_executed,
        "qkd_bits": stats.qkd_bits, "qkd_errors": stats.qkd_errors,
        "flagged": stats.flagged_rounds, "discarded": stats.discarded_rounds,
        "block_bytes": block_bytes,
    }


def _stats_bytes(stats) -> bytes:
    return json.dumps(stats.to_dict(), sort_keys=True).encode()


def _session_errors(protocol: Protocol, stats, rounds: int) -> list[str]:
    errors = []
    if stats.rounds_executed != rounds:
        errors.append(f"ran {stats.rounds_executed} rounds, expected {rounds}")
    if (gap := ref.accounting_gap(protocol.value, stats)) != 0:
        errors.append(f"{protocol.value} {stats.timing} accounting off by {gap} rounds")
    return errors


def _gated_op(optical, line, protocol: Protocol, distance, n_rounds, seed, ideal) -> Op:
    def finish(stats):
        errors = _session_errors(protocol, stats, n_rounds)
        if ideal:
            q, gamma = ref.budget(optical, distance)
            mean, var = ref.yield_moments(protocol.value, q, gamma)
            observed = (stats.qkd_bits * (1.0 - gamma) + stats.kljn_bits) / n_rounds
            sigma = math.sqrt(var / n_rounds)
            if abs(observed - mean) > SIGMA_LIMIT * sigma:
                errors.append(f"{protocol.value} at {distance:.3f} km: yield {observed:.6f} vs "
                              f"{mean:.6f} is {abs(observed - mean) / sigma:.1f} sigma off")
        return errors, _stats_bytes(stats), _session_facts(stats, ideal)

    call = lambda: session.run_gated_session(protocol, optical, line, distance, n_rounds, seed,
                                             ideal_classification=ideal)
    return Op(f"session.gated.{'ideal' if ideal else 'sampled'}", call, finish, n_rounds)


def mc_gated(ctx: Ctx, rng: np.random.Generator) -> list[Op]:
    """All four protocols, 0.5-10 km, ideal and sampled classification."""
    base = config.default_config()
    ops = []
    for d0 in GATED_DISTANCES_KM:
        distance = float(np.clip(d0 * rng.uniform(0.9, 1.1), 0.5, 10.0))
        for protocol in Protocol:
            for ideal in (True, False):
                ops.append(_gated_op(base.optical, base.kljn, protocol, distance,
                                     ctx.sizes.gated_rounds, int(rng.integers(2**31)), ideal))
    return ops


def _buffered_op(optical, line, protocol: Protocol, distance, block, n_cycles, seed, ideal) -> Op:
    cycle_s = block / ref.kljn_rate(line, distance) + block / optical.f_qkd
    duration = (n_cycles + 0.5) * cycle_s
    rounds = n_cycles * block

    def finish(stats):
        errors = _session_errors(protocol, stats, rounds)
        if ideal:
            r, r_p23, f_sys = ref.rates(optical, line, distance)
            bound = (r if protocol is Protocol.P1 else r_p23) * f_sys
            ratio = stats.effective_throughput_bps / bound
            if abs(ratio - 1.0) > BUFFERED_TOLERANCE:
                errors.append(f"{protocol.value} buffered at {distance:.3f} km, block {block}: "
                              f"{ratio:.4f} of the gated bound")
        block_bytes = 0 if ideal else block * line.n_samples * 8
        return errors, _stats_bytes(stats), _session_facts(stats, ideal, block_bytes)

    mode = TimingMode.buffered(block, block)
    call = lambda: session.run_buffered_session(protocol, optical, line, distance, duration, seed,
                                                mode=mode, ideal_classification=ideal)
    return Op(f"session.buffered.{'ideal' if ideal else 'sampled'}", call, finish, rounds)


def mc_buffered(ctx: Ctx, rng: np.random.Generator) -> list[Op]:
    """P1/P2 buffered sessions over burst blocks that outgrow the L2 cache."""
    base = config.default_config()
    ops = []
    for protocol in (Protocol.P1, Protocol.P2):
        for block in BURST_BLOCKS:
            # Two sampled sessions per block, and two ideal ones at the smallest
            # block, the slowest sessions: the median and the 90th percentile
            # then fall inside a group of alike sessions, not between two.
            for ideal in (True, True, False, False) if block == BURST_BLOCKS[0] else (True, False, False):
                rounds = ctx.sizes.buffered_ideal_rounds if ideal else ctx.sizes.buffered_sampled_rounds
                ops.append(_buffered_op(base.optical, base.kljn, protocol,
                                        float(rng.uniform(*BUFFERED_DISTANCE_KM)), block,
                                        max(1, rounds // block), int(rng.integers(2**31)), ideal))
    return ops


WORKLOADS = {"rate_study": rate_study, "mc_gated": mc_gated, "mc_buffered": mc_buffered}

"""Per-layer timings, on whichever `hybridkd` is importable: one JSON line.

    PYTHONPATH=<tree>/src python3 tools/layers.py

Prints `{"metrics": {...}, "output_digest": ...}`, the shape of one side of a
`tools/bench.py` pair; `METRICS` names each number and which way is better.
Each number is the median over REPEATS timed batches (`time.perf_counter`)
of a fixed number of calls, at the default parameters:
`throughputs` µs per call at 2 km, `sweep` points/s at 40, 1e3 and 1e5 log
points over (0.1, 10) km, `crossover_distance` ms per solve and its number of
evaluations (calls of the function `rates._brent` is given); `draw_span` ms
per 65,536 ideal rounds and `draw_block` ms per 2,000 sampled ones (P2 at 2
km, on one `default_rng(1)` per number), and a gated session's ms, ideal and
sampled (P2 at 2 km, 2,000 rounds, seed 1). A number whose function the package lacks is null, so the
harness measures trees from before and after such a change. The digest is the
sha256 of the values computed, so equal digests mean equal bits.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import time

import numpy as np

REPEATS = 5
SWEEP_POINTS = (40, 1_000, 100_000)
SPAN_ROUNDS, SESSION_ROUNDS = 65_536, 2_000
METRICS = {"throughputs_us": "lower",
           **{f"sweep_points_per_s_{n}": "higher" for n in SWEEP_POINTS},
           "crossover_ms": "lower", "crossover_evals": "lower", "draw_span_ms": "lower",
           "draw_block_ms": "lower", "gated_session_ms_ideal": "lower",
           "gated_session_ms_sampled": "lower"}


def lookup(module: str, name: str):
    """`module.name` from the package, or None where the package lacks it."""
    try:
        return getattr(importlib.import_module(f"hybridkd.{module}"), name)
    except (ImportError, AttributeError):
        return None


def per_call(fn, batch: int) -> float:
    """Seconds per call of fn(), the median over REPEATS batches of `batch` calls."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - start) / batch)
    return statistics.median(times)


def counted_evaluations(rates, solve) -> int | None:
    """The evaluations of one solve(): calls of each function `rates._brent` is given.

    Counted by wrapping `rates._brent`, so an evaluation counts whatever path it
    takes; None where the package has no `_brent`.
    """
    brent, calls = getattr(rates, "_brent", None), []
    if brent is None:
        return None

    def counting_brent(f, *args):
        def counted(x):
            calls.append(x)
            return f(x)
        return brent(counted, *args)

    rates._brent = counting_brent
    try:
        solve()
    finally:
        rates._brent = brent
    return len(calls)


def measure_rounds(optical, line, metrics: dict, values: list) -> None:
    """The round engine's and gated sessions' numbers into `metrics`, their outputs to `values`."""
    link_budget = lookup("physics", "link_budget")
    channel_model = lookup("protocol", "ChannelModel")
    p2 = getattr(lookup("protocol", "Protocol"), "P2", None)
    if link_budget is None or channel_model is None or p2 is None:
        return
    ideal = channel_model(link_budget(optical, 2.0).q_mu, optical.e_opt)
    sampled = channel_model(ideal.detection_prob, ideal.flip_prob, line)
    for name, channel, n, batch in (("draw_span", ideal, SPAN_ROUNDS, 20),
                                    ("draw_block", sampled, SESSION_ROUNDS, 5)):
        draw = lookup("protocol", name)
        if draw is not None:
            gen = np.random.default_rng(1)
            metrics[f"{name}_ms"] = 1e3 * per_call(lambda: draw(p2, channel, gen, n), batch)
            masks = draw(p2, channel, np.random.default_rng(1), n)
            values.append([None if m is None else np.packbits(m).tobytes() for m in masks])
    gated = lookup("session", "run_gated_session")
    if gated is not None:
        for kind, batch in (("ideal", 100), ("sampled", 5)):
            session = lambda: gated(p2, optical, line, 2.0, SESSION_ROUNDS, 1, kind == "ideal")
            metrics[f"gated_session_ms_{kind}"] = 1e3 * per_call(session, batch)
            values.append(session())


def measure() -> dict:
    """The metrics and output digest of the importable package."""
    optical, line = lookup("config", "DEFAULT_OPTICAL"), lookup("config", "DEFAULT_KLJN")
    throughputs, sweep = lookup("rates", "throughputs"), lookup("rates", "sweep")
    crossover = lookup("rates", "crossover_distance")
    metrics, values = dict.fromkeys(METRICS), []
    if optical is None or line is None:
        return {"metrics": metrics, "output_digest": None}
    if throughputs is not None:
        metrics["throughputs_us"] = 1e6 * per_call(lambda: throughputs(optical, line, 2.0), 2_000)
        values.append(throughputs(optical, line, 2.0))
    if sweep is not None:
        for n in SWEEP_POINTS:
            seconds = per_call(lambda: sweep(optical, line, 0.1, 10.0, n), max(1, 20_000 // n))
            metrics[f"sweep_points_per_s_{n}"] = n / seconds
        values.append(sweep(optical, line, 0.1, 10.0, SWEEP_POINTS[1]))
    if crossover is not None:
        solve = lambda: crossover(optical, line)
        metrics["crossover_ms"] = 1e3 * per_call(solve, 20)
        metrics["crossover_evals"] = counted_evaluations(
            importlib.import_module("hybridkd.rates"), solve)
        values.append(solve())
    measure_rounds(optical, line, metrics, values)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    return {"metrics": metrics, "output_digest": digest}


if __name__ == "__main__":
    print(json.dumps(measure()))

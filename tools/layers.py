"""Per-layer timings of the closed form, on whichever `hybridkd` is importable: one JSON line.

    PYTHONPATH=<tree>/src python3 tools/layers.py

Prints `{"metrics": {...}, "output_digest": ...}`, the shape of one side of a
`tools/bench.py` pair. Each number is the median over REPEATS timed batches
(`time.perf_counter`) of a fixed number of calls, at the default parameters:
`throughputs` µs per call at 2 km, `sweep` points/s at 40, 1e3 and 1e5 log
points over (0.1, 10) km, `crossover_distance` ms per solve and its number of
`rates.throughputs` evaluations. A number whose function the package lacks is
null, so the harness measures trees from before and after such a change. The
digest is the sha256 of the values computed, so equal digests mean equal bits.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import time

REPEATS = 5
SWEEP_POINTS = (40, 1_000, 100_000)
METRICS = ("throughputs_us", *(f"sweep_points_per_s_{n}" for n in SWEEP_POINTS),
           "crossover_ms", "crossover_evals")


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


def counted_evaluations(rates, solve) -> int:
    """The `rates.throughputs` calls of one solve(), counted by wrapping the module's name."""
    throughputs, calls = rates.throughputs, []

    def counting(*args):
        calls.append(args)
        return throughputs(*args)

    rates.throughputs = counting
    try:
        solve()
    finally:
        rates.throughputs = throughputs
    return len(calls)


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
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    return {"metrics": metrics, "output_digest": digest}


if __name__ == "__main__":
    print(json.dumps(measure()))

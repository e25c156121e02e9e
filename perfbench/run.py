"""Benchmark for the hybridkd package, run against `src/` without installing it.

    python3 perfbench/run.py --workload rate_study --seed 1 --seconds 10 --trace 0

With `--trace 0` the run times whole cycles of the workload's operations
for at least `--seconds` and 100 operations, and reports the end-to-end
metrics. With `--trace 1` it runs each operation of a fixed number of cycles
twice, plain and with every package boundary wrapped in spans, and
reports the per-layer metrics and the tracing overhead. Both modes check every output.
The last line of stdout is the result as JSON; the full report goes to
`perfbench/results/`. Everything runs in this one process with no worker
threads; `setup_s` times fresh interpreters, one at a time, between cycles.
See `perfbench/README.md` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

MIN_OPS = 100
SETUP_MIN_SAMPLES = 7
SETUP_EVERY_S = 2.0
SETUP_CODE = "import hybridkd.cli\nfrom hybridkd.config import default_config\ndefault_config()"
# Cycles in each pass of a traced run: fixed work, so counts repeat exactly.
TRACE_CYCLES = {"rate_study": 40, "mc_gated": 2, "mc_buffered": 2}
SESSION_KINDS = [(mode, cls) for mode in ("gated", "buffered") for cls in ("ideal", "sampled")]


class SetupTimer:
    """Times fresh interpreters that import the CLI and build the default config.

    Samples are spread over the run, between cycles, so that their median
    sees the same machine as the workload's own timings.
    """

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        subprocess.run(self.cmd, env=self.env, check=True)  # compile bytecode once, untimed
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SETUP_EVERY_S


def machine_info(numpy_version: str) -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu": platform.processor(),
        "caches": {},  # one instance each, as cpu0 sees them
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # not Linux, or no sysfs: the report goes without these
    return info


class Tally:
    """What one pass of operations did: timings, failures and session counts."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_bytes = 0
        self.block_bytes = 0
        self.sessions = collections.defaultdict(collections.Counter)

    def add(self, op, seconds: float, errors: list[str], facts: dict) -> None:
        self.attempted += 1
        self.op_s.append(seconds)
        self.items += op.items
        if errors:
            self.failures.append(f"{op.kind}: " + "; ".join(errors))
        self.cli_bytes += facts.get("cli_bytes", 0)
        if "session" in facts:
            s = self.sessions[(facts["session"], "ideal" if facts["ideal"] else "sampled")]
            s["sessions"] += 1
            s["seconds"] += seconds
            for key in ("rounds", "qkd_bits", "qkd_errors", "flagged", "discarded"):
                s[key] += facts[key]
            self.block_bytes = max(self.block_bytes, facts["block_bytes"])

    def fail(self, op, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{op.kind}: {message}")


def run_op(op, tally: Tally, tracer=None, digest=None) -> None:
    t0 = time.perf_counter()
    try:
        out = tracer.call(f"op.{op.kind}", op.call) if tracer else op.call()
        seconds = time.perf_counter() - t0
        with tracer.paused() if tracer else nullcontext():
            errors, blob, facts = op.finish(out)
    except Exception as exc:  # a failing operation is counted, and the run goes on
        tally.fail(op, repr(exc))
        return
    tally.add(op, seconds, errors, facts)
    if digest is not None:
        digest.update(op.kind.encode() + b"\0" + blob + b"\0")


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    op_ms = [s * 1e3 for s in tally.op_s]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (tally.items / sum(tally.op_s), "1/s"),
        "op_ms_p50": (deciles[4], "ms"),
        "op_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(summary: dict, plain: Tally, traced: Tally, n_samples: int, n_spans: int) -> dict:
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    protocols = ("bb84", "p1", "p2", "p3")
    solves = get("rates.solve", "calls")
    decisions = get("kljn.classify_level", "calls") + traced.sessions[("buffered", "sampled")]["rounds"]
    all_sessions = sum(plain.sessions.values(), collections.Counter())
    m = {
        "physics.link_budget.calls": (get("physics.link_budget", "calls"), "count"),
        "physics.link_budget.self_us": (get("physics.link_budget", "self_ns") / 1e3, "us"),
        "physics.system_transmittance.per_budget": (
            _ratio(get("physics.system_transmittance", "calls"), get("physics.link_budget", "calls")), "ratio"),
        "rates.throughputs.calls": (get("rates.throughputs", "calls"), "count"),
        "rates.throughputs.self_us": (get("rates.throughputs", "self_ns") / 1e3, "us"),
        "rates.sweep.busy_ms": (get("rates.sweep", "total_ns") / 1e6, "ms"),
        "rates.solve.evals": (
            _ratio(summary.get("rates.throughputs", {}).get("by_parent", {}).get("rates.solve", 0), solves), "count"),
        "rates.solve.ms": (_ratio(get("rates.solve", "total_ns") / 1e6, solves), "ms"),
        "cli.main.calls": (get("cli.main", "calls"), "count"),
        "cli.main.self_ms": (_ratio(get("cli.main", "self_ns") / 1e6, get("cli.main", "calls")), "ms"),
        "cli.output_bytes": (traced.cli_bytes, "bytes"),
        "config.load_config.ms": (
            _ratio(get("config.load_config", "total_ns") / 1e6, get("config.load_config", "calls")), "ms"),
        "config.dump_config.ms": (
            _ratio(get("config.dump_config", "total_ns") / 1e6, get("config.dump_config", "calls")), "ms"),
        "protocol.run_round.calls": (sum(get(f"protocol.run_round.{p}", "calls") for p in protocols), "count"),
        **{f"protocol.run_round.{p}.self_us": (get(f"protocol.run_round.{p}", "self_ns") / 1e3, "us")
           for p in protocols},
        "protocol.random_inputs.calls": (get("protocol.random_inputs", "calls"), "count"),
        "protocol.random_inputs.self_us": (get("protocol.random_inputs", "self_ns") / 1e3, "us"),
        "kljn.sample_line.calls": (get("kljn.sample_line", "calls"), "count"),
        "kljn.sample_line.self_us": (get("kljn.sample_line", "self_ns") / 1e3, "us"),
        "kljn.classify_level.calls": (get("kljn.classify_level", "calls"), "count"),
        "kljn.variance_thresholds.per_decision": (
            _ratio(get("kljn.variance_thresholds", "calls"), decisions), "ratio"),
        "kljn.noise_draws": (decisions * n_samples, "count"),
        **{f"session.{mode}.{cls}.rounds_per_s": (
            _ratio(plain.sessions[(mode, cls)]["rounds"], plain.sessions[(mode, cls)]["seconds"]), "1/s")
           for mode, cls in SESSION_KINDS},
        "session.gated.self_frac": (
            _ratio(get("session.gated", "self_ns"), get("session.gated", "total_ns")), "fraction"),
        "session.buffered.block_bytes": (plain.block_bytes, "bytes"),
        "session.key_rounds_frac": (
            _ratio(all_sessions["rounds"] - all_sessions["flagged"] - all_sessions["discarded"],
                   all_sessions["rounds"]), "fraction"),
        "session.flagged_frac": (_ratio(all_sessions["flagged"], all_sessions["rounds"]), "fraction"),
        **{f"session.qkd_err_rate.{mode}_sampled": (
            _ratio(plain.sessions[(mode, "sampled")]["qkd_errors"], plain.sessions[(mode, "sampled")]["qkd_bits"]),
            "fraction") for mode in ("gated", "buffered")},
        "trace.overhead_s": (sum(traced.op_s) - sum(plain.op_s), "s"),
        "trace.overhead_frac": (_ratio(sum(traced.op_s) - sum(plain.op_s), sum(plain.op_s)), "fraction"),
        "trace.spans": (n_spans, "count"),
    }
    return m


def session_counts(tally: Tally) -> dict:
    return {f"{mode}_{cls}": dict(tally.sessions[(mode, cls)]) for mode, cls in SESSION_KINDS
            if tally.sessions[(mode, cls)]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rate_study", "mc_gated", "mc_buffered"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every operation, for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hybridkd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'hybridkd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hybridkd
    if SRC not in Path(hybridkd.__file__).resolve().parents:
        print(f"perfbench: imported hybridkd from {hybridkd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import workloads
    from hybridkd.config import default_config
    from tracer import Tracer, summarize

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    tracer = Tracer()
    ctx = workloads.Ctx(workloads.TINY if args.size == "tiny" else workloads.FULL, workdir)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "size": args.size, "machine": machine_info(np.__version__)}
    try:
        digest = hashlib.sha256()
        warm = Tally()
        # Cycle 0 warms caches and lazy set-up, and is the cycle the digest covers.
        for op in next(workloads.cycles(args.workload, ctx, args.seed, 0)):
            run_op(op, warm, digest=digest)
        if args.trace:
            fixed = [ops for ops, _ in zip(workloads.cycles(args.workload, ctx, args.seed, 1),
                                           range(TRACE_CYCLES[args.workload]))]
            plain, traced = Tally(), Tally()
            # Each operation runs plain and traced back to back, in alternating
            # order, so the overhead compares the same work on the same machine.
            for i, op in enumerate(op for ops in fixed for op in ops):
                for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                    if with_spans:
                        with tracer.active():
                            run_op(op, traced, tracer)
                    else:
                        run_op(op, plain)
            spans = tracer.table()
            summary = summarize(tracer.names, spans)
            spans_file = RESULTS / f"{name}.spans.npz"
            tracer.save(spans_file)
            metrics = per_layer(summary, plain, traced, default_config().kljn.n_samples, len(spans))
            passes = (warm, plain, traced)
            report.update(spans_file=spans_file.name, spans=summary, untraced_s=sum(plain.op_s),
                          traced_s=sum(traced.op_s), session_counts=session_counts(plain))
        else:
            timed, setup = Tally(), SetupTimer()
            min_ops = MIN_OPS if args.size == "full" else 1
            start = time.perf_counter()
            for ops in workloads.cycles(args.workload, ctx, args.seed, 1):
                for op in ops:
                    run_op(op, timed)
                if setup.due():
                    setup.sample()
                if time.perf_counter() - start >= args.seconds and timed.attempted >= min_ops:
                    break
            while len(setup.samples) < SETUP_MIN_SAMPLES:
                setup.sample()
            metrics = end_to_end(timed, setup.samples)
            passes = (warm, timed)
            kind = "rate_points_per_s" if args.workload == "rate_study" else "sim_rounds_per_s"
            report.update(setup_s_samples=setup.samples, operations=len(timed.op_s),
                          measured_s=time.perf_counter() - start,
                          session_counts=session_counts(timed),
                          **{kind: metrics["items_per_s"][0]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if not args.trace:
        metrics["check_pass_frac"] = (1.0 - len(failures) / attempted, "fraction")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result, check_fail_frac=len(failures) / attempted, failures=failures[:50],
                  output_digest=digest.hexdigest())
    (RESULTS / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    for failure in failures[:10]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"perfbench: {name}: digest {digest.hexdigest()[:16]}, report in {RESULTS / name}.json",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

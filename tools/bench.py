"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench.py --parent HEAD --pr <pr> --run mc_gated:1,3:10 --cli 3 --layers 10

Exports both trees into a temporary directory, removed afterwards: the parent
with `git archive`, the change as `git archive HEAD` plus the working tree's
`git diff-index -p --binary HEAD -- src perfbench`, a plumbing diff that no
user diff setting alters. An untracked file there would run unrecorded, so it
stops the run. Each `--run WORKLOAD:SEEDS:PAIRS` runs
`perfbench/run.py` once in each tree per pair; `--cli REPEATS` times each
criterion-8 command of the acceptance suite as a whole `python3 -m hybridkd`
process, REPEATS pairs per command, reading its wall time and peak RSS;
`--layers PAIRS` runs the working tree's
`tools/layers.py` on each tree's package, PAIRS pairs, for the per-layer
numbers of the closed form, the round engine and gated sessions. Which tree
runs first switches from pair to pair, the parent first. `BENCH_<pr>.json`
at the repo root holds the machine block, both commits and the diff's
sha256, and per run, command or harness every pair, the output digests and, per metric, each side's median and quartiles
and the pairs the working tree won, by the metric's `better` in
BENCHMARK.json (`CLI_METRICS` for a command, `METRICS` in tools/layers.py
for the harness; ties count for neither side). A harness number that is null on a
side, its function missing from that tree, gives that side null quartiles
and wins neither side a pair.
Exits 1 after writing the file if any run failed the benchmark's own checks,
naming each such run's workload, seed, pair and side.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LAYERS = ROOT / "tools" / "layers.py"
# The criterion-8 commands of tests/test_acceptance.py (each also gets `--out FILE`).
CLI_COMMANDS = (
    ("sweep", "--points", "40"),
    ("trace", "--fixture", "bundled", "--protocol", "p3"),
    ("trace", "--rounds", "12", "--protocol", "p2", "--seed", "88"),
    ("simulate", "--protocol", "p2", "--distance", "2", "--rounds", "20000", "--seed", "88"),
    ("simulate", "--protocol", "p1", "--mode", "buffered", "--distance", "2", "--duration", "0.3",
     "--burst-block", "2000", "--seed", "88"),
    ("crossover", "--factor", "2"),
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path, diff: bytes = b"") -> None:
    """The files of commit `rev`, as `git archive` packs them, with `diff` applied, in `dest`."""
    dest.mkdir()
    tar = dest.with_suffix(".tar")
    git("archive", "--output", str(tar), rev)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    if diff:  # the ceiling keeps `git apply` from taking an enclosing repository for dest's own
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(dest.parent))
        subprocess.run(["git", "apply", "--binary", "--whitespace=nowarn", "-"], cwd=dest,
                       env=env, input=diff, check=True)


def parse_run(spec: str) -> tuple[str, list[int], int]:
    """`WORKLOAD:SEEDS:PAIRS`, e.g. `mc_gated:1,3:10`, as (workload, seeds, pairs)."""
    try:
        workload, seeds, pairs = spec.split(":")
        parsed = workload, [int(s) for s in seeds.split(",")], int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS:PAIRS, got {spec!r}") from None
    if parsed[2] < 1:
        raise argparse.ArgumentTypeError(f"need at least one pair, got {spec!r}")
    return parsed


def run_once(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One untraced `perfbench/run.py` run in `tree`: its result line and its report's digest."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--size", size]
    out = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    report_path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    report = json.loads(report_path.read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "operations": report["operations"],
        "output_digest": report["output_digest"],
        "machine": report["machine"],
    }


def cli_command(tree: Path, argv: tuple[str, ...], out: Path) -> tuple[list[str], dict]:
    """The `python3 -m hybridkd` command line of `argv` on `tree`'s package, and its environment."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return [sys.executable, "-m", "hybridkd", *argv, "--out", str(out)], env


# Runs argv[1:], stdout to /dev/null; prints its wall seconds, exit code and ru_maxrss (KiB).
_REAP = """import os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
CLI_METRICS = {"seconds": "lower", "peak_rss_mb": "lower"}


def time_cli(tree: Path, argv: tuple[str, ...], out: Path) -> dict:
    """One CLI process's wall time and peak RSS, and the sha256 of the file it wrote.

    `_REAP`, a small process, spawns and reaps the command: Linux starts a child's
    ru_maxrss at its spawner's peak, so the floor is about 14 MB, whatever this
    process holds. A nonzero exit raises CalledProcessError.
    """
    cmd, env = cli_command(tree, argv, out)
    reaped = subprocess.run([sys.executable, "-c", _REAP, *cmd], cwd=tree, env=env, check=True,
                            stdout=subprocess.PIPE, text=True).stdout
    seconds, code, max_rss_kib = reaped.split()
    if int(code):
        raise subprocess.CalledProcessError(int(code), cmd)
    return {"metrics": {"seconds": float(seconds), "peak_rss_mb": int(max_rss_kib) / 1024},
            "output_digest": hashlib.sha256(out.read_bytes()).hexdigest()}


def layer_better() -> dict[str, str]:
    """The numbers tools/layers.py prints, and which way is better: its `METRICS`."""
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.METRICS


def time_layers(tree: Path) -> dict:
    """One `tools/layers.py` process on `tree`'s package: its numbers and their digest."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, str(LAYERS)], cwd=tree, env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def quartiles(values: list[float]) -> dict | None:
    if None in values:  # a number the tree has no function for
        return None
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the change's wins and the ratio of the medians."""
    summary = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
                   if None not in (p, c))
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent, change = sides["parent"], sides["change"]
        summary[name] = {
            **sides,
            "parent_iqr": parent["q3"] - parent["q1"] if parent else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "ratio": change["median"] / parent["median"]
            if parent and change and parent["median"] else None,
        }
    return summary


def alternate(label: dict, n_pairs: int, better: dict[str, str], shown: str, measure) -> dict:
    """`label`'s entry: `n_pairs` pairs of `measure(side)`, the parent first in pair 1."""
    pairs = []
    for i in range(n_pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({"first": order[0], **{side: measure(side) for side in order}})
        print(f"bench: {' '.join(f'{k} {v}' for k, v in label.items())} pair {i + 1}/{n_pairs}: "
              f"{shown} " + " -> ".join("null" if v is None else f"{v:.4g}" for v in
                                        (pairs[-1][s]["metrics"][shown] for s in SIDES)),
              file=sys.stderr)
    digests = {side: sorted({p[side]["output_digest"] for p in pairs}) for side in SIDES}
    return {**label, "pairs": pairs, "summary": summarize(pairs, better), "digests": digests,
            "digests_equal": digests["parent"] == digests["change"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the git rev to measure against")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--run", type=parse_run, action="append", required=True,
                        metavar="WORKLOAD:SEEDS:PAIRS")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of each run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--cli", type=int, default=0, metavar="REPEATS",
                        help="also time the criterion-8 commands, REPEATS pairs each")
    parser.add_argument("--layers", type=int, default=0, metavar="PAIRS",
                        help="also run tools/layers.py on each tree, PAIRS pairs")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    for flag, count in (("--cli", args.cli), ("--layers", args.layers)):
        if count < 0:
            parser.error(f"{flag} needs a count of pairs >= 0, got {count}")
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "perfbench")
    if untracked:
        parser.error("untracked files would run without being recorded; add them (git add -N) "
                     "or remove them: " + ", ".join(untracked.decode().splitlines()))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    # What the change tree runs beyond HEAD: the benchmark and the package.
    diff = git("diff-index", "-p", "--binary", "HEAD", "--", "src", "perfbench")
    commits = {
        "parent": {"rev": parent_rev},
        "change": {"rev": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(diff),
                   "diff_sha256": hashlib.sha256(diff).hexdigest()},
    }

    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    trees = {side: scratch / side for side in SIDES}
    runs, cli, layers = [], [], []
    try:
        export(parent_rev, trees["parent"])
        export(commits["change"]["rev"], trees["change"], diff)
        for workload, seeds, n_pairs in args.run:
            for seed in seeds:
                runs.append(alternate(
                    {"workload": workload, "seed": seed}, n_pairs, better, "items_per_s",
                    lambda side: run_once(trees[side], workload, seed, args.seconds, args.size)))
        for command in CLI_COMMANDS if args.cli else ():
            cli.append(alternate({"argv": " ".join(command)}, args.cli, CLI_METRICS, "seconds",
                                 lambda side: time_cli(trees[side], command,
                                                       scratch / f"{side}.out")))
        if args.layers:
            layers.append(alternate({"harness": "tools/layers.py"}, args.layers, layer_better(),
                                    "throughputs_us", lambda side: time_layers(trees[side])))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    machines = [p[side].pop("machine") for run in runs for p in run["pairs"] for side in SIDES]
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    bench = {"pr": args.pr, "machine": machines[-1] if machines else None, "commits": commits,
             "seconds": args.seconds, "size": args.size, "runs": runs, "cli": cli,
             "layers": layers}
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"bench: wrote {out}", file=sys.stderr)
    # perfbench/run.py exits 0 whatever its checks found, so its failures end the run here
    failed = [f"{run['workload']} seed {run['seed']} pair {i + 1}, {side} side: "
              f"{pair[side]['failed']} of {pair[side]['attempted']} operations failed their checks"
              for run in runs for i, pair in enumerate(run["pairs"]) for side in SIDES
              if pair[side]["failed"]]
    for line in failed:
        print(f"bench: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

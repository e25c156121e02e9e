"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench.py --parent HEAD --pr <pr> --run mc_gated:1,3:10 --cli 3

Exports the parent with `git archive` into a temporary directory, removed
afterwards. For each `--run WORKLOAD:SEEDS:PAIRS` it runs `perfbench/run.py`
once in each tree per pair, switching which tree runs first from pair to pair,
and writes `BENCH_<pr>.json` at the repo root. The file holds the machine
block, both commits, every run's end-to-end metrics and output digest, and for
each metric each side's median and quartiles and the pairs the working tree
won, by the metric's `better` in BENCHMARK.json (ties count for neither side).
`--cli REPEATS` also times each criterion-8 command of the acceptance suite as
a whole `python3 -m hybridkd` process, REPEATS alternating pairs per command,
and records each side's wall times, their medians and the output's sha256.
Exits 1 after writing the file if any run failed the benchmark's own checks,
naming each such run's workload, seed, pair and side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
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


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit `rev`, as `git archive` packs them, in the new directory `dest`."""
    dest.mkdir()
    tar = dest.with_suffix(".tar")
    git("archive", "--output", str(tar), rev)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)


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


def time_cli(tree: Path, argv: tuple[str, ...], out: Path) -> dict:
    """One CLI process's wall time, and the sha256 of the file it wrote."""
    cmd, env = cli_command(tree, argv, out)
    start = time.perf_counter()
    subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


def summarize_cli(argv: tuple[str, ...], pairs: list[dict]) -> dict:
    """One command's wall times: each side's runs and median, the change's wins, the ratio."""
    sides = {side: [p[side]["seconds"] for p in pairs] for side in SIDES}
    medians = {side: statistics.median(times) for side, times in sides.items()}
    return {
        "argv": " ".join(argv),
        **{side: {"seconds": sides[side], "median": medians[side]} for side in SIDES},
        "change_wins": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
        "pairs": len(pairs),
        "ratio": medians["change"] / medians["parent"],
        "outputs_equal": len({p[side]["sha256"] for p in pairs for side in SIDES}) == 1,
    }


def quartiles(values: list[float]) -> dict:
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
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent_median = sides["parent"]["median"]
        summary[name] = {
            **sides,
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "change_wins": wins,
            "pairs": len(pairs),
            "ratio": sides["change"]["median"] / parent_median if parent_median else None,
        }
    return summary


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
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the repo root")
    args = parser.parse_args(argv)
    if args.cli < 0:
        parser.error(f"--cli needs a count of pairs >= 0, got {args.cli}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    parent_rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # What the working tree runs beyond its HEAD: the benchmark and the package.
    diff = git("diff", "HEAD", "--binary", "--", "src", "perfbench")
    commits = {
        "parent": {"rev": parent_rev},
        "change": {"rev": git("rev-parse", "HEAD"), "dirty": bool(diff),
                   "diff_sha256": hashlib.sha256(diff.encode()).hexdigest()},
    }

    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    trees = {"parent": scratch / "parent", "change": ROOT}
    machine, runs, cli = None, [], []
    try:
        export(parent_rev, trees["parent"])
        for workload, seeds, n_pairs in args.run:
            for seed in seeds:
                pairs = []
                for i in range(n_pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, seed, args.seconds,
                                              args.size)
                        machine = pair[side].pop("machine")
                    pairs.append(pair)
                    print(f"bench: {workload} seed {seed} pair {i + 1}/{n_pairs}: items/s "
                          + " -> ".join(f"{pair[s]['metrics']['items_per_s']:.4g}" for s in SIDES),
                          file=sys.stderr)
                digests = {side: sorted({p[side]["output_digest"] for p in pairs}) for side in SIDES}
                runs.append({"workload": workload, "seed": seed, "pairs": pairs,
                             "summary": summarize(pairs, better), "digests": digests,
                             "digests_equal": digests["parent"] == digests["change"]})
        for command in CLI_COMMANDS if args.cli else ():
            pairs = []
            for i in range(args.cli):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pairs.append({side: time_cli(trees[side], command, scratch / f"{side}.out")
                              for side in order})
            cli.append(summarize_cli(command, pairs))
            print(f"bench: hybridkd {cli[-1]['argv']}: median s "
                  + " -> ".join(f"{cli[-1][s]['median']:.3f}" for s in SIDES), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    bench = {"pr": args.pr, "machine": machine, "commits": commits, "seconds": args.seconds,
             "size": args.size, "runs": runs, "cli": cli}
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

"""tools/bench.py: run specs, the per-metric summary of alternating pairs, and its exit code."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from test_acceptance import CRITERION_8_COMMANDS

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _pair(parent, change):
    return {side: {"metrics": {"items_per_s": a, "op_ms_p50": b}}
            for side, (a, b) in zip(bench.SIDES, (parent, change))}


def test_run_spec():
    assert bench.parse_run("mc_gated:1,3:10") == ("mc_gated", [1, 3], 10)


@pytest.mark.parametrize("spec", ["mc_gated", "mc_gated:1:x", "mc_gated:1:0", "a:1,b:2"])
def test_bad_run_spec(spec):
    with pytest.raises(argparse.ArgumentTypeError, match="WORKLOAD:SEEDS:PAIRS|at least one"):
        bench.parse_run(spec)


def test_wins_follow_better_and_ties_count_for_neither():
    pairs = [_pair((100, 5.0), (150, 4.0)), _pair((110, 5.0), (110, 6.0)),
             _pair((90, 5.0), (80, 5.0)), _pair((120, 7.0), (130, 3.0))]
    summary = bench.summarize(pairs, {"items_per_s": "higher", "op_ms_p50": "lower"})
    items, p50 = summary["items_per_s"], summary["op_ms_p50"]
    assert (items["change_wins"], p50["change_wins"], items["pairs"]) == (2, 2, 4)
    # inclusive quartiles of 90, 100, 110, 120
    assert items["parent"] == {"q1": 97.5, "median": 105.0, "q3": 112.5}
    assert items["parent_iqr"] == 15.0
    assert items["ratio"] == items["change"]["median"] / 105.0


def test_one_pair_has_flat_quartiles():
    summary = bench.summarize([_pair((100, 5.0), (150, 4.0))], {"items_per_s": "higher"})
    assert summary["items_per_s"]["change"] == {"q1": 150, "median": 150, "q3": 150}


def test_cli_commands_run_the_package_of_each_tree(tmp_path):
    # the six criterion-8 commands, each a whole process on the tree's own src/
    assert len(bench.CLI_COMMANDS) == 6
    assert {argv[0] for argv in bench.CLI_COMMANDS} == {"sweep", "trace", "simulate", "crossover"}
    cmd, env = bench.cli_command(tmp_path, ("crossover", "--factor", "2"), tmp_path / "a.out")
    assert cmd[1:] == ["-m", "hybridkd", "crossover", "--factor", "2", "--out",
                       str(tmp_path / "a.out")]
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def test_cli_summary_medians_wins_and_outputs():
    pairs = [{"parent": {"seconds": p, "sha256": "a"}, "change": {"seconds": c, "sha256": h}}
             for p, c, h in ((0.6, 0.3, "a"), (0.5, 0.5, "a"), (0.7, 0.4, "a"))]
    summary = bench.summarize_cli(("simulate", "--seed", "88"), pairs)
    assert summary["argv"] == "simulate --seed 88"
    assert summary["parent"] == {"seconds": [0.6, 0.5, 0.7], "median": 0.6}
    assert summary["change"]["median"] == 0.4
    assert (summary["change_wins"], summary["pairs"]) == (2, 3)  # the tie counts for neither
    assert summary["ratio"] == 0.4 / 0.6 and summary["outputs_equal"]
    pairs[1]["change"]["sha256"] = "b"
    assert not bench.summarize_cli(("simulate",), pairs)["outputs_equal"]


def test_cli_commands_are_the_criterion_8_commands():
    assert [list(argv) for argv in bench.CLI_COMMANDS] == CRITERION_8_COMMANDS


@pytest.mark.parametrize("failing, code", [({}, 0), ({("mc_gated", 2, "change"): 3}, 1)],
                         ids=["all_correct", "change_fails_seed_2"])
def test_failed_checks_fail_the_run(monkeypatch, tmp_path, capsys, failing, code):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run_once(tree, workload, seed, seconds, size):
        side = "change" if tree == bench.ROOT else "parent"
        return {"metrics": {m["name"]: 1.0 for m in declared}, "attempted": 10,
                "failed": failing.get((workload, seed, side), 0), "operations": 10,
                "output_digest": "d", "machine": {}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "git", lambda *args: "rev")
    monkeypatch.setattr(bench, "export", lambda rev, dest: None)
    out = tmp_path / "BENCH_t.json"
    assert bench.main(["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1,2:1",
                       "--run", "rate_study:1:1", "--seconds", "0", "--out", str(out)]) == code
    runs = json.loads(out.read_text())["runs"]  # written whatever the checks found
    assert [(run["workload"], run["seed"]) for run in runs] == [
        ("mc_gated", 1), ("mc_gated", 2), ("rate_study", 1)]
    failures = [line for line in capsys.readouterr().err.splitlines() if "side:" in line]
    assert failures == ([] if code == 0 else [
        "bench: mc_gated seed 2 pair 1, change side: 3 of 10 operations failed their checks"])

"""tools/bench.py: run specs, alternating pairs, their summary, the two trees, the exit code."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from test_acceptance import CRITERION_8_COMMANDS

from hybridkd import config, protocol, rates, session


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench, layers = _tool("bench"), _tool("layers")


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


def test_pairs_alternate_with_the_parent_first():
    calls = []

    def measure(side):
        calls.append(side)  # the change's output differs in its second run only
        return {"metrics": {"seconds": 1.0}, "output_digest": "e" if calls == SECOND else "d"}

    SECOND = ["parent", "change", "change"]
    entry = bench.alternate({"argv": "crossover"}, 3, {"seconds": "lower"}, "seconds", measure)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [pair["first"] for pair in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["digests"] == {"parent": ["d"], "change": ["d", "e"]}
    assert not entry["digests_equal"]


def test_cli_entries_have_the_shape_of_runs(monkeypatch, tmp_path):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seconds = {"parent": [1.5, 1.0, 2.0], "change": [0.75, 1.0, 0.5]}
    series = {}

    def time_cli(tree, argv, out):
        times = series.setdefault((argv, tree.name), iter(seconds[tree.name]))
        second = next(times)  # a peak of 20 MB per second
        return {"metrics": {"seconds": second, "peak_rss_mb": 20 * second},
                "output_digest": argv[0]}

    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds, size: {
        "metrics": {m["name"]: 1.0 for m in declared}, "attempted": 10, "failed": 0,
        "operations": 10, "output_digest": "d", "machine": {}})
    monkeypatch.setattr(bench, "time_cli", time_cli)
    monkeypatch.setattr(bench, "git", lambda *args: b"" if args[0] == "ls-files" else b"rev")
    monkeypatch.setattr(bench, "export", lambda rev, dest, diff=b"": None)
    out = tmp_path / "BENCH_t.json"
    assert bench.main(["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1:1", "--seconds",
                       "0", "--cli", "3", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    (run,), cli = written["runs"], written["cli"]
    assert [entry["argv"] for entry in cli] == [" ".join(argv) for argv in bench.CLI_COMMANDS]
    for entry in cli:
        assert entry.keys() - {"argv"} == run.keys() - {"workload", "seed"}
        summary = entry["summary"]["seconds"]
        assert (summary["change_wins"], summary["pairs"]) == (2, 3)  # the tie counts for neither
        assert summary["parent"] == {"q1": 1.25, "median": 1.5, "q3": 1.75}
        assert (summary["parent_iqr"], summary["ratio"]) == (0.5, 0.5)
        assert [pair["change"]["metrics"]["seconds"] for pair in entry["pairs"]] == [0.75, 1.0, 0.5]
        peak = entry["summary"]["peak_rss_mb"]
        assert (peak["change_wins"], peak["parent"]["median"], peak["ratio"]) == (2, 30.0, 0.5)
        assert entry["digests_equal"]


# a package whose CLI holds the MB its first argument names, writes --out and exits with
# its second argument
_HOG = """import sys
held = b"x" * (int(sys.argv[1]) << 20)
open(sys.argv[sys.argv.index("--out") + 1], "w").write(sys.argv[1])
sys.exit(int(sys.argv[2]))
"""


def _hog_tree(root):
    (root / "src" / "hybridkd").mkdir(parents=True)
    (root / "src" / "hybridkd" / "__init__.py").write_text("")
    (root / "src" / "hybridkd" / "__main__.py").write_text(_HOG)
    return root


def test_cli_peak_is_the_child_own(tmp_path):
    # RUSAGE_CHILDREN, the largest child reaped so far, would read 200 MB for both, and a
    # child spawned by this process would start at this process's peak, which stays over
    # 100 MB once this is freed
    peak = b"x" * (100 << 20)
    del peak
    tree, out = _hog_tree(tmp_path), tmp_path / "hog.out"
    big = bench.time_cli(tree, ("200", "0"), out)
    assert out.read_text() == "200"
    small = bench.time_cli(tree, ("1", "0"), out)
    assert big["metrics"]["peak_rss_mb"] >= 200
    assert small["metrics"]["peak_rss_mb"] < 100 and small["metrics"]["seconds"] > 0
    assert small["output_digest"] == hashlib.sha256(b"1").hexdigest()


def test_cli_failure_raises(tmp_path):
    with pytest.raises(subprocess.CalledProcessError) as failed:
        bench.time_cli(_hog_tree(tmp_path), ("1", "3"), tmp_path / "hog.out")
    assert failed.value.returncode == 3 and failed.value.cmd[1:4] == ["-m", "hybridkd", "1"]


def _git(repo, *args):
    config = ("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false")
    subprocess.run(["git", *config, *args], cwd=repo, check=True, capture_output=True)


def _repo(root, files):
    root.mkdir()
    _git(root, "init", "-q")
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    return root


def _files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file() and ".git" not in path.parts}


def test_change_tree_is_head_plus_the_recorded_diff(monkeypatch, tmp_path):
    committed = {"src/keep.py": b"a = 1\n", "src/gone.py": b"b = 2\n", "src/crlf.py": b"c = 1\r\n",
                 "src/blob.bin": bytes(range(256)), "tools/t.py": b"",
                 "BENCHMARK.json": (bench.ROOT / "BENCHMARK.json").read_bytes()}
    repo = _repo(tmp_path / "repo", committed)
    # settings that change what porcelain `git diff` prints, or make it fail
    for key, value in [("diff.noprefix", "true"), ("color.ui", "always"),
                       ("diff.external", "false")]:
        _git(repo, "config", key, value)
    (repo / "src" / "keep.py").write_bytes(b"a = 3\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "crlf.py").write_bytes(b"c = 2\r\n")
    (repo / "src" / "blob.bin").write_bytes(bytes(range(255, -1, -1)) * 2)
    (repo / "perfbench").mkdir()
    (repo / "perfbench" / "new.py").write_bytes(b"d = 4\r\n")
    _git(repo, "add", "-N", "perfbench/new.py")
    working, trees, diffs = _files(repo), {}, []
    export = bench.export

    def kept_export(rev, dest, diff=b""):
        export(rev, dest, diff)
        trees[dest.name] = _files(dest)
        diffs.append(diff)

    # the trees' directory lies inside a repository, which `git apply` must not take for its own
    (repo / "trees").mkdir()
    monkeypatch.setattr(bench.tempfile, "mkdtemp", lambda prefix: str(repo / "trees"))
    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench, "export", kept_export)
    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds, size: {
        "metrics": {m["name"]: 1.0 for m in json.loads(committed["BENCHMARK.json"])["end_to_end"]},
        "attempted": 1, "failed": 0, "operations": 1, "output_digest": "d", "machine": {}})
    out = tmp_path / "BENCH_t.json"
    assert bench.main(["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1:1",
                       "--out", str(out)]) == 0
    assert trees == {"parent": committed, "change": working}
    change = json.loads(out.read_text())["commits"]["change"]
    assert change["dirty"] and change["diff_sha256"] == hashlib.sha256(diffs[1]).hexdigest()


def test_untracked_file_stops_the_run(monkeypatch, tmp_path, capsys):
    repo = _repo(tmp_path / "repo", {"src/a.py": b"", ".gitignore": b"__pycache__/\n"})
    (repo / "src" / "new.py").write_bytes(b"")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "a.pyc").write_bytes(b"")
    monkeypatch.setattr(bench, "ROOT", repo)
    measured = []
    monkeypatch.setattr(bench, "export", lambda *args: measured.append(args))
    monkeypatch.setattr(bench, "run_once", lambda *args: measured.append(args))
    with pytest.raises(SystemExit) as stop:
        bench.main(["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1:1",
                    "--out", str(tmp_path / "BENCH_t.json")])
    assert stop.value.code == 2 and not measured
    err = capsys.readouterr().err
    assert "src/new.py" in err and "a.pyc" not in err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_cli_commands_are_the_criterion_8_commands():
    assert [list(argv) for argv in bench.CLI_COMMANDS] == CRITERION_8_COMMANDS


@pytest.mark.parametrize("failing, code", [({}, 0), ({("mc_gated", 2, "change"): 3}, 1)],
                         ids=["all_correct", "change_fails_seed_2"])
def test_failed_checks_fail_the_run(monkeypatch, tmp_path, capsys, failing, code):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def run_once(tree, workload, seed, seconds, size):
        side = tree.name
        return {"metrics": {m["name"]: 1.0 for m in declared}, "attempted": 10,
                "failed": failing.get((workload, seed, side), 0), "operations": 10,
                "output_digest": "d", "machine": {}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "git", lambda *args: b"" if args[0] == "ls-files" else b"rev")
    monkeypatch.setattr(bench, "export", lambda rev, dest, diff=b"": None)
    out = tmp_path / "BENCH_t.json"
    assert bench.main(["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1,2:1",
                       "--run", "rate_study:1:1", "--seconds", "0", "--out", str(out)]) == code
    runs = json.loads(out.read_text())["runs"]  # written whatever the checks found
    assert [(run["workload"], run["seed"]) for run in runs] == [
        ("mc_gated", 1), ("mc_gated", 2), ("rate_study", 1)]
    failures = [line for line in capsys.readouterr().err.splitlines() if "side:" in line]
    assert failures == ([] if code == 0 else [
        "bench: mc_gated seed 2 pair 1, change side: 3 of 10 operations failed their checks"])


def test_layer_numbers_are_the_harness_numbers():
    assert bench.LAYERS.is_file()
    assert bench.layer_better() == layers.METRICS


def test_a_missing_function_reads_null(monkeypatch):
    monkeypatch.setattr(layers, "REPEATS", 1)
    monkeypatch.delattr(rates, "sweep")
    monkeypatch.delattr(rates, "crossover_distance")
    for name in ("draw_span", "draw_block"):
        monkeypatch.delattr(protocol, name)
    monkeypatch.delattr(session, "run_gated_session")
    measured = layers.measure()
    assert measured["metrics"]["throughputs_us"] > 0
    assert all(measured["metrics"][name] is None for name in list(layers.METRICS)[1:])
    assert measured["output_digest"]
    monkeypatch.delattr(config, "DEFAULT_KLJN")
    assert layers.measure() == {"metrics": dict.fromkeys(layers.METRICS), "output_digest": None}


def test_round_engine_and_session_numbers_are_measured(monkeypatch):
    monkeypatch.setattr(layers, "REPEATS", 1)
    monkeypatch.delattr(rates, "sweep")
    metrics = layers.measure()["metrics"]
    for name in ("draw_span_ms", "draw_block_ms", "gated_session_ms_ideal",
                 "gated_session_ms_sampled"):
        assert layers.METRICS[name] == "lower" and metrics[name] > 0, name


def test_crossover_evaluations_are_counted(monkeypatch):
    monkeypatch.setattr(layers, "REPEATS", 1)
    monkeypatch.delattr(rates, "sweep")
    metrics = layers.measure()["metrics"]
    assert 0 < metrics["crossover_evals"] <= 16 and metrics["crossover_ms"] > 0
    assert rates.throughputs is layers.lookup("rates", "throughputs")  # unwrapped again


def test_a_null_counts_for_neither_side():
    pairs = [{"parent": {"metrics": {"crossover_ms": None}},
              "change": {"metrics": {"crossover_ms": c}}} for c in (1.0, 2.0, 3.0)]
    summary = bench.summarize(pairs, {"crossover_ms": "lower"})["crossover_ms"]
    assert summary["parent"] is None and summary["change"]["median"] == 2.0
    assert (summary["parent_iqr"], summary["ratio"], summary["change_wins"]) == (None, None, 0)


def test_layers_run_in_alternating_pairs(monkeypatch, tmp_path, capsys):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    measured = []

    def time_layers(tree):
        measured.append(tree.name)  # the parent lacks throughputs
        return {"metrics": {name: None if tree.name == "parent" and name == "throughputs_us"
                            else 1.0 for name in layers.METRICS}, "output_digest": "d"}

    monkeypatch.setattr(bench, "run_once", lambda tree, workload, seed, seconds, size: {
        "metrics": {m["name"]: 1.0 for m in declared}, "attempted": 1, "failed": 0,
        "operations": 1, "output_digest": "d", "machine": {}})
    monkeypatch.setattr(bench, "time_layers", time_layers)
    monkeypatch.setattr(bench, "git", lambda *args: b"" if args[0] == "ls-files" else b"rev")
    monkeypatch.setattr(bench, "export", lambda rev, dest, diff=b"": None)
    out = tmp_path / "BENCH_t.json"
    argv = ["--parent", "HEAD", "--pr", "t", "--run", "mc_gated:1:1", "--out", str(out)]
    assert bench.main([*argv, "--layers", "2"]) == 0
    assert measured == ["parent", "change", "change", "parent"]
    (entry,) = json.loads(out.read_text())["layers"]
    assert entry["harness"] == "tools/layers.py" and entry["digests_equal"]
    assert set(entry["summary"]) == set(layers.METRICS)
    assert entry["summary"]["throughputs_us"]["parent"] is None
    assert "throughputs_us null -> 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stop:
        bench.main([*argv, "--layers", "-1"])
    assert stop.value.code == 2 and "--layers needs a count of pairs >= 0" in capsys.readouterr().err

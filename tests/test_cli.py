"""Command-line behavior: outputs, exit codes, reproducibility."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridkd
from hybridkd import cli, rates
from hybridkd import protocol as proto
from hybridkd.config import CONFIG_ENV_VAR, KEYS, SweepSpec, default_config
from hybridkd.errors import DomainError
from hybridkd.physics import KljnLineParams, OpticalParams

SCI = re.compile(r"^-?\d\.\d{9}e[+-]\d{2}$")  # 10 significant digits


def run_cli(args, capsys=None):
    code = cli.main(args)
    if capsys is not None:
        return code, capsys.readouterr().out
    return code


class TestSweep:
    def test_default_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201  # header + 200 rows
        header = lines[0].split(",")
        assert header[0] == "distance_km"
        assert len(header) == 14
        for cell in lines[1].split(","):
            assert SCI.match(cell), cell

    def test_offset_column_identity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--out", str(out)])
        lines = out.read_text().splitlines()
        idx = lines[0].split(",").index
        i_p1, i_p23 = idx("r_p1"), idx("r_p23")
        for row in lines[1:]:
            cells = [float(c) for c in row.split(",")]
            # limited by the 10-digit output format, not by the model
            assert abs((cells[i_p23] - cells[i_p1]) - 0.5) < 1e-9

    def test_row_nearest_crossover(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--out", str(out)])
        lines = out.read_text().splitlines()
        idx = lines[0].split(",").index
        rows = [[float(c) for c in row.split(",")] for row in lines[1:]]
        nearest = min(rows, key=lambda r: abs(r[idx("distance_km")] - 7.5))
        t_p23, t_bb84 = nearest[idx("t_p23")], nearest[idx("t_bb84")]
        assert abs(t_p23 - t_bb84) / t_bb84 < 0.10

    def test_records_format(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert cli.main(["sweep", "--points", "10", "--format", "records",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert set(rec) == {
            "distance_km", "q_mu", "e_mu", "gamma", "r_bb84", "r_p1", "r_p23",
            "r_kljn", "f_sys", "t_bb84", "t_p1", "t_p23", "t_burst_p1", "t_burst_p2",
        }

    def test_flag_overrides(self, capsys):
        code, text = run_cli(
            ["sweep", "--distance-min", "1", "--distance-max", "2",
             "--points", "3", "--spacing", "linear"],
            capsys,
        )
        assert code == 0
        rows = text.splitlines()[1:]
        assert len(rows) == 3
        assert float(rows[0].split(",")[0]) == 1.0
        assert float(rows[-1].split(",")[0]) == 2.0

    def test_bad_range_is_domain_error(self, capsys):
        assert cli.main(["sweep", "--distance-min", "0"]) == cli.EXIT_DOMAIN

    def test_unwritable_output_is_io_error(self):
        assert cli.main(["sweep", "--out", "/nonexistent/dir/x.csv"]) == cli.EXIT_IO

    def test_domain_error_leaves_no_output_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--distance-min", "1e-320", "--out", str(out)]) == cli.EXIT_DOMAIN
        assert not out.exists()
        assert "distance" in capsys.readouterr().err

    def test_an_end_past_the_wire_limit_is_named(self, capsys):
        # geomspace rounds the inner points of this grid past the float max, to inf
        argv = ["sweep", "--distance-min", "1.797693134862315e308",
                "--distance-max", "1.7976931348623157e308", "--points", "5"]
        assert cli.main(argv) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "1.7976931348623157e+308" in err and "inf" not in err

    @pytest.mark.parametrize("fmt, sizes", [("csv", (2_000, 12_000)), ("records", (1_000, 6_000))])
    def test_a_point_costs_less_than_the_library_bound(self, fmt, sizes, monkeypatch):
        # rates._MAX_POINTS divides physical memory by rates._POINT_BYTES, so each further
        # point of a CLI sweep must take fewer bytes at the peak than that
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                assert cli.main(["sweep", "--points", str(n), "--format", fmt,
                                 "--out", os.devnull]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < rates._POINT_BYTES


class TestTrace:
    @pytest.mark.parametrize("proto", ["p1", "p2", "p3"])
    def test_bundled_fixture_matches_golden(self, proto, tmp_path, golden_dir):
        out = tmp_path / "trace.txt"
        assert cli.main(["trace", "--fixture", "bundled", "--protocol", proto,
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (golden_dir / f"trace_{proto}.txt").read_bytes()

    def test_external_fixture_path(self, tmp_path, golden_dir):
        fixture = tmp_path / "rounds.txt"
        fixture.write_text("+ 1 + 1\nx 0 + 1\n")
        out = tmp_path / "trace.txt"
        assert cli.main(["trace", "--fixture", str(fixture), "--protocol", "p1",
                         "--out", str(out)]) == 0
        body = out.read_text().splitlines()
        assert len(body) == 3  # header + 2 rounds

    def test_malformed_fixture_is_domain_error(self, tmp_path):
        fixture = tmp_path / "bad.txt"
        fixture.write_text("+ 1 q 1\n")
        assert cli.main(["trace", "--fixture", str(fixture)]) == cli.EXIT_DOMAIN

    def test_non_utf8_fixture_is_domain_error(self, tmp_path, capsys):
        fixture = tmp_path / "latin1.txt"
        fixture.write_bytes("+ 1 + 1  # r\xe9sum\xe9\n".encode("latin-1"))
        assert cli.main(["trace", "--fixture", str(fixture)]) == cli.EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"domain error: fixture {fixture} is not UTF-8 text" in captured.err

    def test_random_trace_reproducible(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.main(["trace", "--protocol", "p3", "--rounds", "14",
                             "--seed", "77", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 15

    @pytest.mark.parametrize("argv, digest", [
        (["--rounds", "12", "--protocol", "p2", "--seed", "88"],
         "3afe22fcdcb691009849a0692ac1a5671baf43a94ea91679732d398ea9b8cbfc"),
        (["--rounds", "300", "--protocol", "p3", "--seed", "5"],
         "aa4c16172226cec2ddb41e618a46ab58318ff40361aee9fee290b925c66a4a73"),
    ], ids=["p2", "p3"])
    def test_random_trace_bytes_are_pinned(self, argv, digest, tmp_path):
        # inputs come from default_rng(seed), the rounds' draws from default_rng(seed + 1)
        out = tmp_path / "trace.txt"
        assert cli.main(["trace", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_random_rounds_are_drawn_as_lines_are_read(self, monkeypatch):
        calls = []
        run_round = proto.run_round

        def counting(*args):
            calls.append(args)
            return run_round(*args)

        monkeypatch.setattr(proto, "run_round", counting)
        lines = cli.cmd_trace(default_config(), None, 1000)
        assert next(lines).split() == proto.TRACE_HEADER.split() and not calls
        next(lines)
        assert len(calls) == 1

    def test_bb84_trace_has_no_wire_columns(self, capsys):
        code, text = run_cli(["trace", "--protocol", "bb84", "--rounds", "3",
                              "--seed", "5"], capsys)
        assert code == 0
        row = text.splitlines()[1].split()
        assert row[7] == "-" and row[8] == "-" and row[9] == "-"


class TestSimulate:
    def test_gated_report(self, capsys):
        code, text = run_cli(
            ["simulate", "--protocol", "p2", "--distance", "2",
             "--rounds", "20000", "--seed", "13"],
            capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["stats"]["protocol"] == "p2"
        assert report["stats"]["rounds_executed"] == 20000
        assert abs(report["analytic"]["deviation_sigma"]) < 3.0
        assert report["analytic"]["expected_yield_per_pulse"] > 0.5

    def test_bb84_has_no_wire_bits(self, capsys):
        code, text = run_cli(
            ["simulate", "--protocol", "bb84", "--distance", "2",
             "--rounds", "5000", "--seed", "14"],
            capsys,
        )
        assert code == 0
        assert json.loads(text)["stats"]["kljn_bits"] == 0

    def test_buffered_report(self, capsys):
        code, text = run_cli(
            ["simulate", "--protocol", "p1", "--mode", "buffered",
             "--distance", "2", "--duration", "0.5", "--burst-block", "2000",
             "--seed", "15"],
            capsys,
        )
        assert code == 0
        report = json.loads(text)
        assert report["stats"]["timing"] == "buffered"
        assert report["analytic"]["burst_throughput_bps"] > report["analytic"]["gated_bound_bps"]

    def test_p3_buffered_rejected_before_simulation(self):
        assert cli.main(
            ["simulate", "--protocol", "p3", "--mode", "buffered", "--distance", "2"]
        ) == cli.EXIT_CONFIG


class TestCrossover:
    def test_default_report(self, capsys):
        code, text = run_cli(["crossover"], capsys)
        assert code == 0
        report = json.loads(text)
        assert 7.0 <= report["distance_km"] <= 8.0
        assert report["t_p23_bps"] == pytest.approx(report["t_bb84_bps"], rel=1e-6)

    def test_factor_flag(self, capsys):
        code, text = run_cli(["crossover", "--factor", "2"], capsys)
        assert code == 0
        report = json.loads(text)
        assert report["distance_km"] < 7.0
        assert report["t_p23_bps"] == pytest.approx(
            report["factor_times_t_bb84_bps"], rel=1e-6
        )

    def test_bad_bracket_is_solver_error(self):
        assert cli.main(["crossover", "--bracket", "0.1", "0.5"]) == cli.EXIT_SOLVER


BUFFERED_P1 = ["simulate", "--protocol", "p1", "--mode", "buffered", "--distance", "2"]

# (argv, the value the domain error must name)
NON_FINITE = [
    (["sweep", "--distance-max", "inf"], "distance"),
    (["crossover", "--bracket", "1", "inf"], "distance"),
    (["simulate", "--distance", "inf"], "distance"),
    (["simulate", "--distance", "nan"], "distance"),
    (BUFFERED_P1 + ["--duration", "nan"], "duration"),
    (BUFFERED_P1 + ["--duration", "inf"], "duration"),
    (["crossover", "--factor", "nan"], "factor"),
    (["crossover", "--factor", "inf"], "factor"),
    # finite, but the wire's bandwidth v / (20 L) overflows or vanishes
    (["simulate", "--distance", "1e308"], "distance"),
    (BUFFERED_P1[:-1] + ["1e308"], "distance"),
    (["sweep", "--distance-min", "1e-320", "--format", "records"], "distance"),
]


@pytest.mark.parametrize(
    "argv, name",
    [pytest.param(a, n, id="_".join(x.lstrip("-") for x in a)) for a, n in NON_FINITE],
)
def test_non_finite_distance_is_domain_error(argv, name, capsys):
    assert cli.main(argv) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


# (argv, the field the config error must name)
BAD_CONFIG = [
    pytest.param(["simulate", "--rounds", "10", "--seed", "-1"], "seed", id="simulate"),
    pytest.param(["trace", "--seed", "-1"], "seed", id="trace"),
    pytest.param(BUFFERED_P1 + ["--burst-block", "-5"], "burst_block", id="burst_block_negative"),
    pytest.param(BUFFERED_P1 + ["--burst-block", "0"], "burst_block", id="burst_block_zero"),
]


@pytest.mark.parametrize("argv, field", BAD_CONFIG)
def test_negative_seed_is_config_error(argv, field, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("key", ["n_pairs", "n_samples"])
def test_oversized_yaml_count_is_config_error(key, tmp_path, capsys):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(f"kljn:\n  {key}: {10**400}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"kljn: {key} must be" in captured.err


def test_yaml_integer_past_the_digit_limit_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("kljn:\n  n_pairs: " + "1" * 5000 + "\n")  # Python parses at most 4300 digits
    assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["sweep"], ["simulate", "--distance", "0.1"]],
                         ids=["sweep", "simulate"])
def test_wire_rate_overflow_is_domain_error(argv, tmp_path, capsys):
    # finite line parameters whose wire bit rate at 0.1 km overflows to inf
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("kljn:\n  v_km_per_s: 1.0e+307\n  n_pairs: 1000\n  n_samples: 1\n")
    assert cli.main(argv + ["--config", str(cfg)]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distance 0.1 km gives a wire bit rate" in captured.err


def test_oversized_round_count_is_domain_error(capsys):
    assert cli.main(["simulate", "--rounds", str(10**30)]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_rounds must be" in captured.err


@pytest.mark.parametrize("points", [10**12, 2**62, 2**63 - 1])
def test_oversized_sweep_point_count_is_domain_error(points, capsys):
    # a count between about 1e7 and 1e11 may fit under the bound and fill memory, so none is tested
    assert cli.main(["sweep", "--points", str(points), "--out", os.devnull]) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_points" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("duration", [1e308, 1e20])
def test_oversized_buffered_duration_is_domain_error(duration, tmp_path, capsys):
    # whole cycles of 2**63 rounds or more, the bound gated --rounds has
    cfg = tmp_path / "long.yaml"
    cfg.write_text(f"run:\n  duration_s: {duration:.1e}\n")
    for argv in (BUFFERED_P1 + ["--duration", str(duration)], BUFFERED_P1 + ["--config", str(cfg)]):
        assert cli.main(argv) == cli.EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duration_s" in captured.err and "2**63 rounds" in captured.err


class TestConfigHandling:
    def test_config_file_and_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("sweep:\n  points: 5\n")
        code, text = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0 and len(text.splitlines()) == 6

        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, text = run_cli(["sweep"], capsys)
        assert code == 0 and len(text.splitlines()) == 6

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("sweep:\n  pints: 5\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_non_utf8_config_is_config_error(self, via_env, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "latin1.yaml"
        cfg.write_bytes("# r\xe9sum\xe9\nsweep:\n  points: 5\n".encode("latin-1"))
        if via_env:
            monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        assert cli.main(["sweep"] + ([] if via_env else ["--config", str(cfg)])) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: cannot parse config {cfg}: 'utf-8' codec" in captured.err

    def test_temperature_scale_is_not_a_setting(self, tmp_path, capsys):
        # the band thresholds scale with the variances, so no temperature changes an outcome
        cfg = tmp_path / "old.yaml"
        cfg.write_text("run:\n  temperature_scale: 1.0\n")
        assert cli.main(["simulate", "--config", str(cfg)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown key(s) in 'run': ['temperature_scale']" in captured.err

    def test_buffer_capacity_is_not_a_setting(self, tmp_path, capsys):
        # one burst block is the whole buffer, so there is no capacity to set
        with pytest.raises(SystemExit) as exc:
            cli.main(BUFFERED_P1 + ["--buffer-capacity", "5"])
        assert exc.value.code == cli.EXIT_CONFIG
        cfg = tmp_path / "old.yaml"
        cfg.write_text("run:\n  buffer_capacity: 5\n")
        assert cli.main(BUFFERED_P1 + ["--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "buffer_capacity" in capsys.readouterr().err

    def test_burst_block_is_not_capped(self, capsys):
        argv = BUFFERED_P1 + ["--burst-block", "200000", "--duration", "2.5", "--seed", "3"]
        code, text = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(text)["stats"]["rounds_executed"] % 200_000 == 0

    def test_dump_config_roundtrip(self, tmp_path):
        dumped = tmp_path / "effective.yaml"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--points", "7", "--seed", "3",
                         "--dump-config", str(dumped), "--out", str(out1)]) == 0
        data = yaml.safe_load(dumped.read_text())
        assert data["sweep"]["points"] == 7
        # re-ingesting the dumped config reproduces the run byte for byte
        assert cli.main(["sweep", "--config", str(dumped), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def _subcommands() -> dict:
    """Subcommand name -> its argparse parser."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagsMatchYaml:
    # RunConfig field -> (command, flag argv, YAML value of the field's config key)
    CASES = {
        "seed": ("sweep", ["--seed", "5"], 5),
        "out": ("sweep", ["--out", "run.out"], "run.out"),
        "format": ("sweep", ["--format", "records"], "records"),
        "sweep.distance_min_km": ("sweep", ["--distance-min", "0.5"], 0.5),
        "sweep.distance_max_km": ("sweep", ["--distance-max", "5"], 5.0),
        "sweep.points": ("sweep", ["--points", "7"], 7),
        "sweep.spacing": ("sweep", ["--spacing", "linear"], "linear"),
        "protocol": ("trace", ["--protocol", "p3"], "p3"),
        "timing": ("simulate", ["--mode", "buffered"], "buffered"),
        "distance_km": ("simulate", ["--distance", "3"], 3.0),
        "rounds": ("simulate", ["--rounds", "30"], 30),
        "duration_s": ("simulate", ["--duration", "0.5"], 0.5),
        "burst_block": ("simulate", ["--burst-block", "2000"], 2000),
        "ideal_classification": ("simulate", ["--classification", "sampled"], False),
        "bracket": ("crossover", ["--bracket", "2", "9"], [2.0, 9.0]),
        "factor": ("crossover", ["--factor", "1.5"], 1.5),
    }
    # keeps simulate runs short, except for the flag under test
    CHEAP = {"simulate": {"--rounds": "20", "--duration": "0.01"}}

    def test_every_flag_has_a_case(self):
        fields = {field for _, _, field in KEYS}
        dests = {action.dest for parser in _subcommands().values() for action in parser._actions}
        assert set(self.CASES) == dests & fields

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_flag_dumps_like_yaml_key(self, field, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        command, flag, value = self.CASES[field]
        section, key = next((section, key) for section, key, f in KEYS if f == field)
        yaml_path = tmp_path / "cfg.yaml"
        yaml_path.write_text(yaml.safe_dump({section: {key: value}}))
        cheap = self.CHEAP.get(command, {}).items()
        base = [command] + [arg for f, v in cheap if f != flag[0] for arg in (f, v)]
        by_flag, by_yaml = tmp_path / "flag.yaml", tmp_path / "yaml.yaml"
        cli.main(base + flag + ["--dump-config", str(by_flag)])
        cli.main(base + ["--config", str(yaml_path), "--dump-config", str(by_yaml)])
        capsys.readouterr()
        assert by_flag.read_bytes() == by_yaml.read_bytes()
        assert yaml.safe_load(by_flag.read_text())[section][key] == value

    def test_trace_rounds_is_not_the_session_round_count(self, tmp_path, capsys):
        dumped = tmp_path / "cfg.yaml"
        assert cli.main(["trace", "--rounds", "3", "--dump-config", str(dumped)]) == 0
        assert yaml.safe_load(dumped.read_text())["run"]["rounds"] == 100_000


def test_readme_documents_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {flag for parser in _subcommands().values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--")}
    assert sorted(flag for flag in flags if flag not in section) == []


# sha256 of the default `sweep` output: the bytes must not change with how rows are built
SWEEP_SHA256 = {
    "csv": "1f68722b2b6a9219e268cb874e613fcfc2a57ac21b2229a3ac864850d0500229",
    "records": "f3c0f6ddd44ec659a544c1f82b54330b008a42546bd0eef984a3f8785139b231",
}

# sha256 of `sweep --points N --spacing S --format F`: the bytes must not change with how rows
# are made, at either spacing
GRID_SWEEP_SHA256 = {
    (40, "linear", "csv"): "d6636fdfcb44086db5315d4ab543aec935664776842767456e784c576d25cfb2",
    (40, "linear", "records"): "df83aadd68d6ac451c0c30024bda9290e9e488327ea9df37794b92e5e4abd56f",
    (40, "log", "csv"): "504773e1f0e005c456488a68e558ca5ad65b2ca942358438565d8d397174c1d3",
    (40, "log", "records"): "33a3f6c82786c047d071445e46c0933bc37fcb7aa375cfbd8abf221b54bae7f6",
    (1000, "linear", "csv"): "125c960ef75b1f199002d5583b889b0d0551b88ec713b45b51c4098a0048cae5",
    (1000, "linear", "records"): "da633b35e6fa6c5735dd7147eb7d2233a5d3fae2911990e642d56f01987f21b8",
    (1000, "log", "csv"): "563160b73187aba218f3946913d89c87dde82337489e47b1a292c1d0b0d6834b",
    (1000, "log", "records"): "9faeebf5e4e26674d7ceb0eb628699650e7666528fe723624c08434221881ea4",
}


def _child_env() -> dict:
    """The environment for a `python -m hybridkd` child that imports this package."""
    package_root = str(Path(hybridkd.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    env.pop(CONFIG_ENV_VAR, None)
    return env


@pytest.mark.parametrize("fmt", SWEEP_SHA256)
def test_default_sweep_bytes_are_pinned(fmt, tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "sweep.out"
    assert cli.main(["sweep", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[fmt]


@pytest.mark.parametrize("points, spacing, fmt", GRID_SWEEP_SHA256)
def test_sweep_bytes_are_pinned(points, spacing, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    out = tmp_path / "sweep.out"
    assert cli.main(["sweep", "--points", str(points), "--spacing", spacing, "--format", fmt,
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_SWEEP_SHA256[points, spacing, fmt]


_FLOAT_MAX = sys.float_info.max
_OPTICAL, _LINE = default_config().optical, default_config().kljn


def _reals(lo, hi, **excluded):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **excluded)


# every valid parameter and grid, out to the float range's ends and subnormal distances
_OPTICALS = st.builds(
    OpticalParams,
    alpha=_reals(0.0, _FLOAT_MAX),
    mu=_reals(0.0, _FLOAT_MAX, exclude_min=True),
    eta_d=_reals(0.0, 1.0, exclude_min=True),
    p_d=_reals(0.0, 1.0, exclude_max=True),
    e_opt=_reals(0.0, 0.5, exclude_max=True),
    f_ec=_reals(1.0, _FLOAT_MAX),
    f_qkd=_reals(0.0, _FLOAT_MAX, exclude_min=True),
)
_LINES = st.builds(
    KljnLineParams,
    v=_reals(0.0, _FLOAT_MAX, exclude_min=True),
    n_pairs=st.integers(1, 2**63 - 1),
    n_samples=st.integers(1, 2**63 - 1),
    r_low=st.just(_LINE.r_low),
    r_high=st.just(_LINE.r_high),
)
_GRIDS = st.builds(
    lambda ends, points, spacing: SweepSpec(*sorted(ends), points, spacing),
    st.lists(_reals(0.0, _FLOAT_MAX, exclude_min=True), min_size=2, max_size=2, unique=True),
    st.integers(2, 40),
    st.sampled_from(["linear", "log"]),
)


@settings(max_examples=300, deadline=None)
@given(optical=_OPTICALS, line=_LINES, spec=_GRIDS)
@example(  # f_qkd and v at the float max, p_d just below 1, one sample a bit
    optical=dataclasses.replace(_OPTICAL, mu=_FLOAT_MAX, eta_d=1.0, p_d=math.nextafter(1.0, 0.0),
                                f_qkd=_FLOAT_MAX),
    line=dataclasses.replace(_LINE, v=_FLOAT_MAX, n_pairs=1, n_samples=1),
    spec=SweepSpec(1.0, _FLOAT_MAX, 5, "log"),
)
@example(  # a subnormal start on a slow line
    optical=_OPTICAL, line=dataclasses.replace(_LINE, v=1e-300),
    spec=SweepSpec(5e-324, 1.0, 5, "log"),
)
@example(  # a finite bandwidth whose wire bit rate overflows
    optical=_OPTICAL, line=dataclasses.replace(_LINE, v=1e308, n_pairs=2**62, n_samples=1),
    spec=SweepSpec(1.0, 10.0, 3, "linear"),
)
def test_sweep_columns_are_finite_and_records_are_json(optical, line, spec):
    # the records template writes each value's repr, which is json.dumps's text only for a
    # finite float: so every column a sweep returns must be finite
    try:
        columns = rates._sweep_columns(optical, line, spec.distance_min_km,
                                       spec.distance_max_km, spec.points, spec.spacing)
    except DomainError:
        return
    rows = list(zip(*[column.tolist() for column in columns]))
    assert all(math.isfinite(value) for row in rows for value in row)
    cfg = dataclasses.replace(default_config(), optical=optical, kljn=line, sweep=spec,
                              format="records")
    lines = list(cli.cmd_sweep(cfg))
    assert lines == [json.dumps(dict(zip(rates.RATE_POINT_FIELDS, row))) + "\n" for row in rows]
    assert [tuple(json.loads(text).values()) for text in lines] == rows


@pytest.mark.parametrize("argv", [
    ["sweep", "--points", "40"],
    ["sweep", "--points", "40", "--format", "records", "--dump-config", "{tmp}/config.yaml"],
    ["crossover"],
], ids=["sweep-csv", "sweep-records", "crossover"])
def test_closed_form_runs_leave_numpy_random_unloaded(argv, tmp_path):
    # the rate commands draw nothing, so they load numpy's generators only where `import
    # numpy` itself does: numpy 2 loads numpy.random on first use, numpy 1.24 with the package
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--out", str(tmp_path / "out")]
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "from hybridkd import cli; code = cli.main(sys.argv[1:]); "
            "print(code, before, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    exit_code, before, after = proc.stdout.split()
    assert (exit_code, after) == ("0", before), proc.stderr


def test_parser_is_reused_across_calls(monkeypatch, capsys):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    cli._parser.cache_clear()
    assert cli.main(["sweep", "--points", "7"]) == 0
    with pytest.raises(SystemExit) as bad:
        cli.main(["sweep", "--no-such-flag"])
    assert bad.value.code == 2  # argparse's usage error
    assert cli.main(["sweep"]) == 0
    reused = capsys.readouterr().out.split("\n", 8)[8]  # past the 7-point table
    assert cli._parser.cache_info().misses == 1
    fresh = subprocess.run([sys.executable, "-m", "hybridkd", "sweep"], capture_output=True,
                           text=True, env=_child_env(), check=True)
    assert reused == fresh.stdout


class TestDeterminism:
    COMMANDS = [
        ["sweep", "--points", "50"],
        ["trace", "--fixture", "bundled", "--protocol", "p2"],
        ["trace", "--rounds", "10", "--protocol", "p3", "--seed", "9"],
        ["simulate", "--protocol", "p2", "--distance", "2", "--rounds", "5000"],
        ["simulate", "--protocol", "p2", "--mode", "buffered", "--distance", "2",
         "--duration", "0.3", "--burst-block", "2000"],
        ["crossover", "--factor", "1.5"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_repeat_runs_are_byte_identical(self, argv, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    out = tmp_path / "x.csv"
    # the child imports the same package as this test, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "hybridkd", "sweep", "--points", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 4

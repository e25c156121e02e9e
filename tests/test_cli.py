"""Command-line behavior: outputs, exit codes, reproducibility."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import hybridkd
from hybridkd import cli
from hybridkd.config import CONFIG_ENV_VAR, KEYS

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

    def test_random_trace_reproducible(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.main(["trace", "--protocol", "p3", "--rounds", "14",
                             "--seed", "77", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 15

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
    pytest.param(
        BUFFERED_P1 + ["--buffer-capacity", "-1"], "buffer_capacity", id="buffer_capacity_negative"
    ),
]


@pytest.mark.parametrize("argv, field", BAD_CONFIG)
def test_negative_seed_is_config_error(argv, field, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


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


class TestFlagsMatchYaml:
    # flag dest -> (command, flag argv, YAML value of the flag's config key)
    CASES = {
        "seed": ("sweep", ["--seed", "5"], 5),
        "out": ("sweep", ["--out", "run.out"], "run.out"),
        "format": ("sweep", ["--format", "records"], "records"),
        "distance_min": ("sweep", ["--distance-min", "0.5"], 0.5),
        "distance_max": ("sweep", ["--distance-max", "5"], 5.0),
        "points": ("sweep", ["--points", "7"], 7),
        "spacing": ("sweep", ["--spacing", "linear"], "linear"),
        "protocol": ("trace", ["--protocol", "p3"], "p3"),
        "mode": ("simulate", ["--mode", "buffered"], "buffered"),
        "distance": ("simulate", ["--distance", "3"], 3.0),
        "rounds": ("simulate", ["--rounds", "30"], 30),
        "duration": ("simulate", ["--duration", "0.5"], 0.5),
        "burst_block": ("simulate", ["--burst-block", "2000"], 2000),
        "buffer_capacity": ("simulate", ["--buffer-capacity", "50000"], 50000),
        "classification": ("simulate", ["--classification", "sampled"], False),
        "bracket": ("crossover", ["--bracket", "2", "9"], [2.0, 9.0]),
        "factor": ("crossover", ["--factor", "1.5"], 1.5),
    }
    # keeps simulate runs short, except for the flag under test
    CHEAP = {"simulate": {"--rounds": "20", "--duration": "0.01"}}

    def test_every_flag_has_a_case(self):
        assert set(self.CASES) == set(cli._FLAG_FIELDS)

    @pytest.mark.parametrize("dest", sorted(CASES))
    def test_flag_dumps_like_yaml_key(self, dest, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        command, flag, value = self.CASES[dest]
        section, key = next(
            (section, key) for section, key, field in KEYS if field == cli._FLAG_FIELDS[dest]
        )
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
    package_root = str(Path(hybridkd.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridkd", "sweep", "--points", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 4

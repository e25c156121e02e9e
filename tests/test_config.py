"""Configuration defaults, ingestion, precedence and round-tripping."""

import dataclasses

import pytest
import yaml

from hybridkd import cli
from hybridkd.config import (
    RunConfig,
    config_from_mapping,
    config_to_mapping,
    default_config,
    dump_config,
    load_config,
)
from hybridkd.errors import ConfigError
from hybridkd.protocol import Protocol
from hybridkd.session import Timing


class TestDefaults:
    def test_reference_parameter_set(self):
        cfg = default_config()
        assert cfg.optical.alpha == 0.2
        assert cfg.optical.f_qkd == 10e6
        assert cfg.optical.mu == 0.1
        assert cfg.optical.eta_d == 0.1
        assert cfg.optical.p_d == 1e-5
        assert cfg.optical.e_opt == 0.015
        assert cfg.optical.f_ec == 1.15
        assert cfg.kljn.v == 2e5
        assert cfg.kljn.n_pairs == 1000
        assert cfg.kljn.n_samples == 50

    def test_default_sweep_mirrors_figures(self):
        cfg = default_config()
        assert cfg.sweep.distance_min_km == 0.1
        assert cfg.sweep.distance_max_km == 10.0
        assert cfg.sweep.points == 200
        assert cfg.sweep.spacing == "log"


class TestIngestion:
    def test_empty_mapping_is_defaults(self):
        assert config_from_mapping({}) == default_config()

    def test_partial_override(self):
        cfg = config_from_mapping({"optical": {"mu": 0.2}, "run": {"protocol": "p3"}})
        assert cfg.optical.mu == 0.2
        assert cfg.optical.alpha == 0.2  # untouched default
        assert cfg.protocol is Protocol.P3

    def test_unknown_section_and_key(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"optics": {}})
        with pytest.raises(ConfigError):
            config_from_mapping({"optical": {"alpha": 0.2}})  # missing unit suffix

    def test_invalid_values_are_config_errors(self):
        for mapping in (
            {"optical": {"mu": -1.0}},
            {"run": {"protocol": "p9"}},
            {"run": {"mode": "turbo"}},
            {"sweep": {"spacing": "cubic"}},
            {"run": {"bracket": [1.0]}},
            {"output": {"format": "xml"}},
            # scalars are coerced strictly
            {"run": {"seed": "abc"}},
            {"run": {"ideal_classification": "no"}},
            {"run": {"ideal_classification": 1}},
            {"run": {"rounds": 2.5}},
            {"kljn": {"n_samples": "3.5"}},
            {"sweep": {"points": True}},
            {"optical": {"mu": float("nan")}},
            {"optical": {"alpha_db_per_km": True}},
            {"run": {"distance_km": float("inf")}},
            {"run": {"bracket": [1.0, ".inf"]}},
            {"optical": {"f_qkd_hz": None}},
        ):
            with pytest.raises(ConfigError):
                config_from_mapping(mapping)

    def test_numeric_strings_and_integral_floats_are_accepted(self):
        # YAML 1.1 reads 1e-5 (no dot) as a string
        cfg = yaml.safe_load("optical: {p_d: 1e-5}\nrun: {rounds: 1.0e+4, seed: 7}\n")
        got = config_from_mapping(cfg)
        assert got.optical.p_d == 1e-5
        assert got.rounds == 10_000 and isinstance(got.rounds, int)
        assert got.seed == 7

    def test_mapping_roundtrip_is_identity(self):
        cfg = config_from_mapping(
            {"run": {"protocol": "p1", "mode": "buffered", "seed": 9}}
        )
        again = config_from_mapping(config_to_mapping(cfg))
        assert again == cfg

    def test_load_missing_env_uses_defaults(self, monkeypatch):
        monkeypatch.delenv("HYBRIDKD_CONFIG", raising=False)
        assert load_config(None) == default_config()

    def test_dump_and_load_file(self, tmp_path):
        cfg = dataclasses.replace(default_config(), seed=123, timing=Timing.BUFFERED)
        path = tmp_path / "cfg.yaml"
        dump_config(cfg, path)
        assert load_config(path) == cfg
        assert yaml.safe_load(path.read_text())["run"]["seed"] == 123


class TestPrecedence:
    def test_flags_beat_file_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("sweep:\n  points: 5\n")
        code = cli.main(["sweep", "--config", str(cfg), "--points", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 4  # header + 3 rows, flag wins

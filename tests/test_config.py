"""Configuration defaults, ingestion, precedence and round-tripping."""

import dataclasses
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkd import cli, config
from hybridkd.config import (
    KEYS,
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
from test_config_pin import CUSTOM_YAML, DEFAULT_YAML


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
            {"run": {"seed": -1}},
            {"optical": {"mu": 10**400}},  # too large for a float
        ):
            with pytest.raises(ConfigError):
                config_from_mapping(mapping)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("seed", "7")])
    def test_run_config_checks_its_own_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig(**{field: value})

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

    @pytest.mark.parametrize("text, message", [("optical: 5\n", "section 'optical' must be a"),
                                               ("- 1\n", "must contain a mapping")],
                             ids=["section", "top_level"])
    def test_file_that_is_not_a_mapping_exits_2(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_empty_file_is_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("HYBRIDKD_CONFIG", raising=False)
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["sweep"]) == 0
        assert capsys.readouterr().out == from_file

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


# any scalar YAML can hold, plus strings that parse as numbers or choices
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["p1", "P3", "bb84", "gated", "Buffered", "log", "linear", "records",
                     "1e-5", "7", "2.5", ".inf", "nan", 10**400]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=1),
)
DEFAULTS = config_to_mapping(default_config())


def _section(section: str):
    keys = [key for sec, key, _ in KEYS if sec == section]
    value = {key: st.one_of(st.just(DEFAULTS[section][key]), VALUES) for key in keys}
    return st.fixed_dictionaries({}, optional=value)


MAPPINGS = st.fixed_dictionaries({}, optional={section: _section(section) for section in DEFAULTS})


class TestTable:
    @settings(max_examples=300, deadline=None)
    @given(MAPPINGS)
    def test_load_is_config_error_or_dump_load_identity(self, mapping):
        try:
            cfg = config_from_mapping(mapping)
        except ConfigError:
            return
        text = yaml.safe_dump(config_to_mapping(cfg), sort_keys=False)
        assert config_from_mapping(yaml.safe_load(text)) == cfg

    def test_table_covers_every_field(self):
        fields = {field.split(".")[0] for _, _, field in KEYS}
        assert fields == {field.name for field in dataclasses.fields(RunConfig)}
        assert len({(section, key) for section, key, _ in KEYS}) == len(KEYS)

    def test_readme_block_is_the_default_config(self):
        assert yaml.safe_load(_readme_block()) == config_to_mapping(default_config())


def _readme_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]


YAML_CLASSES = {
    "pure": (yaml.SafeLoader, yaml.SafeDumper),
    "libyaml": (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None)),
}


class TestYamlClasses:
    def test_libyaml_is_used_when_available(self):
        expected = YAML_CLASSES["libyaml" if yaml.__with_libyaml__ else "pure"]
        assert (config._LOADER, config._DUMPER) == expected

    @pytest.mark.parametrize("classes", list(YAML_CLASSES))
    def test_pinned_configs_and_readme_load_and_dump_alike(self, classes, monkeypatch, tmp_path):
        if classes == "libyaml" and not yaml.__with_libyaml__:
            pytest.skip("PyYAML is built without libyaml")
        loader, dumper = YAML_CLASSES[classes]
        monkeypatch.setattr(config, "_LOADER", loader)
        monkeypatch.setattr(config, "_DUMPER", dumper)
        path = tmp_path / "cfg.yaml"
        # the README block is the default config with comments, so it dumps as DEFAULT_YAML
        for text, dumped in ((DEFAULT_YAML, DEFAULT_YAML), (CUSTOM_YAML, CUSTOM_YAML),
                             (_readme_block(), DEFAULT_YAML)):
            path.write_text(text, encoding="utf-8")
            dump_config(load_config(path), path)
            assert path.read_text(encoding="utf-8") == dumped

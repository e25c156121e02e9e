"""Pinned bytes of the dumped config and the RunConfig repr.

A dumped config is the reproducibility record of a run, so its exact text
(key order, number formatting, section layout) must not drift when the
config code changes shape.
"""

import dataclasses

from hybridkd.config import SweepSpec, default_config, dump_config
from hybridkd.protocol import Protocol
from hybridkd.session import Timing

PHYSICS = """\
optical:
  alpha_db_per_km: 0.2
  mu: 0.1
  eta_d: 0.1
  p_d: 1.0e-05
  e_opt: 0.015
  f_ec: 1.15
  f_qkd_hz: 10000000.0
kljn:
  v_km_per_s: 200000.0
  n_pairs: 1000
  n_samples: 50
  r_low_ohm: 10000.0
  r_high_ohm: 100000.0
"""

DEFAULT_YAML = PHYSICS + """\
sweep:
  distance_min_km: 0.1
  distance_max_km: 10.0
  points: 200
  spacing: log
run:
  protocol: p2
  mode: gated
  distance_km: 2.0
  rounds: 100000
  duration_s: 2.0
  burst_block: 10000
  ideal_classification: true
  seed: 20260810
  bracket:
  - 1.0
  - 10.0
  factor: 1.0
output:
  path: null
  format: csv
"""

CUSTOM_YAML = PHYSICS + """\
sweep:
  distance_min_km: 0.2
  distance_max_km: 8.0
  points: 31
  spacing: linear
run:
  protocol: p1
  mode: buffered
  distance_km: 2.0
  rounds: 100000
  duration_s: 2.0
  burst_block: 2500
  ideal_classification: true
  seed: 7
  bracket:
  - 0.5
  - 12.25
  factor: 1.0
output:
  path: keys/run.csv
  format: records
"""

DEFAULT_REPR = (
    "RunConfig(optical=OpticalParams(alpha=0.2, mu=0.1, eta_d=0.1, p_d=1e-05, "
    "e_opt=0.015, f_ec=1.15, f_qkd=10000000.0), kljn=KljnLineParams(v=200000.0, "
    "n_pairs=1000, n_samples=50, r_low=10000.0, r_high=100000.0), "
    "sweep=SweepSpec(distance_min_km=0.1, "
    "distance_max_km=10.0, points=200, spacing='log'), protocol=<Protocol.P2: 'p2'>, "
    "timing=<Timing.GATED: 'gated'>, burst_block=10000, "
    "distance_km=2.0, rounds=100000, duration_s=2.0, ideal_classification=True, "
    "seed=20260810, bracket=(1.0, 10.0), factor=1.0, out=None, format='csv')"
)


def _dumped(cfg, tmp_path):
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, path)
    return path.read_bytes()


def test_default_dump_bytes(tmp_path):
    assert _dumped(default_config(), tmp_path) == DEFAULT_YAML.encode("utf-8")


def test_custom_dump_bytes(tmp_path):
    cfg = dataclasses.replace(
        default_config(),
        protocol=Protocol.P1,
        timing=Timing.BUFFERED,
        out="keys/run.csv",
        bracket=(0.5, 12.25),
        burst_block=2500,
        seed=7,
        format="records",
        sweep=SweepSpec(0.2, 8.0, 31, "linear"),
    )
    assert _dumped(cfg, tmp_path) == CUSTOM_YAML.encode("utf-8")


def test_default_repr():
    assert repr(default_config()) == DEFAULT_REPR

"""Hybrid optical/wire key distribution: round simulator and rate models.

An optical BB84-style link and a parallel noise-based wire link run in
coordination. The wire either replaces public basis sifting (Protocol I),
additionally turns the hidden common basis into key material (Protocol II),
or alternates subsystems for one bit every interval (Protocol III). This
package provides the closed-form link budget and rate models, sample-level
wire simulation, a table-driven round engine, Monte Carlo sessions in
gated and buffered timing modes, and a deterministic CLI.
"""

from .errors import ConfigError, DomainError, SolverError
from .kljn import (
    LineObservation,
    NoiseLevel,
    ResistorChoice,
    classify_level,
    eve_observe,
    line_variance,
    sample_line,
)
from .physics import (
    KljnLineParams,
    LinkBudget,
    OpticalParams,
    binary_entropy,
    gain_and_qber,
    kljn_bit_rate,
    link_budget,
    post_processing_penalty,
    system_transmittance,
    wave_limit_bandwidth,
)
from .protocol import (
    Basis,
    ChannelModel,
    KeyOrigin,
    KeyStream,
    Polarization,
    Protocol,
    ProtocolRound,
    RoundInputs,
    extract_key,
    measure_photon,
    run_round,
)
from .rates import (
    RatePoint,
    crossover_distance,
    normalized_rates,
    short_haul_supremacy_bound,
    sweep,
    throughputs,
)
from .session import (
    SessionStats,
    Timing,
    TimingMode,
    estimate_per_pulse_yield,
    per_pulse_yield_moments,
    run_buffered_session,
    run_gated_session,
)

__version__ = "0.1.0"

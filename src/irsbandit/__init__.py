"""Bandit-driven IRS association in a two-tier HetNet: a deterministic
Monte-Carlo simulator and policy library."""

from .config import (
    ChannelParams,
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
    TopologyConfig,
)
from .engine import (
    BernoulliEnvironment,
    ChannelEnvironment,
    Lane,
    ReplicationResult,
    SatisfactionTrace,
    run_lanes,
    run_monte_carlo,
    run_replication,
)
from .experiment import (
    ConfigError,
    ExperimentSpec,
    OutputFormat,
    RunSummary,
    default_config_text,
    emit_trace,
    parse_config,
    run_experiment,
)
from .topology import (
    NetworkTopology,
    build_network,
    build_topology,
    place_ues,
)

__all__ = [
    "BernoulliEnvironment",
    "ChannelEnvironment",
    "ChannelParams",
    "ConfigError",
    "DistributionCase",
    "ExperimentSpec",
    "Lane",
    "NetworkTopology",
    "OutputFormat",
    "PolicyConfig",
    "PolicyKind",
    "ReplicationResult",
    "RunSummary",
    "SatisfactionTrace",
    "SimulationConfig",
    "TopologyConfig",
    "build_network",
    "build_topology",
    "default_config_text",
    "emit_trace",
    "parse_config",
    "place_ues",
    "run_experiment",
    "run_lanes",
    "run_monte_carlo",
    "run_replication",
]

__version__ = "0.1.0"

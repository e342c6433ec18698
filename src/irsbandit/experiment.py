"""Experiment runner: config parsing, scenario sweeps, trace emission.

The config file is flat sectioned key=value text (or the same schema as a
JSON object); every key is optional and falls back to the documented
default. Sweeps run the Cartesian product policies x cases x phis x omegas,
every cell with the same seed range, and emit one plot-ready trace file
plus a machine-readable summary.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import logging
import os
import time
from dataclasses import dataclass

from .config import (
    ChannelParams,
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
    TopologyConfig,
)
from .engine import SatisfactionTrace, run_monte_carlo
from .policy import effective_config

log = logging.getLogger("irsbandit")

FINAL_WINDOW = 20  # iterations averaged for "final" statistics

CSV_HEADER = (
    "iteration,policy,case,omega,phi,"
    "mean_satisfaction,ci95_halfwidth,mean_secrecy_rate"
)


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending key."""


class OutputFormat(str, enum.Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: base protocol plus sweep axes."""

    base: SimulationConfig = SimulationConfig()
    policies: tuple[PolicyKind, ...] = (
        PolicyKind.CONTEXTUAL_BANDIT,
        PolicyKind.GREEDY,
    )
    cases: tuple[DistributionCase, ...] = (
        DistributionCase.RANDOM,
        DistributionCase.CLUSTERED,
    )
    phis: tuple[int, ...] = (1, 2, 4)
    omegas: tuple[float, ...] = (0.1,)
    output_path: str = "traces.csv"
    format: OutputFormat = OutputFormat.CSV

    def __post_init__(self):
        for axis in ("policies", "cases", "phis", "omegas"):
            if not getattr(self, axis):
                raise ConfigError(f"sweep.{axis}: must be non-empty")

    def sweep_cells(self):
        """Deterministic cell order: policies, cases, phis, omegas."""
        for kind in self.policies:
            for case in self.cases:
                for phi in self.phis:
                    for omega in self.omegas:
                        yield kind, case, phi, omega


@dataclass(frozen=True)
class CellSummary:
    policy: PolicyKind
    case: DistributionCase
    omega: float
    phi: int
    final_mean_satisfaction: float
    final_mean_secrecy: float
    wall_seconds: float
    seed_lo: int
    seed_hi: int


@dataclass(frozen=True)
class GapEntry:
    case: DistributionCase
    omega: float
    phi: int
    gap: float  # bandit final mean minus greedy final mean


@dataclass(frozen=True)
class RunSummary:
    cells: tuple[CellSummary, ...]
    gaps: tuple[GapEntry, ...]


# ---------------------------------------------------------------------------
# config schema


def _to_int(raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError("expected an integer")
    try:
        return int(str(raw).strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _to_float(raw):
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ValueError("expected a number")
    try:
        return float(str(raw).strip())
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _to_bool(raw):
    if isinstance(raw, bool):
        return raw
    token = str(raw).strip().lower()
    if token in ("true", "false"):
        return token == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _to_optional_float(raw):
    if raw is None or (isinstance(raw, str) and raw.strip().lower() == "none"):
        return None
    return _to_float(raw)


def _to_offsets(raw):
    if isinstance(raw, str):
        pairs = [p for p in (s.strip() for s in raw.split(",")) if p]
        try:
            return tuple(
                (float(a), float(b)) for a, b in (p.split() for p in pairs)
            )
        except ValueError:
            raise ValueError(
                f"expected 'x y' pairs separated by commas, got {raw!r}"
            ) from None
    try:
        return tuple((float(a), float(b)) for a, b in raw)
    except (TypeError, ValueError):
        raise ValueError(f"expected a list of [x, y] pairs, got {raw!r}") from None


def _to_list(raw):
    if isinstance(raw, str):
        return [s.strip() for s in raw.split(",") if s.strip()]
    if isinstance(raw, (list, tuple)):
        return list(raw)
    raise ValueError(f"expected a list, got {raw!r}")


def _to_enum(enum_cls):
    def convert(raw):
        token = str(raw).strip().lower()
        for member in enum_cls:
            if member.value == token:
                return member
        allowed = ", ".join(m.value for m in enum_cls)
        raise ValueError(f"expected one of {allowed}, got {raw!r}")

    return convert


def _each(item_convert):
    def convert(raw):
        return tuple(item_convert(v) for v in _to_list(raw))

    return convert


_SCHEMA = {
    "experiment": {
        "base_seed": _to_int,
        "periods": _to_int,
        "replications": _to_int,
        "rate_threshold": _to_float,
        "channel_budget": _to_int,
        "enforce_channel_budget": _to_bool,
    },
    "topology": {
        "grid_side": _to_float,
        "small_cell_count": _to_int,
        "small_cell_offsets": _to_offsets,
        "irs_per_cell": _to_int,
        "irs_radius": _to_float,
        "eavesdroppers_per_cell": _to_int,
        "eve_radius": _to_float,
        "ue_count": _to_int,
        "cluster_size": _to_int,
        "cluster_spread": _to_float,
        "detection_radius": _to_optional_float,
    },
    "channel": {
        "pathloss_exponent": _to_float,
        "ref_loss_db": _to_float,
        "irs_gain_db": _to_float,
        "tx_power_db": _to_float,
        "noise_power_db": _to_float,
    },
    "policy": {
        "omega": _to_float,
        "phi": _to_int,
    },
    "sweep": {
        "policies": _each(_to_enum(PolicyKind)),
        "cases": _each(_to_enum(DistributionCase)),
        "phis": _each(_to_int),
        "omegas": _each(_to_float),
    },
    "output": {
        "path": str,
        "format": _to_enum(OutputFormat),
    },
}


def _parse_sections(text: str) -> dict:
    """Raw text -> {section: {key: raw value}}; JSON input passes through."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(data, dict) or not all(
            isinstance(v, dict) for v in data.values()
        ):
            raise ConfigError("JSON config must be an object of section objects")
        return data

    sections: dict = {}
    current = "experiment"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        section = sections.setdefault(current, {})
        if key in section:
            raise ConfigError(f"duplicate key: {current}.{key}")
        section[key] = value.strip()
    return sections


def _build(section: str, cls, **fields):
    """cls(**fields), with a failed field check reported as section.field."""
    try:
        return cls(**fields)
    except ValueError as exc:  # config messages start with "field: "
        raise ConfigError(f"{section}.{exc}") from None


def parse_config(text: str) -> ExperimentSpec:
    """Validate config text and fill every omitted key with its default.

    Raises ConfigError naming the exact offending key on unknown keys,
    type mismatches, and invariant violations.
    """
    sections = _parse_sections(text)

    values: dict = {}
    for section, keys in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section: {section}")
        values[section] = {}
        for key, raw in keys.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key: {section}.{key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None

    def pick(section, key, default):
        return values.get(section, {}).get(key, default)

    for w in pick("sweep", "omegas", (0.1,)):
        if not 0.0 <= w <= 1.0:
            raise ConfigError("sweep.omegas: every value must be within [0, 1]")
    for f in pick("sweep", "phis", (1, 2, 4)):
        if f < 1:
            raise ConfigError("sweep.phis: every value must be at least 1")

    defaults_topo = TopologyConfig()
    topo = _build(
        "topology",
        TopologyConfig,
        grid_side=pick("topology", "grid_side", defaults_topo.grid_side),
        small_cell_count=pick(
            "topology", "small_cell_count", defaults_topo.small_cell_count
        ),
        small_cell_offsets=pick(
            "topology", "small_cell_offsets", defaults_topo.small_cell_offsets
        ),
        irs_per_cell=pick("topology", "irs_per_cell", defaults_topo.irs_per_cell),
        irs_radius=pick("topology", "irs_radius", defaults_topo.irs_radius),
        eavesdroppers_per_cell=pick(
            "topology",
            "eavesdroppers_per_cell",
            defaults_topo.eavesdroppers_per_cell,
        ),
        eve_radius=pick("topology", "eve_radius", defaults_topo.eve_radius),
        ue_count=pick("topology", "ue_count", defaults_topo.ue_count),
        cluster_size=pick("topology", "cluster_size", defaults_topo.cluster_size),
        cluster_spread=pick(
            "topology", "cluster_spread", defaults_topo.cluster_spread
        ),
        detection_radius=pick(
            "topology", "detection_radius", defaults_topo.detection_radius
        ),
    )

    defaults_chan = ChannelParams()
    chan = _build(
        "channel",
        ChannelParams,
        pathloss_exponent=pick(
            "channel", "pathloss_exponent", defaults_chan.pathloss_exponent
        ),
        ref_loss_db=pick("channel", "ref_loss_db", defaults_chan.ref_loss_db),
        irs_gain_db=pick("channel", "irs_gain_db", defaults_chan.irs_gain_db),
        tx_power_db=pick("channel", "tx_power_db", defaults_chan.tx_power_db),
        noise_power_db=pick(
            "channel", "noise_power_db", defaults_chan.noise_power_db
        ),
    )
    defaults_policy = PolicyConfig()
    policy = _build(
        "policy",
        PolicyConfig,
        omega=pick("policy", "omega", defaults_policy.omega),
        phi=pick("policy", "phi", defaults_policy.phi),
    )

    defaults_sim = SimulationConfig()
    cases = pick("sweep", "cases", ExperimentSpec().cases)
    ue_count = topo.ue_count
    if DistributionCase.CLUSTERED in cases and ue_count % topo.cluster_size != 0:
        raise ConfigError(
            "topology.ue_count: must be a multiple of topology.cluster_size "
            "for the clustered case"
        )

    base = _build(
        "experiment",
        SimulationConfig,
        topology=topo,
        channel=chan,
        policy=policy,
        rate_threshold=pick(
            "experiment", "rate_threshold", defaults_sim.rate_threshold
        ),
        periods=pick("experiment", "periods", defaults_sim.periods),
        replications=pick(
            "experiment", "replications", defaults_sim.replications
        ),
        base_seed=pick("experiment", "base_seed", defaults_sim.base_seed),
        channel_budget=pick(
            "experiment", "channel_budget", defaults_sim.channel_budget
        ),
        enforce_channel_budget=pick(
            "experiment",
            "enforce_channel_budget",
            defaults_sim.enforce_channel_budget,
        ),
    )

    spec_defaults = ExperimentSpec()
    return ExperimentSpec(
        base=base,
        policies=pick("sweep", "policies", spec_defaults.policies),
        cases=cases,
        phis=pick("sweep", "phis", spec_defaults.phis),
        omegas=pick("sweep", "omegas", spec_defaults.omegas),
        output_path=pick("output", "path", spec_defaults.output_path),
        format=pick("output", "format", spec_defaults.format),
    )


def default_config_text() -> str:
    """The documented schema with every default spelled out."""
    topo = TopologyConfig()
    chan = ChannelParams()
    sim = SimulationConfig()
    spec = ExperimentSpec()
    offsets = ", ".join(f"{x:g} {y:g}" for x, y in topo.small_cell_offsets)
    return f"""\
# experiment protocol
[experiment]
base_seed = {sim.base_seed}
periods = {sim.periods}
replications = {sim.replications}
rate_threshold = {sim.rate_threshold}
channel_budget = {sim.channel_budget}
enforce_channel_budget = {str(sim.enforce_channel_budget).lower()}

[topology]
grid_side = {topo.grid_side}
small_cell_count = {topo.small_cell_count}
small_cell_offsets = {offsets}
irs_per_cell = {topo.irs_per_cell}
irs_radius = {topo.irs_radius}
eavesdroppers_per_cell = {topo.eavesdroppers_per_cell}
eve_radius = {topo.eve_radius}
ue_count = {topo.ue_count}
cluster_size = {topo.cluster_size}
cluster_spread = {topo.cluster_spread}
detection_radius = none

[channel]
pathloss_exponent = {chan.pathloss_exponent}
ref_loss_db = {chan.ref_loss_db}
irs_gain_db = {chan.irs_gain_db}
tx_power_db = {chan.tx_power_db}
noise_power_db = {chan.noise_power_db}

[policy]
omega = {PolicyConfig().omega}
phi = {PolicyConfig().phi}

[sweep]
policies = {", ".join(p.value for p in spec.policies)}
cases = {", ".join(c.value for c in spec.cases)}
phis = {", ".join(str(f) for f in spec.phis)}
omegas = {", ".join(f"{w:g}" for w in spec.omegas)}

[output]
path = {spec.output_path}
format = {spec.format.value}
"""


# ---------------------------------------------------------------------------
# trace emission


def _csv_rows(trace: SatisfactionTrace):
    for t in range(trace.periods):
        yield (
            f"{t + 1},{trace.policy.value},{trace.case.value},"
            f"{trace.omega:g},{trace.phi},"
            f"{trace.mean_satisfaction[t]:.6f},"
            f"{trace.ci95_halfwidth[t]:.6f},"
            f"{trace.mean_secrecy_rate[t]:.6f}"
        )


def _json_cell(trace: SatisfactionTrace) -> dict:
    return {
        "policy": trace.policy.value,
        "case": trace.case.value,
        "omega": trace.omega,
        "phi": trace.phi,
        "trace": [
            {
                "iteration": t + 1,
                "mean_satisfaction": round(float(trace.mean_satisfaction[t]), 6),
                "ci95_halfwidth": round(float(trace.ci95_halfwidth[t]), 6),
                "mean_secrecy_rate": round(float(trace.mean_secrecy_rate[t]), 6),
            }
            for t in range(trace.periods)
        ],
    }


def emit_trace(traces, path: str, format: OutputFormat = OutputFormat.CSV) -> None:
    """Write one or more traces as plot-ready CSV or JSON.

    CSV columns are exactly iteration,policy,case,omega,phi,
    mean_satisfaction,ci95_halfwidth,mean_secrecy_rate with means at six
    decimal places; rows follow sweep order then iteration, so reruns of
    the same spec are byte-identical.
    """
    if isinstance(traces, SatisfactionTrace):
        traces = [traces]
    if format is OutputFormat.CSV:
        lines = [CSV_HEADER]
        for trace in traces:
            lines.extend(_csv_rows(trace))
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps([_json_cell(t) for t in traces], indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


# ---------------------------------------------------------------------------
# sweep runner


def _cell_config(base: SimulationConfig, kind, case, phi, omega) -> SimulationConfig:
    return dataclasses.replace(
        base,
        topology=dataclasses.replace(base.topology, distribution_case=case),
        policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
    )


def summary_path(output_path: str) -> str:
    root, _ = os.path.splitext(output_path)
    return root + ".summary.json"


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Run every sweep cell, write the trace file and a summary JSON.

    Every cell reuses the same seed range (common random numbers), which
    pairs the bandit and greedy runs for the gap statistics. Cells whose
    configs differ only in policy fields the policy never reads (see
    policy.effective_config) run once; the repeats copy that trace under
    their own omega and phi labels, and their wall_seconds is the time the
    copy took.
    """
    window = min(FINAL_WINDOW, spec.base.periods)
    traces = []
    cells = []
    computed: dict[SimulationConfig, SatisfactionTrace] = {}
    for kind, case, phi, omega in spec.sweep_cells():
        cfg = _cell_config(spec.base, kind, case, phi, omega)
        start = time.perf_counter()
        key = dataclasses.replace(cfg, policy=effective_config(cfg.policy))
        if key in computed:
            trace = dataclasses.replace(computed[key], omega=omega, phi=phi)
        else:
            trace = computed[key] = run_monte_carlo(cfg)
        wall = time.perf_counter() - start
        log.info(
            "cell policy=%s case=%s phi=%d omega=%g: %.2f s",
            kind.value, case.value, phi, omega, wall,
        )
        traces.append(trace)
        cells.append(
            CellSummary(
                policy=kind,
                case=case,
                omega=omega,
                phi=phi,
                final_mean_satisfaction=float(
                    trace.mean_satisfaction[-window:].mean()
                ),
                final_mean_secrecy=float(trace.mean_secrecy_rate[-window:].mean()),
                wall_seconds=wall,
                seed_lo=cfg.base_seed,
                seed_hi=cfg.base_seed + cfg.replications - 1,
            )
        )

    gaps = []
    by_key = {(c.policy, c.case, c.phi, c.omega): c for c in cells}
    for case in spec.cases:
        for phi in spec.phis:
            for omega in spec.omegas:
                cb = by_key.get((PolicyKind.CONTEXTUAL_BANDIT, case, phi, omega))
                greedy = by_key.get((PolicyKind.GREEDY, case, phi, omega))
                if cb and greedy:
                    gaps.append(
                        GapEntry(
                            case=case,
                            omega=omega,
                            phi=phi,
                            gap=cb.final_mean_satisfaction
                            - greedy.final_mean_satisfaction,
                        )
                    )

    emit_trace(traces, spec.output_path, spec.format)
    summary = RunSummary(cells=tuple(cells), gaps=tuple(gaps))
    with open(summary_path(spec.output_path), "w", encoding="utf-8") as fh:
        json.dump(_summary_obj(summary), fh, indent=2)
        fh.write("\n")
    return summary


def _summary_obj(summary: RunSummary) -> dict:
    return {
        "cells": [
            {
                "policy": c.policy.value,
                "case": c.case.value,
                "omega": c.omega,
                "phi": c.phi,
                "final_mean_satisfaction": round(c.final_mean_satisfaction, 6),
                "final_mean_secrecy": round(c.final_mean_secrecy, 6),
                "wall_seconds": round(c.wall_seconds, 3),
                "seed_lo": c.seed_lo,
                "seed_hi": c.seed_hi,
            }
            for c in summary.cells
        ],
        "gaps": [
            {
                "case": g.case.value,
                "omega": g.omega,
                "phi": g.phi,
                "gap": round(g.gap, 6),
            }
            for g in summary.gaps
        ],
    }


def format_summary(summary: RunSummary) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"{'policy':<8} {'case':<10} {'omega':>6} {'phi':>4} "
        f"{'final_sat':>10} {'secrecy':>8} {'wall_s':>7}"
    ]
    for c in summary.cells:
        lines.append(
            f"{c.policy.value:<8} {c.case.value:<10} {c.omega:>6g} {c.phi:>4d} "
            f"{c.final_mean_satisfaction:>10.4f} {c.final_mean_secrecy:>8.3f} "
            f"{c.wall_seconds:>7.2f}"
        )
    for g in summary.gaps:
        lines.append(
            f"gap[{g.case.value}, omega={g.omega:g}, phi={g.phi}] = {g.gap:+.4f}"
        )
    return "\n".join(lines)

"""Experiment runner: config parsing, scenario sweeps, trace emission.

The config file is flat sectioned key=value text (or the same schema as a
JSON object); every key is optional and falls back to its default. The
keys, their types and their defaults come from the config dataclasses: each
section is one dataclass and each key one of its fields, so a new field is a
new key. Sweeps run the Cartesian product policies x cases x phis x omegas,
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
from .engine import SatisfactionTrace, run_cells
from .policy import effective_config

log = logging.getLogger("irsbandit")

FINAL_WINDOW = 20  # iterations averaged for "final" statistics

_COLUMNS = ("mean_satisfaction", "ci95_halfwidth", "mean_secrecy_rate")  # per iteration
CSV_HEADER = "iteration,policy,case,omega,phi," + ",".join(_COLUMNS)

_AXES = ("policies", "cases", "phis", "omegas")


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending key."""


class OutputFormat(str, enum.Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: base protocol plus sweep axes. Each sweep cell
    replaces base.policy and base.topology.distribution_case with its own."""

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
        for axis, kind in (("policies", PolicyKind), ("cases", DistributionCase)):
            for value in getattr(self, axis):
                if not isinstance(value, kind):  # a str equal to a member's value too
                    raise ConfigError(f"sweep.{axis}: {value!r} is not a {kind.__name__}")
        if not isinstance(self.format, OutputFormat):
            raise ConfigError(f"output.format: must be an OutputFormat, got {self.format!r}")
        for axis in _AXES:
            values = getattr(self, axis)
            if not values:
                raise ConfigError(f"sweep.{axis}: must be non-empty")
            for k, value in enumerate(values):
                if value in values[:k]:
                    shown = value.value if isinstance(value, enum.Enum) else value
                    raise ConfigError(f"sweep.{axis}: duplicate value {shown!r}")
        for axis, name in (("omegas", "omega"), ("phis", "phi")):
            for value in getattr(self, axis):
                try:
                    PolicyConfig(**{name: value})
                except ValueError as exc:  # "omega: must be ...": keep the message
                    message = str(exc).partition(": ")[2]
                    raise ConfigError(f"sweep.{axis}: {message}") from None
        try:  # the base topology is valid, so only a clustered case's division can fail
            for case in self.cases:
                dataclasses.replace(self.base.topology, distribution_case=case)
        except ValueError as exc:
            raise ConfigError(f"topology.{exc}") from None
        if not self.output_path:
            raise ConfigError("output.path: must be non-empty")

    def sweep_cells(self):
        """Deterministic cell order: policies, cases, phis, omegas."""
        for kind in self.policies:
            for case in self.cases:
                for phi in self.phis:
                    for omega in self.omegas:
                        yield kind, case, phi, omega


@dataclass(frozen=True)
class CellSummary:
    """One sweep cell's final-window means; cfg is the cell's config."""

    cfg: SimulationConfig
    final_mean_satisfaction: float
    final_mean_secrecy: float
    wall_seconds: float


@dataclass(frozen=True)
class GapEntry:
    """One bandit cell against its greedy twin; cfg is the bandit cell's config."""

    cfg: SimulationConfig
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


def _to_str(raw):
    if not isinstance(raw, str):
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


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
    if not (isinstance(raw, (list, tuple)) and all(map(_is_pair, raw))):
        raise ValueError(f"expected a list of [x, y] pairs, got {raw!r}")
    return tuple((float(x), float(y)) for x, y in raw)


def _is_pair(p) -> bool:
    """p is a list of two numbers, each an int or a float (a bool is neither)."""
    return isinstance(p, (list, tuple)) and len(p) == 2 and all(type(v) in (int, float) for v in p)


def _is_int(v) -> bool:
    return type(v) is int  # a bool is no JSON integer


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _array_of(is_item, items: str):
    """The JSON type of an array of items, each passing is_item: (its name, its check)."""
    return f"a JSON array of {items}", lambda v: type(v) is list and all(map(is_item, v))


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


def _joined(item_text):
    def text(values):
        return ", ".join(item_text(v) for v in values)

    return text


def _value(member):
    return member.value


_STRING = ("a JSON string", lambda v: type(v) is str)
_STRINGS = _array_of(_STRING[1], "strings")

# Field annotation (a string under postponed evaluation) -> (text -> value,
# value -> text, JSON type). The second writes default_config_text. The
# third, a name and a check, rejects a JSON config's value that the first
# reads only as text, such as a quoted number.
_TYPES = {
    "int": (_to_int, str, ("a JSON integer", _is_int)),
    "float": (_to_float, str, ("a JSON number", _is_number)),
    "bool": (_to_bool, lambda v: str(v).lower(), ("JSON true or false", lambda v: type(v) is bool)),
    "float | None": (
        _to_optional_float,
        lambda v: "none" if v is None else str(v),
        ("a JSON number or null", lambda v: v is None or _is_number(v)),
    ),
    "str": (_to_str, str, _STRING),
    "OutputFormat": (_to_enum(OutputFormat), _value, _STRING),
    "tuple[tuple[float, float], ...]": (
        _to_offsets,
        _joined(lambda xy: f"{xy[0]:g} {xy[1]:g}"),
        _array_of(_is_pair, "[x, y] pairs"),
    ),
    "tuple[PolicyKind, ...]": (_each(_to_enum(PolicyKind)), _joined(_value), _STRINGS),
    "tuple[DistributionCase, ...]": (_each(_to_enum(DistributionCase)), _joined(_value), _STRINGS),
    "tuple[int, ...]": (_each(_to_int), _joined(str), _array_of(_is_int, "integers")),
    "tuple[float, ...]": (_each(_to_float), _joined(str), _array_of(_is_number, "numbers")),
}

# Fields no key sets: the nested sections, and the policy and case each cell sets.
_NOT_KEYS = ("topology", "channel", "policy", "distribution_case")


def _keys(cls, names=None) -> dict:
    """Config key -> field of cls; names maps key -> field name."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if names is None:
        names = {name: name for name in fields if name not in _NOT_KEYS}
    return {key: fields[name] for key, name in names.items()}


# section -> (dataclass, key -> field), in the order default_config_text
# writes them.
_SECTIONS = {
    "experiment": (SimulationConfig, _keys(SimulationConfig)),
    "topology": (TopologyConfig, _keys(TopologyConfig)),
    "channel": (ChannelParams, _keys(ChannelParams)),
    "sweep": (ExperimentSpec, _keys(ExperimentSpec, {a: a for a in _AXES})),
    "output": (
        ExperimentSpec,
        _keys(ExperimentSpec, {"path": "output_path", "format": "format"}),
    ),
}


class _JSONObject(dict):
    """A JSON object that keeps its (key, value) pairs, a repeated key included."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _parse_sections(text: str) -> tuple[dict, bool]:
    """Raw text or JSON -> {section: {key: raw value}}, and whether it was JSON;
    in either form a repeated section merges into the first, and a key given
    twice in one is rejected."""
    typed = text.lstrip().startswith("{")
    if typed:
        try:
            data = json.loads(text, object_pairs_hook=_JSONObject)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not all(isinstance(keys, dict) for _, keys in data.pairs):
            raise ConfigError("JSON config must be an object of section objects")
        blocks = [(section, keys.pairs) for section, keys in data.pairs]
    else:
        blocks = [("experiment", [])]
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                blocks.append((line[1:-1].strip(), []))
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            blocks[-1][1].append((key.strip(), value.strip()))

    sections: dict = {}
    for section, pairs in blocks:
        keys = sections.setdefault(section, {})
        for key, value in pairs:
            if key in keys:
                raise ConfigError(f"duplicate key: {section}.{key}")
            keys[key] = value
    return sections, typed


def _build(section: str, cls, **fields):
    """cls(**fields), with a failed field check reported as section.field."""
    try:
        return cls(**fields)
    except ValueError as exc:  # "field: ...", or "section.field: ..." across sections
        named = "." in str(exc).partition(":")[0]
        raise ConfigError(str(exc) if named else f"{section}.{exc}") from None


def parse_config(text: str, overrides: dict | None = None) -> ExperimentSpec:
    """Validate config text and fill every omitted key with its default.

    A JSON config's values must have their keys' JSON types (a JSON
    integer, number, true or false, string or array of these, or null for
    detection_radius); a text config's are read by the string rules.
    overrides ({section: {key: value}}, None for an unset value) replace
    the text's values before they are checked, so they are validated and
    named like the text's own, by the string rules for strings. Raises
    ConfigError naming the exact offending key on unknown keys, type
    mismatches, and invariant violations.
    """
    sections, typed = _parse_sections(text)
    # the JSON config's own values, checked for their JSON types
    json_keys = {(s, k) for s, keys in sections.items() for k in keys} if typed else set()
    for section, keys in (overrides or {}).items():
        set_keys = {key: value for key, value in keys.items() if value is not None}
        sections.setdefault(section, {}).update(set_keys)
        json_keys -= {(section, key) for key in set_keys}

    values: dict = {section: {} for section in _SECTIONS}
    for section, keys in sections.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section: {section}")
        fields = _SECTIONS[section][1]
        for key, raw in keys.items():
            if key not in fields:
                raise ConfigError(f"unknown key: {section}.{key}")
            field = fields[key]
            read, _, (json_type, is_json_type) = _TYPES[field.type]
            try:
                values[section][field.name] = read(raw)
                if (section, key) in json_keys and not is_json_type(raw):
                    raise ValueError(f"expected {json_type}, got {raw!r}")
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None

    nested = {s: _build(s, _SECTIONS[s][0], **values[s]) for s in ("topology", "channel")}
    return ExperimentSpec(
        base=_build("experiment", SimulationConfig, **values["experiment"], **nested),
        **values["sweep"],
        **values["output"],
    )


def default_config_text() -> str:
    """Every key with its default, in field order, as parse_config reads it."""
    blocks = [
        "\n".join(
            [f"[{section}]"]
            + [
                f"{key} = {_TYPES[field.type][1](field.default)}"
                for key, field in keys.items()
            ]
        )
        for section, (_, keys) in _SECTIONS.items()
    ]
    return "# experiment protocol\n" + "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# trace emission


def _labels(cfg: SimulationConfig) -> dict:
    """A cell's sweep labels, as every output names them."""
    return {
        "policy": cfg.policy.kind.value,
        "case": cfg.topology.distribution_case.value,
        "omega": cfg.policy.omega,
        "phi": cfg.policy.phi,
    }


def _rows(trace: SatisfactionTrace):
    """Its _COLUMNS values per period, as Python floats: np.float64 formats and
    rounds through float's methods, only more slowly."""
    return zip(*(getattr(trace, c)[: trace.cfg.periods].tolist() for c in _COLUMNS))


def _json_cell(trace: SatisfactionTrace) -> dict:
    return {
        **_labels(trace.cfg),
        "trace": [
            {"iteration": t, **{c: round(v, 6) for c, v in zip(_COLUMNS, values)}}
            for t, values in enumerate(_rows(trace), 1)
        ],
    }


def emit_trace(traces, path: str, format: OutputFormat = OutputFormat.CSV) -> None:
    """Write one or more traces as plot-ready CSV or JSON.

    CSV columns are exactly iteration,policy,case,omega,phi,
    mean_satisfaction,ci95_halfwidth,mean_secrecy_rate with means at six
    decimal places; rows follow sweep order then iteration, so reruns of
    the same spec are byte-identical. CSV rows go to the file one cell at a
    time, and only the last cell's formatted numbers are kept: a trace
    that shares its arrays with the one before it (a copy under another
    config) formats nothing. A format that is not an OutputFormat, a string
    included, is rejected before the file is opened.
    """
    if not isinstance(format, OutputFormat):
        raise ValueError(f"format: must be an OutputFormat, got {format!r}")
    traces = [traces] if isinstance(traces, SatisfactionTrace) else list(traces)
    with open(path, "w", encoding="utf-8") as fh:
        if format is OutputFormat.CSV:
            fh.write(CSV_HEADER + "\n")
            # the arrays the last trace read, and its rows' numeric fields; the
            # list keeps every trace alive, so no id is reused within the call
            last = numbers = None
            for trace in traces:
                key = (trace.cfg.periods, *(id(getattr(trace, c)) for c in _COLUMNS))
                if key != last:
                    last, numbers = key, ["%.6f,%.6f,%.6f\n" % row for row in _rows(trace)]
                labels = "{policy},{case},{omega:g},{phi}".format(**_labels(trace.cfg))
                fh.write("".join([f"{t},{labels},{row}" for t, row in enumerate(numbers, 1)]))
        else:
            fh.write(json.dumps([_json_cell(t) for t in traces], indent=2) + "\n")


# ---------------------------------------------------------------------------
# sweep runner


def summary_path(output_path: str) -> str:
    root, _ = os.path.splitext(output_path)
    return root + ".summary.json"


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Run every sweep cell, write the trace file and a summary JSON.

    Every cell reuses the same seed range (common random numbers), which
    pairs the bandit and greedy runs for the gap statistics. A cell's config
    is the base with the cell's case and policy, each case's topology built
    once. Cells with the same case and the same policy.effective_config (so
    differing only in policy fields the policy never reads) run once; each
    repeat copies that trace under its own config. Every replication of
    every distinct cell runs as one lane of a single engine.run_cells call,
    so lanes of different cells share chunks. A computed cell's
    wall_seconds is its lanes' share of their chunks' wall time; a copied
    cell's is the time the copy took.
    """
    base = spec.base
    window = min(FINAL_WINDOW, base.periods)
    topologies = {
        case: dataclasses.replace(base.topology, distribution_case=case) for case in spec.cases
    }
    sweep = []
    first = {}  # (case, effective policy) -> its first cell's config
    for cell in spec.sweep_cells():
        kind, case, phi, omega = cell
        cfg = dataclasses.replace(
            base, topology=topologies[case], policy=PolicyConfig(kind=kind, omega=omega, phi=phi)
        )
        key = case, effective_config(cfg.policy)
        sweep.append((cell, cfg, key))
        first.setdefault(key, cfg)
    computed = dict(zip(first, run_cells(first.values())))
    traces = []
    cells = {}  # sweep cell -> its summary
    for cell, cfg, key in sweep:
        trace, wall = computed[key]
        if first[key] is not cfg:
            start = time.perf_counter()
            trace = dataclasses.replace(trace, cfg=cfg)
            wall = time.perf_counter() - start
        kind, case, phi, omega = cell
        log.info(
            "cell policy=%s case=%s phi=%d omega=%g: %.2f s",
            kind.value, case.value, phi, omega, wall,
        )
        traces.append(trace)
        cells[cell] = CellSummary(
            cfg=cfg,
            final_mean_satisfaction=float(trace.mean_satisfaction[-window:].mean()),
            final_mean_secrecy=float(trace.mean_secrecy_rate[-window:].mean()),
            wall_seconds=wall,
        )

    gaps = []  # bandit cells in sweep order: cases, phis, omegas
    for (kind, case, phi, omega), cb in cells.items():
        greedy = cells.get((PolicyKind.GREEDY, case, phi, omega))
        if kind is PolicyKind.CONTEXTUAL_BANDIT and greedy:
            gap = cb.final_mean_satisfaction - greedy.final_mean_satisfaction
            gaps.append(GapEntry(cfg=cb.cfg, gap=gap))

    emit_trace(traces, spec.output_path, spec.format)
    summary = RunSummary(cells=tuple(cells.values()), gaps=tuple(gaps))
    with open(summary_path(spec.output_path), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_summary_obj(summary), indent=2) + "\n")
    return summary


def _summary_obj(summary: RunSummary) -> dict:
    return {
        "cells": [
            {
                **_labels(c.cfg),
                "final_mean_satisfaction": round(c.final_mean_satisfaction, 6),
                "final_mean_secrecy": round(c.final_mean_secrecy, 6),
                "wall_seconds": round(c.wall_seconds, 3),
                "seed_lo": c.cfg.base_seed,
                "seed_hi": c.cfg.base_seed + c.cfg.replications - 1,
            }
            for c in summary.cells
        ],
        "gaps": [
            {
                **{k: v for k, v in _labels(g.cfg).items() if k != "policy"},
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
            "{policy:<8} {case:<10} {omega:>6g} {phi:>4d} ".format(**_labels(c.cfg))
            + f"{c.final_mean_satisfaction:>10.4f} {c.final_mean_secrecy:>8.3f} "
            f"{c.wall_seconds:>7.2f}"
        )
    for g in summary.gaps:
        lines.append(
            "gap[{case}, omega={omega:g}, phi={phi}] = ".format(**_labels(g.cfg))
            + f"{g.gap:+.4f}"
        )
    return "\n".join(lines)

import dataclasses
import hashlib
import json
import logging
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbandit import experiment
from irsbandit.config import (
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
    TopologyConfig,
)
from irsbandit import engine
from irsbandit.engine import run_lanes, run_monte_carlo
from irsbandit.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    OutputFormat,
    default_config_text,
    emit_trace,
    parse_config,
    run_experiment,
    summary_path,
)

SMALL = """
[experiment]
base_seed = 42
periods = 5
replications = 2

[sweep]
policies = cb, greedy
cases = random
phis = 1
omegas = 0.1

[output]
path = {path}
format = {format}
"""

CLUSTERED_COUNT_MESSAGE = (
    "topology.ue_count: must be a multiple of topology.cluster_size for the clustered case"
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# traces.csv of the default sweep (12 cells x 100 periods x 100 replications),
# as scripts/run_default_sweep.py writes it
FULL_DEFAULT_SWEEP_CSV_SHA256 = (
    "260b2c4ff0ab0968b80b2921feaec58f5bd77518895009d2e3f4e35d8b76ebf4"
)


def config_keys(text):
    """(section, key) of every `key = value` line, comments stripped, in order."""
    section = "experiment"
    keys = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            keys.append((section, line.split("=", 1)[0].strip()))
    return keys


DEFAULT_KEYS = config_keys(default_config_text())

# "" is malformed for every key; "?" for every key but output.path, where any
# non-empty text is a path.
MALFORMED = [
    (section, key, value)
    for section, key in DEFAULT_KEYS
    for value in ("", "?")
    if (section, key, value) != ("output", "path", "?")
]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        spec = parse_config("base_seed = 99\n")
        assert spec.base.base_seed == 99
        defaults = ExperimentSpec()
        assert spec.base.periods == defaults.base.periods
        assert spec.base.topology == defaults.base.topology
        assert spec.base.channel == defaults.base.channel
        assert spec.policies == defaults.policies
        assert spec.output_path == defaults.output_path

    def test_empty_config_is_all_defaults(self):
        assert parse_config("") == ExperimentSpec()

    def test_default_text_round_trips(self):
        assert parse_config(default_config_text()) == ExperimentSpec()

    @pytest.mark.parametrize("section, key, value", MALFORMED)
    def test_malformed_value_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert str(exc.value).startswith(f"{section}.{key}: ")

    @pytest.mark.parametrize("value", [None, [1, 2], 3], ids=["null", "list", "number"])
    def test_non_string_json_output_path_names_its_key(self, value):
        with pytest.raises(ConfigError, match=r"^output\.path: expected a string"):
            parse_config(json.dumps({"output": {"path": value}}))

    def test_default_sections_as_json_parse_to_defaults(self):
        sections = {
            "experiment": {
                "base_seed": 12345,
                "periods": 100,
                "replications": 100,
                "rate_threshold": 1.0,
                "channel_budget": 10000,
                "enforce_channel_budget": True,
            },
            "topology": {
                "grid_side": 200.0,
                "small_cell_count": 2,
                "small_cell_offsets": [[-50, 0], [50, 0]],
                "irs_per_cell": 8,
                "irs_radius": 20.0,
                "eavesdroppers_per_cell": 2,
                "eve_radius": 25.0,
                "ue_count": 20,
                "cluster_size": 10,
                "cluster_spread": 35.0,
                "detection_radius": None,
            },
            "channel": {
                "pathloss_exponent": 2.2,
                "ref_loss_db": 0.0,
                "irs_gain_db": 61.0,
                "tx_power_db": 5.0,
                "noise_power_db": 0.0,
            },
            "policy": {"omega": 0.1, "phi": 2},
            "sweep": {
                "policies": ["cb", "greedy"],
                "cases": ["random", "clustered"],
                "phis": [1, 2, 4],
                "omegas": [0.1],
            },
            "output": {"path": "traces.csv", "format": "csv"},
        }
        assert [(s, k) for s, keys in sections.items() for k in keys] == DEFAULT_KEYS
        assert parse_config(json.dumps(sections)) == ExperimentSpec()

    def test_readme_config_block_matches_default_text(self):
        readme = README.read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```")[1]
        assert config_keys(block) == DEFAULT_KEYS
        assert parse_config(block) == ExperimentSpec()

    def test_omega_bound_error_names_key(self):
        with pytest.raises(ConfigError, match=r"policy\.omega.*\[0, 1\]"):
            parse_config("[policy]\nomega = 1.5\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match=r"unknown key: topology\.grid_sdie"):
            parse_config("[topology]\ngrid_sdie = 100\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="unknown section: chanel"):
            parse_config("[chanel]\nirs_gain_db = 10\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match=r"experiment\.periods"):
            parse_config("[experiment]\nperiods = ten\n")

    def test_phi_sweep_cells(self):
        spec = parse_config("[sweep]\nphis = 1, 2, 4\ncases = random\n")
        cells = list(spec.sweep_cells())
        # three cells per policy x case
        assert len(cells) == len(spec.policies) * 1 * 3 * len(spec.omegas)

    def test_eve_radius_cross_check(self):
        with pytest.raises(ConfigError, match=r"topology\.eve_radius"):
            parse_config("[topology]\neve_radius = 10\n")

    def test_cluster_divisibility_named(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[topology]\nue_count = 25\n")
        assert str(info.value) == CLUSTERED_COUNT_MESSAGE

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[topology]\nsmall_cell_offsets = -95 0, 50 0\n",
                "topology.small_cell_offsets: small cell 0 at (5.0, 100.0) "
                "leaves the grid or its IRS ring does",
            ),
            (
                "[topology]\nsmall_cell_offsets = -50 0, 50 85\n",
                "topology.small_cell_offsets: small cell 1 at (150.0, 185.0) "
                "leaves the grid or its IRS ring does",
            ),
        ],
        ids=["offsets", "second-cell"],
    )
    def test_grid_fit_named(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_indivisible_count_accepted_without_the_clustered_case(self):
        spec = parse_config("[topology]\nue_count = 25\n[sweep]\ncases = random\n")
        assert spec.base.topology.ue_count == 25

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[policy]\nphi = 1\nphi = 2\n")

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError, match=r"sweep\.policies: must be non-empty"):
            parse_config("[sweep]\npolicies =\n")

    @pytest.mark.parametrize(
        "axis, values, shown",
        [
            ("policies", "cb, greedy, cb", "'cb'"),
            ("cases", "clustered, CLUSTERED", "'clustered'"),
            ("phis", "1, 1", "1"),
            ("omegas", "0.1, 0.2, 0.10", "0.1"),
        ],
    )
    def test_duplicate_sweep_value_rejected(self, axis, values, shown):
        with pytest.raises(ConfigError, match=rf"^sweep\.{axis}: duplicate value {shown}$"):
            parse_config(f"[sweep]\n{axis} = {values}\n")

    def test_json_alternative(self):
        text = json.dumps(
            {
                "experiment": {"base_seed": 7, "periods": 5, "replications": 2},
                "topology": {"small_cell_offsets": [[-50, 0], [50, 0]]},
                "sweep": {"policies": ["cb"], "cases": ["clustered"], "phis": [2]},
            }
        )
        spec = parse_config(text)
        assert spec.base.base_seed == 7
        assert spec.policies == (PolicyKind.CONTEXTUAL_BANDIT,)
        assert spec.cases == (DistributionCase.CLUSTERED,)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"experiment": {"periods": 2.5}}', r"experiment\.periods: expected an integer$"),
            ('{"topology": {"grid_side": [200]}}', r"topology\.grid_side: expected a number$"),
            (
                '{"topology": {"small_cell_offsets": [[0, 0, 0]]}}',
                r"topology\.small_cell_offsets: expected a list of \[x, y\] pairs, got ",
            ),
            ('{"sweep": {"phis": 2}}', r"sweep\.phis: expected a list, got 2$"),
            ('{"experiment": 5}', r"JSON config must be an object of section objects$"),
            ("[experiment]\nperiods\n", r"line 2: expected 'key = value', got 'periods'$"),
        ],
        ids=["float-int", "list-float", "triple", "scalar-list", "scalar-section", "no-equals"],
    )
    def test_malformed_text_rejected_by_name(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            parse_config(text)

    def test_budget_violation_named(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("[experiment]\nperiods = 200\nreplications = 100\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "rate_threshold", "nan"),
            ("topology", "grid_side", "inf"),
            ("topology", "cluster_spread", "nan"),
            ("channel", "tx_power_db", "nan"),
            ("channel", "irs_gain_db", "inf"),
        ],
    )
    def test_non_finite_float_rejected_and_named(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: must be finite"):
            parse_config(f"[{section}]\n{key} = {value}\n")


_FLOATS = st.one_of(
    st.floats(min_value=-50.0, max_value=250.0).map(repr),
    st.sampled_from(["0", "1e-9", "nan", "inf", "-1e309", "1e308"]),
)
_INTS = st.integers(min_value=-2, max_value=60).map(str)


def _listed(values):
    return st.lists(values, max_size=3).map(", ".join)


# raw text for every key type: mostly well-formed, often out of range
_RAW = {
    "int": _INTS,
    "float": _FLOATS,
    "bool": st.sampled_from(["true", "false", "yes", "0", "maybe"]),
    "float | None": st.one_of(st.just("none"), _FLOATS),
    "str": st.text(alphabet="ab./_-", max_size=6),
    "OutputFormat": st.sampled_from(["csv", "json", "xml"]),
    "tuple[tuple[float, float], ...]": _listed(st.tuples(_FLOATS, _FLOATS).map(" ".join)),
    "tuple[PolicyKind, ...]": _listed(st.sampled_from(["cb", "greedy", "ucb"])),
    "tuple[DistributionCase, ...]": _listed(st.sampled_from(["random", "clustered", "grid"])),
    "tuple[int, ...]": _listed(_INTS),
    "tuple[float, ...]": _listed(_FLOATS),
}


@st.composite
def config_texts(draw):
    """Config text setting a few keys of the schema, each to a raw value of its type."""
    keys = draw(st.lists(st.sampled_from(DEFAULT_KEYS), max_size=6, unique=True))
    sections = {}
    for section, key in keys:
        raw = draw(_RAW[experiment._SECTIONS[section][1][key].type])
        sections.setdefault(section, []).append(f"{key} = {raw}")
    return "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items()
    )


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(text=config_texts())
def test_every_config_text_runs_or_is_rejected_by_key(text):
    """Text that parse_config accepts runs every sweep cell for one period,
    without a warning and with satisfaction in [0, 1]; text it rejects raises
    ConfigError whose message starts with the section.key at fault."""
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        named = str(exc).partition(": ")[0]
        assert tuple(named.split(".")) in DEFAULT_KEYS, str(exc)
        return
    cfgs = [
        dataclasses.replace(
            spec.base,
            topology=dataclasses.replace(spec.base.topology, distribution_case=case),
            policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
            periods=1,
            replications=1,
        )
        for kind, case, phi, omega in spec.sweep_cells()
    ]
    for trace, _ in engine.run_cells(cfgs):
        assert 0.0 <= trace.mean_satisfaction[0] <= 1.0
        assert np.isfinite(trace.mean_secrecy_rate).all()


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"phis": (1, 0)}, "sweep.phis"),
        ({"omegas": (1.5,)}, "sweep.omegas"),
        ({"omegas": (float("nan"),)}, "sweep.omegas"),
        (
            {"base": SimulationConfig(topology=TopologyConfig(ue_count=25))},
            "topology.ue_count",
        ),
        ({"output_path": ""}, "output.path"),
    ],
    ids=["phis", "omegas", "omegas-nan", "clustered-ue-count", "output-path"],
)
def test_experiment_spec_rejects_invalid_sweep_at_construction(changes, key):
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        ExperimentSpec(**changes)


def test_experiment_spec_checks_the_count_only_for_the_clustered_case():
    base = SimulationConfig(topology=TopologyConfig(ue_count=25))
    with pytest.raises(ConfigError) as info:
        ExperimentSpec(base=base)
    assert str(info.value) == CLUSTERED_COUNT_MESSAGE
    assert ExperimentSpec(base=base, cases=(DistributionCase.RANDOM,)).base is base


def tiny_trace(periods=5, replications=2, seed=42, kind=PolicyKind.CONTEXTUAL_BANDIT):
    from irsbandit.config import PolicyConfig

    cfg = SimulationConfig(
        periods=periods,
        replications=replications,
        base_seed=seed,
        policy=PolicyConfig(kind=kind),
    )
    return run_monte_carlo(cfg)


class TestEmitTrace:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        trace = tiny_trace()
        emit_trace(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "iteration,policy,case,omega,phi,"
            "mean_satisfaction,ci95_halfwidth,mean_secrecy_rate"
        )
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "cb" and first[2] == "random"
        # means carry six decimal places
        assert all(len(cell.split(".")[1]) == 6 for cell in first[5:])

    def test_csv_values_in_range(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_trace(tiny_trace(), str(path))
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert 0.0 <= float(cells[5]) <= 1.0
            assert float(cells[6]) >= 0.0

    def test_json_mirrors_schema(self, tmp_path):
        path = tmp_path / "out.json"
        trace = tiny_trace()
        emit_trace(trace, str(path), OutputFormat.JSON)
        data = json.loads(path.read_text())
        assert len(data) == 1
        cell = data[0]
        assert cell["policy"] == "cb" and cell["case"] == "random"
        assert cell["omega"] == 0.1 and cell["phi"] == 2
        assert len(cell["trace"]) == 5
        record = cell["trace"][0]
        assert set(record) == {
            "iteration",
            "mean_satisfaction",
            "ci95_halfwidth",
            "mean_secrecy_rate",
        }
        assert record["iteration"] == 1

    def test_values_at_rounding_ties_and_extremes(self, tmp_path):
        """Every written value is formatted as its np.float64 would be: CSV
        fields as format(v, ".6f"), JSON values as round(float(v), 6)."""
        edges = np.array([0.0, -0.0, 5e-7, 2.5e-7, 0.9999995, 1.0, 1e300])
        cfg = SimulationConfig(periods=len(edges), replications=1)
        columns = [edges, np.roll(edges, 2), np.roll(edges, 4)]
        trace = engine.SatisfactionTrace(cfg, *columns, 0, columns[0][None])
        emit_trace(trace, str(tmp_path / "out.csv"))
        emit_trace(trace, str(tmp_path / "out.json"), OutputFormat.JSON)
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        records = json.loads((tmp_path / "out.json").read_text())[0]["trace"]
        names = CSV_HEADER.split(",")[5:]
        assert len(rows) == len(records) == len(edges)
        for t, (row, record) in enumerate(zip(rows, records)):
            want = [column[t] for column in columns]
            assert row.split(",")[5:] == [format(v, ".6f") for v in want]
            assert record == {"iteration": t + 1, **{
                name: round(float(v), 6) for name, v in zip(names, want)
            }}
        assert rows[1].split(",")[5] == "-0.000000" and records[1]["mean_satisfaction"] == 0.0

    def test_copied_trace_keeps_its_labels_and_the_same_numbers(self, tmp_path):
        """A copy under another config shares its source's arrays: its rows carry
        its own labels and periods and the same numbers, and both files read as
        they do when the copy's arrays are its own."""
        edges = np.array([0.0, -0.0, 5e-7, 2.5e-7, 0.9999995, 1.0, 1e300])
        cfg = SimulationConfig(periods=len(edges), replications=1)
        columns = [edges, np.roll(edges, 2), np.roll(edges, 4)]
        trace = engine.SatisfactionTrace(cfg, *columns, 0, columns[0][None])
        other = dataclasses.replace(
            cfg,
            topology=TopologyConfig(distribution_case=DistributionCase.CLUSTERED),
            policy=PolicyConfig(kind=PolicyKind.GREEDY, omega=0.25, phi=4),
        )
        flipped = [c[::-1] for c in columns]  # another trace of as many periods
        traces = [
            trace,
            dataclasses.replace(trace, cfg=other),
            engine.SatisfactionTrace(cfg, *flipped, 0, flipped[0][None]),
            dataclasses.replace(trace, cfg=dataclasses.replace(other, periods=3)),
        ]
        apart = [
            dataclasses.replace(t, **{c: getattr(t, c).copy() for c in CSV_HEADER.split(",")[5:]})
            for t in traces
        ]
        for kind in OutputFormat:
            shared, own = tmp_path / f"shared.{kind.value}", tmp_path / f"own.{kind.value}"
            emit_trace(traces, str(shared), kind)
            emit_trace(apart, str(own), kind)
            assert shared.read_bytes() == own.read_bytes()
        rows = (tmp_path / "shared.csv").read_text().splitlines()[1:]
        bandit, greedy = ("cb", "random", "0.1", "2"), ("greedy", "clustered", "0.25", "4")
        cells = [
            (bandit, columns, 7), (greedy, columns, 7), (bandit, flipped, 7), (greedy, columns, 3)
        ]
        want = [
            [str(t + 1), *labels, *(format(np.float64(c[t]), ".6f") for c in numbers)]
            for labels, numbers, periods in cells
            for t in range(periods)
        ]
        assert [row.split(",") for row in rows] == want

    def test_copies_out_of_order_write_the_same_bytes(self, tmp_path, monkeypatch):
        """Only the last trace's numbers are kept formatted: a copy right after
        its source formats nothing, one further on formats again, and in any
        order the bytes are those of traces that share no arrays."""
        a, b = tiny_trace(seed=1), tiny_trace(seed=2)
        greedy = PolicyConfig(kind=PolicyKind.GREEDY)
        clustered = TopologyConfig(distribution_case=DistributionCase.CLUSTERED)
        traces = [
            a,
            dataclasses.replace(a, cfg=dataclasses.replace(a.cfg, policy=greedy)),
            b,
            dataclasses.replace(b, cfg=dataclasses.replace(b.cfg, topology=clustered)),
        ]
        formatted = []
        rows = experiment._rows
        monkeypatch.setattr(experiment, "_rows", lambda t: formatted.append(t) or rows(t))
        orders = [(traces, 2), (traces[::-1], 2), ([traces[i] for i in (0, 2, 1, 3)], 4)]
        for order, formats in orders:
            columns = CSV_HEADER.split(",")[5:]
            apart = [
                dataclasses.replace(t, **{c: getattr(t, c).copy() for c in columns}) for t in order
            ]
            emit_trace(apart, str(tmp_path / "apart.csv"))
            formatted.clear()
            emit_trace(order, str(tmp_path / "shared.csv"))
            assert len(formatted) == formats
            assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "apart.csv").read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_trace(tiny_trace(), str(a))
        emit_trace(tiny_trace(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_trace(tiny_trace(), str(tmp_path / "missing" / "out.csv"))


class TestRunExperiment:
    def spec(self, tmp_path, format="csv"):
        return parse_config(
            SMALL.format(path=tmp_path / "traces.csv", format=format)
        )

    def test_two_cells_two_periods_rows(self, tmp_path):
        spec = self.spec(tmp_path)
        summary = run_experiment(spec)
        lines = (tmp_path / "traces.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 5  # header + 2 cells x 5 periods
        assert len(summary.cells) == 2
        assert {c.cfg.policy.kind for c in summary.cells} == {
            PolicyKind.CONTEXTUAL_BANDIT,
            PolicyKind.GREEDY,
        }

    def test_gap_matches_cells(self, tmp_path):
        summary = run_experiment(self.spec(tmp_path))
        by_policy = {c.cfg.policy.kind: c for c in summary.cells}
        assert len(summary.gaps) == 1
        assert summary.gaps[0].gap == pytest.approx(
            by_policy[PolicyKind.CONTEXTUAL_BANDIT].final_mean_satisfaction
            - by_policy[PolicyKind.GREEDY].final_mean_satisfaction
        )

    def test_rerun_byte_identical_traces(self, tmp_path):
        spec = self.spec(tmp_path)
        run_experiment(spec)
        first = (tmp_path / "traces.csv").read_bytes()
        run_experiment(spec)
        assert (tmp_path / "traces.csv").read_bytes() == first

    def test_summary_file_written(self, tmp_path):
        spec = self.spec(tmp_path)
        run_experiment(spec)
        payload = json.loads(open(summary_path(spec.output_path)).read())
        assert len(payload["cells"]) == 2
        assert len(payload["gaps"]) == 1
        for cell in payload["cells"]:
            assert cell["seed_lo"] == 42 and cell["seed_hi"] == 43

    def test_common_seeds_across_cells(self, tmp_path):
        summary = run_experiment(self.spec(tmp_path))
        assert len({(c.cfg.base_seed, c.cfg.replications) for c in summary.cells}) == 1


class TestSweepDedup:
    """Cells that differ only in policy fields the policy never reads run once."""

    def test_default_axes_run_each_effective_cell_once(self, tmp_path, monkeypatch):
        base = dataclasses.replace(SimulationConfig(), periods=6, replications=2)
        lanes = []

        def counting(batch, record=False):
            batch = list(batch)
            lanes.extend(batch)
            return run_lanes(batch, record)

        monkeypatch.setattr(engine, "run_lanes", counting)
        spec = ExperimentSpec(base=base, output_path=str(tmp_path / "dedup.csv"))
        summary = run_experiment(spec)
        assert len(list(spec.sweep_cells())) == 12
        # 6 bandit cells + 2 greedy cells (one per case), 2 replications each
        assert len({lane.cfg for lane in lanes}) == 8
        assert sorted(lane.seed for lane in lanes) == sorted([base.base_seed, base.base_seed + 1] * 8)
        assert len(summary.cells) == 12

        traces = [
            run_monte_carlo(
                dataclasses.replace(
                    base,
                    topology=dataclasses.replace(base.topology, distribution_case=case),
                    policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
                )
            )
            for kind, case, phi, omega in spec.sweep_cells()
        ]
        emit_trace(traces, str(tmp_path / "every_cell.csv"))
        assert (tmp_path / "dedup.csv").read_bytes() == (
            tmp_path / "every_cell.csv"
        ).read_bytes()


    def test_cell_configs_are_the_base_with_the_cells_case_and_policy(self, tmp_path):
        base = dataclasses.replace(SimulationConfig(), periods=3, replications=1)
        spec = ExperimentSpec(
            base=base, phis=(1, 2), omegas=(0.1, 0.3), output_path=str(tmp_path / "cfg.csv")
        )
        want = [
            dataclasses.replace(
                base,
                topology=dataclasses.replace(base.topology, distribution_case=case),
                policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
            )
            for kind, case, phi, omega in spec.sweep_cells()
        ]
        got = [cell.cfg for cell in run_experiment(spec).cells]
        assert got == want
        assert [hash(cfg) for cfg in got] == [hash(cfg) for cfg in want]


class TestChunkTiming:
    """One debug line per lane chunk; computed cells split their chunks' wall time."""

    def test_one_line_per_chunk(self, tmp_path, caplog, monkeypatch):
        base = dataclasses.replace(SimulationConfig(), periods=4, replications=3)
        spec = ExperimentSpec(base=base, output_path=str(tmp_path / "t.csv"))
        with caplog.at_level(logging.DEBUG, logger="irsbandit"):
            run_experiment(spec)
        chunks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("chunk ")]
        # 3 seeds x 2 cases: the lanes of a case and seed share one stream
        assert len(chunks) == 1
        assert chunks[0].startswith("chunk lanes=24 cells=8 streams=6 periods=4: ")

        caplog.clear()
        monkeypatch.setattr(engine, "CHUNK_FLOATS", 1000)  # two default lanes per chunk
        with caplog.at_level(logging.DEBUG, logger="irsbandit"):
            summary = run_experiment(spec)
        chunks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("chunk ")]
        # lanes run replication-major and by stream, and no cut splits a stream:
        # the four lanes of a case and seed, above the bound, run as one chunk
        assert len(chunks) == 6
        assert all(m.startswith("chunk lanes=4 cells=4 streams=1 ") for m in chunks)
        walls = [float(m.rsplit(": ", 1)[1].split()[0]) for m in chunks]
        # the computed cells: six bandit cells and each case's first greedy
        # cell (sweep cells 6 and 9); their shares add up to the chunks' times
        computed = [
            c.wall_seconds for c in summary.cells if c.cfg.policy.kind is PolicyKind.CONTEXTUAL_BANDIT
        ]
        computed += [summary.cells[6].wall_seconds, summary.cells[9].wall_seconds]
        assert sum(computed) == pytest.approx(sum(walls), abs=0.01)


def test_default_sweep_builds_one_stream_per_case_and_seed(tmp_path, monkeypatch):
    """The default sweep's lanes build exactly 2 cases x 100 seeds = 200
    streams: lanes run by stream within each replication and no chunk cut
    falls between two lanes on one stream. Each lane is cut on its 440-float
    bound, every UE on every panel, however few slots its network holds, so
    11 chunks of 72 lanes and one of 8 run. Its traces keep their bytes."""
    chunks = []
    cut = engine._chunks

    def recording(lanes):
        for chunk in cut(lanes):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(engine, "_chunks", recording)
    out = tmp_path / "traces.csv"
    spec = dataclasses.replace(parse_config(default_config_text()), output_path=str(out))
    run_experiment(spec)
    assert sum(len(engine._streams(chunk)[0]) for chunk in chunks) == 200
    assert [len(chunk) for chunk in chunks] == [72] * 11 + [8]
    for before, after in zip(chunks, chunks[1:]):
        assert engine._stream_key(before[-1]) != engine._stream_key(after[0])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FULL_DEFAULT_SWEEP_CSV_SHA256

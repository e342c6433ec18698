"""Golden determinism digests.

All seven digests were recorded when every period of a lane came to draw
fixed-size blocks (its environment block, then one (u1, u2) row per
agent), which changed the random-stream layout deliberately. The six that
run the channel were re-frozen when a channel stream's fading block came
to hold one IRS->UE gain per (UE, candidate panel) slot instead of one
per (panel, UE), a second deliberate change of the layout; the Bernoulli
chain's digest was kept. The greedy clustered replication's thresholded
twin was frozen later, from the same code, so that a last-bit change of
the C library's math (which moves raw rates and secrecy but a chosen
panel or a satisfied flag only within an ulp of its threshold) can be
told from a change of decisions. None may be re-frozen to match a code change:
any change here is a change to the random-stream layout or to the output
bytes, and must be deliberate and recorded in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

from irsbandit.config import (
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
    TopologyConfig,
)
from irsbandit.engine import BernoulliEnvironment, run_monte_carlo, run_replication
from irsbandit.experiment import ExperimentSpec, OutputFormat, run_experiment, summary_path

DEFAULT_SWEEP_CSV_SHA256 = (
    "08ed3de8c3f31eb803381ba950f5644db6319fe30d8069e20c03b768a5486631"
)
DENSE_PER_REPLICATION_SHA256 = (
    "baa94e4533bfbaf69e2627ab4adeebfb96f7873d80f15d49ca22240ce7fe04f6"
)
DENSE_MEAN_SECRECY_SHA256 = (
    "a6b368c2598eb7a3f2b6f731469d828d500726464eff11bfdfc1eb919e120bf4"
)
GREEDY_CLUSTERED_SHA256 = (
    "7e385bc052c20c4c746c6b3f87c04b48ab4fbc547d4683c21c432aae3e27158e"
)
# the same replications' chosen and satisfied arrays alone
GREEDY_CLUSTERED_DECISIONS_SHA256 = (
    "f23884e8c85bd04a50004e32f30bc577d8f7e0dad7459758382a4ca8d82e362d"
)
ONE_AGENT_BERNOULLI_SHA256 = (
    "8c0c297730808114698b4e0fccd648f39af4bef6d4d06f5775ddfc17c1af9cd2"
)
DEFAULT_SWEEP_JSON_SHA256 = (
    "dc3acc6b3b1ffbe35e3e9ff96d700fe273e75457b0a01745fca631aa30f7a3a8"
)
# of the summary with every wall_seconds key removed, re-dumped with indent=2
DEFAULT_SWEEP_SUMMARY_SHA256 = (
    "0129785f0ca5fd6e39bfeb647c217d20968c20c2bdf034ca532586f50e5360f0"
)

# Four cells with 16 panels each and 2 eavesdroppers per cell; detection
# radius 30 m leaves some UEs a partial ring and others the full fallback.
DENSE_CFG = SimulationConfig(
    topology=TopologyConfig(
        small_cell_count=4,
        small_cell_offsets=((-50.0, -50.0), (50.0, -50.0), (-50.0, 50.0), (50.0, 50.0)),
        irs_per_cell=16,
        ue_count=60,
        distribution_case=DistributionCase.CLUSTERED,
        cluster_size=20,
        detection_radius=30.0,
    ),
    policy=PolicyConfig(kind=PolicyKind.CONTEXTUAL_BANDIT, omega=0.2, phi=2),
    periods=15,
    replications=3,
    base_seed=2718,
)

# Greedy on two cells of 12 panels; detection radius 25 m leaves clustered
# UEs near a cell between one and seven candidates, the rest the full ring.
GREEDY_CLUSTERED_CFG = SimulationConfig(
    topology=TopologyConfig(
        irs_per_cell=12,
        ue_count=30,
        distribution_case=DistributionCase.CLUSTERED,
        cluster_size=10,
        detection_radius=25.0,
    ),
    policy=PolicyConfig(kind=PolicyKind.GREEDY),
    periods=20,
    replications=3,
    base_seed=31337,
)

BERNOULLI_CFG = SimulationConfig(
    policy=PolicyConfig(kind=PolicyKind.CONTEXTUAL_BANDIT, omega=0.2, phi=2),
    periods=300,
    replications=1,
)
BERNOULLI_ARMS = (0.3, 0.55, 0.7, 0.2)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_sweep_csv_digest(tmp_path):
    out = tmp_path / "traces.csv"
    spec = ExperimentSpec(
        base=dataclasses.replace(SimulationConfig(), replications=2),
        output_path=str(out),
    )
    run_experiment(spec)
    assert _sha256(out.read_bytes()) == DEFAULT_SWEEP_CSV_SHA256


def test_default_sweep_json_and_summary_digests(tmp_path):
    out = tmp_path / "traces.json"
    spec = ExperimentSpec(
        base=dataclasses.replace(SimulationConfig(), replications=2),
        output_path=str(out),
        format=OutputFormat.JSON,
    )
    run_experiment(spec)
    assert _sha256(out.read_bytes()) == DEFAULT_SWEEP_JSON_SHA256
    summary = json.loads(pathlib.Path(summary_path(str(out))).read_text())
    for cell in summary["cells"]:
        del cell["wall_seconds"]
    assert _sha256(json.dumps(summary, indent=2).encode()) == DEFAULT_SWEEP_SUMMARY_SHA256


def test_dense_clustered_trace_digests():
    trace = run_monte_carlo(DENSE_CFG)
    assert trace.per_replication.dtype == np.float64
    assert trace.per_replication.shape == (3, 15)
    assert trace.mean_secrecy_rate.dtype == np.float64
    assert _sha256(trace.per_replication.tobytes()) == DENSE_PER_REPLICATION_SHA256
    assert _sha256(trace.mean_secrecy_rate.tobytes()) == DENSE_MEAN_SECRECY_SHA256


def test_greedy_clustered_replication_digest():
    h = hashlib.sha256()
    cfg = GREEDY_CLUSTERED_CFG
    for i in range(cfg.replications):
        res = run_replication(cfg, cfg.base_seed + i)
        for a in (res.chosen, res.satisfied, res.rates, res.mean_secrecy):
            h.update(a.tobytes())
    assert h.hexdigest() == GREEDY_CLUSTERED_SHA256


def test_greedy_clustered_decisions_digest():
    """The twin of test_greedy_clustered_replication_digest that hashes only
    the thresholded arrays, chosen and satisfied, which a last-bit change of
    libm's log10, log2 or pow leaves alone unless a value sits within an ulp
    of its threshold."""
    h = hashlib.sha256()
    cfg = GREEDY_CLUSTERED_CFG
    for i in range(cfg.replications):
        res = run_replication(cfg, cfg.base_seed + i)
        assert res.chosen.dtype == np.int64 and res.satisfied.dtype == np.bool_
        for a in (res.chosen, res.satisfied):
            h.update(a.tobytes())
    assert h.hexdigest() == GREEDY_CLUSTERED_DECISIONS_SHA256


def test_one_agent_bernoulli_chain_digest():
    h = hashlib.sha256()
    for seed in range(600, 604):
        env = BernoulliEnvironment(BERNOULLI_ARMS, n_agents=1)
        res = run_replication(BERNOULLI_CFG, seed, environment=env)
        assert res.chosen.dtype == np.int64 and res.satisfied.dtype == np.bool_
        for a in (res.chosen, res.satisfied):
            h.update(a.tobytes())
    assert h.hexdigest() == ONE_AGENT_BERNOULLI_SHA256

"""Golden determinism digests.

All seven digests were recorded when every period of a lane came to draw
fixed-size blocks (its environment block, then one (u1, u2) row per
agent), which changed the random-stream layout deliberately. None may be
re-frozen to match a code change: any change here is a change to the
random-stream layout or to the output bytes, and must be deliberate and
recorded in CHANGES.md.
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
    "3c015e64f27544f60289b5a097e64e5d6821b2e864279bc4eaa54eb4727b8bec"
)
DENSE_PER_REPLICATION_SHA256 = (
    "7abde05e39b9a184bd8cf5a9127bc839031655d7c6ba3ab93d5e1d9dcc8d1de2"
)
DENSE_MEAN_SECRECY_SHA256 = (
    "5b4ee3acb531867e38da133b6bc3e573ce6affe721e7ee83237a82921d1f40e4"
)
GREEDY_CLUSTERED_SHA256 = (
    "87e746ec8318f0d28e30f79ef20eb921f9b3fad20f818c6d68ae4618cb39ddb7"
)
ONE_AGENT_BERNOULLI_SHA256 = (
    "8c0c297730808114698b4e0fccd648f39af4bef6d4d06f5775ddfc17c1af9cd2"
)
DEFAULT_SWEEP_JSON_SHA256 = (
    "651836721b4913cf89b44b0d6aef3116abc48140dee4433a0e6f81e354843490"
)
# of the summary with every wall_seconds key removed, re-dumped with indent=2
DEFAULT_SWEEP_SUMMARY_SHA256 = (
    "bef5c5c682986adc51b84690ffc5d16f208ba5e9ce99bd8799b16a931c0e9301"
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


def test_one_agent_bernoulli_chain_digest():
    h = hashlib.sha256()
    for seed in range(600, 604):
        env = BernoulliEnvironment(BERNOULLI_ARMS, n_agents=1)
        res = run_replication(BERNOULLI_CFG, seed, environment=env)
        assert res.chosen.dtype == np.int64 and res.satisfied.dtype == np.bool_
        for a in (res.chosen, res.satisfied):
            h.update(a.tobytes())
    assert h.hexdigest() == ONE_AGENT_BERNOULLI_SHA256

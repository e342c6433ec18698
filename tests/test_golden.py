"""Golden determinism digests.

The first three digests were recorded before the per-replication link
budgets and the sweep deduplication landed, the next two before the period
loop was batched over agents, and the two default-sweep JSON digests before
traces and cell summaries held their cell's config in place of copied
labels. None may be re-frozen to match a code change:
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
    "15c9ad8203478fa7c3cd6566717e83be181bebae2d5926f1b5519551046f373e"
)
DENSE_PER_REPLICATION_SHA256 = (
    "fdb847a1723dcc3e176ac6fb249a9d6b0fd017cd309ada339e5088d6d6d2210c"
)
DENSE_MEAN_SECRECY_SHA256 = (
    "fd935f201fccb51771bbe1783106b0babbdb1615d321d20518bc833d758968af"
)
GREEDY_CLUSTERED_SHA256 = (
    "2a34e8caf3194a7cd1495e1c65baca6eaab7bdb14f08dd2e4e54699acece1d92"
)
ONE_AGENT_BERNOULLI_SHA256 = (
    "5d1ea466fbb15e8da44c717252725b00503211f982e2c3631fac76d0d5a4a946"
)
DEFAULT_SWEEP_JSON_SHA256 = (
    "fde3cdd0091353dad9142846b4a4acaaba79bd8128c8c3a9041b32696e508e93"
)
# of the summary with every wall_seconds key removed, re-dumped with indent=2
DEFAULT_SWEEP_SUMMARY_SHA256 = (
    "97c4d0504561679635be1b90c265808433a3e8ea7422ec2f85a813abf43f8aec"
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

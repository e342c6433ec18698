#!/usr/bin/env python3
"""Benchmark for the irsbandit simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Each workload is a closed loop: one caller in one single-threaded process
runs an iteration, checks its outputs, then starts the next, until S
seconds have passed. Iteration k uses replication seeds base + k*R ...
base + k*R + R - 1, where base is derived from --seed and R is the
workload's replications per iteration; the package sees only those seeds.

--trace 0 reports the end-to-end metrics: requested UE-periods per second
and the set-up time of a fresh interpreter, each a median over the run and
scaled to a reference CPU speed (see untraced_run), and the peak memory one
iteration allocates.
--trace 1 runs iteration 0 untraced, then wraps the package's public
functions (tracer.py) and runs it again plus as many further iterations as
fit, and reports per-layer metrics: *.calls and the other counts from traced
iteration 0, timings from every traced iteration. The last stdout line is
the JSON result; the lines before it are the run manifest and a readable
summary (failed_ratio included).

Workloads and predictions are documented in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # numpy is imported later, here and in the probes
os.environ["IRSBANDIT_LOG"] = "warning"
SETUP_PROBES = 25
BLOCK_S = 0.4  # least busy time between two readings of the reference work
REFERENCE_LOOP = 150_000  # pure-Python multiply-adds of the reference work
REFERENCE_CALLS = 1_500  # rounds of small numpy calls of the reference work
# The reference work's time on a quiet CPU of the tuning VM, all of it and
# its numpy calls alone.
REFERENCE_S = 0.014
NUMPY_REFERENCE_S = 0.005

CSV_HEADER = (
    "iteration,policy,case,omega,phi,"
    "mean_satisfaction,ci95_halfwidth,mean_secrecy_rate"
)


def base_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}/{seed}").randrange(2**31)


def first_environment(cfg):
    """The channel environment of the first replication, as the engine builds it."""
    import numpy as np
    import irsbandit

    topo = irsbandit.build_network(cfg.topology, np.random.default_rng(cfg.base_seed))
    return irsbandit.ChannelEnvironment(
        topo, cfg.channel, cfg.rate_threshold, cfg.topology.detection_radius
    )


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class PaperSweep:
    """The default 12-cell sweep, in-process through the `simulate` entry point."""

    replications = 1

    def __init__(self, seed: int):
        from irsbandit import experiment

        self.text = experiment.default_config_text()
        spec = experiment.parse_config(self.text)
        self.base = base_seed("paper_sweep", seed)
        self.cells = [
            (kind.value, case.value, f"{omega:g}", phi)
            for kind, case, phi, omega in spec.sweep_cells()
        ]
        self.periods = spec.base.periods
        self.gaps = len(spec.cases) * len(spec.phis) * len(spec.omegas)
        kind, case, phi, omega = next(spec.sweep_cells())
        self.env = first_environment(dataclasses.replace(
            spec.base,
            base_seed=self.base,
            topology=dataclasses.replace(spec.base.topology, distribution_case=case),
            policy=dataclasses.replace(spec.base.policy, kind=kind, phi=phi, omega=omega),
        ))
        self.ops_per_iteration = len(self.cells)
        self.ue_periods = (
            len(self.cells) * self.replications * self.periods * spec.base.topology.ue_count
        )

    def prepare(self, workdir: Path):
        self.config_path = workdir / "sweep.cfg"
        self.config_path.write_text(self.text, encoding="utf-8")
        self.csv_path = workdir / "traces.csv"
        self.summary_path = workdir / "traces.summary.json"

    def run(self, k: int):
        import irsbandit.cli

        argv = [
            "--config", str(self.config_path),
            "--out", str(self.csv_path),
            "--seed", str(self.base + k * self.replications),
            "--replications", str(self.replications),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return irsbandit.cli.main(argv)

    def check(self, exit_code):
        """One operation per sweep cell; a sweep-level defect fails all of them."""
        n = len(self.cells)
        try:
            data = self.csv_path.read_bytes()
            lines = data.decode("utf-8").split("\n")
            summary = json.loads(self.summary_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return n, n, ""
        finally:  # the next iteration must not see these files
            self.csv_path.unlink(missing_ok=True)
            self.summary_path.unlink(missing_ok=True)
        digest = hashlib.sha256(data).hexdigest()
        rows = lines[1:-1]
        if (
            exit_code != 0
            or lines[0] != CSV_HEADER
            or lines[-1] != ""
            or len(rows) != n * self.periods
            or len(summary.get("cells", ())) != n
            or len(summary.get("gaps", ())) != self.gaps
        ):
            return n, n, digest
        failed = 0
        for c, (kind, case, omega, phi) in enumerate(self.cells):
            block = rows[c * self.periods : (c + 1) * self.periods]
            entry = summary["cells"][c]
            ok = (
                (entry["policy"], entry["case"], entry["phi"]) == (kind, case, phi)
                and 0.0 <= entry["final_mean_satisfaction"] <= 1.0
            )
            for t, row in enumerate(block):
                f = row.split(",")
                try:
                    sat, ci, sec = float(f[5]), float(f[6]), float(f[7])
                except (IndexError, ValueError):
                    ok = False
                    break
                ok = ok and (
                    len(f) == 8
                    and f[:5] == [str(t + 1), kind, case, omega, str(phi)]
                    and 0.0 <= sat <= 1.0
                    and 0.0 <= ci <= 1.0
                    and 0.0 <= sec < math.inf
                )
            failed += not ok
        return n, failed, digest


class DenseShort:
    """Many UEs and panels, two periods: per-replication set-up dominates."""

    replications = 2
    ops_per_iteration = 1

    def __init__(self, seed: int):
        from irsbandit import (
            DistributionCase, PolicyConfig, PolicyKind, SimulationConfig, TopologyConfig,
        )

        offsets = ((-50.0, -50.0), (50.0, -50.0), (-50.0, 50.0), (50.0, 50.0))
        self.cfg = SimulationConfig(
            topology=TopologyConfig(
                small_cell_offsets=offsets,
                irs_per_cell=32,
                eavesdroppers_per_cell=1,
                ue_count=200,
                distribution_case=DistributionCase.CLUSTERED,
                cluster_size=20,
                detection_radius=40.0,
                small_cell_count=len(offsets),
            ),
            policy=PolicyConfig(kind=PolicyKind.CONTEXTUAL_BANDIT),
            periods=2,
            replications=self.replications,
            base_seed=base_seed("dense_short", seed),
            enforce_channel_budget=False,
        )
        self.env = first_environment(self.cfg)
        self.ue_periods = self.replications * self.cfg.periods * self.cfg.topology.ue_count

    def prepare(self, workdir: Path):
        pass

    def run(self, k: int):
        import irsbandit.engine

        cfg = dataclasses.replace(
            self.cfg, base_seed=self.cfg.base_seed + k * self.replications
        )
        return irsbandit.engine.run_monte_carlo(cfg)

    def check(self, trace):
        import numpy as np

        arrays = (
            trace.mean_satisfaction, trace.ci95_halfwidth,
            trace.mean_secrecy_rate, trace.per_replication,
        )
        ok = all(np.isfinite(a).all() for a in arrays) and (
            trace.fading_blocks == self.cfg.periods * self.replications
        )
        return 1, int(not ok), sha256_arrays(*arrays)


class BernoulliPolicy:
    """Fixed-probability arms: only the policy and the engine's agent loop run."""

    replications = 1
    ops_per_iteration = 1
    arms = tuple(0.20 + 0.04 * k for k in range(16))
    n_agents = 200

    def __init__(self, seed: int):
        from irsbandit import BernoulliEnvironment, PolicyConfig, PolicyKind, SimulationConfig

        self.cfg = SimulationConfig(
            policy=PolicyConfig(kind=PolicyKind.CONTEXTUAL_BANDIT, omega=0.1, phi=1),
            periods=100,
            replications=1,
        )
        self.env = BernoulliEnvironment(self.arms, n_agents=self.n_agents)
        self.candidates = [self.env.candidate_arms(u) for u in range(self.n_agents)]
        self.base = base_seed("bernoulli_policy", seed)
        self.ue_periods = self.cfg.periods * self.n_agents

    def prepare(self, workdir: Path):
        pass

    def run(self, k: int):
        import irsbandit.engine

        return irsbandit.engine.run_replication(
            self.cfg, self.base + k, environment=self.env
        )

    def check(self, result):
        import numpy as np

        in_candidates = all(
            np.isin(result.chosen[:, u], self.candidates[u]).all()
            for u in range(self.n_agents)
        )
        rewards = sum(int(agent.rewards.sum()) for agent in result.agents)
        ok = in_candidates and rewards == int(np.count_nonzero(result.satisfied))
        return 1, int(not ok), sha256_arrays(result.chosen, result.satisfied)


WORKLOADS = {
    "paper_sweep": PaperSweep,
    "dense_short": DenseShort,
    "bernoulli_policy": BernoulliPolicy,
}


class Observed:
    """Counts taken from wrapped calls' arguments and results."""

    def __init__(self):
        self.satisfied = 0
        self.switches = 0
        self.decisions = 0
        self.cell_keys = []
        self.emit_bytes = 0

    def on_evaluate(self, args, kwargs, result):
        self.satisfied += bool(result[1])

    def on_replication(self, args, kwargs, result):
        chosen = result.chosen
        self.switches += int((chosen[1:] != chosen[:-1]).sum())
        self.decisions += chosen[1:].size

    def on_cell(self, args, kwargs, result):
        import irsbandit

        cfg = args[0] if args else kwargs["cfg"]
        if cfg.policy.kind is irsbandit.PolicyKind.GREEDY:  # greedy ignores phi, omega
            cfg = dataclasses.replace(
                cfg, policy=irsbandit.PolicyConfig(kind=cfg.policy.kind)
            )
        self.cell_keys.append(cfg)

    def on_emit(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.emit_bytes += os.path.getsize(path)


def install_tracer(observed):
    from tracer import Tracer

    tr = Tracer()
    tr.span("engine.run_monte_carlo", "irsbandit.engine:run_monte_carlo")
    tr.span(
        "engine.run_replication", "irsbandit.engine:run_replication",
        keep_samples=True, observe=observed.on_replication,
    )
    tr.span("engine.run_period", "irsbandit.engine:run_period")
    tr.span("topology.build_network", "irsbandit.topology:build_network")
    tr.span("topology.candidate_irs_set", "irsbandit.topology:candidate_irs_set")
    tr.span("channel.init", "irsbandit:ChannelEnvironment.__init__")
    tr.span("channel.new_period", "irsbandit:ChannelEnvironment.new_period")
    tr.span("channel.initial_signal", "irsbandit:ChannelEnvironment.initial_signal")
    tr.span(
        "channel.evaluate", "irsbandit:ChannelEnvironment.evaluate",
        observe=observed.on_evaluate,
    )
    tr.count("channel.path_loss_db", "irsbandit.channel:path_loss_db")
    tr.span("policy.init_association", "irsbandit.policy:init_association")
    tr.span("policy.select_irs", "irsbandit.policy:select_irs")
    tr.span("policy.update", "irsbandit.policy:update")
    tr.span("experiment.parse_config", "irsbandit.experiment:parse_config")
    tr.span("experiment.run_experiment", "irsbandit.experiment:run_experiment")
    tr.span(
        "experiment.emit_trace", "irsbandit.experiment:emit_trace",
        observe=observed.on_emit,
    )
    # after the engine span, so this wraps the engine wrapper in experiment only
    tr.span(
        "experiment.run_monte_carlo", "irsbandit.experiment:run_monte_carlo",
        only_in="irsbandit.experiment", observe=observed.on_cell,
    )
    tr.span("cli.main", "irsbandit.cli:main")
    return tr


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, calls0, obs0, ue_periods, iterations, overhead):
    """Per-layer metrics; calls0 and obs0 come from traced iteration 0."""
    st = tr.stats

    def ns(*names):
        return ratio(sum(st[n].self_ns for n in names), ue_periods)

    def secs(name, attr="total_ns"):
        return getattr(st[name], attr) / iterations / 1e9

    reps = [s / 1e6 for s in st["engine.run_replication"].samples_ns]
    p50 = statistics.median(reps) if reps else 0.0
    p90 = statistics.quantiles(reps, n=10)[8] if len(reps) >= 2 else p50
    per_iteration_ue = ue_periods / iterations
    m = {
        "topology.build_network.calls": (calls0["topology.build_network"], "count"),
        "topology.build_network.ns_per_ue_period": (ns("topology.build_network"), "ns"),
        "topology.candidate_irs_set.calls": (calls0["topology.candidate_irs_set"], "count"),
        "topology.candidate_irs_set.ns_per_ue_period": (ns("topology.candidate_irs_set"), "ns"),
        "channel.init.ns_per_ue_period": (ns("channel.init"), "ns"),
        "channel.new_period.calls": (calls0["channel.new_period"], "count"),
        "channel.new_period.ns_per_ue_period": (ns("channel.new_period"), "ns"),
        "channel.initial_signal.calls": (calls0["channel.initial_signal"], "count"),
        "channel.initial_signal.ns_per_ue_period": (ns("channel.initial_signal"), "ns"),
        "channel.evaluate.calls": (calls0["channel.evaluate"], "count"),
        "channel.evaluate.ns_per_ue_period": (ns("channel.evaluate"), "ns"),
        "channel.path_loss_db.per_ue_period": (
            ratio(calls0["channel.path_loss_db"], per_iteration_ue), "count"),
        "channel.satisfied_ratio": (ratio(obs0.satisfied, calls0["channel.evaluate"]), "ratio"),
        "policy.init_association.calls": (calls0["policy.init_association"], "count"),
        "policy.init_association.ns_per_ue_period": (ns("policy.init_association"), "ns"),
        "policy.select_irs.calls": (calls0["policy.select_irs"], "count"),
        "policy.select_irs.ns_per_ue_period": (ns("policy.select_irs"), "ns"),
        "policy.update.ns_per_ue_period": (ns("policy.update"), "ns"),
        "policy.switch_ratio": (ratio(obs0.switches, obs0.decisions), "ratio"),
        "engine.self.ns_per_ue_period": (ns("engine.run_period", "engine.run_replication"), "ns"),
        "engine.aggregate.ns_per_ue_period": (ns("engine.run_monte_carlo"), "ns"),
        "engine.replication_ms_p50": (p50, "ms"),
        "engine.replication_ms_p90": (p90, "ms"),
        "engine.replication_ms.samples": (len(reps), "count"),
        "experiment.parse_config_s": (secs("experiment.parse_config"), "s"),
        "experiment.emit_trace_s": (secs("experiment.emit_trace"), "s"),
        "experiment.emit_trace_bytes": (obs0.emit_bytes, "bytes"),
        "experiment.run_monte_carlo.calls": (calls0["experiment.run_monte_carlo"], "count"),
        "experiment.useful_cell_ratio": (
            ratio(len(set(obs0.cell_keys)), len(obs0.cell_keys)), "ratio"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.main_self_s": (secs("cli.main", "self_ns"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; no parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def reference_seconds() -> tuple[float, float]:
    """Wall times of fixed work like the program's: the CPU's speed right now.

    A pure-Python loop, then small numpy calls from a Python loop, as the
    simulator's inner loops make; (loop, numpy) seconds. Nothing from the
    package runs, so no change to it moves these times.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    t1 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(REFERENCE_CALLS):
        x = rng.standard_normal(32)
        y = np.exp(x)
        y.argmax()
        (x * y).sum()
    return t1 - t0, time.perf_counter() - t1


def setup_probe(workload: str, seed: int):
    """Child mode: time importing the package and building the inputs.

    The reference work runs after the set-up, which imports numpy, and is
    timed on its second run, when its own first calls have warmed up.
    """
    t0 = time.perf_counter()
    WORKLOADS[workload](seed)
    setup = time.perf_counter() - t0
    reference_seconds()
    print(json.dumps({"setup_s": setup, "reference_s": sum(reference_seconds())}))


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """One set-up probe in a fresh interpreter: (set-up, reference) seconds."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_s"]


@contextlib.contextmanager
def allocation_peak(peak: list):
    """Append to `peak` the most memory the block held at once, per tracemalloc."""
    tracemalloc.start()
    try:
        yield
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def timed_iteration(wl, k, tally, around=contextlib.nullcontext):
    """Run and check iteration k; returns (wall seconds, digest).

    The run, but not the check, executes inside the context `around()`.
    """
    t0 = time.perf_counter()
    try:
        with around():
            raw = wl.run(k)
    except Exception:  # an operation that raises counts as failed; keep measuring
        traceback.print_exc()
        wall = time.perf_counter() - t0
        tally[0] += wl.ops_per_iteration
        tally[1] += wl.ops_per_iteration
        return wall, ""
    wall = time.perf_counter() - t0
    attempted, failed, digest = wl.check(raw)
    tally[0] += attempted
    tally[1] += failed
    return wall, digest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (SRC / "irsbandit" / "__init__.py").is_file():
        print(f"error: no irsbandit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import irsbandit

    if not Path(irsbandit.__file__).resolve().is_relative_to(SRC):
        print(f"error: irsbandit imported from {irsbandit.__file__}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(workdir)
        print("manifest " + json.dumps(manifest(args)), flush=True)
        tally = [0, 0]  # attempted, failed
        if args.trace:
            metrics, digest, correct, absent = traced_run(wl, args.seconds, tally)
            note = ""
        else:
            metrics, digest, raw = untraced_run(
                wl, args.seconds, tally, lambda: setup_seconds(args.workload, args.seed)
            )
            note = "".join(f"{k}={v:.6g} " for k, v in raw.items())
            correct, absent = True, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted, failed = tally
    correct = correct and failed == 0
    readable = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(
        f"summary workload={args.workload} {readable} "
        f"{note}failed_ratio={ratio(failed, attempted):.6g} ({failed}/{attempted} operations) "
        f"trace_sha256={digest} absent={','.join(absent) or 'none'}"
    )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def untraced_run(wl, seconds, tally, probe):
    """Warm-up, then blocks of iterations until `seconds` have passed.

    Iteration 0 runs first, untimed, so that lazy imports and other
    one-time costs are paid before timing, and then again under
    tracemalloc, untimed, for the peak memory the workload itself
    allocates (numpy buffers included). The timed loop starts at
    iteration 1 and runs in blocks of at least BLOCK_S seconds of
    iterations, with the reference work timed between blocks. Other
    tenants of a shared host change the CPU's speed by up to 1.8x for
    minutes at a time, so each block's rate (requested UE-periods over the
    iterations' wall time) is scaled by the mean time of the reference
    work's numpy calls around it over NUMPY_REFERENCE_S: the rate the
    program would have on a CPU that makes those calls in
    NUMPY_REFERENCE_S. Each set-up probe is scaled likewise by its whole
    reference work over REFERENCE_S. In tuning, these were the parts of the
    reference work that tracked each time best. The run reports the median
    scaled rate over blocks, and the median scaled time of the set-up
    probes, which run between blocks, spread evenly over the run. The
    unscaled medians are returned for the summary line.
    """
    _, digest = timed_iteration(wl, 0, tally)
    peak = []
    timed_iteration(wl, 0, tally, lambda: allocation_peak(peak))
    start = time.perf_counter()
    blocks, probes = [], []  # (unscaled rate, reference s), (set-up s, reference s)
    k = 1
    ref = reference_seconds()[1]
    while not blocks or time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
            ref = reference_seconds()[1]
        requested = busy = 0.0
        while busy < BLOCK_S:
            wall, _ = timed_iteration(wl, k, tally)
            k += 1
            busy += wall
            requested += wl.ue_periods
        ref_after = reference_seconds()[1]
        blocks.append((requested / busy, (ref + ref_after) / 2))
        ref = ref_after
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    rate = statistics.median(r * t / NUMPY_REFERENCE_S for r, t in blocks)
    setup = statistics.median(s * REFERENCE_S / t for s, t in probes)
    metrics = {
        "ue_periods_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_alloc_mib": {"value": peak[0] / 2**20, "unit": "MiB"},
    }
    raw = {
        "raw_ue_periods_per_s": statistics.median(r for r, _ in blocks),
        "raw_setup_s": statistics.median(s for s, _ in probes),
        "numpy_reference_s": statistics.median(t for _, t in blocks),
        "blocks": len(blocks),
        "timed_iterations": k - 1,
    }
    return metrics, digest, raw


def traced_run(wl, seconds, tally):
    """Iteration 0 untraced, then traced iterations; per-layer metrics."""
    start = time.perf_counter()
    wall_u, digest_u = timed_iteration(wl, 0, tally)
    observed = Observed()
    tr = install_tracer(observed)
    try:
        wall_t, digest_t = timed_iteration(wl, 0, tally)
        calls0 = {name: s.calls for name, s in tr.stats.items()}
        obs0 = copy.copy(observed)
        obs0.cell_keys = list(observed.cell_keys)
        k = 1
        while time.perf_counter() - start < seconds:
            timed_iteration(wl, k, tally)
            k += 1
    finally:
        tr.uninstall()
    metrics = layer_metrics(tr, calls0, obs0, wl.ue_periods * k, k, ratio(wall_t, wall_u))
    return metrics, digest_u, digest_u == digest_t, tr.absent


if __name__ == "__main__":
    sys.exit(main())

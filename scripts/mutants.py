#!/usr/bin/env python3
"""A fixed list of hand-written mutants, each of which the named tests must kill.

Each entry names a file, an exact text that occurs once in it, the text to
put in its place, and the tests expected to fail once it is there. For
every entry the script applies the one mutant to a temporary copy of
src/, tests/, scripts/, pyproject.toml and README.md, and runs pytest on
the named tests only; any failure, a test module that no longer imports
included, kills the mutant. First it runs every named test on an
unmutated copy, which must pass, so a kill means the mutant and nothing
else failed them. It prints a kill table and exits 1 if a mutant
survives, if its old text is not found exactly once (the list has fallen
behind the code), or if the unmutated run fails. Only the standard
library and pytest are used. It is not part of the test suite.

Usage:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "grid-fit-upper-edge",  # a ring that touches the far edge is rejected
        "src/irsbandit/config.py",
        "max(x, y) + r > side",
        "max(x, y) + r >= side",
        ("tests/test_topology.py::TestBuildTopology::test_ring_touching_grid_edges_accepted",),
    ),
    Mutant(
        "grid-fit-lower-edge",  # a ring that touches the near edge is rejected
        "src/irsbandit/config.py",
        "min(x, y) - r < 0",
        "min(x, y) - r <= 0",
        ("tests/test_topology.py::TestBuildTopology::test_ring_touching_grid_edges_accepted",),
    ),
    Mutant(
        "cluster-check-without-case",  # the random case is held to the division too
        "src/irsbandit/config.py",
        "if clustered and self.ue_count % self.cluster_size:",
        "if self.ue_count % self.cluster_size:",
        (
            "tests/test_topology.py::TestPlaceUes::test_indivisible_random_count_accepted",
            "tests/test_experiment.py::TestParseConfig"
            "::test_indivisible_count_accepted_without_the_clustered_case",
        ),
    ),
    Mutant(
        "budget-excludes-its-bound",  # the default protocol's 10^4 blocks exceed the budget
        "src/irsbandit/config.py",
        "self.periods * self.replications > CHANNEL_BUDGET",
        "self.periods * self.replications >= CHANNEL_BUDGET",
        ("tests/test_engine.py::TestConfigValidation::test_budget_enforcement",),
    ),
    Mutant(
        "spec-skips-case-topologies",  # the sweep's clustered case goes unchecked
        "src/irsbandit/experiment.py",
        "dataclasses.replace(self.base.topology, distribution_case=case)",
        "self.base.topology",
        (
            "tests/test_experiment.py::TestParseConfig::test_cluster_divisibility_named",
            "tests/test_experiment.py"
            "::test_experiment_spec_checks_the_count_only_for_the_clustered_case",
        ),
    ),
    # README's exact-math rule, clause by clause
    Mutant(
        "log2-cutoff-not-raised",  # 2.0**threshold may sit below the cutoff
        "src/irsbandit/engine.py",
        "    while math.log2(c) < threshold:\n        c = math.nextafter(c, math.inf)\n",
        "",
        ("tests/test_engine.py::test_log2_cutoff_at_any_threshold",),
    ),
    Mutant(
        "log2-cutoff-not-lowered",  # ... or above it
        "src/irsbandit/engine.py",
        "    while math.log2(below := math.nextafter(c, 0.0)) >= threshold:\n        c = below\n",
        "",
        (
            "tests/test_engine.py::test_log2_cutoff_at_listed_thresholds",
            "tests/test_engine.py::test_log2_cutoff_at_any_threshold",
        ),
    ),
    Mutant(
        "eveless-panel-pairs-nonzero",  # a panel without eavesdroppers leaks to one
        "src/irsbandit/engine.py",
        "snr = np.zeros((n_bs, 1))",
        "snr = np.ones((n_bs, 1))",
        (
            "tests/test_engine.py::test_outcomes_without_rates_match_outcomes_with_them",
            "tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",
        ),
    ),
    Mutant(
        "rssi-numpy-log10",  # numpy's log10 may differ from math's in the last bit
        "src/irsbandit/engine.py",
        "rssi = elementwise(math.log10, self._gain()[slots])",
        "rssi = np.log10(self._gain()[slots])",
        ("tests/test_engine.py::test_warm_start_decides_near_ties_by_the_exact_rssi",),
    ),
    Mutant(
        "screen-fallback-dropped",  # a screened budget that overflowed is never made exact
        "src/irsbandit/engine.py",
        "budget[odd] = self.links(odd)[1]",
        "pass",
        (
            "tests/test_engine.py"
            "::test_warm_start_on_overflowing_screens_takes_the_exact_budgets",
        ),
    ),
    Mutant(
        "environment-budget-unchecked",  # a budget beyond 2**1022 dB reaches the screen
        "src/irsbandit/engine.py",
        "if not all((abs(b) <= 2.0**1022).all() for b in (budget, eve_db)):",
        "if False:",
        ("tests/test_engine.py::test_environment_whose_budget_is_not_finite_rejected",),
    ),
    Mutant(
        "snr-bound-at-overflow",  # a factor that two fading gains overflow is accepted
        "src/irsbandit/engine.py",
        "if not x <= 302.0:",
        "if not x < 308.25:",
        ("tests/test_engine.py::test_environment_whose_faded_snr_factor_could_overflow_rejected",),
    ),
    Mutant(
        "budget-interval-decides-alone",  # an interval past the bound rejects unchecked
        "src/irsbandit/engine.py",
        "if not (abs(budget) <= 2.0**1022).all():",
        "if False:",
        ("tests/test_engine.py::test_budget_bound_is_decided_by_the_exact_budget",),
    ),
    Mutant(
        "budget-interval-ignores-hops",  # the interval's floor forgets the far hop
        "src/irsbandit/engine.py",
        "self._feed_db.min() - channel.path_losses_db(far, params)[0],",
        "self._feed_db.min() - params.ref_loss_db,",
        (
            "tests/test_engine.py::test_environment_whose_budget_is_not_finite_rejected",
            "tests/test_engine.py::test_budget_bound_is_decided_by_the_exact_budget",
        ),
    ),
    Mutant(
        "leak-rule-ties-leak",  # equal 1 + SNR takes both logarithms
        "src/irsbandit/engine.py",
        "leak = (power > eve_power).nonzero()[0]",
        "leak = (power >= eve_power).nonzero()[0]",
        ("tests/test_engine.py::test_equal_eavesdropper_power_leaks_nothing_and_takes_no_log2",),
    ),
    Mutant(
        "warm-start-margin-zero",  # the screen alone picks the strongest slot
        "src/irsbandit/engine.py",
        "margin = 2.0**-40 * (a + max(approx.max(), -approx.min())) + 2.0 * error",
        "margin = 0.0",
        ("tests/test_engine.py::test_warm_start_decides_near_ties_by_the_exact_rssi",),
    ),
    Mutant(
        "fill-only-read-slots",  # slots first read in a later period keep no SNR factor
        "src/irsbandit/engine.py",
        "self.links(lo + np.flatnonzero(np.isnan(self._snr[lo:hi])))",
        "self.links(np.unique(slot[(slot >= lo) & (slot < hi)]))",
        (
            "tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",
            "tests/test_engine.py::test_chunk_with_greedy_lanes_computes_every_slot_once",
        ),
    ),
    # one channel and one rate threshold per chunk
    Mutant(
        "chunk-key-ignores-channel",  # lanes on other channels or thresholds share a chunk
        "src/irsbandit/engine.py",
        "return ChannelEnvironment, cfg.periods, cfg.channel, cfg.rate_threshold",
        "return ChannelEnvironment, cfg.periods",
        (
            "tests/test_engine.py::test_one_generator_per_stream",
            "tests/test_engine.py::test_lanes_in_chunks_match_one_lane_runs",
        ),
    ),
    Mutant(
        "stream-key-ignores-threshold",  # lanes on one seed and two thresholds share a stream
        "src/irsbandit/engine.py",
        "return cfg.topology, cfg.channel, cfg.rate_threshold, cfg.periods, lane.seed",
        "return cfg.topology, cfg.channel, cfg.periods, lane.seed",
        ("tests/test_engine.py::test_lanes_in_chunks_match_one_lane_runs",),
    ),
    Mutant(
        "stream-shift-sign-flipped",  # a lane agent's slot maps to another stream slot
        "src/irsbandit/engine.py",
        "shift = [stream_slots[s] - lo for s, lo in zip(self.stream, self.slots)]",
        "shift = [lo - stream_slots[s] for s, lo in zip(self.stream, self.slots)]",
        ("tests/test_engine.py::test_one_generator_per_stream",),
    ),
    # lanes sharing a stream read it through the layout's rows and shifts
    Mutant(
        "bernoulli-outcomes-ignore-rows",  # a lane agent reads its row in the chunk, not its stream
        "src/irsbandit/engine.py",
        "uniform = self._uniform if self._rows is None else self._uniform[self._rows]",
        "uniform = self._uniform",
        ("tests/test_engine.py::test_bernoulli_blocks_keep_every_lane_and_stream",),
    ),
    # each stream's IRS->UE gains, a slice of gains: addressed per lane agent
    # by an offset (outcomes) and joined in stream order (the warm start)
    Mutant(
        "ue-gains-of-first-stream",  # every stream's outcomes read the first stream's gains
        "src/irsbandit/engine.py",
        "ue_off.append(b + n_bs - k)",
        "ue_off.append(n_bs - k)",
        ("tests/test_engine.py::test_one_generator_per_stream",),
    ),
    Mutant(
        "ue-offset-not-gathered",  # lane agents read the stream agents' offsets
        "src/irsbandit/engine.py",
        "self._ue_off = ue_off if layout.rows is None else ue_off[layout.rows]",
        "self._ue_off = ue_off",
        (
            "tests/test_engine.py::test_lanes_in_chunks_match_one_lane_runs[inf]",
            "tests/test_engine.py::test_one_generator_per_stream",
        ),
    ),
    Mutant(
        "ue-slices-joined-in-reverse",  # the warm start pairs slots with other streams' gains
        "src/irsbandit/engine.py",
        "gain *= _joined(self._ue_gains)",
        "gain *= _joined(self._ue_gains[::-1])",
        (
            "tests/test_engine.py::test_lanes_in_chunks_match_one_lane_runs[inf]",
            "tests/test_engine.py::test_one_generator_per_stream",
        ),
    ),
    Mutant(
        "outcome-shift-sign-flipped",  # outcomes read another stream slot than the lane's
        "src/irsbandit/engine.py",
        "slot = slot + self._shift  # the stream slots",
        "slot = slot - self._shift  # the stream slots",
        ("tests/test_engine.py::test_one_generator_per_stream",),
    ),
    Mutant(
        "warm-start-shift-sign-flipped",  # the warm start hands a lane another lane's slots
        "src/irsbandit/engine.py",
        "        best -= self._shift\n",
        "        best += self._shift\n",
        ("tests/test_engine.py::test_one_generator_per_stream",),
    ),
    Mutant(
        "warm-start-skips-exact-decision",  # the lowest slot kept by the screen wins
        "src/irsbandit/engine.py",
        "best = best[policy.segment_argmax(self.rssi(best), within)]",
        "best = best[within.starts]",
        ("tests/test_engine.py::test_warm_start_decides_near_ties_by_the_exact_rssi",),
    ),
    # per-lane series: one C-contiguous row per lane, divided by its own agent count
    Mutant(
        "lane-sizes-reversed",  # each lane's sums are divided by another lane's size
        "src/irsbandit/engine.py",
        "    satisfaction /= lane_sizes[:, None]\n",
        "    satisfaction /= lane_sizes[::-1, None]\n",
        ("tests/test_engine.py::test_lane_means_are_the_records_means",),
    ),
    Mutant(
        "series-rows-non-contiguous",  # a lane's series is a strided column of a transpose
        "src/irsbandit/engine.py",
        "satisfaction = np.empty((len(chunk), periods))",
        "satisfaction = np.empty((periods, len(chunk))).T",
        ("tests/test_engine.py::test_lane_means_are_the_records_means",),
    ),
    # a lane the engine cannot run is rejected by field as it enters
    Mutant(
        "lane-environment-unchecked",  # a ChannelEnvironment lane runs
        "src/irsbandit/engine.py",
        "if env is not None and not isinstance(env, BernoulliEnvironment):",
        "if False:",
        (
            "tests/test_engine.py::test_lane_the_engine_cannot_run_is_rejected_by_field"
            "[environment-channel-run_lanes]",
        ),
    ),
    Mutant(
        "lane-seed-minus-one-accepted",  # seed -1 reaches numpy, which does not name it
        "src/irsbandit/engine.py",
        "seed < 0:",
        "seed < -1:",
        (
            "tests/test_engine.py::test_lane_the_engine_cannot_run_is_rejected_by_field"
            "[seed-negative-run_replication]",
        ),
    ),
    Mutant(
        "lane-seed-bool-accepted",  # True runs as seed 1
        "src/irsbandit/engine.py",
        "or isinstance(seed, bool) or",
        "or",
        (
            "tests/test_engine.py::test_lane_the_engine_cannot_run_is_rejected_by_field"
            "[seed-bool-run_replication]",
        ),
    ),
    Mutant(
        "cell-cfg-unchecked",  # run_cells reads replications of a cfg before any check
        "src/irsbandit/engine.py",
        "cfgs = [_checked(Lane(cfg, 0)).cfg for cfg in cfgs]",
        "cfgs = list(cfgs)",
        ("tests/test_engine.py::test_cell_the_engine_cannot_run_is_rejected_by_cfg",),
    ),
    # the kept exploit target, clause by clause (moving it onto itself, when
    # slot == best, writes nothing, so a mutant of that case alone is equivalent)
    Mutant(
        "target-ties-go-high",  # an equal reward at a higher slot takes the target
        "src/irsbandit/policy.py",
        "np.putmask(best, lead >= (slot > best), slot)",
        "np.putmask(best, lead >= (slot < best), slot)",
        ("tests/test_policy.py::test_kept_target_is_the_argmax_and_decides_like_a_rescan",),
    ),
    Mutant(
        "target-advance-not-strict",  # any equal reward takes the target
        "src/irsbandit/policy.py",
        "np.putmask(best, lead >= (slot > best), slot)",
        "np.putmask(best, lead >= 0, slot)",
        ("tests/test_policy.py::test_kept_target_is_the_argmax_and_decides_like_a_rescan",),
    ),
    Mutant(
        "target-putmask-swapped",  # the mask is written as the target, the slots read as the mask
        "src/irsbandit/policy.py",
        "np.putmask(best, lead >= (slot > best), slot)",
        "np.putmask(best, slot, lead >= (slot > best))",
        (
            "tests/test_policy.py::TestUpdate"
            "::test_overtaking_slot_takes_the_target_and_keeps_its_lead",
            "tests/test_policy.py::test_target_and_lead_follow_any_interleaving",
        ),
    ),
    # the kept lead: made at the start and by every update
    Mutant(
        "update-keeps-no-lead",  # the stay test reads the warm start's leads forever
        "src/irsbandit/policy.py",
        "    agents.lead = lead\n",
        "",
        (
            "tests/test_policy.py::TestUpdate"
            "::test_overtaking_slot_takes_the_target_and_keeps_its_lead",
            "tests/test_policy.py::test_target_and_lead_follow_any_interleaving",
        ),
    ),
    Mutant(
        "start-lead-zero",  # rewards that precede the start leave every lead at 0
        "src/irsbandit/policy.py",
        "agents.lead = agents.rewards[agents.slot] - agents.rewards[agents.best]",
        "agents.lead = np.zeros(len(agents.slot), dtype=np.int64)",
        (
            "tests/test_policy.py::TestInitAssociation::test_lead_is_made_from_the_rewards",
            "tests/test_policy.py::test_target_and_lead_follow_any_interleaving",
        ),
    ),
    Mutant(
        "radius-band-by-square",  # dx*dx + dy*dy decides the slots hypot should
        "src/irsbandit/topology.py",
        "elementwise(math.hypot, px[panel] - ux[ue], py[panel] - uy[ue]) <= radius",
        "(px[panel] - ux[ue]) ** 2 + (py[panel] - uy[ue]) ** 2 <= r2",
        ("tests/test_topology.py::test_radius_band_is_decided_by_hypot",),
    ),
    Mutant(
        "open-entry-ue-by-remainder",  # an open slot's hop is taken from another UE
        "src/irsbandit/topology.py",
        "ue = flat // rings.shape[1]",
        "ue = flat % rings.shape[1]",
        ("tests/test_topology.py::test_open_slot_is_decided_on_its_own_ue",),
    ),
    Mutant(
        "open-entry-panel-by-quotient",  # an open slot's hop is taken to another panel
        "src/irsbandit/topology.py",
        "flat % rings.shape[1]]",
        "flat // rings.shape[1]]",
        ("tests/test_topology.py::test_open_slot_is_decided_on_its_own_ue",),
    ),
    # the serving-cell screen, clause by clause
    Mutant(
        "serving-cell-without-relative-margin",
        "src/irsbandit/topology.py",
        "bound = square[np.arange(len(best)), best] * (1.0 + 1e-12)",
        "bound = square[np.arange(len(best)), best]",
        ("tests/test_topology.py::test_serving_cells_match_hypot_argmin",),
    ),
    Mutant(
        "serving-cell-without-floor",
        "src/irsbandit/topology.py",
        "near = square <= np.maximum(bound, 1e-300)[:, None]",
        "near = square <= bound[:, None]",
        ("tests/test_topology.py::test_serving_cells_match_hypot_argmin",),
    ),
    Mutant(
        "serving-cell-without-hypot-rows",
        "src/irsbandit/topology.py",
        "best[tied] = elementwise(math.hypot, dx[tied], dy[tied]).argmin(axis=1)",
        "best[tied] = square[tied].argmin(axis=1)",
        ("tests/test_topology.py::test_serving_cells_match_hypot_argmin",),
    ),
    # the config reaches the run by one set of rules
    Mutant(
        "json-last-repeat-wins",  # a JSON object keeps only the last of a repeated key
        "src/irsbandit/experiment.py",
        "blocks = [(section, keys.pairs) for section, keys in data.pairs]",
        "blocks = [(section, keys.items()) for section, keys in data.items()]",
        ("tests/test_experiment.py::TestParseConfig::test_json_key_given_twice_rejected",),
    ),
    Mutant(
        "log-level-by-basic-config",  # the level is lost once the root logger has a handler
        "src/irsbandit/cli.py",
        'logging.getLogger("irsbandit").setLevel(level)',
        "logging.basicConfig(level=level)",
        ("tests/test_cli.py::test_log_level_applies_when_logging_is_configured",),
    ),
    Mutant(
        "cluster-spread-unread",  # a key that parses but that no run reads
        "src/irsbandit/topology.py",
        "spread = cfg.cluster_spread + 0.0",
        "spread = 35.0",
        ("tests/test_experiment.py::test_every_config_key_reaches_the_run",),
    ),
    # Bernoulli lanes drawn in blocks of periods
    Mutant(
        "bernoulli-last-block-full",  # the last block draws past the run's periods
        "src/irsbandit/engine.py",
        "k = min(len(self._outcome), self._left)",
        "k = len(self._outcome)",
        (
            "tests/test_engine.py::test_lane_stream_is_geometry_then_fixed_blocks",
            "tests/test_engine.py::test_bernoulli_blocks_keep_every_lane_and_stream",
        ),
    ),
    Mutant(
        "bernoulli-inputs-one-period-early",  # each period decides on the next one's rows
        "src/irsbandit/engine.py",
        "        t = self._period\n        self._period += 1\n",
        "        self._period += 1\n        t = self._period % self._drawn\n",
        (
            "tests/test_engine.py::test_bernoulli_decision_inputs_are_each_periods_own",
            "tests/test_engine.py::test_bernoulli_blocks_keep_every_lane_and_stream",
        ),
    ),
    Mutant(
        "lone-lane-counts-the-chunk",  # a lone lane counts every lane's satisfied agents
        "src/irsbandit/engine.py",
        "satisfaction[l, t] = np.count_nonzero(satisfied[a])",
        "satisfaction[l, t] = np.count_nonzero(satisfied)",
        ("tests/test_engine.py::test_bernoulli_blocks_keep_every_lane_and_stream",),
    ),
    Mutant(
        "outcomes-makes-no-snr-factors",  # outcomes run before any links call fail
        "src/irsbandit/engine.py",
        "power = self._factors()[slot]",
        "power = self._snr[slot]",
        ("tests/test_engine.py::test_outcomes_without_rates_match_outcomes_with_them",),
    ),
    Mutant(
        "screen-block-written-at-ue-index",  # a block's budgets land at its first UE's index
        "src/irsbandit/engine.py",
        "budget[lo:hi] = channel.screened_budgets_db(",
        "budget[a : a + hi - lo] = channel.screened_budgets_db(",
        ("tests/test_engine.py::test_screen_in_small_blocks_matches_one_block",),
    ),
    # mutations recorded before the mutant list existed
    Mutant(
        "argmax-ties-go-high",  # unequal segments break ties to their highest slot
        "src/irsbandit/policy.py",
        "return hits[hits.searchsorted(agents.starts)]",
        "return hits[hits.searchsorted(agents.starts + agents.sizes) - 1]",
        ("tests/test_policy.py::TestInitAssociation::test_cb_rssi_tie_goes_low",),
    ),
    Mutant(
        "streak-at-phi-stays",  # an agent unsatisfied phi times in a row stays put
        "src/irsbandit/policy.py",
        "move |= agents.unsat >= agents.phi",
        "move |= agents.unsat > agents.phi",
        ("tests/test_policy.py::TestSelectIrs::test_streak_at_phi_forces_decision",),
    ),
    Mutant(
        "streak-never-reset",  # a satisfied period leaves the unsatisfied streak
        "src/irsbandit/policy.py",
        "    np.putmask(agents.unsat, satisfied, 0)\n",
        "",
        ("tests/test_policy.py::TestUpdate::test_satisfied_increments_and_resets",),
    ),
    Mutant(
        "rate-by-numpy-log2",  # numpy's log2 may differ from math's in the last bit
        "src/irsbandit/engine.py",
        "rate = elementwise(math.log2, power) if rates else None",
        "rate = np.log2(power) if rates else None",
        ("tests/test_golden.py::test_greedy_clustered_replication_digest",),
    ),
    Mutant(
        "rssi-scale-twenty",  # the exact RSSI takes 20 log10 of the gain
        "src/irsbandit/engine.py",
        "rssi *= 10.0",
        "rssi *= 20.0",
        (
            "tests/test_channel.py::TestRssi::test_golden_default_scenario_ue0",
            "tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",
        ),
    ),
    Mutant(
        "eve-gains-wrong-base",  # eavesdropper pairs read the IRS->UE gains
        "src/irsbandit/engine.py",
        "pair_eve.append(b + n_bs + n_ue + np.arange(n_eve))",
        "pair_eve.append(b + n_bs + np.arange(n_eve))",
        (
            "tests/test_golden.py::test_dense_clustered_trace_digests",
            "tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",
        ),
    ),
    Mutant(
        "streams-draw-from-the-first",  # every stream's fading comes from stream 0's Generator
        "src/irsbandit/engine.py",
        "self._draws.append((rng, self.gains[b : b + n_bs + n_ue + n_eve]))",
        "self._draws.append((rngs[0], self.gains[b : b + n_bs + n_ue + n_eve]))",
        ("tests/test_engine.py::test_lane_means_are_the_records_means",),
    ),
    Mutant(
        "fading-by-inversion",  # Exp(1) gains drawn by inversion, another stream of doubles
        "src/irsbandit/channel.py",
        "rng.standard_exponential(out=out)",
        "rng.standard_exponential(out=out, method=\"inv\")",
        ("tests/test_channel.py::test_fill_fading_streams_redraw_from_their_own_generators",),
    ),
    Mutant(
        "bernoulli-rate-cast-skipped",  # a recorded Bernoulli run keeps no rates
        "src/irsbandit/engine.py",
        "    if record and rates is None:\n",
        "    if False:\n",
        ("tests/test_engine.py::test_bernoulli_blocks_keep_every_lane_and_stream",),
    ),
)


def _run_tests(tree: Path, tests) -> subprocess.CompletedProcess:
    """pytest on the named tests of tree; any non-zero exit, a module that no
    longer imports included, is a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


def _verdict(tree: Path, mutant: Mutant) -> str:
    """Run the mutant's tests with it in place, then put the file back."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "STALE (old text not found exactly once)"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        return "SURVIVED" if _run_tests(tree, mutant.tests).returncode == 0 else "killed"
    finally:
        path.write_text(text, encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree / name)
        done = _run_tests(tree, list(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if done.returncode:
            print(f"{done.stdout}{done.stderr}the named tests fail on the unmutated tree")
            return 1
        width = max(len(m.name) for m in MUTANTS)
        failed = 0
        for m in MUTANTS:
            verdict = _verdict(tree, m)
            failed += verdict != "killed"
            print(f"{m.name:<{width}}  {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

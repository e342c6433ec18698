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
        ("tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",),
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
        "rest = lo + np.flatnonzero(np.isnan(self._snr[lo:hi]))",
        "rest = np.unique(slot[(slot >= lo) & (slot < hi)])",
        (
            "tests/test_engine.py::test_environment_matches_scalar_channel_bit_for_bit",
            "tests/test_engine.py::test_chunk_with_greedy_lanes_computes_every_slot_once",
        ),
    ),
    # the kept exploit target, clause by clause (moving it onto itself, when
    # slot == best, writes nothing, so a mutant of that case alone is equivalent)
    Mutant(
        "target-ties-go-high",  # an equal reward at a higher slot takes the target
        "src/irsbandit/policy.py",
        "np.copyto(best, slot, where=lead >= (slot > best))",
        "np.copyto(best, slot, where=lead >= (slot < best))",
        ("tests/test_policy.py::test_kept_target_is_the_argmax_and_decides_like_a_rescan",),
    ),
    Mutant(
        "target-advance-not-strict",  # any equal reward takes the target
        "src/irsbandit/policy.py",
        "np.copyto(best, slot, where=lead >= (slot > best))",
        "np.copyto(best, slot, where=lead >= 0)",
        ("tests/test_policy.py::test_kept_target_is_the_argmax_and_decides_like_a_rescan",),
    ),
    Mutant(
        "radius-band-by-square",  # dx*dx + dy*dy decides the slots hypot should
        "src/irsbandit/topology.py",
        "keep[open_] = elementwise(math.hypot, dx[open_], dy[open_]) <= radius",
        "keep[open_] = square[open_] <= r2",
        ("tests/test_topology.py::test_radius_band_is_decided_by_hypot",),
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

"""Frozen differential proof: the network reproduces the per-send reference.

``Network`` batches a multicast fan-out into one kernel event while it is
pristine (see ``docs/kernel.md``).  The per-send delivery path it replaced
is the reference: every run must serialize to exactly the bytes that path
produced — histories, metrics, violations, the lot.  Those bytes were
frozen as sha256 fingerprints in ``tests/fixtures/golden_kernel_diff.json``
before the batched path became the default, so the proof outlives the
reference code:

* **golden-fixture paths** — the committed Figure 4(a) table regenerates
  unchanged on the 1500-round fixture trace; the churn scenario that
  ``golden_churn.json`` pins (partitions, loss and view changes — the
  configuration that latches batching off) and the default-trace game
  workload family reproduce their frozen fingerprints;
* **frozen configurations** — 60 explicit configurations spanning group
  size, latency model, relation, workload shape, consumption and seed
  reproduce theirs.

The fixture is never regenerated: a mismatch means the network changed
observable behaviour.  The in-process batched ≡ per-send comparison lives
in ``tests/sim/test_batch_dispatch.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.scenario import Scenario

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
FROZEN = json.loads((FIXTURES / "golden_kernel_diff.json").read_text())


def _fingerprint(result):
    """sha256 of the canonical JSON of one ScenarioResult."""
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def assert_matches_frozen(build, frozen):
    assert _fingerprint(build().run(frozen["until"])) == frozen["sha256"]


# ----------------------------------------------------------------------
# Golden-fixture paths
# ----------------------------------------------------------------------


class TestGoldenPaths:
    def test_figure_4a_regenerates_goldens(self):
        """The committed Figure 4(a) table on the fixture trace comes out
        identical on the single kernel."""
        import repro.analysis.experiments as exp
        from repro.workload.game import GameConfig, generate_game_trace

        golden = json.loads((FIXTURES / "golden_figure_4a.json").read_text())
        spec = golden["trace"]
        trace = generate_game_trace(
            GameConfig(rounds=spec["rounds"], seed=spec["seed"])
        )
        rows = exp.figure_4a(
            trace, buffer_size=golden["buffer_size"], rates=tuple(golden["rates"])
        )
        assert [list(row) for row in rows] == golden["rows"]

    def test_churn_scenario_matches_frozen(self):
        """The golden-churn configuration: partitions + loss + view change
        triggered mid-partition.  Fault injection latches batching off, so
        this pins the fallback path at full stack."""
        from repro.analysis.experiments import CHURN_DEFAULTS as d
        from repro.core.spec import LOSSY_CHECKS

        def build():
            return (
                Scenario()
                .group(
                    n=d["n"],
                    relation="item-tagging",
                    consensus="oracle",
                    seed=11,
                    viewchange_retry=d["viewchange_retry"],
                )
                .workload("game", rounds=120)
                .consumers(rate=d["consumer_rate"])
                .faults(
                    "partition-churn",
                    side=list(d["side"]),
                    at=d["at"],
                    period=1.0,
                    cycles=d["cycles"],
                    closed_fraction=d["closed_fraction"],
                    loss=0.05,
                    trigger_during_partition=True,
                )
                .check(checks=LOSSY_CHECKS)
                .histories()
                .collect("throughput", "view_changes", "network", "purges")
            )

        assert_matches_frozen(build, FROZEN["churn"])

    def test_default_trace_family_matches_frozen(self):
        """The game workload with the default-trace parameters (players,
        fps, seed 2002 — the ``golden_default_trace.json`` family) at
        test-scale length, full histories compared."""

        def build():
            return (
                Scenario()
                .group(n=5, relation="item-tagging", consensus="oracle", seed=2002)
                .workload("game", players=5, rounds=120)
                .consumers(rate=150.0)
                .histories()
                .collect("throughput", "purges", "network", "queue_depth")
            )

        assert_matches_frozen(build, FROZEN["default_trace"])


# ----------------------------------------------------------------------
# Frozen configurations
# ----------------------------------------------------------------------


def _build_random(config):
    spec = (
        Scenario()
        .group(
            n=config["n"],
            relation=config["relation"],
            consensus="oracle",
            seed=config["seed"],
        )
        .latency(config["latency"])
        .workload("game", players=config["players"], rounds=config["rounds"])
        .histories()
        .collect("throughput", "purges", "network")
    )
    if config["consumers"] is not None:
        spec.consumers(rate=config["consumers"])
    if config["drain"] is not None:
        spec.drain_every(config["drain"])
    if config["view_change_at"] is not None:
        spec.view_change(at=config["view_change_at"])
    return spec


class TestFrozenConfigs:
    def test_fixture_spans_the_config_space(self):
        runs = FROZEN["random"]["runs"]
        assert len(runs) == 60
        combos = {(r["config"]["latency"], r["config"]["relation"]) for r in runs}
        assert len(combos) == 9

    @pytest.mark.parametrize(
        "run", FROZEN["random"]["runs"],
        ids=[f"cfg{i:02d}" for i in range(len(FROZEN["random"]["runs"]))],
    )
    def test_config_matches_frozen(self, run):
        assert_matches_frozen(
            lambda: _build_random(run["config"]),
            {"until": FROZEN["random"]["until"], "sha256": run["sha256"]},
        )

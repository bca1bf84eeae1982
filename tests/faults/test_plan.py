"""Unit tests for FaultPlan events, validation and the dict round trip."""

import math

import pytest

from repro import GroupStack, ItemTagging, StackConfig
from repro.faults import (
    Crash,
    FaultPlan,
    FaultPlanError,
    Heal,
    LinkFault,
    Partition,
    Perturb,
    Recover,
    ViewChange,
    fault_profiles,
)


def make_stack(n=3):
    return GroupStack(ItemTagging(), StackConfig(n=n, consensus="oracle"))


class FakePausable:
    """Records each pause()/resume() with the simulated time it ran at."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def pause(self):
        self.log.append(("pause", self.sim.now))

    def resume(self):
        self.log.append(("resume", self.sim.now))


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            Crash(at=-1.0, pid=0)

    def test_nan_time_rejected(self):
        with pytest.raises(FaultPlanError):
            Crash(at=math.nan, pid=0)

    def test_infinite_time_rejected(self):
        with pytest.raises(FaultPlanError):
            Heal(at=math.inf)

    def test_non_numeric_time_rejected(self):
        with pytest.raises(FaultPlanError):
            Crash(at="soon", pid=0)

    def test_negative_pid_rejected(self):
        with pytest.raises(FaultPlanError):
            Crash(at=1.0, pid=-1)

    def test_bool_pid_rejected(self):
        with pytest.raises(FaultPlanError):
            Crash(at=1.0, pid=True)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, math.nan])
    def test_link_fault_rates_bounded(self, rate):
        with pytest.raises(FaultPlanError):
            LinkFault(at=0.0, loss=rate)
        with pytest.raises(FaultPlanError):
            LinkFault(at=0.0, duplicate=rate)
        with pytest.raises(FaultPlanError):
            LinkFault(at=0.0, reorder=rate)

    def test_reorder_spread_positive(self):
        with pytest.raises(FaultPlanError):
            LinkFault(at=0.0, reorder=0.5, reorder_spread=0.0)

    def test_perturb_needs_positive_duration(self):
        with pytest.raises(FaultPlanError):
            Perturb(at=1.0, pid=0, duration=0.0)
        with pytest.raises(FaultPlanError):
            Perturb(at=1.0, pid=0, duration=math.nan)
        with pytest.raises(FaultPlanError):
            Perturb(at=1.0, pid=0, duration=-1.0)

    def test_partition_sides_must_not_overlap(self):
        with pytest.raises(FaultPlanError):
            Partition(at=1.0, sides=[(0, 1), (1, 2)])

    def test_partition_needs_non_empty_sides(self):
        with pytest.raises(FaultPlanError):
            Partition(at=1.0, sides=[])
        with pytest.raises(FaultPlanError):
            Partition(at=1.0, sides=[()])

    def test_recover_retry_positive_or_none(self):
        with pytest.raises(FaultPlanError):
            Recover(at=1.0, pid=0, retry=0.0)
        Recover(at=1.0, pid=0, retry=None)  # single attempt is fine

    def test_non_event_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan([{"kind": "crash", "at": 1.0}])  # dicts go via from_dicts


class TestInstallValidation:
    def test_unknown_pid_rejected(self):
        plan = FaultPlan([Crash(at=1.0, pid=9)])
        with pytest.raises(FaultPlanError, match="unknown process 9"):
            plan.install(make_stack())

    def test_double_install_rejected(self):
        stack = make_stack()
        plan = FaultPlan([Crash(at=1.0, pid=0)])
        plan.install(stack)
        with pytest.raises(FaultPlanError, match="already installed"):
            plan.install(stack)

    def test_perturb_without_consumer_rejected(self):
        plan = FaultPlan([Perturb(at=1.0, pid=0, duration=0.5)])
        with pytest.raises(FaultPlanError, match="consumer"):
            plan.install(make_stack())

    def test_partition_covering_whole_group_rejected_at_install(self):
        stack = make_stack(n=2)
        with pytest.raises(FaultPlanError, match="whole group"):
            FaultPlan([Partition(at=0.5, sides=[(0, 1)])]).install(stack)

    def test_crash_event_fires(self):
        stack = make_stack()
        FaultPlan([Crash(at=0.5, pid=1)]).install(stack)
        stack.run(until=1.0)
        assert stack.processes[1].crashed

    def test_named_heal_only_heals_named_sides(self):
        stack = make_stack(n=4)
        FaultPlan(
            [
                Partition(at=0.1, sides=[(0,), (1,)]),
                Partition(at=0.1, sides=[(2,), (3,)]),
                Heal(at=0.2, sides=[(0,), (1,)]),
            ]
        ).install(stack)
        stack.run(until=0.5)
        net = stack.network
        assert (2, 3) in net._cut and (3, 2) in net._cut
        assert (0, 1) not in net._cut and (1, 0) not in net._cut

    def test_link_fault_window_closes(self):
        """A later all-zero LinkFault on the same scope switches the
        faults off: messages sent after it all arrive."""
        stack = make_stack()
        plan = fault_profiles.create(
            "lossy-links", loss=1.0, at=0.0, until=0.5, data_only=False
        )
        plan.install(stack)
        sim, net = stack.sim, stack.network
        sim.run(until=0.2)
        net.send(0, 1, "during")  # dropped: loss=1.0 window is open
        sim.run(until=0.8)
        net.send(0, 1, "after")  # the until-event zeroed the rates
        stats = net.channel_stats(0, 1)
        assert stats.dropped == 1
        assert stats.sent == 2

    def test_plans_compose_with_plus(self):
        combined = FaultPlan([Crash(at=1.0, pid=0)]) + FaultPlan(
            [Heal(at=2.0)]
        )
        assert len(combined) == 2
        assert combined.referenced_pids() == (0,)


class TestPerturbWindows:
    """FaultPlan stalls a consumer with reference-counted pause/resume."""

    def run_windows(self, windows, pid=0):
        stack = make_stack()
        target = FakePausable(stack.sim)
        FaultPlan(
            [Perturb(at=at, pid=pid, duration=d) for at, d in windows]
        ).install(stack, consumers={pid: target})
        stack.run(until=6.0)
        return target.log

    def test_one_window_one_cycle(self):
        assert self.run_windows([(1.0, 0.5)]) == [
            ("pause", 1.0), ("resume", 1.5),
        ]

    def test_overlapping_windows_merge(self):
        # One logical stall from 1.0 to 4.0, not two.
        assert self.run_windows([(1.0, 2.0), (2.0, 2.0)]) == [
            ("pause", 1.0), ("resume", 4.0),
        ]

    def test_disjoint_windows_each_cycle(self):
        assert self.run_windows([(1.0, 0.5), (3.0, 0.5)]) == [
            ("pause", 1.0), ("resume", 1.5), ("pause", 3.0), ("resume", 3.5),
        ]

    def test_windows_on_different_pids_do_not_merge(self):
        stack = make_stack()
        first, second = FakePausable(stack.sim), FakePausable(stack.sim)
        FaultPlan(
            [
                Perturb(at=2.0, pid=1, duration=2.0),
                Perturb(at=1.0, pid=0, duration=2.0),
            ]
        ).install(stack, consumers={0: first, 1: second})
        stack.run(until=6.0)
        assert first.log == [("pause", 1.0), ("resume", 3.0)]
        assert second.log == [("pause", 2.0), ("resume", 4.0)]

    def test_failed_install_schedules_nothing(self):
        """Validation precedes scheduling: a bad event late in the plan
        must not leave the earlier ones half-installed."""
        stack = make_stack()
        target = FakePausable(stack.sim)
        plan = FaultPlan(
            [Perturb(at=1.0, pid=0, duration=0.5), Crash(at=1.0, pid=9)]
        )
        with pytest.raises(FaultPlanError, match="unknown process 9"):
            plan.install(stack, consumers={0: target})
        stack.run(until=2.0)
        assert target.log == []


class TestDictRoundTrip:
    def test_round_trip_preserves_events(self):
        plan = FaultPlan(
            [
                Crash(at=1.0, pid=2),
                Recover(at=2.0, pid=2, via=0, retry=0.25),
                Partition(at=3.0, sides=[(0, 1), (2,)]),
                Heal(at=4.0),
                LinkFault(at=0.0, loss=0.1, duplicate=0.05, reorder=0.01,
                          data_only=True),
                Perturb(at=5.0, pid=1, duration=0.5),
                ViewChange(at=6.0, pid=0, leave=(2,)),
            ]
        )
        rebuilt = FaultPlan.from_dicts(plan.to_dicts())
        assert rebuilt.events == plan.events

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault event kind"):
            FaultPlan.from_dicts([{"kind": "meteor", "at": 1.0}])

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fields"):
            FaultPlan.from_dicts([{"kind": "crash", "at": 1.0, "pidd": 0}])

    def test_json_lists_accepted_for_sides(self):
        plan = FaultPlan.from_dicts(
            [{"kind": "partition", "at": 1.0, "sides": [[0, 1], [2]]}]
        )
        assert plan.events[0].sides == ((0, 1), (2,))


class TestProfiles:
    def test_builtin_profiles_registered(self):
        for name in ("partition-heal", "lossy-links", "crash-rejoin",
                     "partition-churn"):
            assert name in fault_profiles

    def test_partition_heal_shape(self):
        plan = fault_profiles.create(
            "partition-heal", at=2.0, duration=1.0, side=[3]
        )
        kinds = [e.kind for e in plan]
        assert kinds == ["partition", "heal", "view-change"]

    def test_profile_heals_are_named_not_global(self):
        """Profile heals undo exactly their own cut: a manual cut on the
        same network must survive the profile's heal."""
        stack = make_stack(n=4)
        stack.network.cut(0, 1)
        fault_profiles.create(
            "partition-heal", at=0.1, duration=0.2, side=[3],
            reconfigure_after=None,
        ).install(stack)
        stack.run(until=1.0)
        assert (0, 1) in stack.network._cut  # manual cut untouched
        assert (3, 0) not in stack.network._cut  # profile's cut healed
        for plan in (
            fault_profiles.create("partition-heal", side=[3]),
            fault_profiles.create("partition-churn", side=[3], cycles=1),
        ):
            heals = [e for e in plan if e.kind == "heal"]
            assert heals and all(e.sides is not None for e in heals)

    def test_lossy_links_window(self):
        plan = fault_profiles.create("lossy-links", loss=0.1, at=1.0, until=3.0)
        assert [e.kind for e in plan] == ["link-fault", "link-fault"]
        assert plan.events[1].loss == 0.0  # the window-closing event

    def test_crash_rejoin_order_enforced(self):
        with pytest.raises(FaultPlanError):
            fault_profiles.create("crash-rejoin", crash_at=2.0, rejoin_at=1.0)

    def test_partition_churn_cycle_count(self):
        plan = fault_profiles.create(
            "partition-churn", side=[4], cycles=3, loss=0.05
        )
        kinds = [e.kind for e in plan]
        assert kinds.count("partition") == 3
        assert kinds.count("heal") == 3
        assert kinds.count("view-change") == 3
        assert kinds.count("link-fault") == 1

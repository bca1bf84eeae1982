"""Unit tests for the shared time and interval validators, and for
crash and perturbation scheduling through :class:`FaultPlan` events."""

import math

import pytest

from repro import GroupStack, ItemTagging, StackConfig
from repro.faults import Crash, FaultPlan, FaultPlanError, Perturb
from repro.sim.failure import check_positive, check_time


def make_stack(n=3):
    return GroupStack(ItemTagging(), StackConfig(n=n, consensus="oracle"))


class FakePausable:
    def __init__(self):
        self.log = []

    def pause(self):
        self.log.append("pause")

    def resume(self):
        self.log.append("resume")


class TestCheckTime:
    @pytest.mark.parametrize("good", [0, 0.0, 1.5, 10**6])
    def test_finite_non_negative_accepted(self, good):
        check_time(good, "t")

    @pytest.mark.parametrize("bad_time", [-1.0, math.nan, math.inf, "soon"])
    def test_invalid_rejected(self, bad_time):
        with pytest.raises(ValueError, match="t must be"):
            check_time(bad_time, "t")

    def test_raises_the_given_error_type(self):
        with pytest.raises(FaultPlanError):
            check_time(-1.0, "t", FaultPlanError)


class TestCheckPositive:
    @pytest.mark.parametrize("bad", [0, -0.5, math.nan, math.inf, "often"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError, match="positive finite"):
            check_positive(bad, "retry")

    def test_positive_accepted(self):
        check_positive(0.1, "retry")


class TestCrashSchedule:
    """Crashes scheduled by :class:`Crash` events."""

    def test_crashes_at_scheduled_times(self):
        stack = make_stack()
        FaultPlan([Crash(at=1.0, pid=0), Crash(at=2.0, pid=1)]).install(stack)
        stack.run(until=1.5)
        a, b = stack.processes[0], stack.processes[1]
        assert a.crashed and not b.crashed
        stack.run(until=3.0)
        assert b.crashed

    def test_double_install_rejected(self):
        """The second install raises and schedules no second crash."""
        stack = make_stack()
        plan = FaultPlan([Crash(at=1.0, pid=0)])
        plan.install(stack)
        pending = stack.sim.pending_events
        with pytest.raises(FaultPlanError, match="already installed"):
            plan.install(stack)
        assert stack.sim.pending_events == pending

    def test_double_install_is_also_a_value_error(self):
        """FaultPlanError subclasses ValueError, so either except clause
        works."""
        stack = make_stack()
        plan = FaultPlan([Crash(at=1.0, pid=0)])
        plan.install(stack)
        with pytest.raises(ValueError):
            plan.install(stack)

    def test_target_without_crash_method_rejected(self):
        """A plan names its targets by pid; a pid with no process behind
        it is rejected before anything is scheduled."""
        stack = make_stack()
        plan = FaultPlan([Crash(at=1.0, pid=0), Crash(at=1.0, pid=3)])
        with pytest.raises(FaultPlanError, match="unknown process 3"):
            plan.install(stack)
        assert not plan.installed
        stack.run(until=2.0)
        assert not stack.processes[0].crashed


class TestPerturbationSchedule:
    """Consumer stalls scheduled by :class:`Perturb` events."""

    def test_double_install_rejected(self):
        stack = make_stack()
        target = FakePausable()
        plan = FaultPlan([Perturb(at=1.0, pid=0, duration=0.5)])
        plan.install(stack, consumers={0: target})
        with pytest.raises(FaultPlanError, match="already installed"):
            plan.install(stack, consumers={0: target})
        stack.run(until=2.0)
        assert target.log == ["pause", "resume"]

    @pytest.mark.parametrize("bad_start", [-0.5, math.nan, math.inf])
    def test_invalid_start_rejected(self, bad_start):
        with pytest.raises(FaultPlanError):
            Perturb(at=bad_start, pid=0, duration=1.0)

    def test_nan_duration_rejected(self):
        with pytest.raises(FaultPlanError):
            Perturb(at=1.0, pid=0, duration=math.nan)

    def test_negative_duration_rejected(self):
        with pytest.raises(FaultPlanError):
            Perturb(at=1.0, pid=0, duration=-1.0)

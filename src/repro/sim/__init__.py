"""Discrete-event simulation substrate.

Everything in the reproduction executes on this substrate: a deterministic
event-driven :class:`~repro.sim.kernel.Simulator`, crash-stop
:class:`~repro.sim.process.SimProcess` participants, a reliable-FIFO
:class:`~repro.sim.network.Network` with an optional lossy/partitionable
link layer.  Faults are scheduled by the declarative plans of
:mod:`repro.faults`.
"""

from repro.sim.kernel import EventHandle, PeriodicTimer, SimulationError, Simulator
from repro.sim.network import (
    ConstantLatency,
    LatencyModel,
    LinkFaultPolicy,
    LognormalLatency,
    Network,
    UniformLatency,
)
from repro.sim.process import ProcessId, ProcessRegistry, SimProcess

__all__ = [
    "Simulator",
    "SimulationError",
    "EventHandle",
    "PeriodicTimer",
    "Network",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "ProcessId",
    "SimProcess",
    "ProcessRegistry",
    "LinkFaultPolicy",
]

"""Shared validators for fault times and interval knobs.

:mod:`repro.faults` schedules crash-stop failures and performance
perturbations declaratively; these checks are the one definition its
events, the SVS layer and the group stack validate their times and
retry intervals with, so the validation surfaces cannot diverge.
"""

from __future__ import annotations

import math

__all__ = ["check_time", "check_positive"]


def check_time(value: float, what: str, exc: type = ValueError) -> None:
    """Reject anything but a finite non-negative number (NaN fails the
    ``>= 0`` comparison)."""
    if not isinstance(value, (int, float)) or not (value >= 0):
        raise exc(f"{what} must be a non-negative number: {value!r}")
    if math.isinf(value):
        raise exc(f"{what} must be finite: {value!r}")


def check_positive(value: float, what: str, exc: type = ValueError) -> None:
    """Reject anything but a finite strictly-positive number (NaN fails
    the ``> 0`` comparison)."""
    if (
        not isinstance(value, (int, float))
        or not (value > 0)
        or math.isinf(value)
    ):
        raise exc(f"{what} must be a positive finite number: {value!r}")

"""Machine models: static power, sleep states and discrete speed levels.

The paper's continuous model charges ``power(speed)`` while running and
nothing while idle.  Real processors burn static (leakage/uncore) power
whenever they are awake, can enter a sleep state with a wake-up latency and a
transition energy cost, and expose a finite ladder of operating points (the
Athlon 64 list in :data:`repro.discrete.ATHLON64`).  A
:class:`MachineModel` composes all three on top of any
:class:`~repro.core.power.PowerFunction`:

* ``static_power`` is drawn whenever the machine is awake — busy or idle,
* ``sleep`` (a :class:`SleepState`) makes long idle gaps cheaper: the machine
  sleeps iff the gap is at least the break-even time
  ``transition_energy / (static_power - sleep.power)`` *and* at least the
  wake-up latency (so it is always back awake when work arrives),
* ``levels`` (a :class:`~repro.discrete.SpeedLevels`) forces every plan
  through the :mod:`repro.discrete` quantizers with the model's
  ``quantization`` policy (``"two-level"`` or ``"nearest"``).

The preset catalogue (:func:`machine_model`) spans the scenario matrix of the
simulation benchmarks: a pure ``s^alpha`` machine (the paper's model — the
rows that must match the continuous competitive pipeline exactly), a
static+sleep variant, and discrete Athlon-64-ladder variants under both
quantization policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..core.power import PolynomialPower, PowerFunction
from ..discrete import ATHLON64, SpeedLevels
from ..discrete.quantize import QUANTIZATION_POLICIES
from ..exceptions import InvalidInstanceError

__all__ = [
    "MACHINE_MODEL_NAMES",
    "MachineModel",
    "SleepState",
    "machine_model",
]


@dataclass(frozen=True)
class SleepState:
    """A low-power state with a wake-up cost.

    ``power`` is drawn while asleep (instead of ``static_power``);
    ``transition_energy`` is the one-off cost of the sleep+wake round trip,
    and ``wake_latency`` is how long before the next arrival the machine must
    start waking.
    """

    name: str = "sleep"
    power: float = 0.0
    wake_latency: float = 0.0
    transition_energy: float = 0.0

    def __post_init__(self) -> None:
        if self.power < 0:
            raise InvalidInstanceError("sleep power must be non-negative")
        if self.wake_latency < 0:
            raise InvalidInstanceError("wake latency must be non-negative")
        if self.transition_energy < 0:
            raise InvalidInstanceError("transition energy must be non-negative")


@dataclass(frozen=True)
class MachineModel:
    """A machine: dynamic power curve + static power + sleep + speed ladder."""

    name: str
    power: PowerFunction
    static_power: float = 0.0
    sleep: SleepState | None = None
    levels: SpeedLevels | None = None
    quantization: str = "two-level"

    def __post_init__(self) -> None:
        if self.static_power < 0:
            raise InvalidInstanceError("static power must be non-negative")
        if self.quantization not in QUANTIZATION_POLICIES:
            raise InvalidInstanceError(
                f"unknown quantization policy {self.quantization!r}; "
                f"expected one of {QUANTIZATION_POLICIES}"
            )

    @property
    def alpha(self) -> float | None:
        return self.power.alpha

    def busy_power(self, speed: float) -> float:
        """Total draw while running at ``speed`` (dynamic + static)."""
        return float(self.power.power(speed)) + self.static_power

    @property
    def break_even_time(self) -> float:
        """Shortest idle gap for which sleeping saves energy.

        ``inf`` when there is no sleep state or sleeping saves no power --
        the machine then never sleeps.
        """
        if self.sleep is None or self.sleep.power >= self.static_power:
            return math.inf
        return self.sleep.transition_energy / (self.static_power - self.sleep.power)

    def should_sleep(self, gap: float | np.ndarray) -> bool | np.ndarray:
        """The sleep decision for an idle gap of the given length (or each of
        an array of gaps, elementwise)."""
        if self.sleep is None:
            return False
        return (gap >= self.break_even_time) & (gap >= self.sleep.wake_latency)

    def describe(self) -> str:
        parts = [f"power={type(self.power).__name__}"]
        if self.alpha is not None:
            parts[-1] += f"(alpha={self.alpha:g})"
        parts.append(f"static={self.static_power:g}")
        parts.append("sleep=none" if self.sleep is None else f"sleep={self.sleep.name}")
        if self.levels is not None:
            parts.append(f"levels={self.levels.name}({len(self.levels)})")
            parts.append(f"policy={self.quantization}")
        return f"{self.name}: " + ", ".join(parts)


def _pure(alpha: float) -> MachineModel:
    return MachineModel(name="pure", power=PolynomialPower(alpha))


#: Shared sleep state of the realistic presets: sleeping draws a tenth of the
#: static power, the sleep+wake round trip costs 0.02 energy units, and the
#: machine needs 0.2 time units of notice to wake.  With static power 0.05
#: the break-even gap is 0.02 / (0.05 - 0.005) ≈ 0.44 time units.
_PRESET_SLEEP = SleepState(
    name="c6", power=0.005, wake_latency=0.2, transition_energy=0.02
)

_PRESET_STATIC = 0.05

#: The paper's Athlon 64 ladder scaled so the top operating point is speed
#: 2.0 — the laxity-3 trace families plan speeds mostly in (0.3, 2.0), so the
#: ladder bites (sub-minimum idling, two-level splits, occasional clamping)
#: without making whole traces infeasible.
_PRESET_LEVELS = ATHLON64.scaled(2.0)


def _static_sleep(alpha: float) -> MachineModel:
    return MachineModel(
        name="static-sleep",
        power=PolynomialPower(alpha),
        static_power=_PRESET_STATIC,
        sleep=_PRESET_SLEEP,
    )


def _athlon64(alpha: float) -> MachineModel:
    return MachineModel(
        name="athlon64",
        power=PolynomialPower(alpha),
        static_power=_PRESET_STATIC,
        sleep=_PRESET_SLEEP,
        levels=_PRESET_LEVELS,
        quantization="two-level",
    )


def _athlon64_nearest(alpha: float) -> MachineModel:
    return MachineModel(
        name="athlon64-nearest",
        power=PolynomialPower(alpha),
        static_power=_PRESET_STATIC,
        sleep=_PRESET_SLEEP,
        levels=_PRESET_LEVELS,
        quantization="nearest",
    )


_PRESETS: Mapping[str, Callable[[float], MachineModel]] = {
    "pure": _pure,
    "static-sleep": _static_sleep,
    "athlon64": _athlon64,
    "athlon64-nearest": _athlon64_nearest,
}

#: Preset machine-model names, in catalogue order.
MACHINE_MODEL_NAMES: tuple[str, ...] = tuple(_PRESETS)


def machine_model(name: str, alpha: float = 3.0) -> MachineModel:
    """A preset machine model by name (``power = speed ** alpha``)."""
    factory = _PRESETS.get(name)
    if factory is None:
        raise InvalidInstanceError(
            f"unknown machine model {name!r}; known: {', '.join(MACHINE_MODEL_NAMES)}"
        )
    return factory(float(alpha))

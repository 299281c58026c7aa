"""Control schedules: the per-time-bin program the loop synthesizer runs.

A schedule is an ordered list of bin settings (beam splitter transmissivity,
loop phase, homodyne basis, pulse source) plus a noise configuration.  The
on-disk format is a JSON document with exactly the fields below; unknown
keys are rejected with the offending location in the message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SOURCES = ("squeezer", "vacuum", "blocked")
NOISE_MODES = ("ideal", "realistic")

DEFAULT_TAU_NS = 66.0
DEFAULT_LOSS_PER_TRIP = 0.07
DEFAULT_JITTER_DEG_PER_TRIP = 7.0


class ScheduleFormatError(ValueError):
    """Malformed schedule document; message carries the offending location."""


@dataclass(frozen=True)
class BinSetting:
    """Settings for one time bin.

    phi_deg is the homodyne basis applied to the mode exiting at this bin.
    source selects the pulse arriving at the bin; "blocked" marks storage
    bins (only meaningful together with T = 0).
    """

    T: float
    theta_deg: float = 0.0
    phi_deg: float = 0.0
    source: str = "squeezer"

    def __post_init__(self):
        if not 0.0 <= self.T <= 1.0:
            raise ValueError(f"transmissivity {self.T} outside [0, 1]")
        for name in ("theta_deg", "phi_deg"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.source not in SOURCES:
            raise ValueError(
                f"source must be one of {SOURCES}, got {self.source!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Loop noise model.  Ideal mode forces loss 0, jitter 0, efficiency 1.

    The given values are range-checked in either mode, so an ideal config
    refuses an out-of-range value before it overwrites it.
    """

    loop_loss_per_trip: float = DEFAULT_LOSS_PER_TRIP
    phase_jitter_deg_per_trip: float = DEFAULT_JITTER_DEG_PER_TRIP
    detection_efficiency: float = 1.0
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(
                f"mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if not 0.0 <= self.loop_loss_per_trip <= 1.0:
            raise ValueError("loop loss per trip must be in [0, 1]")
        if not 0.0 <= self.phase_jitter_deg_per_trip < math.inf:
            raise ValueError("phase jitter must be finite and >= 0")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValueError("detection efficiency must be in (0, 1]")
        if self.mode == "ideal":
            object.__setattr__(self, "loop_loss_per_trip", 0.0)
            object.__setattr__(self, "phase_jitter_deg_per_trip", 0.0)
            object.__setattr__(self, "detection_efficiency", 1.0)


@dataclass(frozen=True)
class ControlSchedule:
    """tau-spaced bins plus noise settings; needs at least 2 bins."""

    bins: tuple[BinSetting, ...]
    tau_ns: float = DEFAULT_TAU_NS
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        object.__setattr__(self, "bins", tuple(self.bins))
        if len(self.bins) < 2:
            raise ValueError(
                f"bins must list at least 2 bins, got {len(self.bins)}")
        if not 0.0 < self.tau_ns < math.inf:
            raise ValueError(
                f"tau_ns must be finite and positive, got {self.tau_ns!r}")

    @property
    def num_outputs(self) -> int:
        """Output modes 1..n exit at bins 2..n+1; bin 1's exit is discarded."""
        return len(self.bins) - 1

    def transmissivities(self) -> tuple[float, ...]:
        return tuple(b.T for b in self.bins)

    def thetas(self) -> tuple[float, ...]:
        return tuple(b.theta_deg for b in self.bins)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_TOP_KEYS = ("tau_ns", "noise", "bins")
_NOISE_KEYS = ("loop_loss_per_trip", "phase_jitter_deg_per_trip",
               "detection_efficiency", "mode")
_BIN_KEYS = ("T", "theta_deg", "phi_deg", "source")
_TEXT_KEYS = ("source", "mode")  # every other field is a number
_KEYS = {ControlSchedule: _TOP_KEYS, NoiseConfig: _NOISE_KEYS,
         BinSetting: _BIN_KEYS}


def _require_number(value, where: str) -> float:
    # every JSON number arrives as a float (parse_int=float), so bools fail here
    if not isinstance(value, float):
        raise ScheduleFormatError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScheduleFormatError(
            f"{where}: expected a finite number, got {value!r}")
    return value


def _check_shape(obj, where: str, keys, required=()) -> None:
    if not isinstance(obj, dict):
        raise ScheduleFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in keys:
            raise ScheduleFormatError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ScheduleFormatError(f"{where}: missing required field {key!r}")


def _build(cls, obj, where: str, required=()):
    """cls(**obj) for one JSON object; every refusal starts with where.

    Only the object's shape and the finiteness of its numbers are checked
    here; the constructor checks the values.
    """
    _check_shape(obj, where, _KEYS[cls], required)
    kwargs = {}
    for key, value in obj.items():
        kwargs[key] = value if key in _TEXT_KEYS \
            else _require_number(value, f"{where}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScheduleFormatError(f"{where}: {exc}") from exc


def parse_schedule(text: str) -> ControlSchedule:
    """Parse a schedule document; errors carry the JSON path of the problem."""
    try:
        # integer literals parse as floats: huge ones become +-inf, which is
        # rejected with its path, instead of tripping the int digit limit
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ScheduleFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder recurses once per level
        raise ScheduleFormatError("top level: nested too deeply") from exc
    _check_shape(doc, "top level", _TOP_KEYS, required=("bins",))
    if not isinstance(doc["bins"], list):
        raise ScheduleFormatError("bins: expected an array")
    tau_ns = _require_number(doc.get("tau_ns", DEFAULT_TAU_NS), "tau_ns")
    noise = _build(NoiseConfig, doc.get("noise", {}), "noise")
    bins = [_build(BinSetting, entry, f"bins[{i}]", ("T",))
            for i, entry in enumerate(doc["bins"])]
    try:
        return ControlSchedule(bins=tuple(bins), tau_ns=tau_ns, noise=noise)
    except ValueError as exc:  # its refusals start with the field's name
        raise ScheduleFormatError(str(exc)) from exc


def _encode(part) -> dict:
    """One schedule part as its JSON object, keys in table order."""
    doc = {}
    for key in _KEYS[type(part)]:
        value = getattr(part, key)
        if type(value) in _KEYS:
            value = _encode(value)
        elif isinstance(value, tuple):
            value = [_encode(item) for item in value]
        doc[key] = value
    return doc


def serialize_schedule(schedule: ControlSchedule) -> str:
    """Render a schedule so that parse(serialize(s)) == s exactly."""
    return json.dumps(_encode(schedule), indent=2) + "\n"

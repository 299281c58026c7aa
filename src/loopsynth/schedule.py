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
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """Loop noise model.  Ideal mode forces loss 0, jitter 0, efficiency 1."""

    loop_loss_per_trip: float = DEFAULT_LOSS_PER_TRIP
    phase_jitter_deg_per_trip: float = DEFAULT_JITTER_DEG_PER_TRIP
    detection_efficiency: float = 1.0
    mode: str = "ideal"

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "ideal":
            object.__setattr__(self, "loop_loss_per_trip", 0.0)
            object.__setattr__(self, "phase_jitter_deg_per_trip", 0.0)
            object.__setattr__(self, "detection_efficiency", 1.0)
        if not 0.0 <= self.loop_loss_per_trip <= 1.0:
            raise ValueError("loop loss per trip must be in [0, 1]")
        if self.phase_jitter_deg_per_trip < 0:
            raise ValueError("phase jitter must be >= 0")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValueError("detection efficiency must be in (0, 1]")


@dataclass(frozen=True)
class ControlSchedule:
    """tau-spaced bins plus noise settings; needs at least 2 bins."""

    bins: tuple[BinSetting, ...]
    tau_ns: float = DEFAULT_TAU_NS
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        object.__setattr__(self, "bins", tuple(self.bins))
        if len(self.bins) < 2:
            raise ValueError("schedule needs at least 2 bins")
        if self.tau_ns <= 0:
            raise ValueError("tau_ns must be positive")

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

_NOISE_KEYS = ("loop_loss_per_trip", "phase_jitter_deg_per_trip",
               "detection_efficiency", "mode")
_BIN_KEYS = ("T", "theta_deg", "phi_deg", "source")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScheduleFormatError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ScheduleFormatError(
            f"{where}: expected a finite number, got {number!r}")
    return number


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScheduleFormatError(f"{where}: unknown field {key!r}")


def parse_schedule(text: str) -> ControlSchedule:
    """Parse a schedule document; errors carry the JSON path of the problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScheduleFormatError("top level: expected an object")
    _reject_unknown(doc, ("tau_ns", "noise", "bins"), "top level")
    if "bins" not in doc:
        raise ScheduleFormatError("top level: missing required field 'bins'")
    if not isinstance(doc["bins"], list):
        raise ScheduleFormatError("bins: expected an array")

    tau_ns = _require_number(doc.get("tau_ns", DEFAULT_TAU_NS), "tau_ns")

    noise_doc = doc.get("noise", {})
    if not isinstance(noise_doc, dict):
        raise ScheduleFormatError("noise: expected an object")
    _reject_unknown(noise_doc, _NOISE_KEYS, "noise")
    noise_kwargs = {}
    for key in _NOISE_KEYS[:3]:
        if key in noise_doc:
            noise_kwargs[key] = _require_number(noise_doc[key], f"noise.{key}")
    if "mode" in noise_doc:
        if noise_doc["mode"] not in NOISE_MODES:
            raise ScheduleFormatError(
                f"noise.mode: expected one of {NOISE_MODES}, got {noise_doc['mode']!r}")
        noise_kwargs["mode"] = noise_doc["mode"]
    try:
        noise = NoiseConfig(**noise_kwargs)
    except ValueError as exc:
        raise ScheduleFormatError(f"noise: {exc}") from exc

    bins = []
    for i, entry in enumerate(doc["bins"]):
        where = f"bins[{i}]"
        if not isinstance(entry, dict):
            raise ScheduleFormatError(f"{where}: expected an object")
        _reject_unknown(entry, _BIN_KEYS, where)
        if "T" not in entry:
            raise ScheduleFormatError(f"{where}: missing required field 'T'")
        kwargs = {"T": _require_number(entry["T"], f"{where}.T")}
        for key in ("theta_deg", "phi_deg"):
            if key in entry:
                kwargs[key] = _require_number(entry[key], f"{where}.{key}")
        if "source" in entry:
            if entry["source"] not in SOURCES:
                raise ScheduleFormatError(
                    f"{where}.source: expected one of {SOURCES}, got {entry['source']!r}")
            kwargs["source"] = entry["source"]
        try:
            bins.append(BinSetting(**kwargs))
        except ValueError as exc:
            raise ScheduleFormatError(f"{where}: {exc}") from exc

    try:
        return ControlSchedule(bins=tuple(bins), tau_ns=tau_ns, noise=noise)
    except ValueError as exc:
        raise ScheduleFormatError(str(exc)) from exc


def serialize_schedule(schedule: ControlSchedule) -> str:
    """Render a schedule so that parse(serialize(s)) == s exactly."""
    doc = {
        "tau_ns": schedule.tau_ns,
        "noise": {
            "loop_loss_per_trip": schedule.noise.loop_loss_per_trip,
            "phase_jitter_deg_per_trip": schedule.noise.phase_jitter_deg_per_trip,
            "detection_efficiency": schedule.noise.detection_efficiency,
            "mode": schedule.noise.mode,
        },
        "bins": [
            {"T": b.T, "theta_deg": b.theta_deg, "phi_deg": b.phi_deg,
             "source": b.source}
            for b in schedule.bins
        ],
    }
    return json.dumps(doc, indent=2) + "\n"

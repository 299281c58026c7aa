"""Compile target entangled states into loop control schedules.

The compiled (T, theta) sequences follow the chain recipes for each target
family, with the sign-flip bookkeeping of the variable beam splitter folded
in: whenever a bin needs T < 1/2 the realizable coupling flips the sign of
its off-diagonal terms, which is equivalent to 180-degree rotations before
and after the splitter.  The pre-rotation is absorbed by the squeezed
vacuum's 180-degree symmetry; the post-rotation is cancelled by adding 180
degrees to that bin's loop phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schedule import BinSetting, ControlSchedule, NoiseConfig

GOLDEN_RATIO_T = (math.sqrt(5.0) - 1.0) / 2.0
# The last m whose F(m)/F(m+1), correctly rounded, is not GOLDEN_RATIO_T.
# The ratios are the continued-fraction convergents of 1/phi, so every later
# one lies between those of m = 43 and m = 44, and both of these round to it.
LAST_DISTINCT_FIBONACCI_RATIO = 42

TARGET_KINDS = ("epr", "ghz", "linear", "star", "infinite")


@dataclass(frozen=True)
class TargetState:
    """A requested entangled state: kind plus mode count."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if not hasattr(self.n, "__index__"):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.kind == "epr" and self.n != 2:
            raise ValueError("an EPR target has exactly 2 modes")
        if self.n < 2:
            raise ValueError("targets need n >= 2")

    @classmethod
    def epr(cls) -> "TargetState":
        return cls("epr", 2)

    @classmethod
    def ghz(cls, n: int) -> "TargetState":
        return cls("ghz", n)

    @classmethod
    def linear_cluster(cls, n: int) -> "TargetState":
        return cls("linear", n)

    @classmethod
    def star_cluster(cls, n: int) -> "TargetState":
        return cls("star", n)

    @classmethod
    def infinite_cluster(cls, length: int) -> "TargetState":
        """Endless linear cluster truncated at `length` output modes."""
        return cls("infinite", length)


def fibonacci_numbers(count: int) -> list[int]:
    """[F(0), ..., F(count - 1)] as exact ints, built in one O(count) pass."""
    fib = [0, 1][:count]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib


def fibonacci(k: int) -> int:
    """F(0) = 0, F(1) = 1, F(k) = F(k-1) + F(k-2)."""
    if k < 0:
        raise ValueError("negative index")
    return fibonacci_numbers(k + 1)[k]


def _flip_corrected(thetas, ts) -> list[float]:
    # A bin with T < 1/2, where bin_coupling takes the flipped branch: fold
    # the post-splitter 180 into its theta.
    return [(th + 180.0) % 360.0 if t < 0.5 else th
            for th, t in zip(thetas, ts)]


def _cluster_phi(num_outputs: int) -> list[float]:
    # Default basis pattern for cluster runs: x on odd modes, p on even.
    # Bin k+1 carries output mode k's basis; bin 1's exit is discarded.
    phis = [0.0]
    for mode in range(1, num_outputs + 1):
        phis.append(0.0 if mode % 2 == 1 else 90.0)
    return phis


def compile_target(target: TargetState,
                   noise: NoiseConfig | None = None) -> ControlSchedule:
    """Build the control schedule generating the target state.

    Transmissivities use the framing T_1 = T_{n+1} = 1 (load and release).
    """
    n = target.n
    noise = noise if noise is not None else NoiseConfig()

    if target.kind in ("epr", "ghz", "star"):
        ts = [1.0] + [1.0 / (n - k + 2) for k in range(2, n + 1)] + [1.0]
        thetas = [90.0] + [0.0] * n  # the final bin only releases
        if target.kind == "star":
            thetas[n - 1] = 90.0
        phis = [0.0] * (n + 1)
    elif target.kind == "linear":
        # bin k needs F(m)/F(m+1) at m = n - k + 2; exact ints only up to
        # the last ratio that differs, so the compile is linear in n
        fib = fibonacci_numbers(min(n, LAST_DISTINCT_FIBONACCI_RATIO) + 2)
        ts = [1.0] + [fib[m] / fib[m + 1]
                      if m <= LAST_DISTINCT_FIBONACCI_RATIO else GOLDEN_RATIO_T
                      for m in range(n, 1, -1)] + [1.0]
        thetas = [90.0] * n + [0.0]  # the final bin only releases
        phis = _cluster_phi(n)
    elif target.kind == "infinite":
        ts = [1.0] + [GOLDEN_RATIO_T] * n
        thetas = [90.0] * (n + 1)
        phis = _cluster_phi(n)
    else:  # pragma: no cover
        raise ValueError(target.kind)
    bins = tuple(BinSetting(T=t, theta_deg=th, phi_deg=ph, source="squeezer")
                 for t, th, ph in zip(ts, _flip_corrected(thetas, ts), phis))
    return ControlSchedule(bins=bins, noise=noise)


def compile_storage(delays, noise: NoiseConfig | None = None) -> ControlSchedule:
    """The EPR storage program once per delay n, back to back.

    Each program loads pulse 1 at 90 degrees (T = 1), mixes it 50/50 with
    pulse 2, holds arm 2 for n blocked T = 0 bins and releases it (T = 1,
    blocked); from its bin s, arm 1 is output s and arm 2 output s + n + 1.
    Empty, negative or non-integer delays raise ValueError.
    """
    delays = list(delays)
    for n in delays:
        if not hasattr(n, "__index__"):
            raise ValueError(f"storage delay {n!r} is not an integer")
    if not delays or min(delays) < 0:
        raise ValueError("storage needs one or more delays, none negative")
    program = []
    for n in delays:
        program += [(1.0, 90.0, "squeezer"), (0.5, 0.0, "squeezer")] \
            + [(0.0, 0.0, "blocked")] * n + [(1.0, 0.0, "blocked")]
    ts, thetas, sources = zip(*program)
    bins = tuple(BinSetting(T=t, theta_deg=th, source=src)
                 for t, th, src in zip(ts, _flip_corrected(thetas, ts), sources))
    return ControlSchedule(bins=bins, noise=noise if noise is not None
                           else NoiseConfig())


# ---------------------------------------------------------------------------
# hardware feasibility
# ---------------------------------------------------------------------------


LEVEL_TOLERANCE = 1e-9  # degrees; closer drive levels count as one


@dataclass(frozen=True)
class AxisReport:
    """Feasibility of one modulator axis (delta levels or theta levels)."""

    name: str
    required: tuple[float, ...]  # distinct nonzero levels, ascending

    @property
    def witness(self) -> tuple[float, float] | None:
        """Drive levels (v1, v2) that cover ``required``, or None."""
        req = self.required
        if len(req) == 1:
            return (req[0], req[0])
        if len(req) == 2 or (len(req) == 3
                             and abs(req[0] + req[1] - req[2]) <= LEVEL_TOLERANCE):
            return (req[0], req[1])
        return None

    @property
    def feasible(self) -> bool:
        return not self.required or self.witness is not None

    def realizable_levels(self) -> tuple[float, ...]:
        if self.witness is None:
            return (0.0,)
        v1, v2 = self.witness
        return (0.0, v1, v2, v1 + v2)


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility of both modulator axes; feasible when both are."""

    delta: AxisReport
    theta: AxisReport

    @property
    def feasible(self) -> bool:
        return self.delta.feasible and self.theta.feasible


def delta_for_transmissivity(t: float) -> float:
    """Modulator angle (degrees) realizing transmissivity t.

    The default (zero drive) sits at T = 1/2; T in [1/2, 1] uses
    delta in [0, 45] and T in [0, 1/2) the flipped branch delta in (90, 135].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity {t} outside [0, 1]")
    halfangle = math.degrees(math.asin(math.sqrt(t)))
    if t >= 0.5:
        return halfangle - 45.0
    return 135.0 - halfangle


def _distinct_nonzero(values, tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if abs(v) <= tol:
            continue
        if not out or abs(v - out[-1]) > tol:
            out.append(v)
    return out


def hardware_check(schedule: ControlSchedule) -> FeasibilityReport:
    """Check whether one pair of free drive levels per axis covers the schedule.

    Each modulator's drive can take the net values {0, v1, v2, v1+v2} with
    v1, v2 > 0 chosen freely in advance, so besides the default level at
    most three distinct nonzero values are realizable, and three only when
    the largest equals the sum of the other two.  The beam splitter angle
    delta maps to transmissivity via T = sin^2(delta + 45 deg), with
    delta in [90, 135] deg (and a sign flip) for T < 1/2.  Infeasibility
    is reported, not raised.
    """
    deltas = [delta_for_transmissivity(b.T) for b in schedule.bins]
    thetas = [b.theta_deg % 360.0 for b in schedule.bins]
    return FeasibilityReport(
        AxisReport("delta", tuple(_distinct_nonzero(deltas, LEVEL_TOLERANCE))),
        AxisReport("theta", tuple(_distinct_nonzero(thetas, LEVEL_TOLERANCE))))

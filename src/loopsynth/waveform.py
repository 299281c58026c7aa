"""Continuous-time layer: temporal mode functions and trace frames.

A pulse mode's quadrature lives in a homodyne trace as the coefficient of a
normalized temporal mode function f_k(t): a Gaussian-windowed odd lobe
centered on the pulse slot, truncated to the processing window and zero
outside it.  Frames are synthesized as the sum of quadrature-weighted mode
functions plus a white shot-noise floor confined to the orthogonal
complement, and quadratures are recovered by the discrete projection
q_k = sum_i f_k(t_i) s(t_i) dt.

The mode functions are sampled on the acquisition grid and renormalized so
that the discrete norm is exactly 1, making the synthesize/extract round
trip exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import VACUUM_VARIANCE, MeasurementPlan, SampleSet


@dataclass(frozen=True)
class WaveformConfig:
    """Timing of the acquisition: all times in ns, rates in Hz or 1/s."""

    sample_rate_hz: float = 1.25e9
    frame_t_ns: float = 46.0
    gamma_per_s: float = 6e7
    tau_ns: float = 66.0
    t0_ns: float | None = None  # first-mode center; default frame_t/2

    def __post_init__(self):
        for name in ("sample_rate_hz", "frame_t_ns", "gamma_per_s", "tau_ns"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.sample_rate_hz * self.frame_t_ns * 1e-9 < 8:
            raise ValueError("fewer than 8 samples per processing window")
        if self.t0_ns is None:
            object.__setattr__(self, "t0_ns", self.frame_t_ns / 2.0)
        if not math.isfinite(self.t0_ns):
            raise ValueError(f"t0_ns must be finite, got {self.t0_ns!r}")

    @property
    def dt_ns(self) -> float:
        return 1e9 / self.sample_rate_hz

    def mode_center_ns(self, k: int) -> float:
        return self.t0_ns + (k - 1) * self.tau_ns

    def frame_length(self, num_modes: int) -> int:
        end = self.mode_center_ns(num_modes) + self.frame_t_ns / 2.0
        return int(np.ceil(end / self.dt_ns)) + 1

    def times_ns(self, num_samples: int) -> np.ndarray:
        return np.arange(num_samples) * self.dt_ns


@dataclass(frozen=True, eq=False)
class TraceFrame:
    """One acquired (or synthesized) homodyne trace."""

    samples: np.ndarray
    start_ns: float
    dt_ns: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or not np.all(np.isfinite(samples)):
            raise ValueError("samples must be a finite 1-D array")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def mode_function(config: WaveformConfig, k: int,
                  num_samples: int | None = None) -> np.ndarray:
    """Discretized temporal mode function of pulse k on the frame grid.

    Shape exp(-gamma^2 (t - t_k)^2) * (t - t_k) inside |t - t_k| <= T/2,
    zero outside, renormalized so that sum(f^2) * dt = 1.
    """
    if k < 1:
        raise ValueError("mode index starts at 1")
    if num_samples is None:
        num_samples = config.frame_length(k)
    t = config.times_ns(num_samples)
    dt_s = config.dt_ns * 1e-9
    rel_s = (t - config.mode_center_ns(k)) * 1e-9
    window = np.abs(rel_s) <= (config.frame_t_ns / 2.0) * 1e-9
    if int(np.count_nonzero(window)) < 8:
        raise ValueError("degenerate grid: fewer than 8 in-window samples")
    f = np.where(window, np.exp(-(config.gamma_per_s * rel_s) ** 2) * rel_s, 0.0)
    norm = np.sqrt(np.sum(f * f) * dt_s)
    return f / norm


def orthogonality_matrix(config: WaveformConfig, k_max: int) -> np.ndarray:
    """Gram matrix of the discretized mode functions for modes 1..k_max."""
    if k_max < 2:
        raise ValueError("need k_max >= 2")
    n = config.frame_length(k_max)
    dt_s = config.dt_ns * 1e-9
    funcs = np.stack([mode_function(config, k, n) for k in range(1, k_max + 1)])
    return funcs @ funcs.T * dt_s


def shot_noise_frames(config: WaveformConfig, num_modes: int, num_frames: int,
                      seed=None) -> list[TraceFrame]:
    """Raw white-noise frames with per-sample variance 1/(4 dt).

    That normalization makes the projection onto any normalized mode
    function carry the vacuum variance 1/4, so these frames serve as the
    shot-noise reference for the extraction pipeline.
    """
    n = config.frame_length(num_modes)
    dt_s = config.dt_ns * 1e-9
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(VACUUM_VARIANCE / dt_s)
    return [TraceFrame(sigma * rng.standard_normal(n), 0.0, config.dt_ns)
            for _ in range(num_frames)]


def synthesize_frames(quadratures: SampleSet, config: WaveformConfig,
                      seed=None, noise: bool = True) -> list[TraceFrame]:
    """Build one trace frame per shot carrying the given quadratures.

    frame = sum_k q_k f_k + noise floor, where the floor is white noise of
    per-sample variance 1/(4 dt) projected onto the orthogonal complement
    of the mode functions.  The quadrature samples already carry their own
    quantum noise, so extraction recovers them exactly; the floor only
    fills the rest of the band.
    """
    shots, num_modes = quadratures.values.shape
    n = config.frame_length(num_modes)
    dt_s = config.dt_ns * 1e-9
    funcs = np.stack([mode_function(config, k, n) for k in range(1, num_modes + 1)])
    frames = []
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(VACUUM_VARIANCE / dt_s)
    for shot in range(shots):
        trace = quadratures.values[shot] @ funcs
        if noise:
            floor = sigma * rng.standard_normal(n)
            floor -= (funcs @ floor * dt_s) @ funcs
            trace = trace + floor
        frames.append(TraceFrame(trace, 0.0, config.dt_ns))
    return frames


def extract_quadratures(frames: list[TraceFrame], config: WaveformConfig,
                        num_modes: int | None = None,
                        plan: MeasurementPlan | None = None) -> SampleSet:
    """Project each frame onto the mode functions: q_k = sum f_k s dt.

    num_modes defaults to every mode whose window fits inside the frames;
    the optional plan labels the returned samples with their bases.
    """
    if not frames:
        raise ValueError("no frames")
    n = min(frame.samples.size for frame in frames)
    dt_s = config.dt_ns * 1e-9
    if num_modes is None:
        num_modes = 0
        while config.frame_length(num_modes + 1) <= n:
            num_modes += 1
        if num_modes < 1:
            raise ValueError("frames too short for even one mode window")
    elif config.frame_length(num_modes) > n:
        raise ValueError(
            f"frames too short for mode {num_modes}: need "
            f"{config.frame_length(num_modes)} samples, got {n}")
    funcs = np.stack([mode_function(config, k, n) for k in range(1, num_modes + 1)])
    values = np.stack([funcs @ frame.samples[:n] * dt_s for frame in frames])
    if plan is None:
        plan = MeasurementPlan((0.0,) * num_modes, shots=len(frames))
    elif len(plan.angles_deg) != num_modes or plan.shots != len(frames):
        raise ValueError("plan does not match frames/modes")
    return SampleSet(plan, values)


def frame_to_text(frame: TraceFrame) -> str:
    """Columnar text export: time_ns value, one sample per line."""
    lines = [f"{float(frame.start_ns + i * frame.dt_ns)!r} {float(v)!r}"
             for i, v in enumerate(frame.samples)]
    return "\n".join(lines) + "\n"


def frame_from_text(text: str) -> TraceFrame:
    times, values = [], []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'time_ns value'")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from exc
    if len(times) < 2:
        raise ValueError("need at least two samples")
    return TraceFrame(np.array(values), times[0], times[1] - times[0])

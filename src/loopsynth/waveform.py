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

Frames are synthesized and extracted in row blocks of up to _CHUNK shots:
one normal draw and one projection per block, not per shot.  Each
synthesized frame is a read-only row view of its block, and a (rows, n)
draw takes the same values from the generator as rows consecutive n-sample
draws, so the frames are those of a per-shot loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import VACUUM_VARIANCE, MeasurementPlan, SampleSet, _adopted

# Shots per row block.  A block needs one (rows, n) temporary beside the
# frames it becomes, so this bounds the memory above the frames themselves.
# Of 16 to 512 rows, 64 was fastest on 8-mode frames (n = 636, 325 kB a
# block); 512 rows added 7 % of the frames' bytes to the traced peak.
_CHUNK = 64


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
    """One acquired (or synthesized) homodyne trace, held by ``_adopted``."""

    samples: np.ndarray
    start_ns: float
    dt_ns: float

    def __post_init__(self):
        samples = _adopted(self.samples)
        if samples.ndim != 1 or not np.isfinite(samples).all():
            raise ValueError("samples must be a finite 1-D array")
        object.__setattr__(self, "samples", samples)
        if not math.isfinite(self.start_ns):
            raise ValueError(f"start_ns must be finite, got {self.start_ns!r}")
        if not 0.0 < self.dt_ns < math.inf:
            raise ValueError(
                f"dt_ns must be finite and positive, got {self.dt_ns!r}")


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


def _mode_functions(config: WaveformConfig, num_modes: int,
                    num_samples: int) -> np.ndarray:
    """Mode functions 1..num_modes on a num_samples grid, one per row."""
    return np.stack([mode_function(config, k, num_samples)
                     for k in range(1, num_modes + 1)])


def orthogonality_matrix(config: WaveformConfig, k_max: int) -> np.ndarray:
    """Gram matrix of the discretized mode functions for modes 1..k_max."""
    if k_max < 2:
        raise ValueError("need k_max >= 2")
    n = config.frame_length(k_max)
    dt_s = config.dt_ns * 1e-9
    funcs = _mode_functions(config, k_max, n)
    return funcs @ funcs.T * dt_s


def _row_blocks(rows: int):
    """Slices of up to _CHUNK consecutive rows covering range(rows)."""
    for start in range(0, rows, _CHUNK):
        yield slice(start, min(start + _CHUNK, rows))


def _noise_block(rng: np.random.Generator, rows: slice, n: int,
                 sigma: float) -> np.ndarray:
    """White noise of standard deviation sigma, one n-sample row per shot."""
    block = rng.standard_normal((rows.stop - rows.start, n))
    block *= sigma
    return block


def _frames_of(block: np.ndarray, dt_ns: float) -> list[TraceFrame]:
    """Freeze a (rows, n) block and make each row a frame viewing it."""
    block.setflags(write=False)
    return [TraceFrame(row, 0.0, dt_ns) for row in block]


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer of at least ``least``, by name."""
    if not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def shot_noise_frames(config: WaveformConfig, num_modes: int, num_frames: int,
                      seed=None) -> list[TraceFrame]:
    """Raw white-noise frames with per-sample variance 1/(4 dt).

    That normalization makes the projection onto any normalized mode
    function carry the vacuum variance 1/4, so these frames serve as the
    shot-noise reference for the extraction pipeline.  The frames are drawn
    in row blocks, each frame a read-only view of its block; the draws are
    those of one n-sample draw per frame in turn.
    """
    _check_count("num_modes", num_modes, 1)
    _check_count("num_frames", num_frames, 0)
    n = config.frame_length(num_modes)
    dt_s = config.dt_ns * 1e-9
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(VACUUM_VARIANCE / dt_s)
    frames = []
    for rows in _row_blocks(num_frames):
        frames += _frames_of(_noise_block(rng, rows, n, sigma), config.dt_ns)
    return frames


def synthesize_frames(quadratures: SampleSet, config: WaveformConfig,
                      seed=None, noise: bool = True) -> list[TraceFrame]:
    """Build one trace frame per shot carrying the given quadratures.

    frame = sum_k q_k f_k + noise floor, where the floor is white noise of
    per-sample variance 1/(4 dt) projected onto the orthogonal complement
    of the mode functions.  The quadrature samples already carry their own
    quantum noise, so extraction recovers them exactly; the floor only
    fills the rest of the band.

    Shots are built in row blocks, one draw and one projection per block,
    and each frame is a read-only view of its block.  The draws are those
    of one n-sample draw per shot in turn, so a seed gives the frames of a
    per-shot loop to round-off (noise-free frames exactly when no two mode
    windows overlap, as at the default timing) and leaves a passed
    Generator in the same state.
    """
    shots, num_modes = quadratures.values.shape
    n = config.frame_length(num_modes)
    dt_s = config.dt_ns * 1e-9
    funcs = _mode_functions(config, num_modes, n)
    frames = []
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(VACUUM_VARIANCE / dt_s)
    for rows in _row_blocks(shots):
        if noise:
            # the floor becomes the block, so one (rows, n) temporary at a time
            traces = _noise_block(rng, rows, n, sigma)
            traces -= (traces @ funcs.T * dt_s) @ funcs
            traces += quadratures.values[rows] @ funcs
        else:
            traces = quadratures.values[rows] @ funcs
        frames += _frames_of(traces, config.dt_ns)
    return frames


def extract_quadratures(frames: list[TraceFrame], config: WaveformConfig,
                        num_modes: int | None = None,
                        plan: MeasurementPlan | None = None) -> SampleSet:
    """Project each frame onto the mode functions: q_k = sum f_k s dt.

    Every frame must be sampled at the config's spacing; its first sample
    is the grid's origin.  num_modes defaults to every mode whose window
    fits inside the frames; the optional plan labels the returned samples
    with their bases.  Frames are projected in row blocks, one matmul each.
    """
    if not frames:
        raise ValueError("no frames")
    if num_modes is not None:
        _check_count("num_modes", num_modes, 1)
    dt_ns = config.dt_ns
    n = math.inf
    for i, frame in enumerate(frames):
        if abs(frame.dt_ns - dt_ns) > 1e-9 * dt_ns:
            raise ValueError(
                f"frame {i}: sample spacing {frame.dt_ns!r} ns is not the "
                f"config's {dt_ns!r} ns")
        n = min(n, frame.samples.size)
    dt_s = dt_ns * 1e-9
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
    funcs = _mode_functions(config, num_modes, n)
    values = np.empty((len(frames), num_modes))
    for rows in _row_blocks(len(frames)):
        block = np.stack([frame.samples[:n] for frame in frames[rows]])
        values[rows] = block @ funcs.T * dt_s
    values.setflags(write=False)
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
    """Parse frame_to_text's columns; times must be finite and evenly spaced."""
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
        if not math.isfinite(times[-1]):
            raise ValueError(f"line {i}: time must be finite, got {times[-1]!r}")
        if len(times) > 2:
            dt, step = times[1] - times[0], times[-1] - times[-2]
            if abs(step - dt) > 1e-6 * abs(dt):
                raise ValueError(f"line {i}: time step {step!r} ns differs "
                                 f"from the first step {dt!r} ns")
    if len(times) < 2:
        raise ValueError("need at least two samples")
    return TraceFrame(np.array(values), times[0], times[1] - times[0])

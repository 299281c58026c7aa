"""Time-binned simulation of the loop circuit.

Every simulation path runs the same per-bin operation, ``_bin_step``: the
variable beam splitter couples (loop mode, incoming pulse) into (exiting
mode, new loop mode), the bin's phase rotates the loop mode, and in
realistic mode the exiting mode suffers detection loss while the loop mode
suffers loss and averaged phase-jitter dephasing once per round trip.  The
mode exiting bin 1 is the pre-existing loop content and is always discarded.
The channel arithmetic itself lives in ``gaussian``.

The drivers differ only in which modes they keep:

* ``run_unrolled`` steps the dense equivalent chain (one mode per pulse) and
  is the readable reference for small schedules.
* ``run_loop`` streams bin by bin over a preallocated buffer, so memory is
  independent of the schedule length.  Without a measurement plan it keeps
  a sliding window of recently exited modes plus the loop mode; with one it
  keeps only the (exiting, loop) pair and produces exact joint homodyne
  samples by sequential conditioning.
* ``run_loop_per_shot_jitter`` runs the sampler once per shot with explicit
  random phases in place of the averaged jitter channel.

Transmissivities below 1/2 are realized on the flipped-sign branch of the
variable splitter, which the compiler compensates via 180-degree phase
entries; this engine therefore applies the branch-dependent coupling.  A
bin with T = 0 is a storage bin: the incoming pulse reflects and the loop
mode circulates unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gaussian as g
from .gaussian import GaussianState, MeasurementPlan, SampleSet, SqueezerSpec
from .schedule import BinSetting, ControlSchedule, NoiseConfig

MAX_UNROLLED_BINS = 24

_ACTIVE_FAULTS: set[str] = set()


@contextmanager
def inject_fault(name: str):
    """Deliberately corrupt an engine convention (self-test hook)."""
    _ACTIVE_FAULTS.add(name)
    try:
        yield
    finally:
        _ACTIVE_FAULTS.discard(name)


def bin_coupling(transmissivity: float, faulty: bool = False) -> np.ndarray:
    """2x2 coupling (rows: exiting mode, loop mode) for one bin.

    T >= 1/2 sits on the default branch of the variable splitter; T < 1/2 is
    only reachable on the branch whose off-diagonal signs flip.  T = 0 acts
    as storage: pulse reflects out, loop mode unchanged.
    """
    t = float(transmissivity)
    if faulty:
        return g.beamsplitter_matrix(t)
    if t == 0.0:
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if t >= 0.5:
        return g.beamsplitter_matrix(t)
    root_t = np.sqrt(t)
    root_r = np.sqrt(1.0 - t)
    return np.array([[root_t, root_r], [-root_r, root_t]])


def _pulse_variances(setting: BinSetting, source: SqueezerSpec) -> tuple[float, float]:
    if setting.source == "squeezer":
        return source.variances()
    return g.VACUUM_VARIANCE, g.VACUUM_VARIANCE


def _channels(noise: NoiseConfig) -> tuple[float, float, float]:
    """(detection efficiency, loop transmittance, jitter std) per bin.

    NoiseConfig forces ideal mode to (1, 1, 0), which turns every channel off.
    """
    return (noise.detection_efficiency, 1.0 - noise.loop_loss_per_trip,
            noise.phase_jitter_deg_per_trip)


def _bin_step(cov: np.ndarray, mean: np.ndarray, exit_slot: int, loop_slot: int,
              coupling: np.ndarray, theta_deg: float,
              channels: tuple[float, float, float],
              moments: np.ndarray | None = None) -> np.ndarray | None:
    """One time bin on raw arrays; the pulse already sits in ``loop_slot``.

    ``exit_slot`` holds the loop content on entry and the exiting mode on
    return.  ``moments`` is passed through to the dephasing channel; the
    loop mode's second moment used there is returned (None without jitter).
    """
    det_eta, loop_eta, sigma = channels
    g._apply_pair_inplace(cov, mean, exit_slot, loop_slot, coupling)
    g._apply_rotation_inplace(cov, mean, loop_slot, theta_deg)
    if det_eta < 1.0:
        g._apply_loss_inplace(cov, mean, exit_slot, det_eta)
    if loop_eta < 1.0:
        g._apply_loss_inplace(cov, mean, loop_slot, loop_eta)
    if sigma > 0.0:
        return g._apply_dephasing_inplace(cov, mean, loop_slot, sigma, moments)
    return None


def _load_pulse(cov: np.ndarray, mean: np.ndarray, slot: int,
                variances: tuple[float, float]) -> None:
    """Overwrite ``slot`` with a fresh uncorrelated zero-mean pulse."""
    q = g._quads(slot)
    cov[q, :] = 0.0
    cov[:, q] = 0.0
    cov[q, q] = np.diag(variances)
    mean[..., q] = 0.0


def _drop_leading_mode(cov: np.ndarray, mean: np.ndarray, dim: int) -> None:
    """Marginalize slot 0 out of the leading ``dim`` quadratures."""
    cov[:dim - 2, :dim - 2] = cov[2:dim, 2:dim]
    mean[:dim - 2] = mean[2:dim]


@dataclass(frozen=True)
class RunRecord:
    """One exited mode: either a windowed analytic state or sampled values.

    ``window_modes`` lists the 1-based output indices covered by ``state``
    (the newest is ``index`` itself).  In sampling runs ``values`` holds one
    measured quadrature per shot and ``state`` is None.
    """

    index: int
    exit_bin: int
    phi_deg: float
    window_modes: tuple[int, ...] | None = None
    state: GaussianState | None = None
    values: np.ndarray | None = None


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def run_unrolled(schedule: ControlSchedule, source: SqueezerSpec) -> GaussianState:
    """Dense equivalent-chain simulation; returns output modes 1..n jointly.

    Realistic noise (round-trip loss/jitter on the loop mode, detection
    efficiency on each exiting mode) is included when the schedule asks for
    it, so the result is detector-referred.
    """
    num_bins = len(schedule.bins)
    if num_bins > MAX_UNROLLED_BINS:
        raise ValueError(
            f"{num_bins} bins exceeds the dense reference limit of "
            f"{MAX_UNROLLED_BINS}; use run_loop")
    channels = _channels(schedule.noise)

    # slot 0: initial loop content (vacuum); slot k: pulse arriving at bin k,
    # which exits the previous loop content, slot k - 1
    dim = 2 * (num_bins + 1)
    cov = g.VACUUM_VARIANCE * np.eye(dim)
    mean = np.zeros(dim)
    for k, setting in enumerate(schedule.bins, start=1):
        _load_pulse(cov, mean, k, _pulse_variances(setting, source))
        _bin_step(cov, mean, k - 1, k, bin_coupling(setting.T),
                  setting.theta_deg, channels)
    return GaussianState(mean[2:-2], cov[2:-2, 2:-2])


# ---------------------------------------------------------------------------
# streaming loop
# ---------------------------------------------------------------------------


def _window_stream(schedule: ControlSchedule, source: SqueezerSpec,
                   window: int, channels, faulty: bool) -> Iterator[RunRecord]:
    """Analytic stream over a (window + 1)-mode buffer."""
    size = 2 * (window + 1)
    cov = np.zeros((size, size))
    mean = np.zeros(size)
    cov[:2, :2] = g.VACUUM_VARIANCE * np.eye(2)  # the initial loop content
    held = 0  # exited modes in slots 0..held-1; the loop mode sits in slot held
    for k, setting in enumerate(schedule.bins, start=1):
        if held == window:
            _drop_leading_mode(cov, mean, 2 * (held + 1))
            held -= 1
        dim = 2 * (held + 2)
        active, active_mean = cov[:dim, :dim], mean[:dim]
        _load_pulse(active, active_mean, held + 1, _pulse_variances(setting, source))
        _bin_step(active, active_mean, held, held + 1,
                  bin_coupling(setting.T, faulty), setting.theta_deg, channels)
        if k == 1:
            _drop_leading_mode(cov, mean, dim)  # pre-existing loop content
            continue
        held += 1
        yield RunRecord(index=k - 1, exit_bin=k, phi_deg=setting.phi_deg,
                        window_modes=tuple(range(k - held, k)),
                        state=GaussianState(mean[:2 * held],
                                            cov[:2 * held, :2 * held]))


def _sample_stream(schedule: ControlSchedule, source: SqueezerSpec,
                   angles_deg, shots: int, thetas_deg, channels,
                   rng: np.random.Generator,
                   faulty: bool = False) -> Iterator[np.ndarray]:
    """Yield each output mode's homodyne draws, one per shot.

    The (exiting, loop) pair lives in two slots whose roles swap every bin;
    per-shot conditional means share one covariance.  With jitter, an
    unconditioned twin covariance is stepped first and supplies the
    dephasing channel's second moments, which the conditioned means could
    only estimate.
    """
    cov = g.VACUUM_VARIANCE * np.eye(4)  # slot 0: the initial loop content
    means = np.zeros((shots, 4))
    twin = g.VACUUM_VARIANCE * np.eye(4) if channels[2] > 0.0 else None
    twin_mean = np.zeros(4)
    loop_slot = 0
    for k, (setting, theta) in enumerate(zip(schedule.bins, thetas_deg), start=1):
        exit_slot, loop_slot = loop_slot, 1 - loop_slot
        variances = _pulse_variances(setting, source)
        coupling = bin_coupling(setting.T, faulty)
        moments = None
        if twin is not None:
            _load_pulse(twin, twin_mean, loop_slot, variances)
            moments = _bin_step(twin, twin_mean, exit_slot, loop_slot,
                                coupling, theta, channels)
        _load_pulse(cov, means, loop_slot, variances)
        _bin_step(cov, means, exit_slot, loop_slot, coupling, theta, channels,
                  moments)
        if k == 1:
            continue  # the exiting slot is overwritten by the next pulse
        g._apply_rotation_inplace(cov, means, exit_slot, -angles_deg[k - 2])
        ix = 2 * exit_slot
        draws = means[:, ix] + np.sqrt(cov[ix, ix]) * rng.standard_normal(shots)
        g._condition_on_x(cov, means, exit_slot, draws)
        yield draws


def run_loop(schedule: ControlSchedule, source: SqueezerSpec, window: int = 8,
             seed=None, sampling: MeasurementPlan | None = None,
             ) -> Iterator[RunRecord]:
    """Stream the loop simulation, one record per non-discarded output.

    Without a plan, each record carries the joint Gaussian state of the last
    ``window`` exited modes (older modes are marginalized out, which is
    exact).  With a plan, each exiting mode is measured at its angle by
    drawing from its marginal and conditioning the live state, which yields
    exact joint samples across the entire run; records then carry the
    per-shot values.
    """
    if window < 3:
        raise ValueError("window must be >= 3 (nullifier support)")
    num_outputs = schedule.num_outputs
    if sampling is not None and len(sampling.angles_deg) != num_outputs:
        raise ValueError(
            f"plan has {len(sampling.angles_deg)} angles but the schedule "
            f"produces {num_outputs} outputs")

    faulty = "bs-sign" in _ACTIVE_FAULTS
    channels = _channels(schedule.noise)
    if sampling is None:
        yield from _window_stream(schedule, source, window, channels, faulty)
        return
    columns = _sample_stream(schedule, source, sampling.angles_deg,
                             sampling.shots, schedule.thetas(), channels,
                             np.random.default_rng(seed), faulty)
    for index, (phi, values) in enumerate(zip(sampling.angles_deg, columns),
                                          start=1):
        yield RunRecord(index=index, exit_bin=index + 1, phi_deg=phi,
                        values=values)


def run_loop_sampled(schedule: ControlSchedule, source: SqueezerSpec,
                     plan: MeasurementPlan, seed=None) -> SampleSet:
    """Collect a full sampling run into one shots-by-modes SampleSet."""
    columns = [rec.values for rec in
               run_loop(schedule, source, seed=seed, sampling=plan)]
    return SampleSet(plan, np.column_stack(columns))


def run_loop_per_shot_jitter(schedule: ControlSchedule, source: SqueezerSpec,
                             plan: MeasurementPlan, seed=None) -> SampleSet:
    """Sampling run with explicit random phase jitter per shot and trip.

    Slow path (one sampler run per shot) drawing an actual rotation angle
    for every round trip instead of using the averaged channel; the two
    must agree on second moments.  Each shot draws its phases before its
    homodyne outcomes.
    """
    if len(plan.angles_deg) != schedule.num_outputs:
        raise ValueError("plan length mismatch")
    rng = np.random.default_rng(seed)
    det_eta, loop_eta, sigma = _channels(schedule.noise)
    thetas = np.array(schedule.thetas())
    values = np.zeros((plan.shots, schedule.num_outputs))
    for shot in range(plan.shots):
        drawn = thetas + rng.normal(0.0, sigma, thetas.size) if sigma > 0.0 \
            else thetas
        values[shot] = np.concatenate(list(_sample_stream(
            schedule, source, plan.angles_deg, 1, drawn,
            (det_eta, loop_eta, 0.0), rng)))
    return SampleSet(plan, values)


# ---------------------------------------------------------------------------
# quantum memory experiment
# ---------------------------------------------------------------------------


def epr_pair(source: SqueezerSpec) -> GaussianState:
    """Two-mode squeezed pair as the loop generates it.

    Pulse 1 rotated by 90 degrees, then mixed 50/50 with pulse 2; arm 1
    exits, arm 2 is the loop mode.
    """
    state = g.tensor(g.squeezed_vacuum(source), g.squeezed_vacuum(source))
    state = g.apply_phase(state, 0, 90.0)
    return g.apply_beamsplitter(state, 0, 1, 0.5)


def memory_experiment(n_delay: int, source: SqueezerSpec, noise: NoiseConfig,
                      accumulation: str = "random_walk") -> float:
    """Inseparability of an EPR pair after storing one arm for n round trips.

    Per stored trip the arm suffers the loop loss; the phase jitter
    accumulates as a random walk (total std = per-trip std * sqrt(n)), or
    linearly as a coherent drift (total = per-trip * n) when
    ``accumulation="linear"`` is selected.  Detection efficiency, when
    below 1, applies to both arms at measurement.
    """
    if n_delay < 0:
        raise ValueError("n_delay must be >= 0")
    if accumulation not in ("random_walk", "linear"):
        raise ValueError(f"unknown accumulation {accumulation!r}")
    state = epr_pair(source)
    if noise.mode == "realistic" and n_delay > 0:
        if noise.loop_loss_per_trip > 0.0:
            state = g.apply_loss(state, 1,
                                 (1.0 - noise.loop_loss_per_trip) ** n_delay)
        if noise.phase_jitter_deg_per_trip > 0.0:
            scale = np.sqrt(n_delay) if accumulation == "random_walk" else n_delay
            state = g.apply_dephasing(state, 1,
                                      noise.phase_jitter_deg_per_trip * scale)
    if noise.mode == "realistic" and noise.detection_efficiency < 1.0:
        state = g.apply_loss(state, 0, noise.detection_efficiency)
        state = g.apply_loss(state, 1, noise.detection_efficiency)
    c = state.cov
    var_minus = c[0, 0] + c[2, 2] - 2.0 * c[0, 2]
    var_plus = c[1, 1] + c[3, 3] + 2.0 * c[1, 3]
    return float(var_minus + var_plus)

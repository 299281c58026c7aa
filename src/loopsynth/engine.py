"""Time-binned simulation of the loop circuit.

Every simulation path runs the same per-bin operation, ``_bin_step``: the
variable beam splitter couples (loop mode, incoming pulse) into (exiting
mode, new loop mode), the bin's phase rotates the loop mode, and in
realistic mode the exiting mode suffers detection loss while the loop mode
suffers loss and averaged phase-jitter dephasing once per round trip.  The
mode exiting bin 1 is the pre-existing loop content and is always discarded.
The channel arithmetic itself lives in ``gaussian``.

The drivers differ only in which modes they keep:

* ``run_unrolled`` steps the dense equivalent chain (one mode per pulse)
  with ``_bin_step`` itself and is the independent reference for small
  schedules.
* ``run_loop`` streams bin by bin over a buffer of the held modes, so
  memory is independent of the schedule length.  A bin is an affine
  Gaussian channel from the loop mode to the (exiting, new loop) pair,
  C -> L C L^T + Q plus the dephasing noise; ``_bin_maps`` composes
  ``(L, Q)`` once per distinct bin setting by running ``_bin_step`` on a
  two-mode pair, and the streams apply it as one congruence per bin.
  Without a plan the stream holds each exited mode until the last record
  its reader says reads it: ``_window_covariances`` yields the held block
  as a raw view, which the verifier reads directly, and ``run_loop`` wraps
  each view of its sliding window into a validated ``GaussianState``.
  With a plan the stream keeps only the loop mode and produces exact joint
  homodyne samples by sequential conditioning: one covariance is mapped per
  bin, and the per-shot means move by that bin's composed map in one matmul.
  Both streams read every bin's ``T``, ``theta`` and source from the
  schedule and its channels from the schedule's noise.
* ``run_loop_sampled`` collects one sampling run into a ``SampleSet``.
* ``memory_experiment`` places the EPR criterion on each stored pair of
  ``compiler.compile_storage``'s sweep and evaluates it with
  ``verifier.stream_nullifier_variances``, which streams the window.

The coupling is branch dependent (``bin_coupling``): T < 1/2, T = 0
included, sits on the flipped-sign branch, which the compiler compensates
with 180-degree phases.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gaussian as g
from .compiler import compile_storage
from .gaussian import GaussianState, MeasurementPlan, SampleSet, SqueezerSpec
from .schedule import ControlSchedule, NoiseConfig

MAX_UNROLLED_BINS = 24

_ACTIVE_FAULTS: set[str] = set()

_LOOP_UNITS = np.eye(2, 4)  # x and p of slot 0, stacked as two means
_NO_MOMENTS = np.zeros((2, 2))  # builds a map without the dephasing noise


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
    only reachable on the branch whose off-diagonal signs flip.  Its limit
    T = 0 stores: the pulse reflects out and the loop mode stays, negated.
    """
    t = float(transmissivity)
    if faulty or t >= 0.5:
        return g.beamsplitter_matrix(t)
    return g.beamsplitter_matrix(t) * [[1.0, -1.0], [-1.0, 1.0]]


def _pulse_variances(kind: str, source: SqueezerSpec) -> tuple[float, float]:
    if kind == "squeezer":
        return source.variances()
    return g.VACUUM_VARIANCE, g.VACUUM_VARIANCE


def _channels(noise: NoiseConfig) -> tuple[float, float, float]:
    """(detection efficiency, loop transmittance, jitter std); ideal is (1, 1, 0)."""
    return (noise.detection_efficiency, 1.0 - noise.loop_loss_per_trip,
            noise.phase_jitter_deg_per_trip)


def _bin_step(cov: np.ndarray, mean: np.ndarray, exit_slot: int, loop_slot: int,
              coupling: np.ndarray, theta_deg: float,
              channels: tuple[float, float, float],
              moments: np.ndarray | None = None) -> None:
    """One time bin on raw arrays; the pulse already sits in ``loop_slot``.

    ``exit_slot`` holds the loop content on entry and the exiting mode on
    return.  ``moments`` is passed through to the dephasing channel.
    """
    det_eta, loop_eta, sigma = channels
    g._apply_pair_inplace(cov, mean, exit_slot, loop_slot, coupling)
    g._apply_rotation_inplace(cov, mean, loop_slot, theta_deg)
    if det_eta < 1.0:
        g._apply_loss_inplace(cov, mean, exit_slot, det_eta)
    if loop_eta < 1.0:
        g._apply_loss_inplace(cov, mean, loop_slot, loop_eta)
    if sigma > 0.0:
        g._apply_dephasing_inplace(cov, mean, loop_slot, sigma, moments)


def _load_pulse(cov: np.ndarray, mean: np.ndarray, slot: int,
                variances: tuple[float, float]) -> None:
    """Overwrite ``slot`` with a fresh uncorrelated zero-mean pulse."""
    q = g._quads(slot)
    cov[q, :] = 0.0
    cov[:, q] = 0.0
    cov[q.start, q.start], cov[q.start + 1, q.start + 1] = variances
    mean[..., q] = 0.0


def _drop_mode(cov: np.ndarray, dim: int, slot: int) -> None:
    """Marginalize ``slot`` out of the leading ``dim`` quadratures."""
    lo = 2 * slot
    cov[lo:dim - 2, lo:dim - 2] = cov[lo + 2:dim, lo + 2:dim]
    if lo:
        cov[lo:dim - 2, :lo] = cov[lo + 2:dim, :lo]
        cov[:lo, lo:dim - 2] = cov[:lo, lo + 2:dim]


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
        _load_pulse(cov, mean, k, _pulse_variances(setting.source, source))
        _bin_step(cov, mean, k - 1, k, bin_coupling(setting.T),
                  setting.theta_deg, channels)
    return GaussianState(mean[2:-2], cov[2:-2, 2:-2])


# ---------------------------------------------------------------------------
# streaming loop
# ---------------------------------------------------------------------------


def _bin_maps(source: SqueezerSpec, channels, faulty: bool):
    """Per-run lookup of each bin setting's fused affine map ``(L, Q)``.

    A bin sends the loop mode's quadratures r to the (exiting, new loop)
    pair as L r plus zero-mean noise of covariance Q (pulse, loss and the
    dephasing's e1 scaling), so a covariance C becomes L C L^T + Q.  Both
    come from one ``_bin_step`` on a two-mode pair: the loop mode's unit
    quadratures, stacked as means, give L, and a pulse-only covariance gives
    Q.  The dephasing noise depends on the state and is added by the caller
    (``_dephasing_after_map``).  Maps are built once per distinct
    ``(T, theta, source)``; the cache is bounded so long non-repeating
    schedules keep memory flat.
    """
    @functools.lru_cache(maxsize=1024)
    def build(transmissivity: float, theta_deg: float, kind: str):
        unit = _LOOP_UNITS.copy()
        noise = np.zeros((4, 4))
        _load_pulse(noise, unit, 1, _pulse_variances(kind, source))
        _bin_step(noise, unit, 0, 1, bin_coupling(transmissivity, faulty),
                  theta_deg, channels, _NO_MOMENTS)
        lin = unit.T.copy()
        lin.setflags(write=False)
        noise.setflags(write=False)
        return lin, noise
    return build


def _dephasing_after_map(sigma_deg: float):
    """The averaged jitter's noise for a mapped loop block, None without jitter.

    A fused map has already scaled the loop block to e1^2 S, where S is the
    second moment the dephasing channel sees; the returned function takes
    that block and gives the channel's added noise for S.
    """
    if sigma_deg <= 0.0:
        return None
    averages = g.dephasing_moments(sigma_deg)
    e1_sq = averages[0] ** 2
    return lambda block: g._dephasing_noise(block / e1_sq, averages)


def _map_loop_mode(cov: np.ndarray, slot: int, bin_map, dephasing) -> None:
    """Send the loop mode in ``slot`` of a zero-mean state through one bin.

    One congruence by the fused map on the mode's rows and columns; slots
    ``slot`` and ``slot + 1`` then hold the exiting and the new loop mode,
    and whatever ``slot + 1`` held is replaced by the bin's pulse.
    """
    lin, noise = bin_map
    lo = 2 * slot
    loop, pair = slice(lo, lo + 2), slice(lo, lo + 4)
    cov[pair, :] = lin @ cov[loop, :]
    cov[:, pair] = cov[:, loop] @ lin.T
    cov[pair, pair] += noise
    if dephasing is not None:
        block = cov[lo + 2:lo + 4, lo + 2:lo + 4]
        block += dephasing(block)


def _schedule_maps(schedule: ControlSchedule, source: SqueezerSpec):
    """The bin maps and the jitter noise for streaming ``schedule``.

    The channels come from the schedule's noise and the coupling's sign from
    the active faults, so both streams model a bin the same way.
    """
    channels = _channels(schedule.noise)
    faulty = "bs-sign" in _ACTIVE_FAULTS
    return _bin_maps(source, channels, faulty), _dephasing_after_map(channels[2])


def _window_covariances(schedule: ControlSchedule, source: SqueezerSpec,
                        last_read) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Yield ``(index, modes, cov)`` per non-discarded output, unvalidated.

    ``last_read[m]`` is the last record that reads output m (entry 0 is
    unused); output m is held from record m through max(m, last_read[m]),
    then marginalized out exactly.  ``modes`` lists the held outputs oldest
    first, ending with ``index``, and ``cov`` views their block; both are
    valid until the stream resumes.  The mean is zero; ``cov`` is as stepped.
    """
    maps, dephasing = _schedule_maps(schedule, source)
    drops: list[list[int]] = [[] for _ in range(schedule.num_outputs + 1)]
    for m, at in enumerate(last_read[1:len(drops)], start=1):
        if at < len(drops):  # dropped right after record max(m, at)
            drops[at if at > m else m].append(m)
    held = itertools.accumulate((1 - len(due) for due in drops[1:]), initial=0)
    size = 2 * (max(held) + 2)  # the most held, the loop mode and a pulse
    cov = np.zeros((size, size))
    cov[:2, :2] = g.VACUUM_VARIANCE * np.eye(2)  # the initial loop content
    modes: list[int] = []  # the held outputs by slot; the loop mode follows
    for k, setting in enumerate(schedule.bins, start=1):
        dim = 2 * (len(modes) + 2)
        _map_loop_mode(cov[:dim, :dim], len(modes),
                       maps(setting.T, setting.theta_deg, setting.source),
                       dephasing)
        if k == 1:
            _drop_mode(cov, dim, 0)  # pre-existing loop content
            continue
        modes.append(k - 1)
        yield k - 1, modes, cov[:dim - 2, :dim - 2]
        for m in drops[k - 1]:
            _drop_mode(cov, 2 * len(modes) + 2, modes.index(m))
            modes.remove(m)


def _sample_stream(schedule: ControlSchedule, source: SqueezerSpec,
                   angles_deg, shots: int,
                   rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield each output mode's homodyne draws, one per shot.

    Only the loop mode carries over between bins.  Its covariance, shared
    by the per-shot conditional means, goes through the bin's fused map to
    the (exiting, loop) pair, whose exiting mode is rotated by -phi and
    conditioned on its x draw.  The means are held as ``(3, shots)``: the
    loop mode's two predicted means and the last innovation.  The map, the
    rotation and the last draw's mean shift per unit innovation
    (``response``) compose into one 3x3 step, so one matmul moves them per
    bin.  With jitter, the unconditioned twin of the loop covariance is
    mapped too and supplies the dephasing noise, whose second moments the
    conditioned means could only estimate.
    """
    maps, dephasing = _schedule_maps(schedule, source)
    cov = g.VACUUM_VARIANCE * np.eye(2)  # the initial loop content
    twin = cov if dephasing is not None else None
    means = np.zeros((3, shots))
    response = np.zeros(2)
    phis = itertools.chain((None,), angles_deg)  # bin 1's exit is discarded
    for setting, phi in zip(schedule.bins, phis):
        lin, noise = maps(setting.T, setting.theta_deg, setting.source)
        pair = lin @ cov @ lin.T + noise
        if twin is not None:
            twin = lin[2:] @ twin @ lin[2:].T + noise[2:, 2:]
            added = dephasing(twin)
            twin += added
            pair[2:, 2:] += added
        if phi is None:
            cov = pair[2:, 2:]
            continue
        transfer = lin.T.copy()  # the loop mode's unit quadratures, mapped
        g._apply_rotation_inplace(pair, transfer, 0, -phi)
        step = np.empty((3, 3))
        step[:, :2] = transfer.T[[2, 3, 0]]  # new loop x, p; exiting x
        step[:, 2] = step[:, :2] @ response
        means = step @ means
        innovation = np.sqrt(pair[0, 0]) * rng.standard_normal(shots)
        draws = means[2] + innovation
        means[2] = innovation
        gain = np.zeros(4)  # becomes the mean shift per unit innovation
        g._condition_on_x(pair, gain, 0, 1.0)
        cov, response = pair[2:, 2:], gain[2:]
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

    if sampling is None:  # each block validated into a record
        last_read = range(window - 1, num_outputs + window)
        for index, modes, cov in _window_covariances(schedule, source, last_read):
            yield RunRecord(index=index, exit_bin=index + 1,
                            phi_deg=schedule.bins[index].phi_deg,
                            window_modes=tuple(modes),
                            state=GaussianState(np.zeros(cov.shape[0]), cov))
        return
    columns = _sample_stream(schedule, source, sampling.angles_deg,
                             sampling.shots, np.random.default_rng(seed))
    for index, (phi, values) in enumerate(zip(sampling.angles_deg, columns),
                                          start=1):
        yield RunRecord(index=index, exit_bin=index + 1, phi_deg=phi,
                        values=values)


def run_loop_sampled(schedule: ControlSchedule, source: SqueezerSpec,
                     plan: MeasurementPlan, seed=None) -> SampleSet:
    """Collect a full sampling run into one shots-by-modes SampleSet."""
    values = np.empty((len(plan.angles_deg), plan.shots))
    for rec in run_loop(schedule, source, seed=seed, sampling=plan):
        values[rec.index - 1] = rec.values
    values.setflags(write=False)  # SampleSet adopts a frozen array uncopied
    return SampleSet(plan, values.T)


# ---------------------------------------------------------------------------
# quantum memory experiment
# ---------------------------------------------------------------------------


def memory_experiment(delays, source: SqueezerSpec,
                      noise: NoiseConfig) -> list[float]:
    """Inseparability of an EPR pair after storing one arm, one per delay.

    From its bin s, the program of delay n in ``compile_storage(delays)``
    gives arm 1 as output s and arm 2 as output s + n + 1.  The EPR target's
    criterion placed on them is read from the verifier's stream, which holds
    only the stored pair.  Pulse 1 makes one trip before the mixing and arm 2
    makes n + 1.  Empty, negative or non-integer delays raise ValueError, and
    so does a negative or non-finite variance.
    """
    # imported here because verifier imports engine
    from .verifier import (InseparabilitySpec, NullifierSpec,
                           stream_nullifier_variances)
    delays = list(delays)
    schedule = compile_storage(delays, noise)
    starts = itertools.accumulate((n + 3 for n in delays), initial=1)
    arms = [(s, s + n + 1) for s, n in zip(starts, delays)]
    pairs = [InseparabilitySpec(NullifierSpec(((a, "x", 1.0), (b, "x", -1.0))),
                                NullifierSpec(((a, "p", 1.0), (b, "p", 1.0))))
             for a, b in arms]
    return stream_nullifier_variances(schedule, source, pairs)

"""Multimode Gaussian states and the channels acting on them.

States are kept as a mean vector and covariance matrix over the quadratures
(x1, p1, x2, p2, ...), i.e. mode-interleaved ordering.  Units follow the
hbar = 1/2 convention throughout: a vacuum mode has variance 1/4 in both
quadratures.  All angles at the public interfaces are in degrees.

Every operation is a pure function returning a new state, so states can be
shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VACUUM_VARIANCE = 0.25

# Symmetry is restored after every transform; PSD drift beyond this is a bug.
SYMMETRY_TOL = 1e-8
PSD_TOL = 1e-9

_EYE2 = np.eye(2)


def _x(mode: int) -> int:
    return 2 * mode


def _p(mode: int) -> int:
    return 2 * mode + 1


def _rad(deg: float) -> float:
    return float(deg) * np.pi / 180.0


def rotation_matrix(theta_deg: float) -> np.ndarray:
    """2x2 phase-space rotation: x' = x cos - p sin, p' = x sin + p cos."""
    t = _rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]])


def beamsplitter_matrix(transmissivity: float) -> np.ndarray:
    """Two-mode coupling [[sqrt(T), -sqrt(1-T)], [sqrt(1-T), sqrt(T)]].

    Applied identically to the x and p quadratures of the mode pair.
    """
    t = np.sqrt(transmissivity)
    r = np.sqrt(1.0 - transmissivity)
    return np.array([[t, -r], [r, t]])


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero or more optical modes with Gaussian statistics.

    mean has length 2N and cov is 2N x 2N, both in (x1, p1, x2, p2, ...)
    ordering.  The constructor symmetrizes cov and rejects matrices that are
    asymmetric or non-PSD beyond tolerances scaled by max(1, max|cov|).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}")
        if mean.size % 2 != 0:
            raise ValueError("quadrature vector length must be even")
        if mean.size and (not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov))):
            raise ValueError("non-finite entries in state")
        if mean.size:
            scale = max(1.0, float(np.max(np.abs(cov))))
            asym = np.max(np.abs(cov - cov.T))
            if asym > SYMMETRY_TOL * scale:
                raise ValueError(f"covariance asymmetric by {asym:.3g}")
            cov = 0.5 * (cov + cov.T)
            lo = np.linalg.eigvalsh(cov)[0]
            if lo < -PSD_TOL * scale:
                raise ValueError(f"covariance not PSD: min eigenvalue {lo:.3g}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def num_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SqueezerSpec:
    """Squeezed-vacuum source levels in dB.

    squeeze_db is the variance reduction of x below vacuum, antisqueeze_db
    the increase of p.  Physicality requires antisqueeze >= squeeze so that
    var_x * var_p >= 1/16.  Levels must be finite and small enough that
    both variances are finite floats.
    """

    squeeze_db: float = 5.0
    antisqueeze_db: float = 8.0

    def __post_init__(self):
        if not (math.isfinite(self.squeeze_db) and math.isfinite(self.antisqueeze_db)):
            raise ValueError(
                f"non-finite squeezer level: squeeze {self.squeeze_db} dB, "
                f"antisqueeze {self.antisqueeze_db} dB")
        if self.squeeze_db < 0:
            raise ValueError("squeeze_db must be >= 0")
        if self.antisqueeze_db < self.squeeze_db:
            raise ValueError(
                f"unphysical squeezer: antisqueeze {self.antisqueeze_db} dB "
                f"< squeeze {self.squeeze_db} dB"
            )
        try:
            self.variances()
        except OverflowError:
            raise ValueError(f"antisqueeze {self.antisqueeze_db} dB overflows "
                             "the p variance") from None

    def variances(self) -> tuple[float, float]:
        var_x = 10.0 ** (-self.squeeze_db / 10.0) * VACUUM_VARIANCE
        var_p = 10.0 ** (self.antisqueeze_db / 10.0) * VACUUM_VARIANCE
        return var_x, var_p


@dataclass(frozen=True)
class MeasurementPlan:
    """Homodyne angle per measured mode (degrees) and a shot count."""

    angles_deg: tuple[float, ...]
    shots: int = 5000

    def __post_init__(self):
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        if not self.angles_deg:
            raise ValueError("plan needs at least one angle")
        for i, angle in enumerate(self.angles_deg):
            if not math.isfinite(angle):
                raise ValueError(f"angles_deg[{i}] must be finite, got {angle!r}")
        if not hasattr(self.shots, "__index__"):
            raise ValueError(f"shots must be an integer, got {self.shots!r}")
        if self.shots < 2:
            raise ValueError("shots must be >= 2")


def _adopted(values) -> np.ndarray:
    """``values`` as a read-only float64 array, copied unless it is one.

    A float64 array is kept as is when neither it nor any array it views is
    writable, as the engine and the frame synthesis hand over; anything
    else, e.g. a caller's writable buffer, is copied.
    """
    view = values
    while isinstance(view, np.ndarray) and not view.flags.writeable:
        view = view.base
    if isinstance(view, np.ndarray) or not (
            isinstance(values, np.ndarray) and values.dtype == np.float64):
        values = np.array(values, dtype=float)
        values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Shot-by-shot quadrature samples, one column per measured mode."""

    plan: MeasurementPlan
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = _adopted(self.values)
        if values.shape != (self.plan.shots, len(self.plan.angles_deg)):
            raise ValueError(
                f"sample shape {values.shape} does not match plan "
                f"({self.plan.shots} shots x {len(self.plan.angles_deg)} modes)"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples")
        object.__setattr__(self, "values", values)


def vacuum(num_modes: int) -> GaussianState:
    """Vacuum of num_modes modes: zero mean, cov = I/4."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    n = 2 * num_modes
    return GaussianState(np.zeros(n), VACUUM_VARIANCE * np.eye(n))


def squeezed_vacuum(spec: SqueezerSpec) -> GaussianState:
    """Single x-squeezed mode with the spec's squeeze/antisqueeze levels."""
    var_x, var_p = spec.variances()
    return GaussianState(np.zeros(2), np.diag([var_x, var_p]))


# ---------------------------------------------------------------------------
# raw-array channel updates, shared by the public ops and the loop engine
#
# Each update acts in place on a covariance matrix and on a mean indexed as
# mean[..., q]: either one 2N vector or a stack of 2N-vector rows, which all
# share the one covariance.  The stacks in use are the engine's bin-map
# builder's two unit rows (the loop mode's x and p) and the sampler's two
# transfer rows; the sampler's per-shot means themselves move by one
# composed 3x3 step per bin, not through these updates.  The one exception
# is the dephasing's default second moment S = B + mu mu^T, which needs a
# single mean vector; a stack must come with its ``moments``.
# ---------------------------------------------------------------------------


def _quads(mode: int) -> slice:
    return slice(2 * mode, 2 * mode + 2)


def _apply_pair_inplace(cov: np.ndarray, mean: np.ndarray, i: int, j: int,
                        coupling: np.ndarray) -> None:
    """Mix modes (i, j) by the 2x2 ``coupling``, identically on x and p.

    The two modes' row blocks, then their column blocks, then their mean
    entries are mixed as slices.
    """
    (a, b), (c, d) = coupling.tolist()
    qi, qj = _quads(i), _quads(j)
    for u, v in ((cov[qi, :], cov[qj, :]), (cov[:, qi], cov[:, qj]),
                 (mean[..., qi], mean[..., qj])):
        u_in = u.copy()
        u *= a
        u += b * v
        v *= d
        v += c * u_in


def _apply_rotation_inplace(cov: np.ndarray, mean: np.ndarray, mode: int,
                            theta_deg: float) -> None:
    r = rotation_matrix(theta_deg)
    q = _quads(mode)
    cov[q, :] = r @ cov[q, :]
    cov[:, q] = cov[:, q] @ r.T
    mean[..., q] = mean[..., q] @ r.T


def _apply_loss_inplace(cov: np.ndarray, mean: np.ndarray, mode: int,
                        eta: float) -> None:
    q = _quads(mode)
    root = math.sqrt(eta)
    block = eta * cov[q, q]
    cov[q, :] *= root
    cov[:, q] *= root
    cov[q, q] = block + (1.0 - eta) * VACUUM_VARIANCE * _EYE2
    mean[..., q] *= root


def dephasing_moments(sigma_deg: float) -> tuple[float, float, float]:
    """(E[cos], E[cos^2], E[sin^2]) of a centered Gaussian angle."""
    var = _rad(sigma_deg) ** 2
    e1 = np.exp(-var / 2.0)
    e2 = np.exp(-2.0 * var)
    return e1, 0.5 * (1.0 + e2), 0.5 * (1.0 - e2)


def _apply_dephasing_inplace(cov: np.ndarray, mean: np.ndarray, mode: int,
                             sigma_deg: float,
                             moments: np.ndarray | None = None) -> None:
    """Moment-averaged random-rotation channel on one mode.

    With R a rotation by a centered Gaussian angle of std sigma and
    e1 = E[cos], the mode's covariance block B becomes

        e1^2 B + E[R S R^T] - e1^2 S,

    its cross-covariances and mean scale by e1, and S is the mode's 2x2
    second moment about zero.  By default S = B + mu mu^T, the exact average
    of the state, which needs ``mean`` to be a single vector: a stack of
    means raises ValueError unless ``moments`` is given.  A caller that adds
    the noise itself (``_dephasing_noise``) passes S = 0, which leaves only
    the e1 scaling; the engine's fused bin maps are built that way.
    """
    averages = dephasing_moments(sigma_deg)
    q = _quads(mode)
    if moments is None:
        if mean.ndim != 1:
            raise ValueError(
                "the default dephasing moments need a single mean vector; "
                f"pass moments for a stack of shape {mean.shape}")
        mu = mean[q]
        moments = cov[q, q] + np.outer(mu, mu)
    e1 = averages[0]
    cov[q, :] *= e1
    cov[:, q] *= e1
    cov[q, q] += _dephasing_noise(moments, averages)
    mean[..., q] *= e1


def _dephasing_noise(moments: np.ndarray,
                     averages: tuple[float, float, float]) -> np.ndarray:
    """The dephasing channel's added noise E[R S R^T] - e1^2 S.

    ``moments`` is the mode's 2x2 second moment S before the channel and
    ``averages`` is ``dephasing_moments(sigma)``.
    """
    e1, c2, s2 = averages
    (sxx, sxp), (_, spp) = moments.tolist()
    return np.array([
        [(c2 - e1 * e1) * sxx + s2 * spp, (c2 - s2 - e1 * e1) * sxp],
        [(c2 - s2 - e1 * e1) * sxp, s2 * sxx + (c2 - e1 * e1) * spp],
    ])


def _condition_on_x(cov: np.ndarray, mean: np.ndarray, mode: int,
                    outcome) -> None:
    """Condition on x of `mode` taking `outcome` (one per mean row), in place.

    The measured mode is left with zero x variance; the caller drops it.
    """
    ix = _x(mode)
    var = cov[ix, ix]
    if var < 1e-12:
        raise ValueError("measured quadrature variance is singular")
    gain = cov[:, ix] / var
    mean += np.multiply.outer(outcome - mean[..., ix], gain)
    cov -= np.outer(cov[:, ix], cov[ix, :]) / var


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.num_modes:
        raise ValueError(f"mode {mode} out of range for {state.num_modes} modes")


def apply_phase(state: GaussianState, mode: int, theta_deg: float) -> GaussianState:
    """Rotate one mode's quadratures by theta (degrees)."""
    _check_mode(state, mode)
    cov, mean = state.cov.copy(), state.mean.copy()
    _apply_rotation_inplace(cov, mean, mode, theta_deg)
    return GaussianState(mean, cov)


def apply_beamsplitter(state: GaussianState, i: int, j: int,
                       transmissivity: float) -> GaussianState:
    """Couple modes i and j with the fixed-sign beam splitter convention."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity {transmissivity} outside [0, 1]")
    return apply_coupling(state, i, j, beamsplitter_matrix(transmissivity))


def apply_coupling(state: GaussianState, i: int, j: int,
                   coupling: np.ndarray) -> GaussianState:
    """Apply an orthogonal 2x2 mode coupling to (i, j), same on x and p."""
    _check_mode(state, i)
    _check_mode(state, j)
    if i == j:
        raise ValueError("a mode coupling needs two distinct modes")
    cov, mean = state.cov.copy(), state.mean.copy()
    _apply_pair_inplace(cov, mean, i, j, np.asarray(coupling, dtype=float))
    return GaussianState(mean, cov)


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Attenuate one mode: cov block -> eta*S + (1-eta)/4 I, cross *= sqrt(eta)."""
    _check_mode(state, mode)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmittance {eta} outside [0, 1]")
    cov, mean = state.cov.copy(), state.mean.copy()
    _apply_loss_inplace(cov, mean, mode, eta)
    return GaussianState(mean, cov)


def apply_dephasing(state: GaussianState, mode: int, sigma_deg: float) -> GaussianState:
    """Average one mode over Gaussian random rotations of std sigma (degrees).

    Closed form of the moment average; validated against explicit Monte-Carlo
    rotation averaging in the test suite.
    """
    _check_mode(state, mode)
    if sigma_deg < 0:
        raise ValueError("jitter std-dev must be >= 0")
    cov, mean = state.cov.copy(), state.mean.copy()
    _apply_dephasing_inplace(cov, mean, mode, sigma_deg)
    return GaussianState(mean, cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Block-diagonal composition of two states."""
    n_a = a.mean.size
    n = n_a + b.mean.size
    cov = np.zeros((n, n))
    cov[:n_a, :n_a] = a.cov
    cov[n_a:, n_a:] = b.cov
    return GaussianState(np.concatenate([a.mean, b.mean]), cov)


def marginalize(state: GaussianState, keep) -> GaussianState:
    """Restrict to the given modes (order preserved); exact for Gaussians."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep list must be nonempty")
    for m in keep:
        _check_mode(state, m)
    idx = [q for m in keep for q in (_x(m), _p(m))]
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def homodyne_condition(state: GaussianState, mode: int, phi_deg: float,
                       outcome: float) -> GaussianState:
    """Condition the remaining modes on measuring x_phi = outcome on `mode`.

    The measured mode is removed; an empty state is a valid terminal result.
    """
    _check_mode(state, mode)
    cov, mean = state.cov.copy(), state.mean.copy()
    _apply_rotation_inplace(cov, mean, mode, -phi_deg)
    _condition_on_x(cov, mean, mode, float(outcome))
    keep = [q for m in range(state.num_modes) if m != mode for q in (_x(m), _p(m))]
    return GaussianState(mean[keep], cov[np.ix_(keep, keep)])


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def sample_quadratures(state: GaussianState, plan: MeasurementPlan,
                       seed=None) -> SampleSet:
    """Draw i.i.d. shots of one commuting quadrature per mode.

    Mode k is measured at plan angle phi_k: x cos(phi) + p sin(phi).
    Deterministic for a fixed seed.
    """
    if len(plan.angles_deg) != state.num_modes:
        raise ValueError(
            f"plan has {len(plan.angles_deg)} angles for {state.num_modes} modes"
        )
    proj = np.zeros((state.num_modes, 2 * state.num_modes))
    for m, phi in enumerate(plan.angles_deg):
        t = _rad(phi)
        proj[m, _x(m)] = np.cos(t)
        proj[m, _p(m)] = np.sin(t)
    mu = proj @ state.mean
    sigma = proj @ state.cov @ proj.T
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((plan.shots, state.num_modes)) @ _sqrt_psd(sigma).T
    return SampleSet(plan, mu + draws)

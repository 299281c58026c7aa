import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import gaussian as g
from loopsynth.engine import bin_coupling
from loopsynth.gaussian import (GaussianState, MeasurementPlan, SampleSet,
                                SqueezerSpec, apply_beamsplitter, apply_dephasing,
                                apply_loss, apply_phase, homodyne_condition,
                                marginalize, sample_quadratures,
                                squeezed_vacuum, tensor, vacuum)

VAR_5DB = 10.0 ** -0.5 / 4.0
VAR_8DB = 10.0 ** 0.8 / 4.0


def combo_variance(state, coeffs):
    """Independent quadratic-form evaluation: coeffs maps index -> weight."""
    c = np.zeros(2 * state.num_modes)
    for idx, w in coeffs.items():
        c[idx] = w
    return float(c @ state.cov @ c)


def epr_state(squeeze_db=5.0, antisqueeze_db=8.0):
    s = SqueezerSpec(squeeze_db, antisqueeze_db)
    st_ = tensor(squeezed_vacuum(s), squeezed_vacuum(s))
    st_ = apply_phase(st_, 0, 90.0)
    return apply_beamsplitter(st_, 0, 1, 0.5)


def epr_inseparability(state):
    return combo_variance(state, {0: 1, 2: -1}) + combo_variance(state, {1: 1, 3: 1})


def random_state(seed, num_modes=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * num_modes, 2 * num_modes))
    cov = 0.05 * a @ a.T + 0.25 * np.eye(2 * num_modes)
    mean = rng.normal(scale=0.5, size=2 * num_modes)
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_vacuum_single_mode():
    state = vacuum(1)
    assert np.array_equal(state.cov, np.diag([0.25, 0.25]))
    assert np.array_equal(state.mean, np.zeros(2))


def test_vacuum_three_modes():
    state = vacuum(3)
    assert state.cov.shape == (6, 6)
    assert np.array_equal(state.cov, 0.25 * np.eye(6))


def test_vacuum_difference_variance():
    # var(x1 - x2) on two vacua: 1/4 + 1/4
    assert combo_variance(vacuum(2), {0: 1, 2: -1}) == pytest.approx(0.5, abs=1e-15)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum(0)


def test_squeezed_vacuum_db_levels():
    state = squeezed_vacuum(SqueezerSpec(5.0, 8.0))
    assert state.cov[0, 0] == pytest.approx(VAR_5DB, abs=1e-12)
    assert state.cov[1, 1] == pytest.approx(VAR_8DB, abs=1e-12)
    assert state.cov[0, 0] == pytest.approx(0.0790569, abs=1e-7)
    assert state.cov[1, 1] == pytest.approx(1.5773934, abs=1e-7)


def test_squeezed_vacuum_zero_db_is_vacuum():
    state = squeezed_vacuum(SqueezerSpec(0.0, 0.0))
    assert np.allclose(state.cov, vacuum(1).cov)


def test_unphysical_squeezer_rejected():
    with pytest.raises(ValueError, match="unphysical"):
        SqueezerSpec(5.0, 4.0)


@pytest.mark.parametrize("levels", [(float("nan"), float("nan")),
                                    (0.0, float("inf")), (float("-inf"), 3.0)])
def test_non_finite_squeezer_rejected(levels):
    with pytest.raises(ValueError, match="non-finite"):
        SqueezerSpec(*levels)


def test_overflowing_squeezer_rejected():
    # 10 ** 400 overflows a float; the largest accepted level still works
    with pytest.raises(ValueError, match="overflows"):
        SqueezerSpec(0.0, 4000.0)
    assert np.isfinite(SqueezerSpec(0.0, 3080.0).variances()).all()


def test_asymmetric_covariance_rejected():
    cov = np.array([[0.25, 0.1], [0.0, 0.25]])
    with pytest.raises(ValueError, match="asymmetric"):
        GaussianState(np.zeros(2), cov)


def test_validation_tolerances_scale_with_the_largest_entry():
    big = np.diag([1e6, 1e6])
    GaussianState(np.zeros(2), big + [[0.0, 1e-3], [0.0, 0.0]])  # 1e-9 relative
    with pytest.raises(ValueError, match="asymmetric"):  # 1e-6 relative
        GaussianState(np.zeros(2), big + [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="PSD"):
        GaussianState(np.zeros(2), np.diag([1e6, -1e-2]))


def test_non_psd_covariance_rejected():
    with pytest.raises(ValueError, match="PSD"):
        GaussianState(np.zeros(2), np.diag([0.25, -0.1]))


# ---------------------------------------------------------------------------
# phase and beam splitter
# ---------------------------------------------------------------------------


def test_phase_zero_is_identity():
    state = random_state(1)
    out = apply_phase(state, 1, 0.0)
    assert np.allclose(out.cov, state.cov, atol=1e-15)
    assert np.allclose(out.mean, state.mean, atol=1e-15)


def test_phase_90_swaps_squeezed_variances():
    state = squeezed_vacuum(SqueezerSpec(5.0, 8.0))
    out = apply_phase(state, 0, 90.0)
    assert out.cov[0, 0] == pytest.approx(VAR_8DB, abs=1e-12)
    assert out.cov[1, 1] == pytest.approx(VAR_5DB, abs=1e-12)


def test_phase_full_turn_is_identity():
    state = random_state(2)
    out = apply_phase(state, 0, 360.0)
    assert np.allclose(out.cov, state.cov, atol=1e-12)
    assert np.allclose(out.mean, state.mean, atol=1e-12)


def test_beamsplitter_full_transmission_is_identity():
    state = random_state(3, num_modes=2)
    out = apply_beamsplitter(state, 0, 1, 1.0)
    assert np.allclose(out.cov, state.cov, atol=1e-12)


def test_beamsplitter_leaves_vacuum_invariant():
    for t in (0.0, 0.2, 0.5, 0.9):
        out = apply_beamsplitter(vacuum(2), 0, 1, t)
        assert np.allclose(out.cov, 0.25 * np.eye(4), atol=1e-14)


def test_beamsplitter_epr_value():
    # mixing p-squeezed with x-squeezed at T = 1/2 gives the two-mode
    # squeezed value 10^(-0.5) for 5 dB pure input
    state = epr_state(5.0, 5.0)
    assert epr_inseparability(state) == pytest.approx(10.0 ** -0.5, abs=1e-12)


def test_beamsplitter_rejects_bad_transmissivity():
    with pytest.raises(ValueError):
        apply_beamsplitter(vacuum(2), 0, 1, 1.2)


def test_beamsplitter_rejects_same_mode():
    with pytest.raises(ValueError):
        apply_beamsplitter(vacuum(2), 1, 1, 0.5)
    with pytest.raises(ValueError, match="distinct"):
        g.apply_coupling(vacuum(2), 1, 1, g.beamsplitter_matrix(0.5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0), st.floats(0.0, 360.0))
def test_trace_invariant_under_passive_transforms(seed, t, theta):
    state = random_state(seed)
    after_bs = apply_beamsplitter(state, 0, 2, t)
    after_rot = apply_phase(state, 1, theta)
    assert np.trace(after_bs.cov) == pytest.approx(np.trace(state.cov), rel=1e-12)
    assert np.trace(after_rot.cov) == pytest.approx(np.trace(state.cov), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_transform_chain_keeps_symmetry_and_psd(seed):
    rng = np.random.default_rng(seed)
    state = random_state(seed)
    for _ in range(5):
        op = rng.integers(4)
        if op == 0:
            state = apply_phase(state, int(rng.integers(3)), float(rng.uniform(0, 360)))
        elif op == 1:
            i, j = rng.choice(3, size=2, replace=False)
            state = apply_beamsplitter(state, int(i), int(j), float(rng.uniform(0, 1)))
        elif op == 2:
            state = apply_loss(state, int(rng.integers(3)), float(rng.uniform(0, 1)))
        else:
            state = apply_dephasing(state, int(rng.integers(3)), float(rng.uniform(0, 30)))
    # GaussianState validates symmetry within 1e-12 and PSD within 1e-9
    assert np.max(np.abs(state.cov - state.cov.T)) <= 1e-12
    assert np.linalg.eigvalsh(state.cov)[0] >= -1e-9


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_unity_is_identity():
    state = random_state(4)
    out = apply_loss(state, 1, 1.0)
    assert np.allclose(out.cov, state.cov, atol=1e-15)


def test_loss_zero_gives_vacuum_mode():
    state = epr_state()
    out = apply_loss(state, 1, 0.0)
    assert np.allclose(out.cov[2:, 2:], 0.25 * np.eye(2), atol=1e-15)
    assert np.allclose(out.cov[:2, 2:], 0.0, atol=1e-15)


def test_repeated_loss_degrades_epr_monotonically():
    state = epr_state()
    previous = epr_inseparability(state)
    for _ in range(6):
        state = apply_loss(state, 1, 0.93)
        current = epr_inseparability(state)
        assert current > previous
        previous = current


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_loss_composes_multiplicatively(seed, eta1, eta2):
    state = random_state(seed)
    twice = apply_loss(apply_loss(state, 0, eta1), 0, eta2)
    once = apply_loss(state, 0, eta1 * eta2)
    assert np.max(np.abs(twice.cov - once.cov)) < 1e-12
    assert np.max(np.abs(twice.mean - once.mean)) < 1e-12


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------


def mc_dephasing_moments(state, mode, sigma_deg, draws, seed, batches=20):
    """Monte-Carlo oracle: average explicit rotations of one mode.

    Returns (cov_mc, mean_mc, cov_se) with per-entry standard errors
    estimated from batch means.
    """
    dim = 2 * state.num_modes
    ix, ip = 2 * mode, 2 * mode + 1
    second = state.cov + np.outer(state.mean, state.mean)
    rng = np.random.default_rng(seed)
    per_batch = draws // batches
    second_batches, mean_batches = [], []
    for _ in range(batches):
        phi = np.radians(rng.normal(0.0, sigma_deg, per_batch))
        c, s = np.cos(phi), np.sin(phi)
        rots = np.tile(np.eye(dim), (per_batch, 1, 1))
        rots[:, ix, ix] = c
        rots[:, ix, ip] = -s
        rots[:, ip, ix] = s
        rots[:, ip, ip] = c
        transformed = np.einsum("nij,jk,nlk->nil", rots, second, rots)
        second_batches.append(transformed.mean(axis=0))
        mean_batches.append(np.einsum("nij,j->ni", rots, state.mean).mean(axis=0))
    second_mc = np.mean(second_batches, axis=0)
    mean_mc = np.mean(mean_batches, axis=0)
    cov_mc = second_mc - np.outer(mean_mc, mean_mc)
    cov_se = np.std([b - np.outer(m, m) for b, m in zip(second_batches, mean_batches)],
                    axis=0) / np.sqrt(batches)
    return cov_mc, mean_mc, cov_se


def test_dephasing_zero_is_identity():
    state = random_state(5)
    out = apply_dephasing(state, 0, 0.0)
    assert np.allclose(out.cov, state.cov, atol=1e-15)
    assert np.allclose(out.mean, state.mean, atol=1e-15)


def test_dephasing_full_randomization_limit():
    state = epr_state()
    out = apply_dephasing(state, 1, 1e9)
    avg = 0.5 * (state.cov[2, 2] + state.cov[3, 3])
    assert out.cov[2, 2] == pytest.approx(avg, abs=1e-12)
    assert out.cov[3, 3] == pytest.approx(avg, abs=1e-12)
    assert np.allclose(out.cov[:2, 2:], 0.0, atol=1e-12)


def test_dephasing_matches_monte_carlo_on_epr_arm():
    state = epr_state()
    closed = apply_dephasing(state, 1, 7.0)
    mc_cov, _, se = mc_dephasing_moments(state, 1, 7.0, draws=1_000_000, seed=77)
    tol = 3.0 * se + 1e-12
    assert np.all(np.abs(closed.cov - mc_cov) <= tol)


def test_dephasing_matches_monte_carlo_with_mean():
    state = random_state(8)  # nonzero mean exercises the mean-term correction
    closed = apply_dephasing(state, 2, 11.0)
    mc_cov, mc_mean, se = mc_dephasing_moments(state, 2, 11.0, draws=400_000, seed=78)
    tol = 3.0 * se + 1e-12
    assert np.all(np.abs(closed.cov - mc_cov) <= tol)
    assert np.allclose(closed.mean, mc_mean, atol=5e-3)


def test_dephasing_rejects_negative_sigma():
    with pytest.raises(ValueError):
        apply_dephasing(vacuum(1), 0, -1.0)


# ---------------------------------------------------------------------------
# tensor / marginalize
# ---------------------------------------------------------------------------


def test_tensor_of_vacua_is_vacuum():
    state = tensor(vacuum(1), vacuum(2))
    assert state.num_modes == 3
    assert np.array_equal(state.cov, vacuum(3).cov)


def test_marginalized_epr_arm_is_thermal():
    arm = marginalize(epr_state(), [0])
    expected = 0.5 * (VAR_5DB + VAR_8DB)
    assert arm.cov[0, 0] == pytest.approx(expected, abs=1e-12)
    assert arm.cov[1, 1] == pytest.approx(expected, abs=1e-12)
    assert arm.cov[0, 0] > 0.25


def test_marginalize_then_tensor_loses_correlations():
    state = epr_state()
    rebuilt = tensor(marginalize(state, [0]), marginalize(state, [1]))
    assert abs(rebuilt.cov[0, 2]) < 1e-15
    assert abs(state.cov[0, 2]) > 0.1


def test_marginalize_requires_modes():
    with pytest.raises(ValueError):
        marginalize(vacuum(2), [])


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def dense_condition_oracle(state, mode, phi_deg, outcome):
    """From-scratch conditioning: rotate, Schur-complement, drop."""
    dim = 2 * state.num_modes
    rot = np.eye(dim)
    t = np.radians(-phi_deg)
    ix, ip = 2 * mode, 2 * mode + 1
    rot[ix, ix] = rot[ip, ip] = np.cos(t)
    rot[ix, ip] = -np.sin(t)
    rot[ip, ix] = np.sin(t)
    cov = rot @ state.cov @ rot.T
    mean = rot @ state.mean
    var = cov[ix, ix]
    cov2 = cov - np.outer(cov[:, ix], cov[ix, :]) / var
    mean2 = mean + cov[:, ix] / var * (outcome - mean[ix])
    keep = [q for q in range(dim) if q not in (ix, ip)]
    return cov2[np.ix_(keep, keep)], mean2[keep]


def test_conditioning_vacuum_leaves_vacuum():
    out = homodyne_condition(vacuum(3), 1, 30.0, 1.7)
    assert out.num_modes == 2
    assert np.allclose(out.cov, 0.25 * np.eye(4), atol=1e-14)
    assert np.allclose(out.mean, 0.0, atol=1e-14)


def test_conditioning_epr_arm_pulls_mean_toward_outcome():
    state = epr_state()
    outcome = 0.8
    out = homodyne_condition(state, 0, 0.0, outcome)
    gain = state.cov[2, 0] / state.cov[0, 0]
    assert out.mean[0] == pytest.approx(gain * outcome, abs=1e-12)
    assert gain > 0.8  # strongly correlated arms

    cov_ref, mean_ref = dense_condition_oracle(state, 0, 0.0, outcome)
    assert np.allclose(out.cov, cov_ref, atol=1e-12)
    assert np.allclose(out.mean, mean_ref, atol=1e-12)


def test_conditioning_matches_oracle_at_angle():
    state = random_state(11)
    out = homodyne_condition(state, 1, 37.0, -0.4)
    cov_ref, mean_ref = dense_condition_oracle(state, 1, 37.0, -0.4)
    assert np.allclose(out.cov, cov_ref, atol=1e-12)
    assert np.allclose(out.mean, mean_ref, atol=1e-12)


def test_conditioning_down_to_empty_state():
    state = vacuum(2)
    state = homodyne_condition(state, 1, 0.0, 0.1)
    state = homodyne_condition(state, 0, 90.0, -0.2)
    assert state.num_modes == 0


def test_conditioning_rejects_singular_variance():
    cov = np.diag([0.0, 0.25, 0.25, 0.25])
    state = GaussianState(np.zeros(4), cov)
    with pytest.raises(ValueError, match="singular"):
        homodyne_condition(state, 0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# raw updates on stacked per-shot means
# ---------------------------------------------------------------------------


def test_raw_updates_act_row_by_row_on_stacked_means():
    # stacked mean rows share one covariance, like the engine's bin-map unit
    # rows and the sampler's transfer rows
    base = random_state(21)
    rng = np.random.default_rng(22)
    means = rng.normal(size=(4, 6))
    outcomes = rng.normal(size=4)
    moments = np.array([[0.4, 0.05], [0.05, 0.3]])
    updates = {
        "pair": lambda c, m, _: g._apply_pair_inplace(
            c, m, 0, 2, g.beamsplitter_matrix(0.3)),
        "rotation": lambda c, m, _: g._apply_rotation_inplace(c, m, 1, 37.0),
        "loss": lambda c, m, _: g._apply_loss_inplace(c, m, 2, 0.8),
        "dephasing": lambda c, m, _: g._apply_dephasing_inplace(
            c, m, 1, 9.0, moments),
        "condition": lambda c, m, out: g._condition_on_x(c, m, 0, out),
    }
    for name, update in updates.items():
        cov, stacked = base.cov.copy(), means.copy()
        update(cov, stacked, outcomes)
        for row in range(len(means)):
            cov_row, mean_row = base.cov.copy(), means[row].copy()
            update(cov_row, mean_row, outcomes[row])
            assert np.allclose(cov, cov_row, rtol=0, atol=1e-14), name
            assert np.allclose(stacked[row], mean_row, rtol=0, atol=1e-14), name


def test_default_dephasing_moments_refuse_stacked_means():
    # S = B + mu mu^T is one mode's moment; a stack of means has no single mu
    base = random_state(21)
    for stack in (np.zeros((1, 6)), np.zeros((3, 6)), np.zeros((4, 6))):
        cov = base.cov.copy()
        with pytest.raises(ValueError, match="single mean vector"):
            g._apply_dephasing_inplace(cov, stack, 1, 9.0)


@pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (0, 3), (3, 1)])
@pytest.mark.parametrize("transmissivity", [0.7, 0.3])
def test_pair_update_equals_conjugation_by_embedded_kron(i, j, transmissivity):
    # T = 0.3 takes the flipped-sign branch of the variable splitter
    coupling = bin_coupling(transmissivity)
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    s = np.eye(8)
    s[np.ix_(idx, idx)] = np.kron(coupling, np.eye(2))
    base = random_state(31, num_modes=4)
    means = np.random.default_rng(32).normal(size=(7, 8))
    cov, stacked = base.cov.copy(), means.copy()
    g._apply_pair_inplace(cov, stacked, i, j, coupling)
    assert np.allclose(cov, s @ base.cov @ s.T, rtol=0, atol=1e-14)
    assert np.allclose(stacked, means @ s.T, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_vacuum_sampling_variance():
    plan = MeasurementPlan((0.0, 90.0), shots=5000)
    samples = sample_quadratures(vacuum(2), plan, seed=1)
    se = 0.25 * np.sqrt(2.0 / (plan.shots - 1))
    for col in range(2):
        assert np.var(samples.values[:, col], ddof=1) == pytest.approx(0.25, abs=3 * se)


def test_epr_sampling_matches_analytic():
    state = epr_state()
    plan = MeasurementPlan((0.0, 0.0), shots=5000)
    samples = sample_quadratures(state, plan, seed=2)
    diff = samples.values[:, 0] - samples.values[:, 1]
    analytic = combo_variance(state, {0: 1, 2: -1})
    se = analytic * np.sqrt(2.0 / (plan.shots - 1))
    assert np.var(diff, ddof=1) == pytest.approx(analytic, abs=3 * se)


def test_sampling_is_deterministic_under_seed():
    plan = MeasurementPlan((0.0,), shots=100)
    a = sample_quadratures(vacuum(1), plan, seed=42)
    b = sample_quadratures(vacuum(1), plan, seed=42)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("angles, shots, message", [
    ((float("nan"), 0.0), 10, r"angles_deg\[0\] must be finite, got nan"),
    ((0.0, float("inf")), 10, r"angles_deg\[1\] must be finite, got inf"),
    ((0.0,), 2.5, "shots must be an integer"),
    ((0.0,), 10.0, "shots must be an integer"),
])
def test_measurement_plan_rejects_malformed_fields(angles, shots, message):
    with pytest.raises(ValueError, match=message):
        MeasurementPlan(angles, shots=shots)


def test_measurement_plan_accepts_numpy_shot_counts():
    assert MeasurementPlan((0.0,), shots=np.int64(10)).shots == 10


def test_sampling_rejects_plan_mismatch():
    with pytest.raises(ValueError):
        sample_quadratures(vacuum(2), MeasurementPlan((0.0,), shots=10), seed=0)


def test_sample_set_adopts_frozen_arrays_and_copies_writable_ones():
    plan = MeasurementPlan((0.0, 90.0), shots=3)
    frozen = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    frozen.setflags(write=False)
    adopted = SampleSet(plan, frozen.T)
    assert np.shares_memory(adopted.values, frozen)
    writable = np.arange(6.0).reshape(3, 2)
    view = writable[:]
    view.setflags(write=False)  # read-only, but its base is not
    for owned in (writable, view, writable.tolist()):
        copied = SampleSet(plan, owned)
        assert not np.shares_memory(copied.values, writable)
        assert not copied.values.flags.writeable
    writable[0, 0] = 99.0
    assert copied.values[0, 0] == 0.0
    bad = np.array([[0.0, np.nan]] * 3)
    for values in (bad, bad.copy()):
        values.setflags(write=False)
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet(plan, values)
    with pytest.raises(ValueError, match="non-finite"):
        SampleSet(plan, np.array([[0.0, np.inf]] * 3))


def test_empirical_covariance_converges():
    # invariant check at 1e5 shots within 5 standard errors
    state = random_state(13, num_modes=2)
    plan = MeasurementPlan((20.0, 110.0), shots=100_000)
    samples = sample_quadratures(state, plan, seed=3)
    proj = np.zeros((2, 4))
    for m, phi in enumerate(plan.angles_deg):
        t = np.radians(phi)
        proj[m, 2 * m] = np.cos(t)
        proj[m, 2 * m + 1] = np.sin(t)
    target = proj @ state.cov @ proj.T
    got = np.cov(samples.values.T, ddof=1)
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    se = scale * np.sqrt(2.0 / (plan.shots - 1))
    assert np.all(np.abs(got - target) <= 5 * se)

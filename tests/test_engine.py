import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import engine, verifier
from loopsynth.compiler import TargetState, compile_storage, compile_target
from loopsynth.engine import (inject_fault, memory_experiment, run_loop,
                              run_loop_sampled, run_unrolled)
from loopsynth.gaussian import (MeasurementPlan, SampleSet, SqueezerSpec,
                                apply_beamsplitter, apply_dephasing,
                                apply_loss, apply_phase, homodyne_condition,
                                marginalize, squeezed_vacuum, tensor)
from loopsynth.schedule import BinSetting, ControlSchedule, NoiseConfig
from loopsynth.verifier import (estimate, linear_cluster_oracle_cov,
                                nullifiers_for, stream_nullifier_variances,
                                variance_analytic)

SOURCE = SqueezerSpec(5.0, 8.0)


def epr_value(state):
    c = state.cov
    return (c[0, 0] + c[2, 2] - 2 * c[0, 2]) + (c[1, 1] + c[3, 3] + 2 * c[1, 3])


def random_schedule(rng, n=None, realistic=None):
    n = n or int(rng.integers(2, 7))
    realistic = rng.random() < 0.5 if realistic is None else realistic
    noise = NoiseConfig(
        mode="realistic" if realistic else "ideal",
        loop_loss_per_trip=float(rng.uniform(0.0, 0.15)),
        phase_jitter_deg_per_trip=float(rng.uniform(0.0, 12.0)),
        detection_efficiency=float(rng.uniform(0.7, 1.0)))
    # exact 0, 1/2 and 1 hit the branch and storage corners of bin_coupling
    bins = tuple(BinSetting(
        T=float(rng.choice((0.0, 0.5, 1.0)) if rng.random() < 0.3
                else rng.uniform(0.0, 1.0)),
        theta_deg=float(rng.uniform(0.0, 360.0)),
        source=str(rng.choice(("squeezer", "squeezer", "vacuum", "blocked"))))
        for _ in range(n + 1))
    return ControlSchedule(bins=bins, noise=noise)


def final_windowed_state(schedule, source, window):
    last = None
    for record in run_loop(schedule, source, window=window):
        last = record
    return last.state


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------


def test_epr_schedule_reaches_two_mode_squeezed_value():
    state = run_unrolled(compile_target(TargetState.epr()), SOURCE)
    assert state.num_modes == 2
    assert epr_value(state) == pytest.approx(10.0 ** -0.5, abs=1e-12)


def test_all_vacuum_source_gives_vacuum_outputs():
    sched = compile_target(TargetState.ghz(3))
    bins = tuple(BinSetting(T=b.T, theta_deg=b.theta_deg, source="vacuum")
                 for b in sched.bins)
    state = run_unrolled(ControlSchedule(bins=bins), SOURCE)
    assert np.allclose(state.cov, 0.25 * np.eye(6), atol=1e-12)


def test_linear3_matches_closed_form():
    circuit = run_unrolled(compile_target(TargetState.linear_cluster(3)), SOURCE)
    direct = linear_cluster_oracle_cov(3, SOURCE)
    assert np.max(np.abs(circuit.cov - direct.cov)) < 1e-10


def test_unrolled_rejects_oversized_schedules():
    sched = compile_target(TargetState.infinite_cluster(30))
    with pytest.raises(ValueError, match="dense reference"):
        run_unrolled(sched, SOURCE)


# ---------------------------------------------------------------------------
# streaming loop
# ---------------------------------------------------------------------------


def test_loop_matches_chain_on_random_schedules():
    rng = np.random.default_rng(404)
    for trial in range(40):
        sched = random_schedule(rng, realistic=bool(trial % 2))
        n = sched.num_outputs
        dense = run_unrolled(sched, SOURCE)
        windowed = final_windowed_state(sched, SOURCE, window=n + 2)
        assert np.max(np.abs(dense.cov - windowed.cov)) < 1e-10
        # a window of 3 shifts out old modes; each record must match the
        # dense chain's marginal over the same modes
        for record in run_loop(sched, SOURCE, window=3):
            part = marginalize(dense, [m - 1 for m in record.window_modes])
            assert np.max(np.abs(part.cov - record.state.cov)) < 1e-10


def test_window_size_does_not_change_results():
    sched = compile_target(TargetState.linear_cluster(9))
    specs = nullifiers_for(TargetState.linear_cluster(9))
    reference = stream_nullifier_variances(sched, SOURCE, specs, window=3)
    for window in (4, 6, 9):
        values = stream_nullifier_variances(sched, SOURCE, specs, window=window)
        assert np.max(np.abs(np.array(values) - np.array(reference))) < 1e-12


def test_records_cover_sliding_window():
    sched = compile_target(TargetState.infinite_cluster(12))
    indices = []
    for record in run_loop(sched, SOURCE, window=4):
        indices.append(record.index)
        assert record.window_modes[-1] == record.index
        assert len(record.window_modes) <= 4
        assert record.state.num_modes == len(record.window_modes)
    assert indices == list(range(1, 13))


def test_storage_bins_preserve_loop_mode_exactly():
    bins = [BinSetting(T=1.0, theta_deg=0.0)]
    bins += [BinSetting(T=0.0, theta_deg=0.0, source="blocked")] * 4
    bins += [BinSetting(T=1.0, theta_deg=0.0)]
    sched = ControlSchedule(bins=tuple(bins))
    state = run_unrolled(sched, SOURCE)
    released = state.cov[-2:, -2:]
    assert np.allclose(released, squeezed_vacuum(SOURCE).cov, atol=1e-12)


def test_window_must_cover_nullifier_support():
    sched = compile_target(TargetState.epr())
    with pytest.raises(ValueError, match="window"):
        next(run_loop(sched, SOURCE, window=2))


def test_sampling_plan_length_checked():
    sched = compile_target(TargetState.epr())
    plan = MeasurementPlan((0.0,), shots=10)
    with pytest.raises(ValueError, match="plan"):
        next(run_loop(sched, SOURCE, sampling=plan))


def test_sampled_epr_inseparability_within_three_stderr():
    sched = compile_target(TargetState.epr())
    state = run_unrolled(sched, SOURCE)
    crit = nullifiers_for(TargetState.epr())[0]
    total_sampled, total_se = 0.0, 0.0
    for spec, seed in ((crit.first, 21), (crit.second, 22)):
        plan = MeasurementPlan(
            tuple(0.0 if q == "x" else 90.0 for _, q, _ in spec.terms), shots=5000)
        est = estimate(run_loop_sampled(sched, SOURCE, plan, seed=seed), spec)
        total_sampled += est.value
        total_se = np.hypot(total_se, est.stderr)
    assert total_sampled == pytest.approx(epr_value(state), abs=3 * total_se)


def test_sampled_moments_match_analytic_in_realistic_mode():
    # the conditioned sampler must reproduce the windowed analytic second
    # moments exactly (up to sampling error) despite loss and dephasing
    noise = NoiseConfig(mode="realistic", detection_efficiency=0.9)
    sched = compile_target(TargetState.linear_cluster(3), noise=noise)
    state = run_unrolled(sched, SOURCE)
    crits = nullifiers_for(TargetState.linear_cluster(3))
    spec = crits[0].first  # p1 - x2
    plan = MeasurementPlan((90.0, 0.0, 90.0), shots=40_000)
    est = estimate(run_loop_sampled(sched, SOURCE, plan, seed=5), spec)
    assert est.value == pytest.approx(variance_analytic(state, spec),
                                      abs=3 * est.stderr)


def per_shot_jitter_samples(schedule, source, plan, seed):
    """Oracle for the averaged dephasing: explicit random phases per shot.

    Each shot draws one phase per round trip on top of the schedule's
    thetas, then streams a jitter-free copy of the schedule (same loss and
    detection efficiency) for one shot with the same generator, so every
    shot draws its phases before its homodyne outcomes.
    """
    rng = np.random.default_rng(seed)
    sigma = schedule.noise.phase_jitter_deg_per_trip
    noise = dataclasses.replace(schedule.noise, phase_jitter_deg_per_trip=0.0)
    values = np.empty((plan.shots, schedule.num_outputs))
    for shot in range(plan.shots):
        drawn = rng.normal(0.0, sigma, len(schedule.bins))
        bins = tuple(dataclasses.replace(b, theta_deg=b.theta_deg + d)
                     for b, d in zip(schedule.bins, drawn))
        jitter_free = dataclasses.replace(schedule, bins=bins, noise=noise)
        values[shot] = np.concatenate(list(engine._sample_stream(
            jitter_free, source, plan.angles_deg, 1, rng)))
    return SampleSet(plan, values)


def test_per_shot_jitter_agrees_with_averaged_channel():
    noise = NoiseConfig(mode="realistic")
    sched = compile_target(TargetState.epr(), noise=noise)
    state = run_unrolled(sched, SOURCE)
    crit = nullifiers_for(TargetState.epr())[0]
    plan = MeasurementPlan((0.0, 0.0), shots=4000)
    est = estimate(per_shot_jitter_samples(sched, SOURCE, plan, seed=9), crit.first)
    analytic = variance_analytic(state, crit.first)
    # mixture sampling has heavier variance tails; allow 4 Gaussian stderrs
    assert est.value == pytest.approx(analytic, abs=4 * est.stderr)


def test_sampling_deterministic_under_seed():
    sched = compile_target(TargetState.linear_cluster(3))
    plan = MeasurementPlan((0.0, 90.0, 0.0), shots=50)
    a = run_loop_sampled(sched, SOURCE, plan, seed=7)
    b = run_loop_sampled(sched, SOURCE, plan, seed=7)
    assert np.array_equal(a.values, b.values)


def storage_schedule(noise):
    # T = 0 storage bins, both branches and vacuum/blocked sources
    settings = [(1.0, 90.0, "squeezer"), (0.0, 0.0, "blocked"),
                (0.3, 37.0, "vacuum"), (0.5, 200.0, "squeezer"),
                (0.0, 310.0, "blocked"), (0.8, 123.0, "squeezer"),
                (0.62, 15.0, "squeezer"), (1.0, 0.0, "squeezer")]
    return ControlSchedule(bins=tuple(
        BinSetting(T=t, theta_deg=th, source=src) for t, th, src in settings),
        noise=noise)


def sequential_oracle_draws(schedule, plan, seed):
    """Replay the sampler's per-output normals through dense conditioning."""
    dense = run_unrolled(schedule, SOURCE)
    rng = np.random.default_rng(seed)
    normals = [rng.standard_normal(plan.shots) for _ in plan.angles_deg]
    draws = np.zeros((plan.shots, len(plan.angles_deg)))
    for shot in range(plan.shots):
        state = dense
        for k, phi in enumerate(plan.angles_deg):
            measured = apply_phase(state, 0, -phi)
            draws[shot, k] = (measured.mean[0]
                              + np.sqrt(measured.cov[0, 0]) * normals[k][shot])
            state = homodyne_condition(state, 0, phi, draws[shot, k])
    return draws


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("name", ["linear5", "ghz4", "star4", "storage"])
def test_sampler_equals_sequential_dense_conditioning(name, mode):
    noise = NoiseConfig(mode=mode)
    targets = {"linear5": TargetState.linear_cluster(5),
               "ghz4": TargetState.ghz(4), "star4": TargetState.star_cluster(4)}
    sched = (storage_schedule(noise) if name == "storage"
             else compile_target(targets[name], noise=noise))
    rng = np.random.default_rng(len(name))
    angles = [float(a) for a in rng.uniform(0.0, 360.0, sched.num_outputs)]
    angles[:2] = [0.0, 90.0]
    plan = MeasurementPlan(tuple(angles), shots=4)
    sampled = run_loop_sampled(sched, SOURCE, plan, seed=61)
    oracle = sequential_oracle_draws(sched, plan, seed=61)
    assert np.max(np.abs(sampled.values - oracle)) < 1e-12


def test_detection_efficiency_interpolates_toward_vacuum():
    for eta in (1.0, 0.82, 0.5):
        noise = NoiseConfig(mode="realistic", loop_loss_per_trip=0.0,
                            phase_jitter_deg_per_trip=0.0,
                            detection_efficiency=eta)
        sched = compile_target(TargetState.epr(), noise=noise)
        value = epr_value(run_unrolled(sched, SOURCE))
        expected = eta * 10.0 ** -0.5 + (1.0 - eta) * 1.0
        assert value == pytest.approx(expected, abs=1e-12)


FLIPPED_BRANCH_SCHEDULE = ControlSchedule(bins=(
    BinSetting(T=1.0, theta_deg=90.0),
    BinSetting(T=0.3, theta_deg=180.0),
    BinSetting(T=1.0, theta_deg=0.0)))


def test_storage_coupling_is_the_flipped_branch_limit():
    # T = 0 sits at delta = 135 degrees, on the flipped branch
    limit = engine.bin_coupling(1e-12)
    assert np.max(np.abs(engine.bin_coupling(0.0) - limit)) <= 1e-6


def test_fault_injection_breaks_loop_chain_agreement():
    sched = FLIPPED_BRANCH_SCHEDULE
    dense = run_unrolled(sched, SOURCE)
    with inject_fault("bs-sign"):
        broken = final_windowed_state(sched, SOURCE, window=4)
    assert np.max(np.abs(dense.cov - broken.cov)) > 1e-3
    fixed = final_windowed_state(sched, SOURCE, window=4)
    assert np.max(np.abs(dense.cov - fixed.cov)) < 1e-12


def test_fault_injection_breaks_sampler_agreement():
    sched = FLIPPED_BRANCH_SCHEDULE
    plan = MeasurementPlan((0.0, 0.0), shots=4)
    oracle = sequential_oracle_draws(sched, plan, seed=61)
    with inject_fault("bs-sign"):
        broken = run_loop_sampled(sched, SOURCE, plan, seed=61)
    assert np.max(np.abs(broken.values - oracle)) > 1e-3
    fixed = run_loop_sampled(sched, SOURCE, plan, seed=61)
    assert np.max(np.abs(fixed.values - oracle)) < 1e-12


def test_unknown_fault_name_is_refused():
    # a misspelt fault would otherwise corrupt nothing and let selfcheck pass
    with pytest.raises(ValueError, match=r"unknown fault 'bs_sign'.*\('bs-sign',\)"):
        with inject_fault("bs_sign"):
            pass
    assert not engine._ACTIVE_FAULTS


# ---------------------------------------------------------------------------
# fused bin maps
# ---------------------------------------------------------------------------

MAP_CORNERS = (0.0, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0)


def random_two_mode_state(rng):
    """A correlated physical state: two squeezers, phases, a splitter, loss."""
    levels = rng.uniform(0.0, 10.0, 2)
    state = tensor(*(squeezed_vacuum(SqueezerSpec(db, db + 3.0)) for db in levels))
    state = apply_phase(state, 0, rng.uniform(0.0, 360.0))
    state = apply_beamsplitter(state, 0, 1, rng.uniform(0.0, 1.0))
    state = apply_phase(state, 1, rng.uniform(0.0, 360.0))
    return apply_loss(state, 0, rng.uniform(0.5, 1.0))


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_fused_map_equals_bin_step(mode, fault):
    rng = np.random.default_rng([fault, mode == "realistic"])
    channels = engine._channels(NoiseConfig(mode=mode))
    dephasing = engine._dephasing_after_map(channels[2])
    with inject_fault("bs-sign") if fault else contextlib.nullcontext():
        for trial in range(60):
            t = (MAP_CORNERS[trial % 5] if trial < 30
                 else float(rng.uniform(0.0, 1.0)))
            theta = float(rng.uniform(0.0, 360.0))
            kind = ("squeezer", "vacuum", "blocked")[trial % 3]
            squeeze = float(rng.uniform(0.0, 10.0))
            source = SqueezerSpec(squeeze, squeeze + float(rng.uniform(0.0, 3.0)))
            lin, noise = engine._bin_maps(source, channels, fault)(t, theta, kind)
            coupling = engine.bin_coupling(t, fault)
            variances = engine._pulse_variances(kind, source)

            state = random_two_mode_state(rng)
            cov, mean = state.cov.copy(), np.zeros(4)
            engine._load_pulse(cov, mean, 1, variances)
            engine._bin_step(cov, mean, 0, 1, coupling, theta, channels)
            fused = state.cov.copy()
            engine._map_loop_mode(fused, 0, (lin, noise), dephasing)
            assert np.max(np.abs(fused - cov)) < 1e-14

            loop_mean = rng.normal(0.0, 2.0, 2)
            moved = np.concatenate([loop_mean, rng.normal(0.0, 2.0, 2)])
            engine._load_pulse(state.cov.copy(), moved, 1, variances)
            engine._bin_step(state.cov.copy(), moved, 0, 1, coupling, theta,
                             channels)
            assert np.max(np.abs(lin @ loop_mean - moved)) < 1e-14


def test_bin_step_runs_once_per_distinct_setting(monkeypatch):
    # a return to per-bin channel calls would call it once per bin (1009)
    sched = compile_target(TargetState.linear_cluster(1008),
                           noise=NoiseConfig(mode="realistic",
                                             detection_efficiency=0.911))
    distinct = len({(b.T, b.theta_deg, b.source) for b in sched.bins})
    assert distinct < len(sched.bins) // 10
    calls = []
    real = engine._bin_step

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_bin_step", counted)
    for _ in run_loop(sched, SOURCE, window=3):
        pass
    assert 0 < len(calls) <= distinct
    calls.clear()
    plan = MeasurementPlan((0.0, 90.0) * (sched.num_outputs // 2), shots=20)
    run_loop_sampled(sched, SOURCE, plan, seed=3)
    assert 0 < len(calls) <= distinct


def test_sampled_conditioning_replays_once_the_stream_repeats(monkeypatch):
    # without the memo the kernel would run once per bin (1009 per plan)
    target = TargetState.linear_cluster(1008)
    sched = compile_target(target, noise=NoiseConfig(
        mode="realistic", detection_efficiency=0.911))
    calls = []
    real = engine._conditioned_bin

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_conditioned_bin", counted)
    plans = verifier.plan_measurements(nullifiers_for(target),
                                       sched.num_outputs, shots=20)
    assert len(plans) == 2
    for plan, _ in plans:
        calls.clear()
        run_loop_sampled(sched, SOURCE, plan, seed=3)
        assert 0 < len(calls) <= 100


@st.composite
def loop_schedules(draw):
    """Random schedules with storage bins, branch corners and 0-20 dB sources."""
    n = draw(st.integers(2, 6))
    bins = tuple(BinSetting(
        T=draw(st.one_of(st.sampled_from(MAP_CORNERS), st.floats(0.0, 1.0))),
        theta_deg=draw(st.floats(0.0, 360.0)),
        source=draw(st.sampled_from(("squeezer", "vacuum", "blocked"))))
        for _ in range(n + 1))
    noise = NoiseConfig(
        mode=draw(st.sampled_from(("ideal", "realistic"))),
        loop_loss_per_trip=draw(st.floats(0.0, 0.15)),
        phase_jitter_deg_per_trip=draw(st.floats(0.0, 12.0)),
        detection_efficiency=draw(st.floats(0.7, 1.0)))
    squeeze = draw(st.floats(0.0, 20.0))
    source = SqueezerSpec(squeeze, squeeze + draw(st.floats(0.0, 6.0)))
    return ControlSchedule(bins=bins, noise=noise), source


@settings(max_examples=60, deadline=None)
@given(loop_schedules())
def test_loop_records_equal_dense_marginals(case):
    sched, source = case
    dense = run_unrolled(sched, source)
    for record in run_loop(sched, source, window=3):
        part = marginalize(dense, [m - 1 for m in record.window_modes])
        assert np.max(np.abs(part.cov - record.state.cov)) < 1e-10


def min_uncertainty_eigenvalue(cov):
    """Smallest eigenvalue of V + (i/4) Omega; >= 0 for a physical state."""
    sym = 0.5 * (cov + cov.T)
    omega = np.kron(np.eye(len(cov) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return np.linalg.eigvalsh(sym + 0.25j * omega)[0]


@settings(max_examples=60, deadline=None)
@given(loop_schedules())
def test_window_covariances_are_physical(case):
    # the verifier reads these blocks without validating them
    sched, source = case
    last_read = range(2, sched.num_outputs + 3)  # a 3-mode window
    for _, _, cov in engine._window_covariances(sched, source, last_read):
        assert np.isfinite(cov).all()
        floor = -1e-12 * max(1.0, np.linalg.norm(cov, 2))
        assert min_uncertainty_eigenvalue(cov) >= floor


@settings(max_examples=60, deadline=None)
@given(loop_schedules(), st.data())
def test_held_modes_follow_last_read(case, data):
    # each output is held from its own record until its last read; the
    # blocks are marginals of the stream that holds every output
    sched, source = case
    n = sched.num_outputs
    last_read = [0] + data.draw(st.lists(st.integers(0, n + 1),
                                         min_size=n, max_size=n))
    full = {index: cov.copy() for index, _, cov in
            engine._window_covariances(sched, source, range(n - 1, 2 * n))}
    for index, modes, cov in engine._window_covariances(sched, source,
                                                        last_read):
        assert modes == [m for m in range(1, index + 1)
                         if m == index or last_read[m] >= index]
        cols = [2 * (m - 1) + q for m in modes for q in (0, 1)]
        assert np.max(np.abs(cov - full[index][np.ix_(cols, cols)])) < 1e-12


# ---------------------------------------------------------------------------
# stationary state of the endless chain
# ---------------------------------------------------------------------------


def stationary_record(schedule, source):
    """The window-3 record that the endless chain's repeating bin settles on.

    After its first bin the compiled chain repeats one setting, so the held
    block W (two held modes and the loop mode, 6x6) follows one affine map
    W -> A(W) + B: map the loop mode through the bin, then drop the oldest
    mode.  A is built column by column from the engine's own steps, and its
    fixed point, mapped through the bin once more, is the stationary record
    of three modes.  Returns that record and A's spectral radius.
    """
    repeating = {(b.T, b.theta_deg, b.source) for b in schedule.bins[1:]}
    assert len(repeating) == 1  # phi only picks the basis when sampling
    maps, dephasing = engine._schedule_maps(schedule, source)
    bin_map = maps(*repeating.pop())

    def mapped(block):
        cov = np.zeros((8, 8))
        cov[:6, :6] = block
        engine._map_loop_mode(cov, 2, bin_map, dephasing)
        return cov

    def step(block):
        cov = mapped(block)
        engine._drop_mode(cov, 8, 0)
        return cov[:6, :6].ravel()

    offset = step(np.zeros((6, 6)))
    linear = np.column_stack([step(unit.reshape(6, 6)) - offset
                              for unit in np.eye(36)])
    fixed = np.linalg.solve(np.eye(36) - linear, offset)
    radius = float(np.max(np.abs(np.linalg.eigvals(linear))))
    return mapped(fixed.reshape(6, 6))[:6, :6], radius


@pytest.mark.parametrize("noise", [
    NoiseConfig(mode="ideal"),
    NoiseConfig(mode="realistic", detection_efficiency=0.911),
], ids=["ideal", "realistic"])
def test_endless_chain_settles_on_its_stationary_record(noise):
    schedule = compile_target(TargetState.infinite_cluster(400), noise)
    stationary, radius = stationary_record(schedule, SOURCE)
    assert radius < 1.0
    worst = max(float(np.max(np.abs(record.state.cov - stationary)))
                for record in run_loop(schedule, SOURCE, window=3)
                if record.index >= 40)
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# quantum memory
# ---------------------------------------------------------------------------


def test_memory_ideal_storage_is_lossless():
    values = memory_experiment(range(12), SOURCE, NoiseConfig(mode="ideal"))
    for value in values:
        assert value == pytest.approx(10.0 ** -0.5, abs=1e-12)


def test_memory_default_noise_is_monotone_nondecreasing():
    noise = NoiseConfig(mode="realistic")
    values = memory_experiment(range(12), SOURCE, noise)
    assert all(b >= a for a, b in zip(values, values[1:]))


def stored_pair_value(n, noise):
    """The storage program's trips written out with the public channels."""
    eta, sigma = 1.0 - noise.loop_loss_per_trip, noise.phase_jitter_deg_per_trip
    pulse = apply_phase(squeezed_vacuum(SOURCE), 0, 90.0)
    pulse = apply_dephasing(apply_loss(pulse, 0, eta), 0, sigma)  # one trip
    state = apply_beamsplitter(tensor(pulse, squeezed_vacuum(SOURCE)), 0, 1, 0.5)
    state = apply_loss(state, 1, eta ** (n + 1))  # arm 2 makes n + 1 trips
    state = apply_dephasing(state, 1, sigma * np.sqrt(n + 1))
    for arm in (0, 1):
        state = apply_loss(state, arm, noise.detection_efficiency)
    return epr_value(state)


def test_memory_equals_channel_composition():
    # the stream must give each arm the trips the storage program plays
    for noise in (NoiseConfig(mode="realistic"),
                  NoiseConfig(mode="realistic", loop_loss_per_trip=0.03,
                              phase_jitter_deg_per_trip=11.0,
                              detection_efficiency=0.85)):
        values = memory_experiment(range(12), SOURCE, noise)
        for n, value in enumerate(values):
            assert value == pytest.approx(stored_pair_value(n, noise), abs=1e-12)


def test_memory_sweep_equals_one_run_per_delay():
    noise = NoiseConfig(mode="realistic")
    sweep = memory_experiment(range(12), SOURCE, noise)
    for n, value in enumerate(sweep):
        assert abs(memory_experiment([n], SOURCE, noise)[0] - value) < 1e-14


def test_memory_equals_dense_storage_schedule():
    noise = NoiseConfig(mode="realistic")
    for n in range(6):
        dense = run_unrolled(compile_storage([n], noise), SOURCE)
        pair = marginalize(dense, [0, n + 1])  # outputs 1 and n + 2
        assert memory_experiment([n], SOURCE, noise)[0] == pytest.approx(
            epr_value(pair), abs=1e-12)


@pytest.mark.parametrize("delays", [[], [3, -1]])
def test_memory_rejects_empty_or_negative_delays(delays):
    with pytest.raises(ValueError, match="delay"):
        memory_experiment(delays, SOURCE, NoiseConfig())


def test_memory_rejects_non_integer_delays():
    with pytest.raises(ValueError, match="delay 2.0"):
        memory_experiment([2.0], SOURCE, NoiseConfig())


def test_memory_rejects_non_finite_and_negative_variances(monkeypatch):
    def corrupted(value):
        def stream(schedule, source, last_read):
            for index in range(1, schedule.num_outputs + 1):
                modes = [m for m in range(1, index + 1)
                         if m == index or last_read[m] >= index]
                yield index, modes, np.full((2 * len(modes),) * 2, value)
        return stream

    for value in (np.nan, -1.0):
        monkeypatch.setattr(verifier, "_window_covariances", corrupted(value))
        with pytest.raises(ValueError, match="negative or non-finite"), \
                np.errstate(invalid="ignore"):
            memory_experiment(range(1, 4), SOURCE, NoiseConfig(mode="realistic"))


def test_memory_stream_holds_only_the_stored_pair(monkeypatch):
    noise = NoiseConfig(mode="realistic")
    held = []
    stream = verifier._window_covariances

    def spy(schedule, source, last_read):
        for index, modes, cov in stream(schedule, source, last_read):
            held.append(len(modes))
            yield index, modes, cov

    monkeypatch.setattr(verifier, "_window_covariances", spy)
    sweep = memory_experiment(range(1, 201), SOURCE, noise)
    assert max(held) == 2
    short = memory_experiment(range(1, 12), SOURCE, noise)
    assert np.max(np.abs(np.array(sweep[:11]) - short)) < 1e-12

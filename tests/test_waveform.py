import tracemalloc

import numpy as np
import pytest

from loopsynth.gaussian import VACUUM_VARIANCE, MeasurementPlan, SampleSet
from loopsynth.waveform import (_CHUNK, TraceFrame, WaveformConfig,
                                extract_quadratures, frame_from_text,
                                frame_to_text, mode_function,
                                orthogonality_matrix, shot_noise_frames,
                                synthesize_frames)


def test_mode_function_vanishes_at_center():
    # grid aligned with the mode center so a sample sits exactly on it
    config = WaveformConfig(t0_ns=24.0)
    f = mode_function(config, 1)
    center_index = int(round(24.0 / config.dt_ns))
    assert f[center_index] == 0.0


def test_mode_function_is_normalized():
    config = WaveformConfig()
    dt_s = config.dt_ns * 1e-9
    for k in (1, 3, 7):
        f = mode_function(config, k)
        assert np.sum(f * f) * dt_s == pytest.approx(1.0, abs=1e-12)


def test_mode_function_odd_about_center():
    config = WaveformConfig(t0_ns=24.0)
    f = mode_function(config, 1)
    center = int(round(24.0 / config.dt_ns))
    for off in range(1, 20):
        assert f[center + off] == pytest.approx(-f[center - off], rel=1e-12)


def test_neighboring_modes_have_disjoint_support():
    # 66 ns spacing versus a 46 ns window: zero overlap exactly
    config = WaveformConfig()
    n = config.frame_length(2)
    f1 = mode_function(config, 1, n)
    f2 = mode_function(config, 2, n)
    assert np.dot(f1, f2) == 0.0


def test_orthogonality_matrix_is_identity_at_defaults():
    gram = orthogonality_matrix(WaveformConfig(), 15)
    assert np.max(np.abs(gram - np.eye(15))) < 1e-9


def test_orthogonality_diagonal_always_one():
    gram = orthogonality_matrix(WaveformConfig(tau_ns=40.0), 6)
    assert np.allclose(np.diag(gram), 1.0, atol=1e-9)


def test_overlapping_modes_reported_not_raised():
    gram = orthogonality_matrix(WaveformConfig(tau_ns=40.0), 6)
    off_diag = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off_diag)) > 1e-6


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError, match="8 samples"):
        WaveformConfig(sample_rate_hz=1e8)
    with pytest.raises(ValueError, match="in-window"):
        mode_function(WaveformConfig(), 2, num_samples=20)


@pytest.mark.parametrize("field, value", [
    ("sample_rate_hz", float("nan")), ("sample_rate_hz", 0.0),
    ("frame_t_ns", float("inf")), ("frame_t_ns", -46.0),
    ("gamma_per_s", float("inf")), ("gamma_per_s", 0.0),
    ("tau_ns", 0.0), ("tau_ns", float("nan")),
])
def test_config_rejects_non_finite_or_non_positive_timing(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        WaveformConfig(**{field: value})


@pytest.mark.parametrize("t0_ns", [float("nan"), float("inf")])
def test_config_rejects_non_finite_first_center(t0_ns):
    with pytest.raises(ValueError, match="t0_ns must be finite"):
        WaveformConfig(t0_ns=t0_ns)


def test_noiseless_round_trip_is_identity():
    config = WaveformConfig()
    rng = np.random.default_rng(31)
    plan = MeasurementPlan((0.0,) * 5, shots=40)
    quads = SampleSet(plan, rng.normal(0.0, 0.6, size=(40, 5)))
    frames = synthesize_frames(quads, config, noise=False)
    back = extract_quadratures(frames, config, num_modes=5, plan=plan)
    assert np.max(np.abs(back.values - quads.values)) < 1e-10


def test_known_quadratures_recovered_exactly():
    config = WaveformConfig()
    plan = MeasurementPlan((0.0, 0.0, 0.0), shots=2)
    quads = SampleSet(plan, np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]))
    frames = synthesize_frames(quads, config, noise=False)
    back = extract_quadratures(frames, config, num_modes=3, plan=plan)
    assert np.allclose(back.values, quads.values, atol=1e-12)


def test_zero_quadratures_with_noise_floor_extract_to_zero():
    # the synthesized floor lives on the orthogonal complement
    config = WaveformConfig()
    plan = MeasurementPlan((0.0, 0.0), shots=30)
    quads = SampleSet(plan, np.zeros((30, 2)))
    frames = synthesize_frames(quads, config, seed=8, noise=True)
    back = extract_quadratures(frames, config, num_modes=2, plan=plan)
    assert np.max(np.abs(back.values)) < 1e-8
    assert max(np.max(np.abs(f.samples)) for f in frames) > 1.0  # floor present


def test_shot_noise_projection_has_vacuum_variance():
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=3, num_frames=5000, seed=12)
    back = extract_quadratures(frames, config, num_modes=3)
    se = 0.25 * np.sqrt(2.0 / (len(frames) - 1))
    for col in range(3):
        var = np.var(back.values[:, col], ddof=1)
        assert var == pytest.approx(0.25, abs=3 * se)


def test_shot_noise_cross_mode_correlations_negligible():
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=3, num_frames=5000, seed=13)
    back = extract_quadratures(frames, config, num_modes=3)
    cov = np.cov(back.values.T, ddof=1)
    se = 0.25 / np.sqrt(len(frames))
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(cov[i, j]) < 3 * se


def test_extraction_infers_mode_count():
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=4, num_frames=3, seed=1)
    back = extract_quadratures(frames, config)
    assert back.values.shape == (3, 4)


def test_frames_too_short_for_requested_mode():
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=2, num_frames=2, seed=2)
    with pytest.raises(ValueError, match="too short"):
        extract_quadratures(frames, config, num_modes=6)


@pytest.mark.parametrize("call, message", [
    (lambda c, f: extract_quadratures(f, c, num_modes=0), "num_modes must be >= 1"),
    (lambda c, f: extract_quadratures(f, c, num_modes=-1), "num_modes must be >= 1"),
    (lambda c, f: shot_noise_frames(c, 0, 3), "num_modes must be >= 1"),
    (lambda c, f: shot_noise_frames(c, -1, 3), "num_modes must be >= 1"),
    (lambda c, f: shot_noise_frames(c, 2, -3), "num_frames must be >= 0"),
], ids=["extract-zero-modes", "extract-negative-modes", "noise-zero-modes",
        "noise-negative-modes", "noise-negative-frames"])
def test_frame_counts_below_their_minimum_are_refused_by_name(call, message):
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=2, num_frames=2, seed=2)
    with pytest.raises(ValueError, match=message):
        call(config, frames)


@pytest.mark.parametrize("call, message", [
    (lambda c, f: extract_quadratures(f, c, num_modes=1.0),
     "num_modes must be an integer, got 1.0"),
    (lambda c, f: shot_noise_frames(c, 2.5, 2),
     "num_modes must be an integer, got 2.5"),
    (lambda c, f: shot_noise_frames(c, 2, 2.5),
     "num_frames must be an integer, got 2.5"),
], ids=["extract-float-modes", "noise-float-modes", "noise-float-frames"])
def test_non_integer_frame_counts_are_refused_by_name(call, message):
    config = WaveformConfig()
    frames = shot_noise_frames(config, num_modes=2, num_frames=2, seed=2)
    with pytest.raises(ValueError, match=message):
        call(config, frames)


def test_frame_text_round_trip():
    frame = TraceFrame(np.array([0.125, -0.5, 3.0]), 10.0, 0.8)
    back = frame_from_text(frame_to_text(frame))
    assert np.array_equal(back.samples, frame.samples)
    assert back.start_ns == frame.start_ns
    assert back.dt_ns == pytest.approx(frame.dt_ns, abs=1e-12)


def test_frame_text_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        frame_from_text("0.0 1.0\n0.8 oops\n")


def test_extraction_refuses_frames_off_the_config_spacing():
    # 0.8 ns frames read on a 1.6 ns grid would come back silently wrong
    plan = MeasurementPlan((0.0, 0.0), shots=3)
    quads = SampleSet(plan, np.ones((3, 2)))
    frames = synthesize_frames(quads, WaveformConfig(), noise=False)
    with pytest.raises(ValueError, match=r"frame 0: sample spacing 0\.8 ns"):
        extract_quadratures(frames, WaveformConfig(sample_rate_hz=0.625e9))
    odd = TraceFrame(frames[2].samples, 0.0, 0.8 * (1 + 1e-8))
    with pytest.raises(ValueError, match="frame 2: sample spacing"):
        extract_quadratures(frames[:2] + [odd], WaveformConfig())


def test_extraction_accepts_round_off_in_the_spacing():
    config = WaveformConfig()
    plan = MeasurementPlan((0.0, 0.0), shots=2)
    quads = SampleSet(plan, np.array([[1.0, -2.0], [0.5, 3.0]]))
    frames = synthesize_frames(quads, config, noise=False)
    near = [TraceFrame(f.samples, 0.0, config.dt_ns * (1 + 1e-12)) for f in frames]
    back = extract_quadratures(near, config, num_modes=2, plan=plan)
    assert np.array_equal(back.values,
                          extract_quadratures(frames, config, 2, plan).values)


def test_frames_read_from_text_extract_like_the_originals():
    # the grid's origin is each frame's first sample, wherever it starts
    config = WaveformConfig()
    plan = MeasurementPlan((0.0,) * 3, shots=4)
    quads = SampleSet(plan, np.random.default_rng(5).normal(size=(4, 3)))
    frames = synthesize_frames(quads, config, seed=6)
    shifted = [frame_from_text(frame_to_text(TraceFrame(f.samples, 10.0, f.dt_ns)))
               for f in frames]
    assert all(f.start_ns == 10.0 for f in shifted)
    back = extract_quadratures(shifted, config, num_modes=3, plan=plan)
    assert np.array_equal(back.values,
                          extract_quadratures(frames, config, 3, plan).values)


def test_frame_text_rejects_uneven_time_steps():
    with pytest.raises(ValueError, match=r"line 3: time step 4\.2 ns differs"):
        frame_from_text("0.0 1.0\n0.8 2.0\n5.0 3.0\n5.8 4.0\n")
    # the line number counts comments and blank lines too
    with pytest.raises(ValueError, match="line 5: time step"):
        frame_from_text("# t s\n0.0 1.0\n0.8 2.0\n\n1.7 3.0\n")
    with pytest.raises(ValueError, match="line 2: time must be finite"):
        frame_from_text("0.0 1.0\nnan 2.0\nnan 3.0\n")
    frame = frame_from_text("0.0 1.0\n0.8 2.0\n1.6 3.0\n2.4000001 4.0\n")
    assert frame.dt_ns == 0.8


@pytest.mark.parametrize("build, message", [
    (lambda: TraceFrame(np.ones(3), float("nan"), 0.8), "start_ns must be finite"),
    (lambda: TraceFrame(np.ones(3), float("-inf"), 0.8), "start_ns must be finite"),
    (lambda: TraceFrame(np.ones(3), 0.0, float("nan")), "dt_ns must be finite"),
    (lambda: TraceFrame(np.ones(3), 0.0, float("inf")), "dt_ns must be finite"),
    (lambda: TraceFrame(np.ones(3), 0.0, 0.0), "dt_ns must be finite and positive"),
    (lambda: TraceFrame(np.ones(3), 0.0, -0.8), "dt_ns must be finite and positive"),
    (lambda: frame_from_text("0.8 1\n0.0 2\n-0.8 3\n"),
     r"dt_ns must be finite and positive, got -0\.8"),
    (lambda: frame_from_text("0.0 1\n0.0 2\n"), "dt_ns must be finite and positive"),
], ids=["start-nan", "start-neginf", "dt-nan", "dt-inf", "dt-zero", "dt-negative",
        "text-decreasing", "text-repeated"])
def test_trace_frame_refuses_bad_timing(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _per_shot_frames(quadratures, config, rng, noise):
    """Reference oracle: one draw, one projection and one frame per shot."""
    shots, num_modes = quadratures.values.shape
    n = config.frame_length(num_modes)
    dt_s = config.dt_ns * 1e-9
    funcs = np.stack([mode_function(config, k, n) for k in range(1, num_modes + 1)])
    sigma = np.sqrt(VACUUM_VARIANCE / dt_s)
    frames = []
    for shot in range(shots):
        trace = quadratures.values[shot] @ funcs
        if noise:
            floor = sigma * rng.standard_normal(n)
            floor -= (funcs @ floor * dt_s) @ funcs
            trace = trace + floor
        frames.append(trace)
    return np.array(frames)


def _per_frame_projection(frames, config, num_modes):
    """Reference oracle: q_k = sum f_k s dt, one frame at a time."""
    n = frames[0].samples.size
    funcs = np.stack([mode_function(config, k, n) for k in range(1, num_modes + 1)])
    return np.stack([funcs @ f.samples * (config.dt_ns * 1e-9) for f in frames])


_BLOCK_EDGES = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


@pytest.mark.parametrize("shots", _BLOCK_EDGES)
@pytest.mark.parametrize("noise", [False, True])
def test_block_synthesis_matches_the_per_shot_loop(shots, noise):
    shots = max(shots, 2)  # a MeasurementPlan takes at least two shots
    config = WaveformConfig()
    plan = MeasurementPlan((0.0, 90.0) * 4, shots=shots)
    quads = SampleSet(plan, np.random.default_rng(shots).normal(0, 0.7, (shots, 8)))
    rng, oracle_rng = np.random.default_rng(40), np.random.default_rng(40)
    frames = synthesize_frames(quads, config, seed=rng, noise=noise)
    expected = _per_shot_frames(quads, config, oracle_rng, noise)
    got = np.stack([f.samples for f in frames])
    if noise:
        # the floor's projection is one gemm per block instead of one gemv
        # per shot, so it may differ at round-off
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    else:
        assert np.array_equal(got, expected)
    assert rng.random() == oracle_rng.random()
    back = extract_quadratures(frames, config, num_modes=8, plan=plan)
    assert np.max(np.abs(back.values - _per_frame_projection(frames, config, 8))) < 1e-14


@pytest.mark.parametrize("num_frames", _BLOCK_EDGES)
def test_block_shot_noise_matches_the_per_frame_draws(num_frames):
    config = WaveformConfig()
    rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
    frames = shot_noise_frames(config, num_modes=3, num_frames=num_frames, seed=rng)
    n = config.frame_length(3)
    sigma = np.sqrt(VACUUM_VARIANCE / (config.dt_ns * 1e-9))
    assert len(frames) == num_frames
    for frame in frames:
        assert np.array_equal(frame.samples, sigma * oracle_rng.standard_normal(n))
    assert rng.random() == oracle_rng.random()


def test_synthesis_memory_stays_near_the_frames_own_bytes():
    # one whole (shots, n) temporary would double the peak
    config = WaveformConfig()
    shots = 5000
    quads = SampleSet(MeasurementPlan((0.0,) * 8, shots=shots),
                      np.random.default_rng(3).normal(size=(shots, 8)))
    tracemalloc.start()
    try:
        frames = synthesize_frames(quads, config, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames) == shots
    assert peak <= 1.15 * shots * config.frame_length(8) * 8


def test_trace_frame_copies_a_writable_array():
    source = np.array([0.5, -1.0, 2.0])
    frame = TraceFrame(source, 0.0, 0.8)
    source[0] = 7.0
    assert np.array_equal(frame.samples, [0.5, -1.0, 2.0])
    assert not frame.samples.flags.writeable


def test_trace_frame_adopts_a_frozen_view():
    block = np.random.default_rng(0).normal(size=(3, 4))
    block.setflags(write=False)
    frame = TraceFrame(block[1], 0.0, 0.8)
    assert np.shares_memory(frame.samples, block)
    # a read-only view of a writable array could still change: copied
    writable = np.arange(4.0)
    view = writable[:]
    view.setflags(write=False)
    assert not np.shares_memory(TraceFrame(view, 0.0, 0.8).samples, writable)


def test_synthesized_frames_are_read_only():
    config = WaveformConfig()
    plan = MeasurementPlan((0.0, 0.0), shots=_CHUNK + 3)
    quads = SampleSet(plan, np.ones((_CHUNK + 3, 2)))
    for noise in (False, True):
        for frame in synthesize_frames(quads, config, seed=5, noise=noise):
            assert not frame.samples.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frame.samples[0] = 1.0


def _frozen_copy(array):
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


@pytest.mark.parametrize("samples", [
    np.array([1.0, np.nan, 2.0]), np.array([1.0, np.inf]),
    _frozen_copy([1.0, -np.inf]), _frozen_copy([np.nan]),
    np.ones((2, 3)), _frozen_copy(np.ones((2, 3))), np.float64(1.0),
], ids=["nan", "inf", "frozen-neginf", "frozen-nan", "2-d", "frozen-2-d", "0-d"])
def test_trace_frame_refuses_non_finite_or_non_1d_samples(samples):
    with pytest.raises(ValueError, match="samples must be a finite 1-D array"):
        TraceFrame(samples, 0.0, 0.8)

import numpy as np
import pytest

from loopsynth.gaussian import MeasurementPlan, SampleSet
from loopsynth.waveform import (TraceFrame, WaveformConfig,
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


def test_frame_text_round_trip():
    frame = TraceFrame(np.array([0.125, -0.5, 3.0]), 10.0, 0.8)
    back = frame_from_text(frame_to_text(frame))
    assert np.array_equal(back.samples, frame.samples)
    assert back.start_ns == frame.start_ns
    assert back.dt_ns == pytest.approx(frame.dt_ns, abs=1e-12)


def test_frame_text_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        frame_from_text("0.0 1.0\n0.8 oops\n")

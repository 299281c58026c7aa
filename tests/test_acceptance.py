"""Acceptance suite: one test per shipping criterion, with a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from loopsynth.compiler import TargetState, compile_target, hardware_check
from loopsynth.engine import (memory_experiment, run_loop, run_loop_sampled,
                              run_unrolled)
from loopsynth.gaussian import SqueezerSpec, vacuum
from loopsynth.schedule import BinSetting, ControlSchedule, NoiseConfig
from loopsynth.verifier import (CALIBRATION_TARGETS, NullifierSpec,
                                calibrate_efficiency, cluster_nullifier,
                                estimate, linear_cluster_oracle_cov,
                                nullifiers_for, plan_measurements,
                                stream_nullifier_variances, variance_analytic)
from loopsynth.waveform import (WaveformConfig, extract_quadratures,
                                orthogonality_matrix, shot_noise_frames,
                                synthesize_frames)
from loopsynth.gaussian import MeasurementPlan, SampleSet

SOURCE = SqueezerSpec(5.0, 8.0)


def report(n, name, detail):
    print(f"ACCEPTANCE {n} ({name}): PASS - {detail}")


def test_01_schedule_fidelity():
    t0 = time.perf_counter()
    expected = {
        "epr": ((1, Fraction(1, 2), 1), (90.0, 0.0)),
        "ghz3": ((1, Fraction(1, 3), Fraction(1, 2), 1), (90.0, 180.0, 0.0)),
        "cluster2": ((1, Fraction(1, 2), 1), (90.0, 90.0)),
        "linear3": ((1, Fraction(2, 3), Fraction(1, 2), 1), (90.0, 90.0, 90.0)),
        "star3": ((1, Fraction(1, 3), Fraction(1, 2), 1), (90.0, 180.0, 90.0)),
    }
    targets = {
        "epr": TargetState.epr(),
        "ghz3": TargetState.ghz(3),
        "cluster2": TargetState.linear_cluster(2),
        "linear3": TargetState.linear_cluster(3),
        "star3": TargetState.star_cluster(3),
    }
    for name, (ts, thetas) in expected.items():
        sched = compile_target(targets[name])
        got_t = sched.transmissivities()
        got_theta = sched.thetas()
        assert got_t == tuple(float(t) for t in ts), name
        assert got_theta[:len(thetas)] == thetas, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "schedule fidelity", f"five reference sequences exact in {elapsed:.3f}s")


def test_02_loop_equals_chain_on_200_random_schedules():
    t0 = time.perf_counter()
    rng = np.random.default_rng(171717)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        noise = NoiseConfig(
            mode="realistic" if trial % 2 else "ideal",
            loop_loss_per_trip=float(rng.uniform(0.0, 0.15)),
            phase_jitter_deg_per_trip=float(rng.uniform(0.0, 12.0)),
            detection_efficiency=float(rng.uniform(0.7, 1.0)))
        bins = tuple(BinSetting(T=float(rng.uniform(0.0, 1.0)),
                                theta_deg=float(rng.uniform(0.0, 360.0)))
                     for _ in range(n + 1))
        sched = ControlSchedule(bins=bins, noise=noise)
        dense = run_unrolled(sched, SOURCE)
        last = None
        for record in run_loop(sched, SOURCE, window=n + 2):
            last = record
        worst = max(worst, float(np.max(np.abs(dense.cov - last.state.cov))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 30.0
    report(2, "loop-chain equivalence",
           f"200 schedules, max deviation {worst:.2e} in {elapsed:.1f}s")


def test_03_closed_form_equivalence():
    worst = 0.0
    for n in range(2, 9):
        circuit = run_unrolled(compile_target(TargetState.linear_cluster(n)), SOURCE)
        direct = linear_cluster_oracle_cov(n, SOURCE)
        worst = max(worst, float(np.max(np.abs(circuit.cov - direct.cov))))
    assert worst < 1e-10
    report(3, "closed-form equivalence", f"n=2..8, max deviation {worst:.2e}")


def test_04_ideal_value_anchors():
    pure = SqueezerSpec(5.0, 5.0)
    state = run_unrolled(compile_target(TargetState.epr()), pure)
    crit = nullifiers_for(TargetState.epr())[0]
    value = variance_analytic(state, crit.first) + variance_analytic(state, crit.second)
    assert value == pytest.approx(10.0 ** -0.5, abs=1e-9)

    assert crit.vacuum_variance() == 1.0
    two_term = NullifierSpec(((1, "p", 1.0), (2, "x", -1.0)))
    three_term = cluster_nullifier(2)
    assert variance_analytic(vacuum(2), two_term) == 0.5
    assert variance_analytic(vacuum(3), three_term) == 0.75
    report(4, "ideal anchors",
           f"pure 5 dB EPR = {value:.10f}, baselines 1.0 / 0.5 / 0.75 exact")


def test_05_reference_value_reproduction_with_calibration():
    calibration = calibrate_efficiency()
    # the EPR row alone pins the efficiency near 0.82 against the ideal value
    assert 0.77 <= calibration.epr_row_efficiency <= 0.87
    assert calibration.max_abs_residual() <= 0.08

    noise = NoiseConfig(mode="realistic",
                        detection_efficiency=calibration.efficiency)
    cache = {}
    stderrs = []
    for name, target, row_index, measured in CALIBRATION_TARGETS:
        if name not in cache:
            sched = compile_target(target, noise=noise)
            criteria = nullifiers_for(target)
            state = run_unrolled(sched, SOURCE)
            groups = plan_measurements(criteria, sched.num_outputs, shots=5000)
            children = np.random.SeedSequence(2024).spawn(len(groups))
            estimates = {}
            for (plan, members), child in zip(groups, children):
                samples = run_loop_sampled(sched, SOURCE, plan, seed=child)
                for spec in members:
                    estimates[spec] = estimate(samples, spec)
            cache[name] = (state, criteria, estimates)
        state, criteria, estimates = cache[name]
        crit = criteria[row_index]
        analytic = variance_analytic(state, crit.first) \
            + variance_analytic(state, crit.second)
        assert abs(analytic - measured) <= 0.08, (name, row_index)
        a, b = estimates[crit.first], estimates[crit.second]
        sampled = a.value + b.value
        stderr = float(np.hypot(a.stderr, b.stderr))
        stderrs.append(stderr)
        assert abs(sampled - analytic) <= 3.0 * stderr, (name, row_index)
        assert 0.003 < stderr < 0.02  # the reference tables quote +-0.01

    report(5, "reference-value reproduction",
           f"eta={calibration.efficiency:.3f} (EPR row {calibration.epr_row_efficiency:.3f}), "
           f"max residual {calibration.max_abs_residual():.3f}, "
           f"stderr range [{min(stderrs):.4f}, {max(stderrs):.4f}]")


def test_06_large_scale_cluster():
    calibration = calibrate_efficiency()
    noise = NoiseConfig(mode="realistic",
                        detection_efficiency=calibration.efficiency)
    target = TargetState.infinite_cluster(1008)
    sched = compile_target(target, noise=noise)
    specs = nullifiers_for(target)

    analytic = stream_nullifier_variances(sched, SOURCE, specs, window=3)
    assert max(analytic) < 0.5

    # sampled certification at 5000 shots: every nullifier sits below 1/2
    # with a 3-stderr margin, and the estimates are unbiased against the
    # analytic values (multiple-comparison guard on the z distribution)
    groups = plan_measurements(specs, sched.num_outputs, shots=5000)
    children = np.random.SeedSequence(60457).spawn(len(groups))
    zs = []
    for (plan, members), child in zip(groups, children):
        samples = run_loop_sampled(sched, SOURCE, plan, seed=child)
        for spec in members:
            result = estimate(samples, spec)
            reference = analytic[specs.index(spec)]
            assert result.value + 3.0 * result.stderr < 0.5, spec.label
            zs.append((result.value - reference) / result.stderr)
    zs = np.abs(np.array(zs))
    assert np.mean(zs <= 3.0) >= 0.99
    assert np.max(zs) < 6.0

    # streaming footprint: 10,000 output modes, bounded live window
    big = compile_target(TargetState.infinite_cluster(10_000), noise=noise)
    t0 = time.perf_counter()
    count, max_window = 0, 0
    for record in run_loop(big, SOURCE, window=8):
        count += 1
        max_window = max(max_window, record.state.num_modes)
    elapsed = time.perf_counter() - t0
    assert count == 10_000
    assert max_window == 8
    assert elapsed < 5.0
    report(6, "large-scale cluster",
           f"1008-mode analytic max {max(analytic):.3f} < 0.5, sampled max |z| "
           f"{np.max(zs):.2f}, 10k-mode stream in {elapsed:.2f}s")


def test_07_memory_sweep_shape():
    noise = NoiseConfig(mode="realistic")  # 7% loss, 7 deg jitter per trip
    values = memory_experiment(range(0, 12), SOURCE, noise)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values[:7])  # n <= 6 stays inseparable
    report(7, "memory sweep",
           f"monotone, value(6)={values[6]:.3f} < 1 at defaults")


@pytest.mark.xfail(
    strict=True,
    reason="with the random-walk jitter model mandated by the design "
    "(the stored arm makes n + 1 trips, so sigma_total = sigma_per_trip * "
    "sqrt(n + 1)) at the stated 7 deg / 7% defaults, the loss-only curve "
    "degrades faster than the jitter-only curve at every delay n <= 11; "
    "jitter dominance at n = 11 requires >= 8.16 deg per trip")
def test_07c_jitter_dominates_loss_at_defaults():
    jitter_only = NoiseConfig(mode="realistic", loop_loss_per_trip=0.0)
    loss_only = NoiseConfig(mode="realistic", phase_jitter_deg_per_trip=0.0)
    baseline = memory_experiment([0], SOURCE, NoiseConfig(mode="ideal"))[0]
    jitter_deg = memory_experiment([11], SOURCE, jitter_only)[0] - baseline
    loss_deg = memory_experiment([11], SOURCE, loss_only)[0] - baseline
    print(f"ACCEPTANCE 7c: jitter-only degradation {jitter_deg:.4f} vs "
          f"loss-only {loss_deg:.4f} at n=11")
    assert jitter_deg > loss_deg


def test_08_waveform_round_trip():
    config = WaveformConfig()
    gram = orthogonality_matrix(config, 15)
    gram_err = float(np.max(np.abs(gram - np.eye(15))))
    assert gram_err < 1e-9

    rng = np.random.default_rng(88)
    plan = MeasurementPlan((0.0,) * 6, shots=50)
    quads = SampleSet(plan, rng.normal(0.0, 0.5, size=(50, 6)))
    frames = synthesize_frames(quads, config, noise=False)
    back = extract_quadratures(frames, config, num_modes=6, plan=plan)
    rt_err = float(np.max(np.abs(back.values - quads.values)))
    assert rt_err < 1e-10

    noise_frames = shot_noise_frames(config, num_modes=2, num_frames=5000, seed=21)
    extracted = extract_quadratures(noise_frames, config, num_modes=2)
    se = 0.25 * np.sqrt(2.0 / 4999)
    variances = np.var(extracted.values, axis=0, ddof=1)
    assert np.all(np.abs(variances - 0.25) <= 3 * se)
    report(8, "waveform round-trip",
           f"gram {gram_err:.1e}, round-trip {rt_err:.1e}, "
           f"floor variances {variances.round(4)}")


def test_09_hardware_checker():
    feasible = {
        "epr": TargetState.epr(),
        "ghz3": TargetState.ghz(3),
        "cluster3": TargetState.linear_cluster(3),
        "infinite": TargetState.infinite_cluster(100),
    }
    for name, target in feasible.items():
        rep = hardware_check(compile_target(target))
        assert rep.feasible, name
        for axis in (rep.delta, rep.theta):
            levels = axis.realizable_levels()
            for value in axis.required:
                assert any(abs(value - lv) <= 1e-9 for lv in levels), (name, value)

    for name, target in {"ghz4": TargetState.ghz(4),
                         "cluster4": TargetState.linear_cluster(4)}.items():
        rep = hardware_check(compile_target(target))
        assert not rep.feasible, name
        bad = rep.delta.required
        assert len(bad) >= 3
        # counterexample: no value equals the sum of two others and there
        # are more than two nonzero levels, so {0, v1, v2, v1+v2} cannot cover
        if len(bad) == 3:
            assert abs(bad[0] + bad[1] - bad[2]) > 1e-9
    report(9, "hardware checker",
           "EPR/GHZ3/cluster3/infinite feasible with witnesses; "
           "GHZ4 and cluster4 infeasible with level counterexamples")

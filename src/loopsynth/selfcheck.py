"""Built-in consistency suite: cross-checks between independent paths.

Each check compares two implementations that should agree to tight
tolerance: the streaming loop against the dense chain, the circuit against
the closed-form linear-cluster covariance, GHZ against star generation up
to the final local phase, and the waveform synthesize/extract round trip.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import engine, waveform
from .compiler import TargetState, compile_target
from .gaussian import MeasurementPlan, SampleSet, SqueezerSpec, apply_phase
from .schedule import BinSetting, ControlSchedule, NoiseConfig
from .verifier import linear_cluster_oracle_cov


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_loop_vs_chain(num_schedules: int = 25) -> CheckResult:
    rng = np.random.default_rng(20240 + num_schedules)
    src = SqueezerSpec(5.0, 8.0)
    worst = 0.0
    for trial in range(num_schedules):
        n = int(rng.integers(2, 6))
        ts = rng.uniform(0.0, 1.0, size=n + 1)
        if trial == 0:
            ts[1] = 0.3  # make sure the flipped-sign branch is exercised
        bins = tuple(
            BinSetting(T=float(t), theta_deg=float(th))
            for t, th in zip(ts, rng.uniform(0.0, 360.0, size=n + 1)))
        noise = NoiseConfig(
            mode="realistic" if trial % 2 else "ideal",
            loop_loss_per_trip=float(rng.uniform(0.0, 0.15)),
            phase_jitter_deg_per_trip=float(rng.uniform(0.0, 12.0)),
            detection_efficiency=float(rng.uniform(0.7, 1.0)))
        sched = ControlSchedule(bins=bins, noise=noise)
        dense = engine.run_unrolled(sched, src)
        last = None
        for rec in engine.run_loop(sched, src, window=n + 2):
            last = rec
        worst = max(worst, float(np.max(np.abs(dense.cov - last.state.cov))))
    return CheckResult("loop-chain equivalence", worst < 1e-10,
                       f"max covariance deviation {worst:.3g}")


def _check_linear_cluster_oracle() -> CheckResult:
    src = SqueezerSpec(5.0, 8.0)
    worst = 0.0
    for n in range(2, 9):
        circuit = engine.run_unrolled(
            compile_target(TargetState.linear_cluster(n)), src)
        direct = linear_cluster_oracle_cov(n, src)
        worst = max(worst, float(np.max(np.abs(circuit.cov - direct.cov))))
    return CheckResult("linear-cluster closed form", worst < 1e-10,
                       f"max covariance deviation {worst:.3g}")


def _check_ghz_star_equivalence() -> CheckResult:
    src = SqueezerSpec(5.0, 8.0)
    worst = 0.0
    for n in (2, 3, 4):
        ghz = engine.run_unrolled(compile_target(TargetState.ghz(n)), src)
        star = engine.run_unrolled(
            compile_target(TargetState.star_cluster(n)), src)
        rotated = apply_phase(ghz, n - 1, 90.0)
        worst = max(worst, float(np.max(np.abs(star.cov - rotated.cov))))
    return CheckResult("ghz-star local equivalence", worst < 1e-12,
                       f"max covariance deviation {worst:.3g}")


def _check_waveform_roundtrip() -> CheckResult:
    config = waveform.WaveformConfig()
    gram = waveform.orthogonality_matrix(config, 10)
    gram_err = float(np.max(np.abs(gram - np.eye(10))))
    rng = np.random.default_rng(99)
    plan = MeasurementPlan((0.0,) * 6, shots=20)
    quads = SampleSet(plan, rng.normal(0.0, 0.5, size=(20, 6)))
    frames = waveform.synthesize_frames(quads, config, noise=False)
    back = waveform.extract_quadratures(frames, config, num_modes=6, plan=plan)
    rt_err = float(np.max(np.abs(back.values - quads.values)))
    ok = gram_err < 1e-9 and rt_err < 1e-10
    return CheckResult("waveform round-trip", ok,
                       f"gram deviation {gram_err:.3g}, round-trip {rt_err:.3g}")


def run_selfcheck(fault: str | None = None) -> list[CheckResult]:
    """Run every consistency check, optionally with an injected fault."""
    injected = contextlib.nullcontext() if fault is None \
        else engine.inject_fault(fault)
    with injected:
        loop_vs_chain = _check_loop_vs_chain()
    return [loop_vs_chain, _check_linear_cluster_oracle(),
            _check_ghz_star_equivalence(), _check_waveform_roundtrip()]

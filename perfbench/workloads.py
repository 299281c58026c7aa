"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (``build``, timed as
set-up), runs one operation at a time (``op``, timed), and checks each
operation's outputs (``check``, untimed; returns the failures found).  The
package is only ever called through the module attributes its own callers
use, so the tracer in ``tracing.py`` sees every call.

Why these four: ``cluster1008_verify`` is the user's headline path and is
dominated by the sampled engine; ``chain4000_certify`` has no sampling and
splits its time between the analytic engine and the verifier's
bookkeeping; ``small_sweep`` is per-call overhead on tiny states, the
opposite regime; ``frames_roundtrip`` is the only one that runs the
waveform layer.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import loopsynth.cli
import loopsynth.compiler
import loopsynth.engine
import loopsynth.schedule
import loopsynth.verifier
import loopsynth.waveform
from loopsynth.compiler import TargetState
from loopsynth.gaussian import SqueezerSpec
from loopsynth.schedule import BinSetting, ControlSchedule, NoiseConfig

EFFICIENCY = 0.911
SOURCE = SqueezerSpec(5.0, 8.0)
REALISTIC = NoiseConfig(mode="realistic", detection_efficiency=EFFICIENCY)


def op_seed(seed: int, i: int) -> int:
    """Seed of operation ``i`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``loopsynth.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = loopsynth.cli.main(argv)
    return code, err.getvalue()


def read_csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[2:]]  # reproduction line, header


class Workload:
    """Defaults: no reference data to prepare, one item per operation."""

    def prepare_checks(self) -> None:
        """Compute, untimed, the reference data the checks compare against."""

    def items(self, result) -> int:
        return 1


class ClusterVerify(Workload):
    """In-process ``loopsynth verify`` of a compiled linear cluster."""

    name = "cluster1008_verify"

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.n = 200 if small else 1008
        self.shots = 2000 if small else 5000
        self.schedule_path = workdir / "cluster.json"
        self.csv_path = workdir / "cluster_report.csv"
        self.csv_by_seed: dict[int, bytes] = {}

    def build(self) -> None:
        code, err = run_cli(["compile", "cluster1d", "--n", str(self.n),
                             "-o", str(self.schedule_path)])
        if code != 0:
            raise RuntimeError(f"compile exited {code}: {err}")

    def op(self, i: int):
        seed = op_seed(self.seed, i)
        code, err = run_cli([
            "verify", str(self.schedule_path), "--realistic",
            "--efficiency", str(EFFICIENCY), "--shots", str(self.shots),
            "--seed", str(seed), "--csv", str(self.csv_path)])
        return seed, code, err

    def check(self, result) -> list[str]:
        seed, code, err = result
        if code != 0:
            return [f"verify exited {code}: {err.strip()}"]
        failures = []
        data = self.csv_path.read_bytes()
        if self.csv_by_seed.setdefault(seed, data) != data:
            failures.append(f"CSV differs between repeats at seed {seed}")
        rows = read_csv_rows(self.csv_path)
        if len(rows) != self.n:
            failures.append(f"{len(rows)} CSV rows, expected {self.n}")
        if any(row[4] != "true" for row in rows):
            failures.append("a criterion did not pass")
        z = np.array([abs(float(r[2]) - float(r[1])) / float(r[3]) for r in rows])
        if z.size and not np.max(z) < 6.0:
            failures.append(f"max |z| {np.max(z):.2f} >= 6")
        if z.size and np.mean(z <= 3.0) < 0.99:
            failures.append(f"only {np.mean(z <= 3.0):.3f} of |z| <= 3")
        return failures


class ChainCertify(Workload):
    """Analytic certification of the endless chain cut at 4000 modes."""

    name = "chain4000_certify"

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.n = 600 if small else 4000
        self.ref_n = 300 if small else 1008
        self.shots = 5000

    def build(self) -> None:
        target = TargetState.infinite_cluster(self.n)
        self.schedule = loopsynth.compiler.compile_target(target, REALISTIC)
        self.specs = loopsynth.verifier.nullifiers_for(target)

    def prepare_checks(self) -> None:
        target = TargetState.infinite_cluster(self.ref_n)
        self.reference = np.array(loopsynth.verifier.stream_nullifier_variances(
            loopsynth.compiler.compile_target(target, REALISTIC), SOURCE,
            loopsynth.verifier.nullifiers_for(target), window=8))

    def op(self, i: int):
        values = loopsynth.verifier.stream_nullifier_variances(
            self.schedule, SOURCE, self.specs, window=8)
        groups = loopsynth.verifier.plan_measurements(
            self.specs, self.schedule.num_outputs, shots=self.shots)
        return values, groups

    def check(self, result) -> list[str]:
        values, groups = result
        values = np.array(values)
        failures = []
        if not np.max(values) < 0.5:
            failures.append(f"max nullifier {np.max(values):.4f} >= 0.5")
        if len(groups) != 2:
            failures.append(f"{len(groups)} plan groups, expected 2")
        # deep in the chain every nullifier sits at the chain's steady value;
        # the shorter reference chain shares the first ref_n bins exactly
        ref = np.concatenate([self.reference, np.full(
            values.size - self.reference.size, self.reference[-1])])
        deviation = float(np.max(np.abs(values[100:] - ref[100:])))
        if not deviation <= 1e-9:
            failures.append(f"deep values deviate from the {self.ref_n}-mode "
                            f"chain by {deviation:.3g}")
        return failures


def _random_schedule(rng: np.random.Generator, n: int,
                     realistic: bool) -> ControlSchedule:
    bins = []
    for _ in range(n + 1):
        if rng.random() < 0.15:  # storage bin: the pulse reflects straight out
            bins.append(BinSetting(T=0.0, theta_deg=float(rng.uniform(0, 360)),
                                   source=str(rng.choice(["blocked", "vacuum"]))))
        else:
            bins.append(BinSetting(
                T=float(rng.uniform(0.0, 1.0)), theta_deg=float(rng.uniform(0, 360)),
                phi_deg=float(rng.choice([0.0, 90.0])),
                source="vacuum" if rng.random() < 0.1 else "squeezer"))
    return ControlSchedule(bins=tuple(bins), noise=_random_noise(rng, realistic))


def _random_noise(rng: np.random.Generator, realistic: bool) -> NoiseConfig:
    if not realistic:
        return NoiseConfig(mode="ideal")
    return NoiseConfig(mode="realistic",
                       loop_loss_per_trip=float(rng.uniform(0.0, 0.15)),
                       phase_jitter_deg_per_trip=float(rng.uniform(0.0, 12.0)),
                       detection_efficiency=float(rng.uniform(0.7, 1.0)))


_COMPILED_KINDS = (
    lambda n: TargetState.epr(), TargetState.ghz, TargetState.linear_cluster,
    TargetState.star_cluster)


class SmallSweep(Workload):
    """Stream of small schedules, with every 15th operation a memory sweep."""

    name = "small_sweep"
    # odd, like the pool size, so that a traced run, which traces every
    # other operation, traces its share of memory sweeps and pool entries
    memory_every = 15

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.pool_size = 63 if small else 511
        self.memory_csv = workdir / "memory_sweep.csv"

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        pool = []
        for k in range(self.pool_size):
            # the mix of output counts, noise modes and compiled targets is
            # the same for every seed, so that every seed costs the same;
            # the seed draws the values
            n, realistic = 2 + k % 5, (k // 5) % 2 == 1
            if k % 4 == 3:  # a quarter are compiled targets
                kind = _COMPILED_KINDS[(k // 4) % len(_COMPILED_KINDS)]
                schedule = loopsynth.compiler.compile_target(
                    kind(n), _random_noise(rng, realistic))
            else:
                schedule = _random_schedule(rng, n, realistic)
            squeeze = float(rng.uniform(1.0, 10.0))
            pool.append((schedule, SqueezerSpec(squeeze, squeeze + 3.0)))
        self.pool = pool

    def op(self, i: int):
        if i % self.memory_every == self.memory_every - 1:
            return ("memory",) + run_cli(
                ["memory", "--max-n", "11", "--csv", str(self.memory_csv)])
        schedule, source = self.pool[i % len(self.pool)]
        text = loopsynth.schedule.serialize_schedule(schedule)
        parsed = loopsynth.schedule.parse_schedule(text)
        loopsynth.compiler.hardware_check(parsed)
        dense = loopsynth.engine.run_unrolled(parsed, source)
        last = None
        for last in loopsynth.engine.run_loop(
                parsed, source, window=parsed.num_outputs + 2):
            pass
        return "schedule", schedule, parsed, dense, last

    def check(self, result) -> list[str]:
        if result[0] == "memory":
            _, code, err = result
            if code != 0:
                return [f"memory exited {code}: {err.strip()}"]
            values = [float(row[2]) for row in read_csv_rows(self.memory_csv)]
            if len(values) != 11 or not all(math.isfinite(v) for v in values):
                return [f"memory sweep gave {values}"]
            if any(b <= a for a, b in zip(values, values[1:])):
                return ["memory inseparability does not grow with the delay"]
            return []
        _, schedule, parsed, dense, last = result
        failures = []
        if parsed != schedule:
            failures.append("parse(serialize(s)) != s")
        if last is None or len(last.window_modes) != schedule.num_outputs:
            return failures + ["loop window does not cover every output"]
        deviation = float(np.max(np.abs(dense.cov - last.state.cov)))
        if not deviation < 1e-10:
            failures.append(f"loop-vs-dense deviation {deviation:.3g}")
        return failures


class FramesRoundtrip(Workload):
    """Sampled linear cluster through synthetic frames and back."""

    name = "frames_roundtrip"

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.shots = 500 if small else 5000

    def build(self) -> None:
        target = TargetState.linear_cluster(8)
        self.schedule = loopsynth.compiler.compile_target(target, REALISTIC)
        self.groups = loopsynth.verifier.plan_measurements(
            loopsynth.verifier.nullifiers_for(target), 8, shots=self.shots)
        self.config = loopsynth.waveform.WaveformConfig()

    def op(self, i: int):
        children = np.random.SeedSequence(op_seed(self.seed, i)).spawn(
            2 * len(self.groups))
        out = []
        for k, (plan, members) in enumerate(self.groups):
            samples = loopsynth.engine.run_loop_sampled(
                self.schedule, SOURCE, plan, seed=children[2 * k])
            frames = loopsynth.waveform.synthesize_frames(
                samples, self.config, seed=children[2 * k + 1], noise=True)
            back = loopsynth.waveform.extract_quadratures(
                frames, self.config, num_modes=8, plan=plan)
            estimates = [loopsynth.verifier.estimate(back, spec) for spec in members]
            out.append((samples, back, estimates))
        return out

    def items(self, result) -> int:
        return sum(samples.plan.shots for samples, _, _ in result)

    def check(self, result) -> list[str]:
        failures = []
        for samples, back, estimates in result:
            deviation = float(np.max(np.abs(back.values - samples.values)))
            if not deviation < 1e-9:
                failures.append(f"extracted quadratures deviate by {deviation:.3g}")
            if not all(math.isfinite(e.value) for e in estimates):
                failures.append("non-finite nullifier estimate")
        return failures


WORKLOADS = {cls.name: cls for cls in (ClusterVerify, ChainCertify, SmallSweep,
                                       FramesRoundtrip)}

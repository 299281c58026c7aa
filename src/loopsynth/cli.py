"""Command-line interface.

Commands:
  compile    build a schedule file for a target state, report hardware feasibility
  verify     simulate a schedule and evaluate its entanglement criteria
  memory     sweep the storage experiment over delays
  selfcheck  run the built-in consistency suite

verify evaluates every criterion, paired or single, from the streaming
engine at any schedule length: the analytic column from one
``stream_nullifier_variances`` run, the evaluator memory reads too, and the
sampled column from ``stream_nullifier_estimates``, one sampling run per
compatible measurement plan.  Both are streamed: a sampled plan holds only
the draws of the modes its nullifiers still read, so a cluster holds a few
rows at any length, while GHZ and star criteria read every mode and hold
every row.

Exit codes: 0 success, 1 usage or parse error, 2 hardware infeasibility
under --strict-hardware, 3 selfcheck failure.  All tabular outputs are CSV
with fixed columns; identical seeds and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .compiler import TargetState, compile_target, hardware_check
from .engine import FAULTS, memory_experiment
from .gaussian import SqueezerSpec
from .schedule import (DEFAULT_TAU_NS, ControlSchedule, NoiseConfig,
                       ScheduleFormatError, parse_schedule, serialize_schedule)
from .selfcheck import run_selfcheck
from .verifier import (criterion_parts, nullifiers_for,
                       stream_nullifier_estimates, stream_nullifier_variances)
# unused here, but perfbench/tracing.py rebinds these names on this module
from .engine import run_loop_sampled, run_unrolled  # noqa: F401
from .verifier import estimate, plan_measurements, variance_analytic  # noqa: F401

# verify tries these in order; at n = 2 ghz reads as epr, star and cluster1d as cluster2
_TARGETS = {
    "epr": lambda n: TargetState.epr(),
    "cluster2": lambda n: TargetState.linear_cluster(2),
    "ghz": TargetState.ghz,
    "cluster1d": TargetState.linear_cluster,
    "star": TargetState.star_cluster,
    "infinite": TargetState.infinite_cluster,
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _infer_target(schedule: ControlSchedule) -> tuple[str, TargetState]:
    """The first table target whose compiled (T, theta mod 360) bins match."""
    n = max(schedule.num_outputs, 2)
    bins = [(b.T, b.theta_deg % 360.0) for b in schedule.bins]
    for name, build in _TARGETS.items():
        target = build(n)
        ref = compile_target(target).bins
        if len(ref) == len(bins) and all(
                abs(r.T - t) < 1e-9
                and abs((r.theta_deg % 360.0 - th + 180.0) % 360.0 - 180.0) < 1e-9
                for r, (t, th) in zip(ref, bins)):
            return name, target
    raise ValueError(
        "schedule does not match any compiled target pattern; "
        "cannot infer which criteria to evaluate")


def _reproduction_line(argv: list[str]) -> str:
    return "loopsynth " + " ".join(argv)


def _write_csv(path: str, argv: list[str], header: str, rows: list[str]) -> None:
    lines = [f"# {_reproduction_line(argv)}", header, *rows]
    Path(path).write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def _cmd_compile(args, argv) -> int:
    try:
        target = _TARGETS[args.target](3 if args.n is None else args.n)
        if args.n not in (None, target.n):
            raise ValueError(f"{args.target} always has {target.n} modes; "
                             f"--n {args.n} is refused")
        schedule = compile_target(target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.output or f"{args.target}.json"
    Path(out).write_text(serialize_schedule(schedule))
    report = hardware_check(schedule)
    print(f"# {_reproduction_line(argv)}")
    print(f"wrote {out}: {len(schedule.bins)} bins for {args.target}(n={target.n})")
    for axis in (report.delta, report.theta):
        req = ", ".join(f"{v:.4f}" for v in axis.required) or "(none)"
        if axis.feasible:
            wit = axis.witness
            levels = "default level only" if wit is None else \
                f"drive levels v1={wit[0]:.4f}, v2={wit[1]:.4f}"
            print(f"{axis.name}: feasible; required {{{req}}} deg; {levels}")
        else:
            print(f"{axis.name}: INFEASIBLE; required nonzero values {{{req}}} deg "
                  "do not fit {0, v1, v2, v1+v2}")
    if not report.feasible and args.strict_hardware:
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    label: str
    analytic: float
    sampled: float
    stderr: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.sampled < self.threshold


def _report_rows(schedule, source, criteria, shots, seed) -> list[ReportRow]:
    """One row per criterion: its streamed value and its parts' sampled sum."""
    analytic = stream_nullifier_variances(schedule, source, criteria)
    results = stream_nullifier_estimates(schedule, source, criteria, shots, seed)
    rows = []
    for crit, value in zip(criteria, analytic):
        estimates = [results[spec] for spec in criterion_parts(crit)]
        rows.append(ReportRow(
            label=crit.label, analytic=value,
            sampled=sum(e.value for e in estimates),
            stderr=float(np.hypot.reduce([e.stderr for e in estimates])),
            threshold=crit.threshold))
    return rows


def _cmd_verify(args, argv) -> int:
    if args.seed < 0:  # numpy's SeedSequence would refuse it without a name
        print("error: seed must be >= 0", file=sys.stderr)
        return 1
    try:
        text = Path(args.schedule).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        schedule = parse_schedule(text)
    except ScheduleFormatError as exc:
        print(f"error: {args.schedule}: {exc}", file=sys.stderr)
        return 1

    noise = schedule.noise
    try:
        if args.ideal:
            noise = NoiseConfig(mode="ideal")
        elif args.realistic:
            noise = NoiseConfig(mode="realistic")
        if args.efficiency is not None:
            noise = replace(noise, detection_efficiency=args.efficiency,
                            mode="realistic")
        schedule = replace(schedule, noise=noise)
        name, target = _infer_target(schedule)
        source = SqueezerSpec(args.squeeze_db, args.antisqueeze_db)
        rows = _report_rows(schedule, source, nullifiers_for(target),
                            args.shots, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = [
        f"# {_reproduction_line(argv)}",
        f"target: {name}(n={target.n})",
        f"schedule: {args.schedule} ({len(schedule.bins)} bins, "
        f"tau {schedule.tau_ns} ns)",
        f"noise: {noise.mode} (loss/trip {noise.loop_loss_per_trip}, "
        f"jitter/trip {noise.phase_jitter_deg_per_trip} deg, "
        f"detection efficiency {noise.detection_efficiency})",
        f"source: {args.squeeze_db} dB squeeze / {args.antisqueeze_db} dB antisqueeze",
        f"shots: {args.shots}   seed: {args.seed}",
    ]
    print("\n".join(header))
    width = max(len(r.label) for r in rows) + 2
    print(f"{'criterion':<{width}}{'analytic':>10}{'sampled':>10}"
          f"{'stderr':>9}{'threshold':>11}  pass")
    for r in rows:
        print(f"{r.label:<{width}}{r.analytic:>10.4f}{r.sampled:>10.4f}"
              f"{r.stderr:>9.4f}{r.threshold:>11.2f}  {'yes' if r.passed else 'NO'}")

    _write_csv(args.csv or (Path(args.schedule).stem + "_report.csv"), argv,
               "criterion,analytic,sampled,stderr,pass",
               [f"{r.label},{r.analytic!r},{r.sampled!r},{r.stderr!r},"
                f"{'true' if r.passed else 'false'}" for r in rows])
    return 0


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _cmd_memory(args, argv) -> int:
    if args.shots < 2:  # the stderr column divides by shots - 1
        print("error: shots must be >= 2", file=sys.stderr)
        return 1
    if args.max_n < 1:
        print("error: max-n must be >= 1", file=sys.stderr)
        return 1
    try:
        if args.ideal:
            noise = NoiseConfig(mode="ideal")
        else:
            noise = NoiseConfig(mode="realistic", loop_loss_per_trip=args.loss,
                                phase_jitter_deg_per_trip=args.jitter,
                                detection_efficiency=args.efficiency)
        source = SqueezerSpec(args.squeeze_db, args.antisqueeze_db)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    delays = range(1, args.max_n + 1)
    rows = []
    for n, value in zip(delays, memory_experiment(delays, source, noise)):
        stderr = float(value / np.sqrt(args.shots - 1))  # two equal-variance terms
        rows.append((n, n * DEFAULT_TAU_NS, value, stderr))
    print(f"# {_reproduction_line(argv)}")
    print(f"{'n':>3}{'delay_ns':>10}{'inseparability':>16}{'stderr':>9}")
    for n, delay, value, stderr in rows:
        print(f"{n:>3}{delay:>10.1f}{value:>16.4f}{stderr:>9.4f}")
    _write_csv(args.csv or "memory_sweep.csv", argv,
               "n,delay_ns,inseparability,stderr",
               [f"{n},{delay!r},{value!r},{stderr!r}"
                for n, delay, value, stderr in rows])
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def _cmd_selfcheck(args, argv) -> int:
    results = run_selfcheck(fault=args.inject_fault)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if failed:
        print(f"selfcheck failed: {failed[0].name}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="loopsynth",
                     description="Loop-based entanglement synthesizer toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a target state to a schedule file",
                       parents=[], add_help=True)
    c.add_argument("target", choices=tuple(_TARGETS))
    c.add_argument("--n", type=int, default=None,
                   help="mode count, default 3 (cluster length for 'infinite')")
    c.add_argument("-o", "--output", default=None, help="schedule file path")
    c.add_argument("--strict-hardware", action="store_true",
                   help="exit 2 when the schedule is not hardware-realizable")

    v = sub.add_parser("verify", help="simulate a schedule and check its criteria")
    v.add_argument("schedule")
    v.add_argument("--shots", type=int, default=5000)
    v.add_argument("--seed", type=int, default=12345)
    group = v.add_mutually_exclusive_group()
    group.add_argument("--ideal", action="store_true",
                       help="force the noise-free model")
    group.add_argument("--realistic", action="store_true",
                       help="force realistic defaults (7%% loss, 7 deg jitter)")
    v.add_argument("--efficiency", type=float, default=None,
                   help="detection efficiency (implies realistic mode)")
    v.add_argument("--squeeze-db", type=float, default=5.0)
    v.add_argument("--antisqueeze-db", type=float, default=8.0)
    v.add_argument("--csv", default=None, help="report CSV path")

    m = sub.add_parser("memory", help="storage-experiment sweep over delays")
    m.add_argument("--max-n", type=int, default=11)
    m.add_argument("--loss", type=float, default=0.07)
    m.add_argument("--jitter", type=float, default=7.0)
    m.add_argument("--efficiency", type=float, default=1.0)
    m.add_argument("--ideal", action="store_true", help="noise-free sweep")
    m.add_argument("--shots", type=int, default=5000,
                   help="shot count assumed for the stderr column")
    m.add_argument("--squeeze-db", type=float, default=5.0)
    m.add_argument("--antisqueeze-db", type=float, default=8.0)
    m.add_argument("--csv", default=None, help="sweep CSV path")

    s = sub.add_parser("selfcheck", help="run the built-in consistency suite")
    s.add_argument("--inject-fault", choices=FAULTS, default=None,
                   help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "verify": _cmd_verify,
        "memory": _cmd_memory,
        "selfcheck": _cmd_selfcheck,
    }
    return handlers[args.command](args, argv)


if __name__ == "__main__":
    sys.exit(main())

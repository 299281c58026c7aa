"""Entanglement criteria: nullifier construction and evaluation.

Small-scale targets are certified by inseparability parameters (a sum of
two nullifier-type variances, inseparable below 1 in hbar = 1/2 units);
linear-cluster chains by the per-mode nullifier family (inseparable below
1/2 for every mode).

Star-shaped clusters are locally equivalent to GHZ states: the generating
schedule differs only in the final loop phase, and the cluster nullifiers
live in the frame where each leaf mode's quadratures are swapped (x -> p,
p -> -x).  The criteria returned for star targets therefore carry the
cluster-frame labels together with the lab-frame terms they correspond to,
so analytic and sampled evaluation act on the simulated state directly.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from . import gaussian as g
from .compiler import TargetState, compile_target, fibonacci_numbers
from .engine import _drop_lists, _window_covariances, run_loop
from .gaussian import GaussianState, MeasurementPlan, SampleSet, SqueezerSpec
from .schedule import ControlSchedule, NoiseConfig
# unused here, but perfbench/tracing.py rebinds it on this module
from .engine import run_unrolled  # noqa: F401

NULLIFIER_THRESHOLD = 0.5
INSEPARABILITY_THRESHOLD = 1.0
# Fewest draws (outputs times shots) in one plan for which the plans are
# sampled in forked processes.  A fork, exit and wait cost 2.5-4 ms.  On a
# 2-core VM an in-process verify forked lost up to 5 ms or won up to 11 ms,
# by load, at 250 000-375 000 draws (50-75 modes at 5000 shots), and won
# 3-18 ms in every run from 400 000 draws (80 modes at 5000 shots) on.
FORK_MIN_DRAWS = 400_000


@dataclass(frozen=True)
class NullifierSpec:
    """Linear combination of mode quadratures; modes are 1-based.

    terms: tuple of (mode, "x" | "p", coefficient).  A spec may use at most
    one quadrature kind per mode so that it is measurable in a single run.
    ``label`` is ``given_label`` (e.g. a star target's cluster-frame name)
    or else the terms, formatted when read.  Two specs are equal when their
    terms and given labels are.
    """

    terms: tuple[tuple[int, str, float], ...]
    given_label: str = ""
    threshold: ClassVar[float] = NULLIFIER_THRESHOLD

    def __post_init__(self):
        for mode, _, _ in self.terms:
            if not hasattr(mode, "__index__"):
                raise ValueError(f"mode must be an integer, got {mode!r}")
        object.__setattr__(self, "terms",
                           tuple((int(m), q, float(c)) for m, q, c in self.terms))
        if not self.terms:
            raise ValueError("nullifier needs at least one term")
        kinds: dict[int, str] = {}
        for mode, quad, coeff in self.terms:
            if quad not in ("x", "p"):
                raise ValueError(f"unknown quadrature {quad!r}")
            if not math.isfinite(coeff):
                raise ValueError("non-finite coefficient")
            if kinds.setdefault(mode, quad) != quad:
                raise ValueError(
                    f"mode {mode} would need both x and p in one run")

    @property
    def label(self) -> str:
        return self.given_label or _format_terms(self.terms)

    def modes(self) -> tuple[int, ...]:
        return tuple(sorted({m for m, _, _ in self.terms}))

    def vacuum_variance(self) -> float:
        return g.VACUUM_VARIANCE * sum(c * c for _, _, c in self.terms)


def _format_terms(terms) -> str:
    parts = []
    for mode, quad, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = f"{quad}{mode}" if abs(mag - 1.0) < 1e-12 else f"{mag:g}*{quad}{mode}"
        parts.append((sign, body))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        out += sign + body
    return out


@dataclass(frozen=True)
class InseparabilitySpec:
    """Pair of nullifiers whose summed variance certifies inseparability.

    Every pair has threshold 1; its label is formatted when read.
    """

    first: NullifierSpec
    second: NullifierSpec
    threshold: ClassVar[float] = INSEPARABILITY_THRESHOLD

    @property
    def label(self) -> str:
        return f"var({self.first.label})+var({self.second.label})"

    def vacuum_variance(self) -> float:
        return self.first.vacuum_variance() + self.second.vacuum_variance()


def criterion_parts(crit) -> tuple[NullifierSpec, ...]:
    """The nullifiers whose variances make up a criterion's value."""
    if isinstance(crit, InseparabilitySpec):
        return (crit.first, crit.second)
    return (crit,)


@dataclass(frozen=True)
class Estimate:
    """A sampled variance and its Gaussian standard error."""

    value: float
    stderr: float


def _n(*terms, label: str = "") -> NullifierSpec:
    return NullifierSpec(tuple(terms), label)


def _ghz_pair_order(n: int) -> list[tuple[int, int]]:
    # adjacent differences first, then wider ones
    return [(i, i + gap) for gap in range(1, n) for i in range(1, n - gap + 1)]


def nullifiers_for(target: TargetState):
    """Complete criterion set for a supported target.

    Returns a list of InseparabilitySpec (threshold 1) for the small-scale
    states, or a list of NullifierSpec (threshold 1/2 each) for linear
    cluster chains of four or more modes.
    """
    n = target.n
    if target.kind == "epr" or (target.kind == "ghz" and n == 2):
        pair = InseparabilitySpec(
            _n((1, "x", 1), (2, "x", -1)), _n((1, "p", 1), (2, "p", 1)))
        return [pair]

    if target.kind == "ghz":
        total_p = _n(*[(k, "p", 1) for k in range(1, n + 1)])
        return [
            InseparabilitySpec(_n((i, "x", 1), (j, "x", -1)), total_p)
            for i, j in _ghz_pair_order(n)
        ]

    if target.kind == "star":
        if n == 2:
            return nullifiers_for(TargetState.linear_cluster(2))
        # Lab-frame terms come from the GHZ criteria; labels are the
        # cluster-frame ones (leaf k: p_k <-> lab x_k; hub n: x_n <-> lab p_n).
        hub_label = "p%d%s" % (n, "".join(f"-x{k}" for k in range(1, n)))
        hub = _n(*([(k, "p", 1) for k in range(1, n)] + [(n, "x", -1)]),
                 label=hub_label)
        pairs = []
        order = [(i, n) for i in range(1, n)] + \
            [(i, j) for i, j in _ghz_pair_order(n - 1)]
        for i, j in order:
            if j == n:
                first = _n((i, "x", 1), (n, "p", -1), label=f"p{i}-x{n}")
            else:
                first = _n((i, "x", 1), (j, "x", -1), label=f"p{i}-p{j}")
            pairs.append(InseparabilitySpec(first, hub))
        return pairs

    if target.kind == "linear" and n == 2:
        return [InseparabilitySpec(
            _n((1, "p", 1), (2, "x", -1)), _n((2, "p", 1), (1, "x", -1)))]

    if target.kind == "linear" and n == 3:
        middle = _n((2, "p", 1), (1, "x", -1), (3, "x", -1))
        return [
            InseparabilitySpec(_n((1, "p", 1), (2, "x", -1)), middle),
            InseparabilitySpec(_n((3, "p", 1), (2, "x", -1)), middle),
            InseparabilitySpec(_n((1, "p", 1), (3, "p", -1)), middle),
        ]

    if target.kind == "linear":
        family = [cluster_nullifier(1)]
        family += [cluster_nullifier(k) for k in range(2, n)]
        family.append(_n((n, "p", 1), (n - 1, "x", -1)))
        return family

    if target.kind == "infinite":
        return [cluster_nullifier(k) for k in range(1, n)]

    raise ValueError(f"unsupported target {target}")


def cluster_nullifier(k: int) -> NullifierSpec:
    """p_k - x_(k-1) - x_(k+1), with the one-sided form at the chain head."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return _n((1, "p", 1), (2, "x", -1))
    return _n((k, "p", 1), (k - 1, "x", -1), (k + 1, "x", -1))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _coefficient_vector(spec: NullifierSpec, num_modes: int,
                        column) -> np.ndarray:
    """The spec's coefficients over ``num_modes`` modes, term by ``column(mode)``."""
    c = np.zeros(2 * num_modes)
    for mode, quad, coeff in spec.terms:
        col = column(mode)
        if col is None or not 0 <= col < num_modes:
            raise ValueError(f"mode {mode} not present in state")
        c[2 * col + (0 if quad == "x" else 1)] += coeff
    return c


def variance_analytic(state: GaussianState, spec: NullifierSpec,
                      mode_map: dict[int, int] | None = None) -> float:
    """Variance of the spec's combination, second moment about zero.

    mode_map translates the spec's 1-based mode labels to state columns;
    by default mode k is column k-1.  A mode outside the state raises
    ValueError.
    """
    column = mode_map.get if mode_map is not None else (lambda mode: mode - 1)
    c = _coefficient_vector(spec, state.num_modes, column)
    value = float(c @ state.cov @ c)
    shift = float(c @ state.mean)
    return value + shift * shift


def _sample_estimate(spec: NullifierSpec, row, shots: int) -> Estimate:
    """Unbiased sample variance of the spec's combination, with Gaussian stderr.

    ``row(mode)`` gives that mode's draws, one per shot; the combination is
    built from zeros in term order, so every caller gets the same bits.
    """
    combo = np.zeros(shots)
    for mode, _, coeff in spec.terms:
        combo += coeff * row(mode)
    value = _unbiased_variance(combo)
    stderr = value * math.sqrt(2.0 / (shots - 1))
    return Estimate(value=value, stderr=stderr)


def _unbiased_variance(x: np.ndarray) -> float:
    """``np.var(x, ddof=1)`` bit for bit, with its ufuncs; overwrites ``x``.

    The same pairwise sums and divisions as numpy's ``_var``, without its
    Python-level argument handling, which cost three times the arithmetic
    on a 5000-shot row.
    """
    n = len(x)
    x -= np.add.reduce(x) / n
    np.multiply(x, x, out=x)
    return float(np.add.reduce(x) / (n - 1))


def estimate(samples: SampleSet, spec: NullifierSpec) -> Estimate:
    """Unbiased sample variance of the combination, with Gaussian stderr.

    Every quadrature in the spec must match the basis the samples were
    taken in (0 degrees for x, 90 for p).
    """
    for mode, quad, _ in spec.terms:
        col = mode - 1
        if not 0 <= col < len(samples.plan.angles_deg):
            raise ValueError(f"mode {mode} not covered by the sample set")
        want = 0.0 if quad == "x" else 90.0
        have = samples.plan.angles_deg[col] % 360.0
        if abs(have - want) > 1e-9:
            raise ValueError(
                f"mode {mode} was measured at {have} deg, spec needs {want}")
    return _sample_estimate(spec, lambda mode: samples.values[:, mode - 1],
                            samples.plan.shots)


def plan_measurements(criteria, num_modes: int,
                      shots: int = 5000) -> list[tuple[MeasurementPlan, list[NullifierSpec]]]:
    """Greedily group the criteria's nullifiers into compatible plans."""
    specs = dict.fromkeys(spec for crit in criteria for spec in criterion_parts(crit))
    groups: list[tuple[dict[int, float], list[NullifierSpec]]] = []
    for spec in specs:
        want = {m: (0.0 if q == "x" else 90.0) for m, q, _ in spec.terms}
        for angles, members in groups:
            if all(angles.get(m, w) == w for m, w in want.items()):
                angles.update(want)
                members.append(spec)
                break
        else:
            groups.append((dict(want), [spec]))
    return [
        (MeasurementPlan(tuple(angles.get(m, 0.0) for m in range(1, num_modes + 1)),
                         shots=shots), members)
        for angles, members in groups
    ]


# ---------------------------------------------------------------------------
# closed-form linear-cluster covariance (independent of the circuit code)
# ---------------------------------------------------------------------------


def linear_cluster_oracle_cov(n: int, source: SqueezerSpec) -> GaussianState:
    """Output covariance of the n-mode linear cluster from the closed form.

    The chain of Fibonacci-ratio splitters with 90-degree phases has a
    closed-form input-output map: output k receives Fibonacci-weighted
    contributions from inputs 1..k+1 with quarter-turn phase factors.  The
    covariance is assembled directly from those coefficients, with no
    circuit simulation involved.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    fib = fibonacci_numbers(n + 2)
    u = np.zeros((n, n + 1), dtype=complex)
    for k in range(1, n + 1):
        u[k - 1, 0] = (1j ** k) * fib[n - k + 1] / math.sqrt(fib[n] * fib[n + 1])
        for l in range(2, k + 1):
            u[k - 1, l - 1] = (1j ** (k - l + 1)) * fib[n - k + 1] \
                / math.sqrt(fib[n - l + 1] * fib[n - l + 3])
        if k + 1 <= n + 1:
            u[k - 1, k] = -math.sqrt(fib[n - k] / fib[n - k + 2])

    gram = u @ u.conj().T
    if np.max(np.abs(gram - np.eye(n))) > 1e-10:
        raise AssertionError("closed-form rows are not orthonormal")

    # a_out = sum_l u_l a_in,l maps quadratures via Re/Im parts of u
    m = np.zeros((2 * n, 2 * (n + 1)))
    for k in range(n):
        for l in range(n + 1):
            re, im = u[k, l].real, u[k, l].imag
            m[2 * k, 2 * l] = re
            m[2 * k, 2 * l + 1] = -im
            m[2 * k + 1, 2 * l] = im
            m[2 * k + 1, 2 * l + 1] = re
    var_x, var_p = source.variances()
    diag = np.tile([var_x, var_p], n + 1)
    return GaussianState(np.zeros(2 * n), m @ np.diag(diag) @ m.T)


# ---------------------------------------------------------------------------
# streaming evaluation and detection-efficiency calibration
# ---------------------------------------------------------------------------


def _reading_rule(parts, num_outputs: int, window: int | None = None):
    """When a stream reads each part and how long it holds each output.

    ``parts`` yields ``(key, spec)`` pairs.  Returns ``(by_newest,
    last_read)``: ``by_newest[k]`` lists the pairs read at record k, the
    record of their newest mode, and ``last_read[m]`` is the last record
    that reads output m (entry 0 is unused).  By default an output is held
    until the newest mode of the last part that reads it, and an unread
    one only at its own record; an explicit ``window`` holds the last
    ``window`` outputs instead.  Parts with a mode outside the outputs or a
    span wider than the window raise ValueError.
    """
    last_read = list(range(num_outputs + 1)) if window is None \
        else range(window - 1, num_outputs + window)
    by_newest: dict[int, list] = {}
    missing = []
    for key, spec in parts:
        read = spec.modes()
        if read[0] < 1 or read[-1] > num_outputs or (
                window is not None and read[-1] - read[0] >= window):
            missing.append(spec.label)
            continue
        by_newest.setdefault(read[-1], []).append((key, spec))
        if window is None:  # hold each mode until its newest reader
            for mode in read:
                last_read[mode] = max(last_read[mode], read[-1])
    if missing:
        raise ValueError(
            f"window never covered: {', '.join(dict.fromkeys(missing))}")
    return by_newest, last_read


def stream_nullifier_variances(schedule: ControlSchedule, source: SqueezerSpec,
                               criteria, window: int | None = None) -> list[float]:
    """Analytic value of each criterion from one streaming run.

    The package's one evaluator of a simulated state.  Each criterion is a
    ``NullifierSpec`` or an ``InseparabilitySpec``; its value is the sum of
    its parts' variances, each part read at the record of its newest mode.
    By default the stream holds each mode until the newest mode of the last
    part that reads it (marginalising out the others is exact); an explicit
    ``window`` holds the last ``window`` modes, as ``run_loop`` does, and
    changes values only at round-off.  Parts with a mode outside the
    outputs or a span wider than the window are rejected before the run.

    The variances are read from the engine's raw window buffer, symmetrized
    as ``GaussianState`` would store it, so each equals ``variance_analytic``
    on the matching ``run_loop`` record bit for bit with no validated state
    built per record.  A negative or non-finite variance raises ValueError.
    """
    by_newest, last_read = _reading_rule(
        ((owner, spec) for owner, crit in enumerate(criteria)
         for spec in criterion_parts(crit)), schedule.num_outputs, window)

    # at most two parts each, so a total is its parts' in-order sum exactly
    totals = [0.0] * len(criteria)
    bad = []
    last = max(by_newest, default=0)
    for index, modes, cov in _window_covariances(schedule, source, last_read):
        due = by_newest.get(index)
        if due is not None:
            sym = 0.5 * (cov + cov.T)
            for owner, spec in due:
                c = _coefficient_vector(spec, len(modes), modes.index)
                value = float(c @ sym @ c)
                # a variance is never negative: one below zero is round-off
                if not 0.0 <= value < math.inf:
                    bad.append(spec.label)
                totals[owner] += value
        if index >= last:
            break
    if bad:
        raise ValueError(
            "negative or non-finite nullifier variance: "
            + ", ".join(dict.fromkeys(bad)))
    return totals


def stream_nullifier_estimates(schedule: ControlSchedule, source: SqueezerSpec,
                               criteria, shots: int,
                               seed=None) -> dict[NullifierSpec, Estimate]:
    """Sampled estimate of each criterion part, one streamed run per plan.

    The sampled twin of ``stream_nullifier_variances``.  The parts are
    grouped by ``plan_measurements``, and each plan is sampled once by
    ``_stream_plan_estimates`` with its own child of ``SeedSequence(seed)``.
    The plans are independent, so once a plan draws ``FORK_MIN_DRAWS``
    values or more they run at once, in at most one process per plan and
    per CPU this process may use (see ``_run_plans``); the caller streams
    the first plan itself.  The estimates are the same bits
    however many processes ran, and each equals ``estimate`` on
    ``run_loop_sampled`` with the same plan and child seed.  A non-finite
    draw raises ValueError, as ``SampleSet`` refuses one.
    """
    groups = plan_measurements(criteria, schedule.num_outputs, shots)
    seeds = np.random.SeedSequence(seed).spawn(len(groups))
    plans = [(plan, specs, child) for (plan, specs), child in zip(groups, seeds)]
    done = _run_plans(partial(_stream_plan_estimates, schedule, source), plans,
                      schedule.num_outputs * shots)
    return {spec: found for (_, specs, _), estimates in zip(plans, done)
            for spec, found in zip(specs, estimates)}


def _stream_plan_estimates(schedule: ControlSchedule, source: SqueezerSpec,
                           plan: MeasurementPlan, specs,
                           seed=None) -> list[Estimate]:
    """Sampled estimate of each spec measurable in ``plan``, in spec order.

    One ``run_loop`` sampling run.  A spec is estimated at the record of its
    newest mode and each mode's draws are dropped after their last read, so
    the run holds only the rows its specs still read, not the whole
    modes-by-shots array.  A non-finite draw raises ValueError.
    """
    by_newest, last_read = _reading_rule(enumerate(specs), schedule.num_outputs)
    drops = _drop_lists(last_read, schedule.num_outputs)
    results: list = [None] * len(specs)
    rows: dict[int, np.ndarray] = {}
    for rec in run_loop(schedule, source, seed=seed, sampling=plan):
        if not np.isfinite(rec.values).all():
            raise ValueError(f"non-finite samples of mode {rec.index}")
        rows[rec.index] = rec.values
        for key, spec in by_newest.get(rec.index, ()):
            results[key] = _sample_estimate(spec, rows.__getitem__, plan.shots)
        for mode in drops[rec.index]:
            del rows[mode]
    return results


def _run_plans(stream, plans, draws: int) -> list[list[Estimate]]:
    """``[stream(*p) for p in plans]``, the plans split over forked processes.

    With w = min(plans, CPUs in this process's affinity mask) workers, the
    caller streams plans 0, w, 2w, ... and each of w - 1 forked children
    streams its own share.  A child inherits its inputs through the fork and
    sends back only its estimates' floats over a pipe, so the results are
    the same bits as in process; an exception raised in a child is raised
    here with the same type and message.  Every child is reaped before this
    returns or raises, killed first if it is still running.  The plans run
    in process when there is one worker, when a plan makes fewer than
    ``FORK_MIN_DRAWS`` ``draws`` (a fork would cost more than it saves),
    where ``os.fork`` or ``os.sched_getaffinity`` is missing, or while
    another Python thread runs, since a forked copy of a threaded process
    can deadlock; a share whose fork fails runs in process too.  Native
    threads, such as OpenBLAS's pool, are not counted: only their own
    ``pthread_atfork`` handlers keep the fork safe from them, and Python
    3.12 and later warn (``DeprecationWarning``) when forking past them.
    """
    workers = 1
    if draws >= FORK_MIN_DRAWS and hasattr(os, "fork") \
            and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        workers = min(len(plans), len(os.sched_getaffinity(0)))
    done: list = [None] * len(plans)
    children: dict[int, tuple] = {}  # pid -> (its pipe, its plan indices)
    try:
        for worker in range(1, workers):
            share = range(worker, len(plans), workers)
            try:
                pid, pipe = _fork_plans(stream, [plans[i] for i in share])
            except OSError:  # no process to be had: stream the share here
                continue
            children[pid] = (pipe, share)
        theirs = {i for _, share in children.values() for i in share}
        for i, plan in enumerate(plans):
            if i not in theirs:
                done[i] = stream(*plan)
        for pid, (pipe, share) in list(children.items()):
            # read to the end first: a child blocks on a full pipe until then
            with pipe:
                sent = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not sent:  # a negative code is the signal that ended it
                raise RuntimeError(
                    "a sampling process exited with code "
                    f"{os.waitstatus_to_exitcode(status)} and sent nothing")
            sent = pickle.loads(sent)
            if isinstance(sent, BaseException):
                raise sent
            for i, floats in zip(share, sent):
                done[i] = [Estimate(value, stderr) for value, stderr
                           in np.frombuffer(floats).reshape(-1, 2).tolist()]
        return done
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, without importing signal
            os.waitpid(pid, 0)


def _fork_plans(stream, plans):
    """Fork a child that streams ``plans``; its pid and its pipe, to read."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns from here
            _plans_child(stream, plans, read_end, write_end)
    except BaseException:
        os.close(read_end)
        raise
    finally:  # reached in the parent only
        os.close(write_end)
    return pid, open(read_end, "rb")


def _plans_child(stream, plans, read_end: int,
                 write_end: int):  # pragma: no cover
    """Stream ``plans`` in a forked child, send the results, and exit."""
    try:
        # only the parent reads, so the write fails, not hangs, once it is gone
        os.close(read_end)
        try:
            sent = [np.array([(e.value, e.stderr) for e in stream(*p)]).tobytes()
                    for p in plans]
        except BaseException as exc:  # raised again in the parent
            sent = exc
        try:
            data = pickle.dumps(sent)
        except Exception:  # an exception whose arguments do not pickle
            data = pickle.dumps(RuntimeError(f"{type(sent).__name__}: {sent}"))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


CALIBRATION_TARGETS: tuple[tuple[str, TargetState, int, float], ...] = (
    ("epr", TargetState.epr(), 0, 0.44),
    ("ghz3", TargetState.ghz(3), 0, 0.65),
    ("ghz3", TargetState.ghz(3), 1, 0.67),
    ("ghz3", TargetState.ghz(3), 2, 0.70),
    ("cluster2", TargetState.linear_cluster(2), 0, 0.42),
    ("linear3", TargetState.linear_cluster(3), 0, 0.56),
    ("linear3", TargetState.linear_cluster(3), 1, 0.54),
    ("linear3", TargetState.linear_cluster(3), 2, 0.60),
    ("star3", TargetState.star_cluster(3), 0, 0.69),
    ("star3", TargetState.star_cluster(3), 1, 0.65),
    ("star3", TargetState.star_cluster(3), 2, 0.63),
)
CALIBRATION_SOURCE = SqueezerSpec()
CALIBRATION_NOISE = NoiseConfig(mode="realistic")


@dataclass(frozen=True)
class CalibrationRow:
    name: str
    label: str
    measured: float
    base_value: float
    vacuum_value: float
    predicted: float
    residual: float


@dataclass(frozen=True)
class CalibrationResult:
    efficiency: float
    epr_row_efficiency: float
    rows: tuple[CalibrationRow, ...]

    def max_abs_residual(self) -> float:
        return max(abs(r.residual) for r in self.rows)


def calibrate_efficiency() -> CalibrationResult:
    """Fit one detection efficiency to CALIBRATION_TARGETS' measured values.

    Base values are streamed by ``stream_nullifier_variances``, one run per
    target, from CALIBRATION_SOURCE with CALIBRATION_NOISE's loop noise and
    unit detection efficiency; an exiting-mode loss channel of
    transmittance eta then maps any criterion value v to
    eta*v + (1-eta)*vacuum, so the least-squares fit is closed form.
    Also reports the efficiency the EPR row alone implies against the
    noise-free value (a one-dimensional root find).
    """
    base: dict[str, list[tuple[str, float, float]]] = {}
    for name, target, _, _ in CALIBRATION_TARGETS:
        if name in base:
            continue
        criteria = nullifiers_for(target)
        values = stream_nullifier_variances(
            compile_target(target, noise=CALIBRATION_NOISE), CALIBRATION_SOURCE,
            criteria)
        base[name] = [(crit.label, value, crit.vacuum_variance())
                      for crit, value in zip(criteria, values)]
        if name == "epr":
            ideal_epr, = stream_nullifier_variances(
                compile_target(target), CALIBRATION_SOURCE, criteria)

    rows_raw = []
    for name, _, row_index, measured in CALIBRATION_TARGETS:
        label, value, vac = base[name][row_index]
        rows_raw.append((name, label, measured, value, vac))

    d = np.array([vac - value for _, _, _, value, vac in rows_raw])
    gap = np.array([vac - measured for _, _, measured, _, vac in rows_raw])
    eta = float(d @ gap / (d @ d))
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"fitted efficiency {eta:.4f} is not bracketed in (0, 1]")

    _, _, epr_measured, _, epr_vac = next(r for r in rows_raw if r[0] == "epr")
    eta_epr = (epr_vac - epr_measured) / (epr_vac - ideal_epr)

    rows = tuple(
        CalibrationRow(
            name=name, label=label, measured=measured, base_value=value,
            vacuum_value=vac,
            predicted=eta * value + (1.0 - eta) * vac,
            residual=eta * value + (1.0 - eta) * vac - measured)
        for name, label, measured, value, vac in rows_raw
    )
    return CalibrationResult(efficiency=eta, epr_row_efficiency=float(eta_epr),
                             rows=rows)

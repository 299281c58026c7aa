import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.compiler import (GOLDEN_RATIO_T, LAST_DISTINCT_FIBONACCI_RATIO,
                                TargetState, _flip_corrected, compile_storage,
                                compile_target, delta_for_transmissivity,
                                fibonacci, fibonacci_numbers, hardware_check)
from loopsynth.engine import bin_coupling
from loopsynth.gaussian import beamsplitter_matrix
from loopsynth.schedule import serialize_schedule


def fib_closed_form(k):
    # independent oracle: exact for k <= 70 in double precision
    root5 = math.sqrt(5.0)
    return round((((1 + root5) / 2) ** k - ((1 - root5) / 2) ** k) / root5)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
def test_target_rejects_non_integer_mode_count(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        TargetState("ghz", n)


def test_target_accepts_numpy_mode_count():
    assert compile_target(TargetState("ghz", np.int64(3))).num_outputs == 3


def test_fibonacci_base_cases():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1


def test_fibonacci_ten():
    assert fibonacci(10) == 55


def test_fibonacci_rejects_negative():
    with pytest.raises(ValueError):
        fibonacci(-1)


@settings(max_examples=71, deadline=None)
@given(st.integers(0, 70))
def test_fibonacci_recurrence_matches_closed_form(k):
    assert fibonacci(k) == fib_closed_form(k)


# ---------------------------------------------------------------------------
# compiled sequences
# ---------------------------------------------------------------------------


def seq(schedule):
    return schedule.transmissivities(), schedule.thetas()


def test_compile_epr():
    ts, thetas = seq(compile_target(TargetState.epr()))
    assert ts == (1.0, 0.5, 1.0)
    assert thetas == (90.0, 0.0, 0.0)


def test_compile_ghz3():
    ts, thetas = seq(compile_target(TargetState.ghz(3)))
    assert ts == (1.0, float(Fraction(1, 3)), 0.5, 1.0)
    assert thetas == (90.0, 180.0, 0.0, 0.0)


def test_compile_star3():
    ts, thetas = seq(compile_target(TargetState.star_cluster(3)))
    assert ts == (1.0, float(Fraction(1, 3)), 0.5, 1.0)
    assert thetas == (90.0, 180.0, 90.0, 0.0)


def test_compile_linear3():
    ts, thetas = seq(compile_target(TargetState.linear_cluster(3)))
    assert ts == (1.0, float(Fraction(2, 3)), 0.5, 1.0)
    assert thetas == (90.0, 90.0, 90.0, 0.0)


def test_compile_linear4_fibonacci_ratios():
    ts, _ = seq(compile_target(TargetState.linear_cluster(4)))
    assert ts == (1.0, 0.6, float(Fraction(2, 3)), 0.5, 1.0)


@pytest.mark.parametrize("n", [2, 3, 10, 300])
def test_linear_transmissivities_are_exact_fibonacci_ratios(n):
    ts, _ = seq(compile_target(TargetState.linear_cluster(n)))
    assert ts[1:n] == tuple(fibonacci(n - k + 2) / fibonacci(n - k + 3)
                            for k in range(2, n + 1))


def test_compile_cluster2():
    for target in (TargetState.linear_cluster(2), TargetState.star_cluster(2)):
        ts, thetas = seq(compile_target(target))
        assert ts == (1.0, 0.5, 1.0)
        assert thetas == (90.0, 90.0, 0.0)


def test_compile_infinite_cluster():
    sched = compile_target(TargetState.infinite_cluster(50))
    ts, thetas = seq(sched)
    assert len(sched.bins) == 51
    assert ts[0] == 1.0
    assert all(t == GOLDEN_RATIO_T for t in ts[1:])
    assert abs(GOLDEN_RATIO_T - 0.6180339887) < 1e-9
    assert all(th == 90.0 for th in thetas)


def test_ghz2_equals_epr():
    assert compile_target(TargetState.ghz(2)) == compile_target(TargetState.epr())


def test_linear_cluster_needs_no_flip_corrections():
    for n in range(2, 13):
        ts, thetas = seq(compile_target(TargetState.linear_cluster(n)))
        assert all(0.5 <= t <= 1.0 for t in ts)
        assert all(th == 90.0 for th in thetas[:n])


def test_linear_transmissivities_approach_constant():
    ts, _ = seq(compile_target(TargetState.linear_cluster(30)))
    for t in ts[1:22]:  # away from the chain tail
        assert abs(t - GOLDEN_RATIO_T) < 1e-4


def test_fibonacci_ratios_past_the_bound_all_round_to_the_golden_ratio():
    # r(m) = F(m)/F(m+1) are the convergents of 1/phi: by Cassini's identity
    # r(m+1) - r(m) = (-1)^m / (F(m+1) F(m+2)), so they alternate about 1/phi
    # with shrinking steps, and every r(m), m >= 45, lies strictly between
    # r(43) and r(44).  Rounding is monotone, so when both of those round to
    # GOLDEN_RATIO_T, every later ratio does too.
    last = LAST_DISTINCT_FIBONACCI_RATIO
    fib = fibonacci_numbers(2003)
    ratio = [Fraction(fib[m], fib[m + 1]) for m in range(1, 2002)]
    ratio.insert(0, None)  # index by m
    for m in range(1, 2000):
        step = ratio[m + 1] - ratio[m]
        assert step == Fraction((-1) ** m, fib[m + 1] * fib[m + 2])
    low, high = sorted((ratio[last + 1], ratio[last + 2]))
    assert all(low < ratio[m] < high for m in range(last + 3, 2002))
    assert float(low) == float(high) == GOLDEN_RATIO_T
    # and the bound is tight: the ratio just before it is another double
    assert float(ratio[last]) != GOLDEN_RATIO_T


def test_linear_compile_holds_no_exact_fibonacci_numbers_at_length():
    # F(k) has about 0.69 k bits; the whole list up to F(100 002) held
    # about 480 MB at the peak of this compile
    compile_target(TargetState.linear_cluster(100))
    tracemalloc.start()
    try:
        schedule = compile_target(TargetState.linear_cluster(100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(schedule.bins) == 100001
    assert schedule.bins[1].T == GOLDEN_RATIO_T
    assert peak < 64e6


def test_cluster_phi_defaults_alternate():
    sched = compile_target(TargetState.linear_cluster(5))
    phis = tuple(b.phi_deg for b in sched.bins)
    # mode k exits at bin k+1: x on odd modes, p on even
    assert phis == (0.0, 0.0, 90.0, 0.0, 90.0, 0.0)


def test_targets_reject_small_n():
    with pytest.raises(ValueError):
        TargetState.ghz(1)
    with pytest.raises(ValueError):
        TargetState("epr", 3)


# ---------------------------------------------------------------------------
# hardware feasibility
# ---------------------------------------------------------------------------


def ghz3_required_delta():
    # solve sin^2(delta + 45) = 1/3 on the flipped branch
    return 135.0 - math.degrees(math.asin(math.sqrt(1.0 / 3.0)))


def test_delta_map_branches():
    assert delta_for_transmissivity(1.0) == pytest.approx(45.0, abs=1e-12)
    assert delta_for_transmissivity(0.5) == pytest.approx(0.0, abs=1e-9)
    assert delta_for_transmissivity(1.0 / 3.0) == pytest.approx(
        ghz3_required_delta(), abs=1e-9)
    assert delta_for_transmissivity(0.0) == pytest.approx(135.0, abs=1e-12)


def test_compiler_folds_exactly_where_the_engine_flips_branch():
    # one branch rule, T < 1/2, for the fold, the coupling and the delta map
    ts = [0.0, 1e-13, 0.25, 0.5 - 1e-12, 0.5 - 1e-13, math.nextafter(0.5, 0.0),
          0.5, math.nextafter(0.5, 1.0), 0.5 + 1e-13, 0.75, 1.0]
    folded = [th == 180.0 for th in _flip_corrected([0.0] * len(ts), ts)]
    flipped = [not np.array_equal(bin_coupling(t), beamsplitter_matrix(t))
               for t in ts]
    flipped_delta = [delta_for_transmissivity(t) > 45.0 for t in ts]
    assert folded == flipped == flipped_delta == [t < 0.5 for t in ts]


def test_compiled_schedules_are_pinned():
    # SHA-256 of these schedules as compiled when the fold still had a
    # 1e-12 slack below T = 1/2: no compiled T falls in that gap
    digest = hashlib.sha256()
    for kind in ("ghz", "star", "linear", "infinite"):
        for n in range(2, 51):
            digest.update(serialize_schedule(
                compile_target(TargetState(kind, n))).encode())
    digest.update(serialize_schedule(compile_target(TargetState.epr())).encode())
    digest.update(serialize_schedule(compile_storage(range(50))).encode())
    assert digest.hexdigest() == \
        "3714c41a32aef19431e29d76f7040316c379494d6fdce1c5607f4f97983fa980"


def test_ghz3_feasible_with_expected_levels():
    report = hardware_check(compile_target(TargetState.ghz(3)))
    assert report.feasible
    assert report.delta.required == pytest.approx((45.0, ghz3_required_delta()),
                                                  abs=1e-6)
    assert report.delta.witness is not None
    assert report.delta.required[1] == pytest.approx(99.7356103, abs=1e-6)


def test_storage_sweep_feasible():
    assert hardware_check(compile_storage(range(1, 12))).feasible


def test_storage_programs_fold_the_flipped_branch():
    # per delay n: load at 90 degrees, mix 50/50, n blocked storage bins
    # carrying the 180-degree fold, release
    sched = compile_storage([0, 2])
    assert sched.transmissivities() == (1.0, 0.5, 1.0, 1.0, 0.5, 0.0, 0.0, 1.0)
    assert sched.thetas() == (90.0, 0.0, 0.0, 90.0, 0.0, 180.0, 180.0, 0.0)
    assert [b.source for b in sched.bins] == ["squeezer"] * 2 + ["blocked"] \
        + ["squeezer"] * 2 + ["blocked"] * 3


def test_storage_takes_integer_like_delays_only():
    assert compile_storage(np.arange(3)) == compile_storage([0, 1, 2])
    for delay in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match=re.escape(f"delay {delay!r}")):
            compile_storage([1, delay])


def test_ghz4_infeasible():
    report = hardware_check(compile_target(TargetState.ghz(4)))
    assert not report.feasible
    assert not report.delta.feasible
    assert len(report.delta.required) == 3
    a, b, c = report.delta.required
    assert abs(a + b - c) > 1e-6  # no sum structure, hence the infeasibility


def test_linear4_and_linear5_infeasible():
    for n in (4, 5):
        report = hardware_check(compile_target(TargetState.linear_cluster(n)))
        assert not report.feasible


def test_star4_infeasible():
    assert not hardware_check(compile_target(TargetState.star_cluster(4))).feasible


def test_small_targets_feasible():
    for target in (TargetState.epr(), TargetState.ghz(3),
                   TargetState.linear_cluster(2), TargetState.linear_cluster(3),
                   TargetState.star_cluster(3), TargetState.infinite_cluster(100)):
        report = hardware_check(compile_target(target))
        assert report.feasible, target


def test_witness_reproduces_required_values():
    for target in (TargetState.ghz(3), TargetState.linear_cluster(3),
                   TargetState.infinite_cluster(20)):
        report = hardware_check(compile_target(target))
        for axis in (report.delta, report.theta):
            levels = axis.realizable_levels()
            for value in axis.required:
                assert any(abs(value - lv) <= 1e-9 for lv in levels), \
                    (target, axis.name, value)

import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import verifier
from loopsynth.compiler import TargetState, compile_target
from loopsynth.engine import run_loop, run_loop_sampled, run_unrolled
from loopsynth.gaussian import (GaussianState, MeasurementPlan, SqueezerSpec,
                                apply_beamsplitter, apply_phase,
                                sample_quadratures, vacuum)
from loopsynth.schedule import NoiseConfig
from loopsynth.verifier import (CALIBRATION_TARGETS, NullifierSpec,
                                calibrate_efficiency, criterion_parts,
                                cluster_nullifier, estimate,
                                linear_cluster_oracle_cov, nullifiers_for,
                                plan_measurements, stream_nullifier_estimates,
                                stream_nullifier_variances, variance_analytic)

SOURCE = SqueezerSpec(5.0, 8.0)


# ---------------------------------------------------------------------------
# criterion construction
# ---------------------------------------------------------------------------


def test_epr_criteria():
    crits = nullifiers_for(TargetState.epr())
    assert len(crits) == 1
    assert crits[0].first.terms == ((1, "x", 1.0), (2, "x", -1.0))
    assert crits[0].second.terms == ((1, "p", 1.0), (2, "p", 1.0))
    assert crits[0].threshold == 1.0


def test_ghz3_criteria_share_total_momentum():
    crits = nullifiers_for(TargetState.ghz(3))
    assert len(crits) == 3
    total_p = ((1, "p", 1.0), (2, "p", 1.0), (3, "p", 1.0))
    assert all(c.second.terms == total_p for c in crits)
    firsts = [c.first.terms for c in crits]
    assert ((1, "x", 1.0), (2, "x", -1.0)) in firsts
    assert ((2, "x", 1.0), (3, "x", -1.0)) in firsts
    assert ((1, "x", 1.0), (3, "x", -1.0)) in firsts


def test_cluster_nullifier_forms():
    assert cluster_nullifier(1).terms == ((1, "p", 1.0), (2, "x", -1.0))
    assert cluster_nullifier(4).terms == ((4, "p", 1.0), (3, "x", -1.0),
                                          (5, "x", -1.0))


def test_linear5_family_has_boundary_forms():
    family = nullifiers_for(TargetState.linear_cluster(5))
    assert len(family) == 5
    assert family[0].terms == ((1, "p", 1.0), (2, "x", -1.0))
    assert family[-1].terms == ((5, "p", 1.0), (4, "x", -1.0))
    assert all(len(spec.terms) == 3 for spec in family[1:-1])


def test_star3_labels_match_cluster_frame():
    crits = nullifiers_for(TargetState.star_cluster(3))
    assert [c.first.label for c in crits] == ["p1-x3", "p2-x3", "p1-p2"]
    assert all(c.second.label == "p3-x1-x2" for c in crits)
    # lab-frame terms are the GHZ ones pushed through the local rotation
    assert crits[0].first.terms == ((1, "x", 1.0), (3, "p", -1.0))
    assert crits[2].first.terms == ((1, "x", 1.0), (2, "x", -1.0))


def test_spec_rejects_conflicting_quadratures():
    with pytest.raises(ValueError, match="both x and p"):
        NullifierSpec(((1, "x", 1.0), (1, "p", 1.0)))


@pytest.mark.parametrize("mode", [1.5, 2.0, "1", None])
def test_spec_rejects_non_integer_modes(mode):
    with pytest.raises(ValueError, match="mode must be an integer"):
        NullifierSpec(((mode, "x", 1.0), (3, "x", -1.0)))


def test_spec_accepts_numpy_integer_modes():
    spec = NullifierSpec(((np.int64(1), "x", 1.0), (np.int32(2), "x", -1.0)))
    assert spec.modes() == (1, 2)


def test_spec_formats_its_label_only_when_read(monkeypatch):
    terms = ((1, "p", 1.0), (2, "x", -0.5))
    calls = []
    real = verifier._format_terms
    monkeypatch.setattr(verifier, "_format_terms",
                        lambda t: calls.append(None) or real(t))
    plain, named = NullifierSpec(terms), NullifierSpec(terms, "p1-x2/2")
    assert not calls
    assert (plain.label, named.label) == ("p1-0.5*x2", "p1-x2/2")
    assert plain != named and named == NullifierSpec(terms, "p1-x2/2")


# ---------------------------------------------------------------------------
# analytic evaluation
# ---------------------------------------------------------------------------


def test_vacuum_two_term_baseline():
    spec = NullifierSpec(((1, "p", 1.0), (2, "x", -1.0)))
    assert variance_analytic(vacuum(2), spec) == pytest.approx(0.5, abs=1e-15)


def test_vacuum_three_term_baseline():
    spec = cluster_nullifier(2)
    assert variance_analytic(vacuum(3), spec) == pytest.approx(0.75, abs=1e-15)


def test_mean_contributes_to_second_moment():
    state = GaussianState(np.array([0.3, 0.0]), 0.25 * np.eye(2))
    spec = NullifierSpec(((1, "x", 1.0),))
    assert variance_analytic(state, spec) == pytest.approx(0.25 + 0.09, abs=1e-12)


def test_relabeling_invariance():
    state = run_unrolled(compile_target(TargetState.linear_cluster(3)), SOURCE)
    spec = cluster_nullifier(2)
    direct = variance_analytic(state, spec)
    # present the same state with modes listed in reverse order
    perm = [2, 1, 0]
    idx = [q for m in perm for q in (2 * m, 2 * m + 1)]
    relabeled = GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])
    mode_map = {1: 2, 2: 1, 3: 0}
    assert variance_analytic(relabeled, spec, mode_map) == pytest.approx(
        direct, abs=1e-14)


def test_mode_missing_from_mode_map_raises_value_error():
    state = run_unrolled(compile_target(TargetState.linear_cluster(3)), SOURCE)
    with pytest.raises(ValueError, match="mode 3 not present"):
        variance_analytic(state, cluster_nullifier(2), {1: 0, 2: 1})


def test_passive_transforms_keep_vacuum_baselines():
    state = vacuum(3)
    state = apply_beamsplitter(state, 0, 1, 0.37)
    state = apply_phase(state, 2, 123.0)
    state = apply_beamsplitter(state, 1, 2, 0.81)
    for spec in (cluster_nullifier(1), cluster_nullifier(2)):
        assert variance_analytic(state, spec) == pytest.approx(
            spec.vacuum_variance(), abs=1e-12)


def test_ideal_cluster_nullifiers_equal_and_inseparable():
    sched = compile_target(TargetState.infinite_cluster(12))
    specs = [cluster_nullifier(k) for k in range(1, 12)]
    values = stream_nullifier_variances(sched, SOURCE, specs, window=3)
    interior = values[1:]
    assert max(interior) - min(interior) < 1e-12
    assert all(v < 0.5 for v in values)
    assert interior[0] == pytest.approx(3 * 10.0 ** -0.5 / 4.0, abs=1e-12)


def test_table_values_sit_between_zero_and_vacuum():
    pure = SqueezerSpec(5.0, 5.0)
    for name, target, row, _ in CALIBRATION_TARGETS:
        crit = nullifiers_for(target)[row]
        state = run_unrolled(compile_target(target), pure)
        value = variance_analytic(state, crit.first) \
            + variance_analytic(state, crit.second)
        assert 0.0 < value < crit.vacuum_variance(), name


def test_star_criteria_equal_ghz_criteria_values():
    noise = NoiseConfig(mode="realistic")
    ghz_state = run_unrolled(compile_target(TargetState.ghz(3), noise=noise), SOURCE)
    star_state = run_unrolled(
        compile_target(TargetState.star_cluster(3), noise=noise), SOURCE)
    ghz_crits = nullifiers_for(TargetState.ghz(3))
    star_crits = nullifiers_for(TargetState.star_cluster(3))
    # star pair ordering (1,3), (2,3), (1,2) versus GHZ (1,2), (2,3), (1,3)
    pairing = [(0, 2), (1, 1), (2, 0)]
    for star_i, ghz_i in pairing:
        star_v = variance_analytic(star_state, star_crits[star_i].first) \
            + variance_analytic(star_state, star_crits[star_i].second)
        ghz_v = variance_analytic(ghz_state, ghz_crits[ghz_i].first) \
            + variance_analytic(ghz_state, ghz_crits[ghz_i].second)
        assert star_v == pytest.approx(ghz_v, abs=1e-12)


# ---------------------------------------------------------------------------
# sampled estimation
# ---------------------------------------------------------------------------


def test_vacuum_estimate_reproduces_expected_stderr():
    plan = MeasurementPlan((0.0, 0.0), shots=5000)
    samples = sample_quadratures(vacuum(2), plan, seed=101)
    spec = NullifierSpec(((1, "x", 1.0), (2, "x", -1.0)))
    result = estimate(samples, spec)
    assert result.value == pytest.approx(0.5, abs=3 * 0.5 * np.sqrt(2 / 4999))
    assert result.stderr == pytest.approx(0.01, abs=0.002)


def test_estimate_consistent_with_analytic():
    state = run_unrolled(compile_target(TargetState.linear_cluster(3)), SOURCE)
    spec = cluster_nullifier(2)
    [(plan, _)] = plan_measurements([spec], num_modes=3, shots=20_000)
    samples = sample_quadratures(state, plan, seed=55)
    result = estimate(samples, spec)
    assert result.value == pytest.approx(variance_analytic(state, spec),
                                         abs=3 * result.stderr)


def test_two_shot_estimate_edge():
    plan = MeasurementPlan((0.0,), shots=2)
    samples = sample_quadratures(vacuum(1), plan, seed=5)
    result = estimate(samples, NullifierSpec(((1, "x", 1.0),)))
    assert result.stderr == pytest.approx(result.value * np.sqrt(2.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9000), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
def test_unbiased_variance_equals_numpy_var_bit_for_bit(n, seed, scale, shift):
    x = shift + scale * np.random.default_rng(seed).standard_normal(n)
    assert verifier._unbiased_variance(x.copy()) == float(np.var(x, ddof=1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e100, 1e100), min_size=2, max_size=60))
def test_unbiased_variance_equals_numpy_var_on_any_floats(values):
    x = np.array(values)
    assert verifier._unbiased_variance(x.copy()) == float(np.var(x, ddof=1))


def test_estimate_rejects_wrong_basis():
    plan = MeasurementPlan((0.0, 0.0), shots=100)
    samples = sample_quadratures(vacuum(2), plan, seed=6)
    with pytest.raises(ValueError, match="measured at"):
        estimate(samples, NullifierSpec(((1, "p", 1.0), (2, "x", 1.0))))


def test_measurement_plan_for_epr_terms():
    spec = NullifierSpec(((1, "x", 1.0), (2, "x", -1.0)))
    [(plan, _)] = plan_measurements([spec], num_modes=2)
    assert plan.angles_deg == (0.0, 0.0)


def test_measurement_plan_even_family_alternates():
    even = [cluster_nullifier(k) for k in (2, 4)]
    [(plan, _)] = plan_measurements(even, num_modes=5)
    assert plan.angles_deg == (0.0, 90.0, 0.0, 90.0, 0.0)


def test_measurement_plan_odd_family_is_parity_shifted():
    odd = [cluster_nullifier(k) for k in (1, 3)]
    [(plan, _)] = plan_measurements(odd, num_modes=4)
    assert plan.angles_deg == (90.0, 0.0, 90.0, 0.0)


def test_plan_measurements_splits_cluster_family_by_parity():
    family = [cluster_nullifier(k) for k in range(1, 8)]
    groups = plan_measurements(family, num_modes=8)
    assert len(groups) == 2
    sizes = sorted(len(members) for _, members in groups)
    assert sizes == [3, 4]


# ---------------------------------------------------------------------------
# closed-form oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_circuit_for_all_small_sizes():
    for n in range(2, 9):
        circuit = run_unrolled(compile_target(TargetState.linear_cluster(n)), SOURCE)
        direct = linear_cluster_oracle_cov(n, SOURCE)
        assert np.max(np.abs(circuit.cov - direct.cov)) < 1e-10, n


def test_oracle_zero_db_source_gives_vacuum():
    state = linear_cluster_oracle_cov(4, SqueezerSpec(0.0, 0.0))
    assert np.allclose(state.cov, 0.25 * np.eye(8), atol=1e-12)


def test_oracle_nullifiers_scale_with_squeezing():
    # nullifier variances decay like the squeezed variance itself
    spec = cluster_nullifier(2)
    v0 = variance_analytic(linear_cluster_oracle_cov(5, SqueezerSpec(0, 0)), spec)
    v10 = variance_analytic(linear_cluster_oracle_cov(5, SqueezerSpec(10, 10)), spec)
    assert v10 / v0 == pytest.approx(0.1, abs=1e-12)


def test_stream_reports_uncoverable_specs():
    sched = compile_target(TargetState.linear_cluster(6))
    wide = NullifierSpec(((1, "x", 1.0), (6, "x", 1.0)))
    mode_0 = NullifierSpec(((0, "x", 1.0), (1, "x", 1.0)))
    beyond_last_output = NullifierSpec(((6, "x", 1.0), (7, "x", 1.0)))
    for spec in (wide, mode_0, beyond_last_output):
        with pytest.raises(ValueError, match="window never covered"):
            stream_nullifier_variances(sched, SOURCE, [spec], window=3)


STREAM_TARGETS = (TargetState.epr(), TargetState.ghz(5), TargetState.star_cluster(4),
                  TargetState.linear_cluster(3), TargetState.linear_cluster(8),
                  TargetState.infinite_cluster(12))


@pytest.mark.parametrize("window", [3, 8])
@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("target", STREAM_TARGETS, ids=lambda t: f"{t.kind}{t.n}")
def test_stream_equals_analytic_variance_on_validated_records(target, mode,
                                                              window):
    # the stream reads the raw window buffer; each value must equal the one
    # variance_analytic takes from the validated run_loop record, bit for
    # bit, including at the chain head where fewer modes than the window
    # are held
    assert_stream_equals_records(target, NoiseConfig(mode=mode), SOURCE, window)


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("target", STREAM_TARGETS, ids=lambda t: f"{t.kind}{t.n}")
def test_derived_hold_rule_equals_the_widest_span_window(target, mode):
    # what keeps the verify CSV bytes: these targets' specs read contiguous
    # runs of modes, so the derived default holds what the window held
    sched = compile_target(target, NoiseConfig(mode=mode))
    specs = list(dict.fromkeys(
        part for crit in nullifiers_for(target) for part in criterion_parts(crit)))
    window = max([3] + [max(s.modes()) - min(s.modes()) + 1 for s in specs])
    assert stream_nullifier_variances(sched, SOURCE, specs) \
        == stream_nullifier_variances(sched, SOURCE, specs, window=window)


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("target", STREAM_TARGETS, ids=lambda t: f"{t.kind}{t.n}")
def test_criteria_equal_their_parts_summed_in_order(target, mode):
    # the flat part list evaluated once, then each criterion's parts summed
    # in order: what keeps the verify CSV bytes
    sched = compile_target(target, NoiseConfig(mode=mode))
    criteria = nullifiers_for(target)
    specs = list(dict.fromkeys(
        part for crit in criteria for part in criterion_parts(crit)))
    parts = dict(zip(specs, stream_nullifier_variances(sched, SOURCE, specs)))
    expected = [sum(parts[spec] for spec in criterion_parts(crit))
                for crit in criteria]
    assert stream_nullifier_variances(sched, SOURCE, criteria) == expected


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("target", STREAM_TARGETS, ids=lambda t: f"{t.kind}{t.n}")
def test_sampled_stream_equals_estimate_on_whole_sample_sets(target, mode):
    # what keeps the verify CSV bytes: the same plans, the same child seeds
    # and the same estimator formula as on a whole SampleSet
    sched = compile_target(target, NoiseConfig(mode=mode))
    criteria = nullifiers_for(target)
    groups = plan_measurements(criteria, sched.num_outputs, 300)
    seeds = np.random.SeedSequence(8).spawn(len(groups))
    expected = {spec: estimate(run_loop_sampled(sched, SOURCE, plan, seed=child),
                               spec)
                for (plan, specs), child in zip(groups, seeds) for spec in specs}
    assert stream_nullifier_estimates(sched, SOURCE, criteria, 300, seed=8) \
        == expected


def test_sampled_stream_holds_only_the_rows_still_read():
    target = TargetState.linear_cluster(400)
    sched = compile_target(target, NoiseConfig(mode="realistic"))
    criteria = nullifiers_for(target)
    # a first run imports what numpy loads lazily, which is not the stream's
    stream_nullifier_estimates(sched, SOURCE, criteria, 2, seed=3)
    tracemalloc.start()
    try:
        estimates = stream_nullifier_estimates(sched, SOURCE, criteria, 2000,
                                               seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == 400
    assert peak < 400 * 2000 * 8 / 10  # a tenth of one plan's whole array


def _cluster_case(n=40, mode="realistic"):
    target = TargetState.linear_cluster(n)
    return compile_target(target, NoiseConfig(mode=mode)), nullifiers_for(target)


def _fail_in(monkeypatch, where, error):
    """Make every plan streamed in ``where`` ("parent" or "child") raise."""
    parent, real = os.getpid(), verifier.run_loop

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "run_loop", failing)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """The forked path on any machine and at any size, each test bounded to
    a minute.

    Fork does not need a second core.  The alarm, unlike a wait on the
    child, also ends a test whose child never exits.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(verifier, "FORK_MIN_DRAWS", 0)

    def expire(signum, frame):
        raise TimeoutError("a forked plan test ran for a minute")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _count_forks(monkeypatch) -> list:
    """A list that gains an entry at each ``os.fork`` from here on."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
def test_forked_plans_equal_the_serial_run(two_cpus, monkeypatch, mode):
    sched, criteria = _cluster_case(mode=mode)
    forked = stream_nullifier_estimates(sched, SOURCE, criteria, 400, seed=4)
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = stream_nullifier_estimates(sched, SOURCE, criteria, 400, seed=4)
    assert forked == serial
    assert len(forked) == 40


def test_forked_plans_run_at_most_one_process_per_plan(two_cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    forks = _count_forks(monkeypatch)
    sched, criteria = _cluster_case()
    assert len(plan_measurements(criteria, sched.num_outputs)) == 2
    stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    assert len(forks) == 1
    _assert_no_child_left()


def test_one_child_streams_every_later_plan(two_cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    sched = compile_target(TargetState.epr(), NoiseConfig(mode="realistic"))
    criteria = [NullifierSpec(((1, "x", 1.0), (2, "x", -1.0))),
                NullifierSpec(((1, "p", 1.0), (2, "p", 1.0))),
                NullifierSpec(((1, "x", 1.0), (2, "p", 1.0)))]
    assert len(plan_measurements(criteria, sched.num_outputs)) == 3
    forks = _count_forks(monkeypatch)
    forked = stream_nullifier_estimates(sched, SOURCE, criteria, 300, seed=5)
    assert len(forks) == 1
    _assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = stream_nullifier_estimates(sched, SOURCE, criteria, 300, seed=5)
    assert len(forks) == 1
    assert forked == serial
    assert list(forked) == criteria


@pytest.mark.parametrize("over", [0, 1], ids=["at", "below"])
def test_plans_fork_from_the_draw_threshold(two_cpus, monkeypatch, over):
    sched, criteria = _cluster_case()
    monkeypatch.setattr(verifier, "FORK_MIN_DRAWS",
                        sched.num_outputs * 200 + over)
    forks = _count_forks(monkeypatch)
    stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    assert len(forks) == 1 - over
    _assert_no_child_left()


def test_plans_stream_in_process_while_another_thread_runs(two_cpus,
                                                           monkeypatch):
    monkeypatch.setattr(verifier.threading, "active_count", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    sched, criteria = _cluster_case(n=8)
    assert len(stream_nullifier_estimates(sched, SOURCE, criteria, 100)) == 8


def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(two_cpus):
    # 20 000 estimates are 320 KB of floats, several times a pipe's buffer:
    # a parent that waited on its child before reading would hang here
    def stream(k):
        return [verifier.Estimate(k + i / 7, i * 1e-3) for i in range(20000)]

    assert verifier._run_plans(stream, [(0,), (1,)], 0) == [stream(0), stream(1)]
    _assert_no_child_left()


@pytest.mark.parametrize("error", [ValueError("planted in the child"),
                                   MemoryError("planted in the child")],
                         ids=lambda e: type(e).__name__)
def test_a_childs_error_is_raised_unchanged(two_cpus, monkeypatch, error):
    sched, criteria = _cluster_case()
    _fail_in(monkeypatch, "child", error)
    with pytest.raises(type(error), match=r"^planted in the child$"):
        stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    _assert_no_child_left()


def test_a_childs_non_finite_draw_is_named(two_cpus, monkeypatch):
    sched, criteria = _cluster_case()
    parent, real = os.getpid(), verifier.run_loop

    def corrupted(*args, **kwargs):
        for record in real(*args, **kwargs):
            if os.getpid() != parent and record.index == 7:
                record.values[3] = np.inf
            yield record

    monkeypatch.setattr(verifier, "run_loop", corrupted)
    with pytest.raises(ValueError, match=r"^non-finite samples of mode 7$"):
        stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    _assert_no_child_left()


def test_an_error_in_the_callers_plan_still_reaps_the_child(two_cpus,
                                                            monkeypatch):
    sched, criteria = _cluster_case()
    _fail_in(monkeypatch, "parent", ValueError("planted in the parent"))
    with pytest.raises(ValueError, match=r"^planted in the parent$"):
        stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    _assert_no_child_left()


def test_a_share_whose_fork_fails_streams_in_process(two_cpus, monkeypatch):
    sched, criteria = _cluster_case()
    serial = stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert stream_nullifier_estimates(sched, SOURCE, criteria, 200,
                                      seed=2) == serial


def test_a_child_that_sends_nothing_is_an_error(two_cpus, monkeypatch):
    sched, criteria = _cluster_case()
    monkeypatch.setattr(verifier, "_plans_child",
                        lambda stream, plans, read_end, write_end: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 and sent nothing"):
        stream_nullifier_estimates(sched, SOURCE, criteria, 200, seed=1)
    _assert_no_child_left()


def test_total_momentum_holds_every_row():
    target = TargetState.ghz(5)
    criteria = nullifiers_for(target)
    total_p = criteria[0].second
    by_newest, last_read = verifier._reading_rule([(total_p, total_p)], 5)
    assert by_newest == {5: [(total_p, total_p)]}
    assert list(last_read) == [0, 5, 5, 5, 5, 5]
    estimates = stream_nullifier_estimates(compile_target(target), SOURCE,
                                           criteria, 500, seed=1)
    assert estimates[total_p].value < total_p.vacuum_variance()


def test_mixed_criteria_give_one_value_per_entry_in_order():
    sched = compile_target(TargetState.linear_cluster(3),
                           NoiseConfig(mode="realistic"))
    pair, = nullifiers_for(TargetState.epr())
    single = cluster_nullifier(2)
    first, second, alone = stream_nullifier_variances(
        sched, SOURCE, [pair.first, pair.second, single])
    mixed = [single, pair, pair.second]
    assert stream_nullifier_variances(sched, SOURCE, mixed) \
        == [alone, first + second, second]


def test_sparse_spec_holds_only_its_modes(monkeypatch):
    sched = compile_target(TargetState.linear_cluster(6),
                           NoiseConfig(mode="realistic"))
    spec = NullifierSpec(((1, "x", 1.0), (6, "x", 1.0)))
    held = {}
    stream = verifier._window_covariances

    def spy(schedule, source, last_read):
        for index, modes, cov in stream(schedule, source, last_read):
            held[index] = list(modes)
            yield index, modes, cov

    monkeypatch.setattr(verifier, "_window_covariances", spy)
    value, = stream_nullifier_variances(sched, SOURCE, [spec])
    assert held[6] == [1, 6]
    dense = variance_analytic(run_unrolled(sched, SOURCE), spec)
    assert abs(value - dense) < 1e-12


def test_records_of_a_90_db_source_validate_and_equal_the_stream():
    # entries near 6e6 carry round-off above the absolute 1e-8 symmetry
    # tolerance; the tolerance scales with the entries, so records validate
    assert_stream_equals_records(TargetState.linear_cluster(5),
                                 NoiseConfig(mode="realistic"),
                                 SqueezerSpec(90.0, 90.0), 3)


def assert_stream_equals_records(target, noise, source, window):
    sched = compile_target(target, noise)
    specs = [spec for spec in dict.fromkeys(
        part for crit in nullifiers_for(target) for part in criterion_parts(crit))
        if max(spec.modes()) - min(spec.modes()) < window]
    assert specs
    records = {r.index: r for r in run_loop(sched, source, window=window)}
    expected = []
    for spec in specs:
        record = records[max(spec.modes())]
        mode_map = {m: i for i, m in enumerate(record.window_modes)}
        expected.append(variance_analytic(record.state, spec, mode_map))
    assert stream_nullifier_variances(sched, source, specs, window=window) \
        == expected


def test_stream_builds_no_validated_state(monkeypatch):
    sched = compile_target(TargetState.linear_cluster(1008),
                           NoiseConfig(mode="realistic", detection_efficiency=0.911))
    specs = nullifiers_for(TargetState.linear_cluster(1008))
    calls = []
    real = GaussianState.__post_init__

    def counted(self):
        calls.append(None)
        real(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    values = stream_nullifier_variances(sched, SOURCE, specs)
    assert len(values) == 1008 and calls == []
    records = sum(1 for _ in run_loop(sched, SOURCE, window=3))
    assert records == 1008 and len(calls) == records


def test_stream_rejects_non_finite_and_negative_variances(monkeypatch):
    sched = compile_target(TargetState.linear_cluster(4))
    specs = nullifiers_for(TargetState.linear_cluster(4))

    def corrupted(value):
        def stream(schedule, source, last_read):
            for index in range(1, schedule.num_outputs + 1):
                modes = [m for m in range(1, index + 1)
                         if m == index or last_read[m] >= index]
                yield index, modes, np.full((2 * len(modes),) * 2, value)
        return stream

    for value in (np.nan, np.inf, -1.0):
        monkeypatch.setattr(verifier, "_window_covariances", corrupted(value))
        with pytest.raises(ValueError, match="negative or non-finite"), \
                np.errstate(invalid="ignore"):
            stream_nullifier_variances(sched, SOURCE, specs)


def test_stream_names_a_shared_part_once(monkeypatch):
    # every GHZ criterion carries the total momentum
    target = TargetState.ghz(4)
    sched = compile_target(target)
    with pytest.raises(ValueError, match="window never covered") as uncovered:
        stream_nullifier_variances(sched, SOURCE, nullifiers_for(target), window=3)
    assert str(uncovered.value).count("p1+p2+p3+p4") == 1

    def negative(schedule, source, last_read):
        for index in range(1, schedule.num_outputs + 1):
            modes = [m for m in range(1, index + 1)
                     if m == index or last_read[m] >= index]
            yield index, modes, np.full((2 * len(modes),) * 2, -1.0)

    monkeypatch.setattr(verifier, "_window_covariances", negative)
    with pytest.raises(ValueError, match="negative or non-finite") as refused:
        stream_nullifier_variances(sched, SOURCE, nullifiers_for(target))
    assert str(refused.value).count("p1+p2+p3+p4") == 1


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_epr_row_alone_efficiency():
    result = calibrate_efficiency()
    # eta solving eta*0.3162 + (1-eta)*1.0 = 0.44
    assert result.epr_row_efficiency == pytest.approx(0.820, abs=0.01)
    assert 0.77 <= result.epr_row_efficiency <= 0.87


def test_fitted_efficiency_reproduces_reference_rows():
    result = calibrate_efficiency()
    assert 0.0 < result.efficiency <= 1.0
    assert result.max_abs_residual() <= 0.08
    assert len(result.rows) == 11


def test_calibration_streams_the_dense_reference_values():
    # the dense chain stays the oracle of the streamed base values
    result = calibrate_efficiency()
    noise = NoiseConfig(mode="realistic")
    for (_, target, index, _), row in zip(CALIBRATION_TARGETS, result.rows):
        state = run_unrolled(compile_target(target, noise=noise), SqueezerSpec())
        crit = nullifiers_for(target)[index]
        dense = sum(variance_analytic(state, spec) for spec in criterion_parts(crit))
        assert abs(row.base_value - dense) < 1e-12
    pair, = nullifiers_for(TargetState.epr())
    ideal = run_unrolled(compile_target(TargetState.epr()), SqueezerSpec())
    ideal_value = sum(variance_analytic(ideal, spec) for spec in criterion_parts(pair))
    epr_row = result.rows[0]
    implied = (epr_row.vacuum_value - epr_row.measured) \
        / (epr_row.vacuum_value - ideal_value)
    assert abs(result.epr_row_efficiency - implied) < 1e-12


def test_unit_efficiency_fits_worse_than_calibrated():
    result = calibrate_efficiency()
    sse_fit = sum(r.residual ** 2 for r in result.rows)
    sse_unit = sum((r.base_value - r.measured) ** 2 for r in result.rows)
    assert sse_unit > sse_fit

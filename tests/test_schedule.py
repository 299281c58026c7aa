import json

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.schedule import (_BIN_KEYS, _NOISE_KEYS, _TOP_KEYS, BinSetting,
                                ControlSchedule, NoiseConfig,
                                ScheduleFormatError, parse_schedule,
                                serialize_schedule)


def make_schedule(ts, thetas=None, noise=None):
    thetas = thetas or [0.0] * len(ts)
    bins = tuple(BinSetting(T=t, theta_deg=th) for t, th in zip(ts, thetas))
    return ControlSchedule(bins=bins, noise=noise or NoiseConfig())


def test_round_trip_identity():
    sched = make_schedule([1.0, 0.5, 1.0], [90.0, 0.0, 0.0],
                          noise=NoiseConfig(mode="realistic",
                                            loop_loss_per_trip=0.065,
                                            detection_efficiency=0.82))
    assert parse_schedule(serialize_schedule(sched)) == sched


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
       st.floats(1.0, 500.0))
def test_round_trip_random_schedules(ts, tau):
    sched = ControlSchedule(
        bins=tuple(BinSetting(T=t, theta_deg=(t * 720.0) % 360.0) for t in ts),
        tau_ns=tau)
    assert parse_schedule(serialize_schedule(sched)) == sched


def test_out_of_range_transmissivity_names_bin():
    doc = json.loads(serialize_schedule(make_schedule([1.0, 0.5, 1.0])))
    doc["bins"][2]["T"] = 1.2
    with pytest.raises(ScheduleFormatError, match=r"bins\[2\]"):
        parse_schedule(json.dumps(doc))


def test_missing_bins_is_structural_error():
    with pytest.raises(ScheduleFormatError, match="missing required field 'bins'"):
        parse_schedule('{"tau_ns": 66.0}')


def test_unknown_top_level_key_rejected():
    text = serialize_schedule(make_schedule([1.0, 0.5]))
    doc = json.loads(text)
    doc["target"] = "epr"
    with pytest.raises(ScheduleFormatError, match="unknown field 'target'"):
        parse_schedule(json.dumps(doc))


def test_unknown_bin_key_rejected_with_index():
    doc = json.loads(serialize_schedule(make_schedule([1.0, 0.5])))
    doc["bins"][1]["gain"] = 3
    with pytest.raises(ScheduleFormatError, match=r"bins\[1\].*'gain'"):
        parse_schedule(json.dumps(doc))


def test_malformed_number_reports_location():
    with pytest.raises(ScheduleFormatError, match="line"):
        parse_schedule('{"bins": [{"T": 1.0}, {"T": oops}]}')


@pytest.mark.parametrize("text, message", [
    ('{"bins": [{"T": "high"}, {"T": 1.0}]}', r"bins\[0\]\.T: expected a number"),
    ('{"tau_ns": Infinity, "bins": [{"T": 1.0}, {"T": 1.0}]}',
     "tau_ns: expected a finite number, got inf"),
    ('{"bins": [{"T": 1.0, "theta_deg": NaN}, {"T": 1.0}]}',
     r"bins\[0\]\.theta_deg: expected a finite number, got nan"),
    ('{"bins": [{"T": 1.0, "phi_deg": -Infinity}, {"T": 1.0}]}',
     r"bins\[0\]\.phi_deg: expected a finite number, got -inf"),
    ('{"noise": {"phase_jitter_deg_per_trip": Infinity},'
     ' "bins": [{"T": 1.0}, {"T": 1.0}]}',
     "noise.phase_jitter_deg_per_trip: expected a finite number, got inf"),
    ('{"bins": [{"T": 1.0, "theta_deg": -1' + "0" * 400 + '}, {"T": 1.0}]}',
     r"bins\[0\]\.theta_deg: expected a finite number, got -inf"),
    ('{"bins": [{"T": ' + "1" * 5000 + '}, {"T": 1}]}',
     r"bins\[0\]\.T: expected a finite number, got inf"),
], ids=["string", "tau-inf", "theta-nan", "phi-neginf", "jitter-inf",
        "theta-huge-int", "T-over-int-digit-limit"])
def test_non_numeric_field_reports_path(text, message):
    with pytest.raises(ScheduleFormatError, match=message):
        parse_schedule(text)


def test_single_bin_rejected():
    with pytest.raises(ScheduleFormatError, match="at least 2 bins"):
        parse_schedule('{"bins": [{"T": 1.0}]}')


def test_ideal_mode_forces_noise_free():
    noise = NoiseConfig(mode="ideal", loop_loss_per_trip=0.2,
                        phase_jitter_deg_per_trip=10.0,
                        detection_efficiency=0.5)
    assert noise.loop_loss_per_trip == 0.0
    assert noise.phase_jitter_deg_per_trip == 0.0
    assert noise.detection_efficiency == 1.0


@pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_jitter_rejected(jitter):
    with pytest.raises(ValueError, match="phase jitter"):
        NoiseConfig(mode="realistic", phase_jitter_deg_per_trip=jitter)


def test_bad_source_rejected():
    with pytest.raises(ValueError, match="source"):
        BinSetting(T=0.5, source="laser")


@pytest.mark.parametrize("field, value", [
    ("theta_deg", float("nan")), ("theta_deg", float("-inf")),
    ("phi_deg", float("inf")), ("phi_deg", float("nan")),
])
def test_bin_setting_rejects_non_finite_angles(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BinSetting(T=0.5, **{field: value})


@pytest.mark.parametrize("tau_ns", [float("nan"), float("inf"), 0.0, -66.0])
def test_schedule_rejects_non_finite_or_non_positive_tau(tau_ns):
    bins = (BinSetting(T=1.0), BinSetting(T=1.0))
    with pytest.raises(ValueError, match="tau_ns must be finite and positive"):
        ControlSchedule(bins=bins, tau_ns=tau_ns)


def two_bin_doc(**noise):
    return {"noise": noise, "bins": [{"T": 1.0}, {"T": 0.5}]}


def with_bin(doc, **fields):
    doc["bins"][1].update(fields)
    return doc


# each rule of the types, reached through the file: path first, then the field
@pytest.mark.parametrize("doc, message", [
    (with_bin(two_bin_doc(), source="laser"),
     r"^bins\[1\]: source must be one of \('squeezer', 'vacuum', 'blocked'\), "
     r"got 'laser'$"),
    (two_bin_doc(mode="noisy"),
     r"^noise: mode must be one of \('ideal', 'realistic'\), got 'noisy'$"),
    (with_bin(two_bin_doc(), T=1.2), r"^bins\[1\]: transmissivity 1\.2 outside"),
    (two_bin_doc(mode="realistic", loop_loss_per_trip=1.5),
     r"^noise: loop loss per trip must be in \[0, 1\]"),
    (two_bin_doc(mode="realistic", detection_efficiency=0.0),
     r"^noise: detection efficiency must be in \(0, 1\]"),
    (two_bin_doc(mode="realistic", phase_jitter_deg_per_trip=-1.0),
     r"^noise: phase jitter must be finite and >= 0"),
    ({**two_bin_doc(), "tau_ns": 0.0},
     r"^tau_ns must be finite and positive, got 0\.0$"),
    ({"bins": [{"T": 1.0}]}, r"^bins must list at least 2 bins, got 1$"),
    ({"bins": [{"T": 1.0}, {"theta_deg": 0.0}]},
     r"^bins\[1\]: missing required field 'T'$"),
    ({"bins": [{"T": 1.0}, [0.5]]}, r"^bins\[1\]: expected an object$"),
    ({"noise": "ideal", "bins": [{"T": 1.0}, {"T": 1.0}]},
     r"^noise: expected an object$"),
], ids=["source", "mode", "T", "loss", "efficiency", "jitter", "tau", "one-bin",
        "missing-T", "bin-not-object", "noise-not-object"])
def test_type_rules_refuse_with_path_and_field(doc, message):
    with pytest.raises(ScheduleFormatError, match=message):
        parse_schedule(json.dumps(doc))


def test_serialize_emits_keys_in_table_order():
    sched = make_schedule([1.0, 0.5, 0.0],
                          noise=NoiseConfig(mode="realistic"))
    doc = json.loads(serialize_schedule(sched))
    assert tuple(doc) == _TOP_KEYS
    assert tuple(doc["noise"]) == _NOISE_KEYS
    assert all(tuple(entry) == _BIN_KEYS for entry in doc["bins"])

import json

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.schedule import (BinSetting, ControlSchedule, NoiseConfig,
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
], ids=["string", "tau-inf", "theta-nan", "phi-neginf", "jitter-inf",
        "theta-huge-int"])
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


def test_bad_source_rejected():
    with pytest.raises(ValueError, match="source"):
        BinSetting(T=0.5, source="laser")

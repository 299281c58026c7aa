import dataclasses
import json
import math
import time

import numpy as np
import pytest

from loopsynth import verifier
from loopsynth.cli import main
from loopsynth.compiler import TargetState, compile_target
from loopsynth.engine import run_unrolled
from loopsynth.gaussian import SqueezerSpec
from loopsynth.schedule import (ControlSchedule, NoiseConfig, parse_schedule,
                                serialize_schedule)
from loopsynth.verifier import criterion_parts, nullifiers_for, variance_analytic


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_compile_writes_matching_schedule(tmp_path, capsys):
    out = tmp_path / "ghz3.json"
    assert main(["compile", "ghz", "--n", "3", "-o", str(out)]) == 0
    assert parse_schedule(out.read_text()) == compile_target(TargetState.ghz(3))
    text = capsys.readouterr().out
    assert "feasible" in text
    assert "99.7356" in text


def test_compile_strict_hardware_exit_code(tmp_path, capsys):
    out = tmp_path / "ghz4.json"
    rc = main(["compile", "ghz", "--n", "4", "-o", str(out), "--strict-hardware"])
    assert rc == 2
    assert out.exists()  # infeasible schedules are still written
    assert "INFEASIBLE" in capsys.readouterr().out


def test_compile_large_linear_cluster(tmp_path):
    out = tmp_path / "chain.json"
    assert main(["compile", "cluster1d", "--n", "1008", "-o", str(out)]) == 0
    sched = parse_schedule(out.read_text())
    assert len(sched.bins) == 1009


@pytest.mark.parametrize("name", ["epr", "cluster2"])
def test_compile_refuses_n_that_a_fixed_size_target_ignores(tmp_path, capsys, name):
    out = tmp_path / "s.json"
    assert main(["compile", name, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["compile", name, "--n", "2", "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"3 bins for {name}(n=2)" in captured.out
    out.unlink()
    assert main(["compile", name, "--n", "7", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: {name} always has 2 modes; --n 7 is refused\n"
    assert captured.out == ""
    assert not out.exists()


def test_verify_names_the_bad_field_of_a_schedule(tmp_path, capsys):
    sched, csv = tmp_path / "bad.json", tmp_path / "bad.csv"
    sched.write_text(json.dumps(
        {"bins": [{"T": 1.0}, {"T": 0.5, "source": "laser"}]}))
    assert main(["verify", str(sched), "--csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sched}: bins[1]: source must be one of")
    assert not csv.exists()


def test_verify_refuses_a_non_finite_draw(tmp_path, capsys, monkeypatch):
    sched, csv = tmp_path / "c.json", tmp_path / "c.csv"
    assert main(["compile", "cluster1d", "--n", "4", "-o", str(sched)]) == 0
    real = verifier.run_loop

    def corrupted(*args, **kwargs):
        for record in real(*args, **kwargs):
            if record.index == 3:
                values = record.values.copy()
                values[7] = np.nan
                record = dataclasses.replace(record, values=values)
            yield record

    monkeypatch.setattr(verifier, "run_loop", corrupted)
    capsys.readouterr()
    assert main(["verify", str(sched), "--shots", "100", "--csv", str(csv)]) == 1
    assert capsys.readouterr().err == "error: non-finite samples of mode 3\n"
    assert not csv.exists()


def test_compile_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compile", "bell"])
    assert err.value.code == 1


def test_verify_epr_ideal(tmp_path, capsys):
    sched = tmp_path / "epr.json"
    csv = tmp_path / "epr.csv"
    main(["compile", "epr", "-o", str(sched)])
    rc = main(["verify", str(sched), "--ideal", "--seed", "7",
               "--csv", str(csv)])
    assert rc == 0
    rows = read_csv_rows(csv)
    assert len(rows) == 1
    assert list(rows[0]) == ["criterion", "analytic", "sampled", "stderr", "pass"]
    analytic = float(rows[0]["analytic"])
    sampled = float(rows[0]["sampled"])
    stderr = float(rows[0]["stderr"])
    assert analytic == pytest.approx(10.0 ** -0.5, abs=1e-9)
    assert sampled == pytest.approx(analytic, abs=3 * stderr)
    assert rows[0]["pass"] == "true"


def test_verify_with_calibrated_efficiency(tmp_path):
    sched = tmp_path / "epr.json"
    csv = tmp_path / "epr.csv"
    main(["compile", "epr", "-o", str(sched)])
    rc = main(["verify", str(sched), "--efficiency", "0.82", "--seed", "3",
               "--csv", str(csv)])
    assert rc == 0
    row = read_csv_rows(csv)[0]
    # efficiency 0.82 pulls the noise-free 0.3162 to about 0.44
    assert float(row["analytic"]) == pytest.approx(0.44, abs=0.01)


def test_verify_is_byte_deterministic(tmp_path):
    sched = tmp_path / "ghz.json"
    main(["compile", "ghz", "--n", "3", "-o", str(sched)])
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    main(["verify", str(sched), "--realistic", "--seed", "11", "--csv", str(a)])
    main(["verify", str(sched), "--realistic", "--seed", "11", "--csv", str(b)])
    main(["verify", str(sched), "--realistic", "--seed", "12", "--csv", str(c)])
    assert a.read_bytes().replace(b"a.csv", b"") == \
        b.read_bytes().replace(b"b.csv", b"")
    assert a.read_bytes().replace(b"a.csv", b"") != \
        c.read_bytes().replace(b"c.csv", b"")


@pytest.mark.parametrize("name, n, target", [
    ("epr", 2, TargetState.epr()),
    ("ghz", 3, TargetState.ghz(3)),
    ("ghz", 5, TargetState.ghz(5)),
    ("star", 4, TargetState.star_cluster(4)),
    ("cluster1d", 2, TargetState.linear_cluster(2)),
    ("cluster1d", 3, TargetState.linear_cluster(3)),
], ids=["epr", "ghz3", "ghz5", "star4", "linear2", "linear3"])
def test_verify_analytic_column_matches_dense_reference(tmp_path, name, n, target):
    sched = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    main(["compile", name, "--n", str(n), "-o", str(sched)])
    assert main(["verify", str(sched), "--realistic", "--shots", "200",
                 "--csv", str(csv)]) == 0
    state = run_unrolled(compile_target(target, noise=NoiseConfig(mode="realistic")),
                         SqueezerSpec(5.0, 8.0))
    criteria = nullifiers_for(target)
    rows = read_csv_rows(csv)
    assert [r["criterion"] for r in rows] == [c.label for c in criteria]
    for row, crit in zip(rows, criteria):
        dense = sum(variance_analytic(state, spec) for spec in criterion_parts(crit))
        assert float(row["analytic"]) == pytest.approx(dense, abs=1e-12)


def test_verify_ghz_beyond_dense_reference_limit(tmp_path):
    sched = tmp_path / "ghz25.json"
    csv = tmp_path / "ghz25.csv"
    main(["compile", "ghz", "--n", "25", "-o", str(sched)])
    assert len(parse_schedule(sched.read_text()).bins) == 26
    assert main(["verify", str(sched), "--shots", "500", "--csv", str(csv)]) == 0
    assert len(read_csv_rows(csv)) == 300  # one row per pair of the 25 modes


# at n = 2 some schedules fit more than one name; the first in order wins
N2_ALIASES = {"ghz": "epr", "star": "cluster2", "cluster1d": "cluster2"}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize(
    "name", ["epr", "cluster2", "ghz", "cluster1d", "star", "infinite"])
def test_verify_recognises_each_compiled_target(tmp_path, capsys, name, n):
    sched = tmp_path / "s.json"
    code = main(["compile", name, "--n", str(n), "-o", str(sched)])
    if name in ("epr", "cluster2") and n != 2:
        assert code == 1  # a fixed-size target compiles at its own n only
        return
    assert code == 0
    capsys.readouterr()
    assert main(["verify", str(sched), "--ideal", "--shots", "200",
                 "--csv", str(tmp_path / "s.csv")]) == 0
    if n == 2:
        expected = f"{N2_ALIASES.get(name, name)}(n=2)"
    else:
        expected = f"{name}(n={n})"
    assert f"target: {expected}" in capsys.readouterr().out.splitlines()


def write_linear5(path, dt, turns):
    """Compiled linear_cluster(5), interior T moved by dt, theta by 360 k."""
    bins = compile_target(TargetState.linear_cluster(5)).bins
    moved = [dataclasses.replace(
        b, T=b.T + dt if 0 < k < len(bins) - 1 else b.T,
        theta_deg=b.theta_deg + 360.0 * turns[k]) for k, b in enumerate(bins)]
    path.write_text(serialize_schedule(ControlSchedule(bins=tuple(moved))))


def test_verify_recognition_tolerance(tmp_path, capsys):
    sched = tmp_path / "s.json"
    csv = str(tmp_path / "s.csv")
    write_linear5(sched, 5e-10, [0, 1, -2, 3, -4, 5])
    assert main(["verify", str(sched), "--ideal", "--shots", "200",
                 "--csv", csv]) == 0
    assert "target: cluster1d(n=5)" in capsys.readouterr().out.splitlines()
    write_linear5(sched, 1e-8, [0] * 6)
    assert main(["verify", str(sched), "--ideal", "--shots", "200",
                 "--csv", csv]) == 1
    assert "does not match any compiled target" in capsys.readouterr().err


def test_verify_vacuum_source_fails_criteria(tmp_path):
    sched_path = tmp_path / "epr.json"
    main(["compile", "epr", "-o", str(sched_path)])
    doc = json.loads(sched_path.read_text())
    for entry in doc["bins"]:
        entry["source"] = "vacuum"
    sched_path.write_text(json.dumps(doc))
    csv = tmp_path / "vac.csv"
    assert main(["verify", str(sched_path), "--ideal", "--csv", str(csv)]) == 0
    row = read_csv_rows(csv)[0]
    assert float(row["analytic"]) == pytest.approx(1.0, abs=1e-9)
    assert row["pass"] == "false"


def test_verify_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bins": [{"T": 1.5}, {"T": 1.0}]}')
    assert main(["verify", str(bad)]) == 1
    assert "bins[0]" in capsys.readouterr().err


def test_verify_infinite_cluster_rows(tmp_path):
    sched = tmp_path / "inf.json"
    csv = tmp_path / "inf.csv"
    main(["compile", "infinite", "--n", "12", "-o", str(sched)])
    rc = main(["verify", str(sched), "--ideal", "--shots", "2000",
               "--seed", "4", "--csv", str(csv)])
    assert rc == 0
    rows = read_csv_rows(csv)
    assert len(rows) == 11  # nullifiers 1..11 for a 12-mode chain
    assert all(float(r["analytic"]) < 0.5 for r in rows)
    assert all(r["pass"] == "true" for r in rows)


def test_memory_ideal_curve_is_constant(tmp_path):
    csv = tmp_path / "mem.csv"
    assert main(["memory", "--max-n", "8", "--ideal", "--csv", str(csv)]) == 0
    rows = read_csv_rows(csv)
    assert list(rows[0]) == ["n", "delay_ns", "inseparability", "stderr"]
    values = [float(r["inseparability"]) for r in rows]
    assert max(values) - min(values) < 1e-12
    assert values[0] == pytest.approx(10.0 ** -0.5, abs=1e-9)


def test_memory_default_curve_monotone(tmp_path):
    csv = tmp_path / "mem.csv"
    assert main(["memory", "--max-n", "11", "--csv", str(csv)]) == 0
    rows = read_csv_rows(csv)
    assert [int(r["n"]) for r in rows] == list(range(1, 12))
    assert rows[0]["delay_ns"] == "66.0"
    values = [float(r["inseparability"]) for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_memory_jitter_and_loss_flags(tmp_path):
    jitter_csv = tmp_path / "jitter.csv"
    loss_csv = tmp_path / "loss.csv"
    main(["memory", "--max-n", "6", "--loss", "0", "--csv", str(jitter_csv)])
    main(["memory", "--max-n", "6", "--jitter", "0", "--csv", str(loss_csv)])
    jitter = [float(r["inseparability"]) for r in read_csv_rows(jitter_csv)]
    loss = [float(r["inseparability"]) for r in read_csv_rows(loss_csv)]
    assert jitter != loss
    assert all(v > 10.0 ** -0.5 for v in jitter + loss)


def test_memory_streams_a_long_sweep(tmp_path):
    long, short = tmp_path / "long.csv", tmp_path / "short.csv"
    assert main(["memory", "--max-n", "200", "--csv", str(long)]) == 0
    assert main(["memory", "--max-n", "11", "--csv", str(short)]) == 0
    rows = read_csv_rows(long)
    assert len(rows) == 200
    assert all(math.isfinite(float(row[col])) for row in rows
               for col in ("inseparability", "stderr"))
    assert rows[:11] == read_csv_rows(short)


@pytest.mark.parametrize("shots", ["0", "1"])
def test_memory_rejects_fewer_than_two_shots(tmp_path, capsys, shots):
    csv = tmp_path / "mem.csv"
    rc = main(["memory", "--max-n", "1", "--shots", shots, "--csv", str(csv)])
    assert rc == 1
    assert "error: shots must be >= 2" in capsys.readouterr().err
    assert not csv.exists()


def test_memory_rejects_max_n_below_one(tmp_path, capsys):
    csv = tmp_path / "mem.csv"
    assert main(["memory", "--max-n", "0", "--csv", str(csv)]) == 1
    assert "error: max-n must be >= 1" in capsys.readouterr().err
    assert not csv.exists()


def test_memory_accumulation_flag_is_gone(tmp_path):
    # coherent drift is one phase error shared by every trip, not a bin
    with pytest.raises(SystemExit) as err:
        main(["memory", "--accumulation", "linear",
              "--csv", str(tmp_path / "mem.csv")])
    assert err.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "{schedule}", "--efficiency", "2"], "detection efficiency"),
    (["verify", "{schedule}", "--squeeze-db", "nan"], "non-finite squeezer"),
    (["memory", "--loss", "2"], "loop loss"),
    (["memory", "--jitter", "nan"], "phase jitter"),
    (["memory", "--squeeze-db", "nan", "--antisqueeze-db", "nan"],
     "non-finite squeezer"),
    (["memory", "--antisqueeze-db", "4000"], "overflows"),
])
def test_bad_noise_and_source_flags_are_usage_errors(tmp_path, capsys, argv,
                                                     message):
    schedule, csv = tmp_path / "epr.json", tmp_path / "out.csv"
    assert main(["compile", "epr", "-o", str(schedule)]) == 0
    capsys.readouterr()
    argv = [a.format(schedule=schedule) for a in argv]
    assert main(argv + ["--csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not csv.exists()


def test_selfcheck_passes_quickly(capsys):
    start = time.perf_counter()
    assert main(["selfcheck"]) == 0
    assert time.perf_counter() - start < 60.0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_selfcheck_detects_injected_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "bs-sign"]) == 3
    captured = capsys.readouterr()
    assert "[FAIL] loop-chain equivalence" in captured.out
    assert "loop-chain" in captured.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1

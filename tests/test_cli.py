"""Command-line interface: exit codes, formats, artifacts."""

from __future__ import annotations

import json
import re

import pytest

from painleve_d32 import numeric, verify
from painleve_d32.cli import main
from painleve_d32.models import MAP_IDS

FIVE_PARAMS = "alpha0=0.3,alpha1=0.25,alpha2=0.45,eta=0.7"


def test_verify_all_passes(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    check_lines = [l for l in out.splitlines() if " PASS " in l or " FAIL " in l]
    assert len(check_lines) >= 14
    assert " FAIL " not in out
    assert "resolved variant: corrected" in out


def test_verify_records_format(capsys):
    assert main(["verify", "integrals", "--format", "records"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(l) for l in lines]
    assert {r["check_id"] for r in records} == {
        "integral:five_dim:ywq", "integral:K1_sys:I1", "integral:tildeK2_sys:I2",
    }
    assert all(r["status"] == "pass" for r in records)
    assert all("millis" in r for r in records)
    # the checks are sampling-free: the records are run_scope's, seed and
    # all, and no --seed option exists to stamp another
    want = [r.to_record() for r in verify.run_scope("integrals")]
    for record in records + want:
        del record["millis"]
    assert records == want and {r["seed"] for r in records} == {None}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "integrals", "--format", "records", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_verify_printed_variant_fails(capsys):
    assert main(["verify", "symmetry", "--map", "s2_5d",
                 "--variant", "printed"]) == 1
    out = capsys.readouterr().out
    assert "symmetry:five_dim:s2_5d:printed" in out and "FAIL" in out


def test_verify_records_witness_present(capsys):
    main(["verify", "symmetry", "--map", "s2_5d", "--variant", "printed",
          "--format", "records"])
    record = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert record["status"] == "fail"
    assert record["witness"]


def test_verify_unknown_map_is_usage_error(capsys):
    assert main(["verify", "symmetry", "--map", "nonexistent"]) == 2


def test_verify_map_takes_only_whole_map_ids(capsys):
    # a prefix of two map ids, and a system id, are not map ids
    assert main(["verify", "all", "--map", "s2"]) == 2
    assert main(["verify", "all", "--map", "five_dim"]) == 2
    assert "unknown map 's2'" in capsys.readouterr().err
    assert main(["verify", "all", "--map", "s2_5d", "--format", "records"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["check_id"] for r in records] == ["resolve:s2_5d"]


def test_verify_map_runs_only_the_rows_naming_it(monkeypatch, capsys):
    called = []

    def spy(check):
        def run(*args):
            called.append(args)
            return check(*args)
        return run

    monkeypatch.setattr(verify, "SUITE", tuple(
        (scope, check_id, spy(check), *args) for scope, check_id, check, *args in verify.SUITE
    ))
    assert main(["verify", "all", "--map", "s0_5d"]) == 0
    assert called == [("five_dim", "s0_5d")]


@pytest.mark.parametrize("map_id", MAP_IDS)
def test_every_map_selects_a_suite_check(capsys, map_id):
    # reduce_5d_4d selects reduction:5d_to_4d, whose id does not name the map
    rows = [check_id for _, check_id, _, *args in verify.SUITE if map_id in args]
    assert main(["verify", "all", "--map", map_id, "--format", "records"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert rows and [r["check_id"] for r in records] == rows
    assert all(r["status"] == "pass" for r in records)


def test_verify_bad_scope_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_group_shift(capsys):
    assert main(["group", "shift", "s1 s2 s1 s0"]) == 0
    assert "(-2, 2, 0)" in capsys.readouterr().out


def test_group_action(capsys):
    assert main(["group", "action", "s0"]) == 0
    out = capsys.readouterr().out
    assert " -1   0   0" in out
    assert "eta_sign: -1" in out


def test_group_action_needs_word(capsys):
    assert main(["group", "action"]) == 2


def test_group_unparsable_word(capsys):
    assert main(["group", "shift", "s9"]) == 2


def test_group_pi_autodetects_context(capsys):
    assert main(["group", "action", "pi s0 pi"]) == 0
    out = capsys.readouterr().out
    assert "context th2" in out


def test_group_relations(capsys):
    assert main(["group", "relations", "--samples", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "relation:th2:pi s0 pi = s2" in out
    assert " FAIL " not in out


def test_group_relations_deterministic(capsys):
    main(["group", "relations", "--samples", "3", "--seed", "7",
          "--format", "records"])
    first = capsys.readouterr().out
    main(["group", "relations", "--samples", "3", "--seed", "7",
          "--format", "records"])
    second = capsys.readouterr().out

    def strip_millis(text):
        rows = [json.loads(l) for l in text.strip().splitlines()]
        for r in rows:
            r.pop("millis")
        return rows

    assert strip_millis(first) == strip_millis(second)


def test_group_relations_needs_a_sample(capsys):
    assert main(["group", "relations", "--samples", "0"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_group_orbit_needs_a_step(capsys):
    assert main(["group", "orbit", "s1 s2", "--steps", "-2"]) == 2
    captured = capsys.readouterr()
    assert "--steps" in captured.err
    assert "step 0" not in captured.out


def test_group_pi_letter_selects_th2(capsys):
    # the context comes from the parsed letters, so the symbol π counts as pi
    for action in ("action", "orbit"):
        assert main(["group", action, "π s1 π"]) == 0
        assert "(context th2" in capsys.readouterr().out
    assert main(["group", "shift", "π s1 π"]) == 1
    assert "is not a pure parameter translation" in capsys.readouterr().out


def test_group_relations_refuses_a_word(capsys):
    assert main(["group", "relations", "s0 s1"]) == 2
    captured = capsys.readouterr()
    assert "takes no word" in captured.err
    assert "relation:" not in captured.out


@pytest.mark.parametrize("word", ["", "   "])
def test_group_orbit_refuses_an_empty_word(word, capsys):
    assert main(["group", "orbit", word]) == 2
    captured = capsys.readouterr()
    assert "needs a word" in captured.err
    assert "step 0" not in captured.out


def test_integrate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "lin.csv"
    code = main([
        "integrate", "linear_xz",
        "--params", "alpha0=0.5,alpha2=0.5,eta=1",
        "--init", "0,1", "--span", "0,1", "--out", str(out),
    ])
    assert code == 0
    assert out.exists() and (tmp_path / "lin.csv.json").exists()
    header = out.read_text().splitlines()[0]
    assert header == "u,x,z"


def _assert_cannot_write(path, capsys):
    """Check the one stderr line of an unwritable ``--out``; the stdout."""
    captured = capsys.readouterr()
    err = captured.err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"cannot write {path}: ")
    assert not path.exists()
    return captured.out


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.txt"
    assert main(["verify", "integrals", "--out", str(path)]) == 2
    # the reports are still printed, verdict line included
    out = _assert_cannot_write(path, capsys)
    assert re.search(r"^\d+/\d+ checks passed$", out, re.M)


def test_verify_unwritable_out_still_prints_a_failure(tmp_path, capsys):
    path = tmp_path / "missing" / "r.txt"
    assert main([
        "verify", "symmetry", "--variant", "printed", "--map", "s2_5d",
        "--out", str(path),
    ]) == 2
    out = _assert_cannot_write(path, capsys).splitlines()
    assert out[0].split()[:2] == ["symmetry:five_dim:s2_5d:printed", "FAIL"]
    assert out[1:] == ["0/1 checks passed"]


def test_group_relations_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "r.txt"
    assert main(["group", "relations", "--samples", "1", "--out", str(path)]) == 2
    out = _assert_cannot_write(path, capsys)
    assert re.search(r"^\d+/\d+ checks passed$", out, re.M)


def test_integrate_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    assert main([
        "integrate", "linear_xz",
        "--params", "alpha0=0.5,alpha2=0.5,eta=1",
        "--init", "0,1", "--span", "0,1", "--out", str(path),
    ]) == 2
    _assert_cannot_write(path, capsys)


def test_integrate_reports_drift(capsys):
    code = main([
        "integrate", "five_dim",
        "--params", "alpha0=0.3,alpha1=0.25,alpha2=0.45,eta=0.7",
        "--init", "0.4,0.8,-0.3,0.5,-0.2", "--span", "0,1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    drift_line = next(l for l in out.splitlines() if l.startswith("drift ywq"))
    assert float(drift_line.split(":")[1]) < 1e-6


def test_integrate_off_the_normalization_exits_2(capsys):
    # alpha0 + alpha1 + alpha2 = 1.65
    code = main([
        "integrate", "five_dim",
        "--params", "alpha0=0.3,alpha1=0.9,alpha2=0.45,eta=0.7",
        "--init", "0.1,0.8,0.3,0.4,0.5", "--span", "0,1",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "alpha0 + alpha1 + alpha2 = 1" in captured.err
    assert "drift" not in captured.out


def test_integrate_domain_error_exit_1(capsys):
    code = main([
        "integrate", "ham_4d",
        "--params", "alpha0=0.3,alpha1=0.25,alpha2=0.45,eta=0.7",
        "--init", "0.1,0.2,0.3,0.4", "--span=-1,1",
    ])
    assert code == 1
    assert "crosses the singular locus" in capsys.readouterr().err


def test_integrate_usage_errors(capsys):
    assert main(["integrate", "no_such_system", "--init", "0", "--span", "0,1"]) == 2
    assert main(["integrate", "linear_xz", "--init", "abc", "--span", "0,1"]) == 2
    capsys.readouterr()
    assert main([
        "integrate", "five_dim",
        "--params", "alpha0=0.9,alpha0=0.3,alpha1=0.25,alpha2=0.45,eta=0.7",
        "--init", "0.1,0.8,0.3,0.4,0.5", "--span", "0,1",
    ]) == 2
    assert "'alpha0' given twice" in capsys.readouterr().err
    assert main([
        "integrate", "linear_xz", "--params", "alpha0=0.5,alpha2=0.5,eta=1",
        "--init", "0,1", "--span", "0,1", "--fixed-step", "5e-324",
    ]) == 2
    assert "no finite step count" in capsys.readouterr().err


def test_integrate_nonpositive_fixed_step_exits_2(capsys):
    for step in ("0", "-0.1"):
        code = main([
            "integrate", "linear_xz", "--params", "alpha0=0.5,alpha2=0.5,eta=1",
            "--init", "0,1", "--span", "0,1", f"--fixed-step={step}",
        ])
        assert code == 2
        assert "fixed mode needs a positive step" in capsys.readouterr().err


def test_integrate_metadata_reports_the_run_cost(tmp_path, capsys):
    out = tmp_path / "five.csv"
    assert main([
        "integrate", "five_dim", "--params", FIVE_PARAMS,
        "--init", "0.4,0.8,-0.3,0.5,-0.2", "--span", "0,1", "--out", str(out),
    ]) == 0
    meta = json.loads((tmp_path / "five.csv.json").read_text())
    steps = meta["steps_accepted"] + meta["steps_rejected"]
    assert meta["rhs_evals"] == 7 * steps > 0
    assert 0 < meta["h_min"] <= meta["h_max"] <= 1.0
    assert meta["u_end"] == 1.0
    assert meta["samples"] == meta["steps_accepted"] + 1


def test_integrate_overflowing_start_terminates(monkeypatch, capsys):
    calls = []
    rk_step = numeric._rk_step

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 10_000, "the stepper is not converging"
        return rk_step(*args)
    monkeypatch.setattr(numeric, "_rk_step", counted)
    assert main([
        "integrate", "five_dim", "--params", FIVE_PARAMS,
        "--init", "1000,1,-1000,1000,-1000", "--span", "0,1",
    ]) == 0
    assert "termination blow_up" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [
    ["--init", "nan,0.8,-0.3,0.5,-0.2"],
    ["--init", "inf,0.8,-0.3,0.5,-0.2"],
    ["--span", "0,nan"],
    ["--span", "-inf,1"],
    ["--fixed-step", "nan"],
    ["--fixed-step", "inf"],
    ["--fixed-step", "1e-300"],
    ["--abs-tol", "nan"],
    ["--rel-tol", "inf"],
    ["--params", "alpha0=nan,alpha1=0.25,alpha2=0.45,eta=0.7"],
])
def test_integrate_non_finite_input_exits_2(bad, monkeypatch, capsys):
    calls = []
    for seam in ("_rk_step", "_fixed_steps"):
        monkeypatch.setattr(numeric, seam, lambda *args: calls.append(args))
    args = {"--params": FIVE_PARAMS, "--init": "0.4,0.8,-0.3,0.5,-0.2", "--span": "0,1"}
    args.update(zip(bad[::2], bad[1::2]))
    argv = ["integrate", "five_dim"] + [f"{k}={v}" for k, v in args.items()]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert calls == []


def test_integrate_unknown_parameter_exits_2(capsys):
    code = main([
        "integrate", "linear_xz", "--params", "alpah0=9,alpha2=0.5,eta=1",
        "--init", "0,1", "--span", "0,1",
    ])
    assert code == 2
    assert "alpah0" in capsys.readouterr().err


def test_dump_models_flag(capsys):
    assert main(["--dump-models"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[system five_dim]")
    assert "[map s2_5d variant=corrected]" in out


def test_dump_models_refuses_a_command(capsys):
    assert main(["--dump-models", "verify", "symmetry"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert "--dump-models takes no command, got 'verify'" in captured.err


def test_no_command_prints_help(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv,refused",
    [
        (["relations", "--samples", "2", "--context", "th1", "--steps", "9"], "--context"),
        (["relations", "--steps", "9"], "--steps"),
        (["action", "s0", "--samples", "0", "--steps", "0"], "--samples"),
        (["action", "s0", "--steps", "3"], "--steps"),
        (["shift", "s1 s2 s1 s0", "--seed", "5"], "--seed"),
        (["orbit", "s1 s2", "--format", "records"], "--format"),
        (["orbit", "s1 s2", "--samples", "3"], "--samples"),
    ],
)
def test_group_refuses_options_the_action_does_not_take(argv, refused, capsys):
    assert main(["group", *argv]) == 2
    captured = capsys.readouterr()
    assert f"takes no {refused}" in captured.err
    assert captured.out == ""


def test_group_orbit_defaults_to_four_steps(capsys):
    assert main(["group", "orbit", "s1 s2 s1 s0", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "step 4:" in out and "step 5:" not in out

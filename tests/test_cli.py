"""Command-line interface: verbs, JSON schema, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkr
from hkr import catalog
from hkr import dimensions as dm
from hkr import linalg as la
from hkr import triples as tp
from hkr.cli import main
from hkr.errors import InvalidParams, MismatchWithTable
from hkr.scalars import parse_scalar


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_list(capsys):
    code, payload = run_json(capsys, "list")
    assert code == 0
    assert payload["schema"] == 1
    forms = payload["forms"]
    assert len(forms) == 19
    names = {r["form"] for r in forms}
    assert "su(1,2)" in names and "so*(8)" in names


def test_describe_su12(capsys):
    code, payload = run_json(capsys, "describe", "su:p=1,q=2")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["form"] == "su(1,2)"
    assert payload["dim"] == 8
    assert payload["dim_h"] == 4
    assert payload["dim_m"] == 4
    assert payload["rank"] == 1
    assert payload["restricted_type"] == "BC1"
    assert payload["split_sub"] == "so(1,2)"
    assert payload["quasi_split"] is True
    assert payload["num_restricted_roots"] == 4
    # multiplicity 2 on the short roots, 1 on the doubled ones
    assert sorted(payload["multiplicities"].values()) == [1, 1, 2, 2]


def test_hkr_verb_scalars_parse_back(capsys):
    code, payload = run_json(capsys, "hkr", "sl_r:n=2")
    assert code == 0
    assert payload["relations_verified"] is True
    assert payload["table1_match"] is True
    assert payload["degrees"] == [2]
    # every matrix entry round-trips through the scalar grammar
    for key in ("e", "f", "x", "w"):
        for row in payload[key]:
            for entry in row:
                parse_scalar(entry)
    e00 = parse_scalar(payload["e"][0][0])
    assert str(e00) == payload["e"][0][0]


def test_section_verb(capsys):
    code, payload = run_json(capsys, "section", "sp_r:n=2",
                             "--gamma", "1,1/2")
    assert code == 0
    assert payload["form"] == "sp(4,R)"
    assert payload["gamma"] == ["1", "1/2"]
    assert payload["degrees"] == [2, 4]
    assert payload["regular"] is True
    for row in payload["point"]:
        for entry in row:
            parse_scalar(entry)


def test_section_default_gamma_is_zero(capsys):
    code, payload = run_json(capsys, "section", "sl_r:n=2")
    assert code == 0
    assert payload["gamma"] == ["0"]
    assert payload["regular"] is True


def test_dims_verb(capsys):
    code, payload = run_json(capsys, "dims", "sp_r:n=2",
                             "--genus", "2", "--L", "K")
    assert code == 0
    assert payload["form"] == "sp(4,R)"
    assert payload["base_dim"] == 10
    assert payload["expected_moduli_dim"] == 10
    assert payload["is_split"] is True
    assert payload["hkr_open"] is True


def test_dims_degree_spec(capsys):
    code, payload = run_json(capsys, "dims", "sl_r:n=2",
                             "--genus", "2", "--L", "deg:8")
    assert code == 0
    assert payload["base_dim"] == 15
    code, payload = run_json(capsys, "dims", "sl_r:n=2", "--L", "O")
    assert code == 0
    assert payload["base_dim"] == 1
    assert payload["expected_moduli_dim"] is None


def test_table1_single_and_full(capsys):
    code, payload = run_json(capsys, "table1", "su:p=2,q=2")
    assert code == 0
    assert payload["rows"] == [{"form": "su(2,2)", "split_sub": "sp(4,R)",
                                "restricted_type": "C2",
                                "quasi_split": True}]
    code, payload = run_json(capsys, "table1")
    assert code == 0
    assert len(payload["rows"]) == 19 + 12
    code, payload = run_json(capsys, "table1", "f4(-20)")
    assert payload["rows"][0]["split_sub"] == "sl(2,R)"


def test_lemma73(capsys):
    code, payload = run_json(capsys, "lemma73", "--n", "3")
    assert code == 0
    rep = payload["reports"][0]
    assert rep["ok"] is True
    assert rep["y_scalar"] == "1"
    assert rep["displayed_y_in_algebra"] is False
    assert any("corrected" in note for note in rep["notes"])


def test_verify_single_form(capsys):
    code, payload = run_json(capsys, "verify", "sl_r:n=2",
                             "--samples", "5", "--seed", "1")
    assert code == 0
    assert payload["failures"] == 0
    checks = [r["check"] for r in payload["results"] if r["form"] == "sl(2,R)"]
    assert checks == ["roots", "tds", "normal_triple", "split_subalgebra",
                      "modules", "regularity", "invariance", "injectivity",
                      "fiber_match", "dimensions", "openness"]


def test_verify_json_reports_seconds(capsys):
    code, payload = run_json(capsys, "verify", "sl_r:n=2", "--samples", "2")
    assert code == 0
    for r in payload["results"]:
        assert isinstance(r["seconds"], (int, float)), r
        assert r["seconds"] >= 0, r


def test_samples_caps_fiber_targets_and_conjugators(capsys):
    code, payload = run_json(capsys, "verify", "sl_r:n=3", "--samples", "2")
    assert code == 0
    details = {r["check"]: r["detail"] for r in payload["results"]
               if r["form"] == "sl(3,R)"}
    targets, word = details["fiber_match"].split()
    assert word == "targets" and 1 <= int(targets) <= 2
    conjugators, word = details["invariance"].split()
    assert word == "conjugators" and 1 <= int(conjugators) <= 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_is_a_usage_error(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sl_r:n=2", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_text_output(capsys):
    code = main(["verify", "sl_r:n=2", "--samples", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failures" in out


def test_exit_code_usage_errors(capsys):
    assert main(["describe", "nope:n=2"]) == 2
    assert main(["dims", "sl_r:n=2", "--L", "deg:x"]) == 2
    assert main(["dims", "sl_r:n=2", "--genus", "1"]) == 2
    assert main(["section", "sl_r:n=2", "--gamma", "1,2,3"]) == 2
    assert main(["verify"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("form,message", [
    ("sl_r:n=3,foo=7", "error: family sl_R needs params ('n',), got ('foo', 'n')"),
    ("sl_r:n=3,n=4", "error: repeated parameter 'n' in 'sl_r:n=3,n=4'")])
def test_unknown_or_repeated_form_param_is_a_usage_error(capsys, form, message):
    assert main(["describe", form]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_radicand_below_zero_is_a_usage_error(capsys):
    assert main(["section", "sl_r:n=2", "--gamma", "sqrt(-2)"]) == 2
    assert "error: bad --gamma entry" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["describe", "sl_r:n=1_0"],
    ["describe", "sl_r:n=\u0663"],
    ["dims", "sl_r:n=2", "--L", "deg:\u0664"],
    ["dims", "sl_r:n=2", "--L", "deg:1_0"],
    ["section", "sl_r:n=2", "--gamma", "\u0663"],
    ["section", "sl_r:n=2", "--gamma", "sqrt(1_0)"]])
def test_integers_outside_ascii_digits_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["dims", "sl_r:n=2", "--genus", "\u0663"],
    ["verify", "sl_r:n=2", "--seed", "1_0"],
    ["verify", "sl_r:n=2", "--seed", "-1"],
    ["verify", "sl_r:n=2", "--samples", "\u0663"],
    ["lemma73", "--n", "\u0663"]])
def test_option_integers_are_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_canonical_integer_spellings_still_parse(monkeypatch, capsys):
    monkeypatch.setenv("HKR_MAX_DIM", "12")
    assert main(["dims", "sl_r:n=3", "--genus", "3", "--L", "deg:4"]) == 0
    assert main(["section", "sl_r:n=3", "--gamma", "3/4,-2*sqrt(2)"]) == 0
    assert main(["lemma73", "--n", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("gamma, message", [
    ("1/-2", "bad rational '1/-2': not a decimal integer: '-2'"),
    ("1/0", "bad rational '1/0': zero denominator"),
    ("sqrt(1/0)", "bad radicand '1/0': zero denominator")])
def test_gamma_parse_errors_name_the_whole_token(capsys, gamma, message):
    assert main(["section", "sl_r:n=2", "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad --gamma entry: %s\n" % message


def test_deeply_nested_gamma_is_a_usage_error(capsys):
    gamma = "(" * 3000 + "1" + ")" * 3000
    assert main(["section", "sl_r:n=2", "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad --gamma entry")


def test_internal_fault_exits_one_without_traceback(monkeypatch, capsys):
    # a ValueError from inside the library is a fault, not a usage error
    def faulty(fid):
        la.rational_roots([0])

    monkeypatch.setattr(catalog, "build", faulty)
    assert main(["describe", "sl_r:n=2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: internal: ValueError: zero polynomial\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("verb", ["hkr", "section"])
def test_split_subalgebra_failure_in_hkr_exits_one(monkeypatch, capsys,
                                                   verb, json_flag):
    # a closure or table failure is an error, not a table row mismatch;
    # hkr and section both read the one analysis, so both assert the row
    def mismatch(S, tds):
        raise MismatchWithTable("%s: planted mismatch" % S.name)

    monkeypatch.setattr(tp, "maximal_split_subalgebra", mismatch)
    assert main([verb, "sl_r:n=2"] + json_flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: MismatchWithTable: sl(2,R): planted "
                            "mismatch\n")


def test_user_input_guards_raise_invalid_params():
    # typed for the CLI's exit code 2, and still ValueErrors for callers
    an = dm.analyze(catalog.build(catalog.form_id("sl_R", n=2)))
    S, basis = an.structure, an.section
    so8 = dm.analyze(catalog.build(catalog.form_id("so_star", n=4)))
    guards = [lambda: dm.CurveContext(1, 0),
              lambda: dm.CurveContext(2, 3, L_is_canonical=True),
              lambda: dm.CurveContext(2, 1, L_is_trivial=True),
              lambda: dm.component_count(0, 2),
              lambda: dm.component_count(1, -1),
              lambda: dm.component_count(1, 1),
              lambda: tp.is_regular(S, S.unit_coords(S.h_indices[0])),
              lambda: tp.section_point(basis, [1, 2]),
              lambda: tp.so_star_lemma_report(so8.triple)]
    for guard in guards:
        with pytest.raises(InvalidParams):
            guard()
    assert issubclass(InvalidParams, ValueError)


def test_section_has_no_genus_option(capsys):
    # the section point does not depend on a curve, so --genus is unknown
    with pytest.raises(SystemExit) as exc:
        main(["section", "sl_r:n=2", "--genus", "2"])
    assert exc.value.code == 2
    assert "--genus" in capsys.readouterr().err


def test_parser_rejects_unknown_verb():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv,bound", [
    (["verify", "sl_r:n=13"], None),
    (["verify", "--all"], "x"),
    (["verify", "--all", "--json"], "7"),
    (["describe", "sl_r:n=2"], "1_2"),
    # a given argument is never read as absent
    (["verify", "sl_r:n=99", "--all", "--samples", "1"], None),
    (["section", "sl_r:n=3", "--gamma", ""], None),
    (["section", "sl_r:n=2", "--gamma", ""], None),
    # an empty form is a given form, not a missing one
    (["verify", "", "--all"], None),
    (["verify", ""], None),
    (["table1", ""], None)])
def test_verify_usage_errors_exit_two(monkeypatch, capsys, argv, bound):
    # a size bound or a bad HKR_MAX_DIM is a usage error, not a failed check
    if bound is not None:
        monkeypatch.setenv("HKR_MAX_DIM", bound)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_empty_form_is_refused_by_the_form_parser(capsys):
    assert main(["verify", ""]) == 2
    assert "form must look like" in capsys.readouterr().err


def test_size_bound_respected(monkeypatch, capsys):
    monkeypatch.setenv("HKR_MAX_DIM", "4")
    assert main(["describe", "su:p=2,q=3"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def _cli_env():
    src = str(Path(hkr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_zero_denominator_gamma_is_a_usage_error():
    # run as a separate process so a leaked exception shows as a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "hkr.cli", "section", "sl_r:n=2",
         "--gamma", "1/0"],
        capture_output=True, text=True, env=_cli_env(), timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


@pytest.mark.parametrize("gamma", ["sqrt(100000000000000000039)",
                                   "sqrt(1000000000039),sqrt(1000000000061)"])
def test_radicand_with_a_large_prime_factor_is_a_prompt_usage_error(gamma):
    # a separate process with a timeout, so a slow factorization fails the
    # test instead of stalling the suite
    form = "sl_r:n=%d" % (gamma.count(",") + 2)
    proc = subprocess.run(
        [sys.executable, "-m", "hkr.cli", "section", form, "--gamma", gamma],
        capture_output=True, text=True, env=_cli_env(), timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad --gamma entry: bad radicand ")
    assert "prime factor of 2^16 or more" in proc.stderr


@pytest.mark.parametrize("argv", [["table1"],
                                  ["verify", "sl_r:n=2", "--samples", "2",
                                   "--json"]])
def test_closed_pipe_has_no_traceback(argv):
    # the reader is gone before the first write, as after `| head -1`
    proc = subprocess.Popen([sys.executable, "-m", "hkr.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_cli_env())
    proc.stdout.close()
    try:
        err = proc.communicate(timeout=300)[1]
    finally:
        proc.kill()
    assert "Traceback" not in err
    assert proc.returncode == 1


def test_negative_degree_of_L_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "hkr.cli", "dims", "sl_r:n=2", "--L", "deg:-3"],
        capture_output=True, text=True, env=_cli_env(), timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: degree of L must be at least 0, got -3\n"


# sha256 of the stdout of `describe F`, `hkr F`, `section F --json` and
# `dims F --json`, in that order, for each catalog form, and of
# `lemma73 --json`; a refactor must leave them unchanged
_PINNED_OUTPUT = {
    "sl_r:n=2": "50a171c7c359427e126497ca1163f6dadd33c1b4104c1e6d12ab1529d9472f91",
    "sl_r:n=3": "f923f948217c4c18ece87d93dafb7134defc8dd89d4ce93cc006625704a737e2",
    "sl_r:n=4": "3464d0b2c46ade0d06d7f027dc2b151d4d83f47fa5a39bd7b5fc780b847c22de",
    "su:p=1,q=2": "1335f81b48d011357b512d1d1537c6b1b25586ca2334c54adddf8465bbef5077",
    "su:p=1,q=3": "7677510f9946de0f11922c5073248ce4b5023ed78535da79c1fedc2e764f274c",
    "su:p=2,q=3": "2ed624d737e5056b36e1d12f234ff38663e00a8a8817a70e206ddf5ccdbdb579",
    "su:p=2,q=2": "11306ead4f7591a5552a28748a7e1ce2d70b2db8ddb913f96e2656c297873ca2",
    "su:p=3,q=3": "62a13f201a3fb8ac27c0242920fd1c9810462530324e1ac700d9cee5eba15517",
    "sp_r:n=1": "c700e3481259bbba64ecf479458cd97b8993e267dec6c11767eda52c68561faa",
    "sp_r:n=2": "4ae8ac1c0b2955ef6bb0ad47bf6469a09a26f1aa29e8c04dc3887088c1851961",
    "sp_r:n=3": "1fe724b63b1977068a86e353ec7d136960f78b2fceacc10975754caeb29b3134",
    "so:p=2,q=3": "014203b17cc7a126d5ffe4642cb550e69a16b4e3063525129ca58a396e56bfa6",
    "so:p=2,q=4": "0e6383c1afd8f78d07e171aac9904e1467688a03ff02355ffb13d59babd33439",
    "so:p=3,q=3": "b5e03c0d7f3d70211ce355301fd856584db871ba8771f8712a20998daddfca4d",
    "su_star:n=2": "6ac4226ad5bf79b9ac50121f435c9e881300fbe5c12a53eb7c77e03ba2e841e2",
    "sp:p=1,q=2": "01fdd661c6ac86c29087f8088f49f69105a3992c453545c28d9a4d3e45eff8e7",
    "so_star:n=3": "6682bf39139f5fd46ffb11300f3e560aad9b5a8088fb1baef708d3ee25801b6f",
    "so_star:n=4": "67a2c96f95ced381f30154a8b77fd5d9ea018a3665610003f665b2cf83e91b1b",
    "sl_c:n=2": "ce47f762f04e3e035f5cf58cbd8c0852daa15e3f798ccf9eaa01e97a2709d77d",
}
_PINNED_LEMMA73 = \
    "d267d6f406a056e46f99870450b81433bac38e81758d371e43ce0fcb1f784ce4"


def test_pinned_outputs_cover_the_catalog():
    assert list(_PINNED_OUTPUT) == [catalog.form_cli_text(f)
                                    for f in catalog.standard_forms()]


@pytest.mark.parametrize("form", list(_PINNED_OUTPUT) + ["lemma73"])
def test_outputs_match_their_pinned_digest(capsys, form):
    if form == "lemma73":
        commands, want = [["lemma73", "--json"]], _PINNED_LEMMA73
    else:
        commands = [["describe", form], ["hkr", form],
                    ["section", form, "--json"], ["dims", form, "--json"]]
        want = _PINNED_OUTPUT[form]
    digest = hashlib.sha256()
    for argv in commands:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == want

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
from hkr.errors import InvalidParams
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
    checks = {r["check"] for r in payload["results"] if r["form"] == "sl(2,R)"}
    assert "tds_relations" in checks or len(checks) >= 8


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


def test_radicand_below_zero_is_a_usage_error(capsys):
    assert main(["section", "sl_r:n=2", "--gamma", "sqrt(-2)"]) == 2
    assert "error: bad --gamma entry" in capsys.readouterr().err


def test_internal_fault_exits_one_without_traceback(monkeypatch, capsys):
    # a ValueError from inside the library is a fault, not a usage error
    def faulty(fid):
        la.rational_roots([0])

    monkeypatch.setattr(catalog, "build", faulty)
    assert main(["describe", "sl_r:n=2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: internal: ValueError: zero polynomial\n"


def test_user_input_guards_raise_invalid_params():
    # typed for the CLI's exit code 2, and still ValueErrors for callers
    S = catalog.build(catalog.form_id("sl_R", n=2))
    triple = tp.normal_triple(tp.build_tds(S))
    basis = tp.section_basis(S, triple, tp.module_decomposition(S, triple))
    guards = [lambda: dm.CurveContext(1, 0),
              lambda: dm.CurveContext(2, 3, L_is_canonical=True),
              lambda: dm.CurveContext(2, 1, L_is_trivial=True),
              lambda: dm.component_count(0, 2),
              lambda: tp.section_point(basis, [1, 2]),
              lambda: tp.so_star_lemma_report(4)]
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


# sha256 of the stdout of `describe F`, `hkr F` and `section F --json`, in
# that order, for each catalog form; a refactor must leave them unchanged
_PINNED_OUTPUT = {
    "sl_r:n=2": "3a273031d18b88450d3c80e79dbf5a9cf14df5762861ae374b8ca1ff5489e14a",
    "sl_r:n=3": "bda1c4f710f7689d495cdd5cb0e83a44fb4f4f758a2832f9029300f190defa4a",
    "sl_r:n=4": "6f963d6151e2e2b7b78dcf01d8016bfa33e7240cd3ff0e6df8e3bd1d5477b51a",
    "su:p=1,q=2": "cd7e2b9d1794cea3a249a6c2334887076c05c0632715fa8ff7996692f4132f4e",
    "su:p=1,q=3": "52010da199a0e8531a6f558b118266ff37c77467c484516b5cf4388b6af1901c",
    "su:p=2,q=3": "7186039ab7f27041be6afed5c60a8225dfed7124b786c923da94f71d37f82b1b",
    "su:p=2,q=2": "e32fd3626b812b118d8328635b4d7e9175764ad93a68a690819889e71c4af44c",
    "su:p=3,q=3": "16673b10ea4d1b6bf95d998ec2476569b9fea210f65a0308b222debbae44091c",
    "sp_r:n=1": "dcf8781747cfb16aae7b8642930bb1efb3f3701154549320b2cefd0f8aaa7dcb",
    "sp_r:n=2": "56ac3840ba9113239a4f2443a7ed2c1f64f9aa290e65c113afec895313039bed",
    "sp_r:n=3": "536bd5f63df9cc314e7619c4395bd83c58690a465335ecde7bb039ca8e950390",
    "so:p=2,q=3": "11c6abf7b2106db3419c75d7dcb86a363979e17fbb761e737c65b3e374ed39d4",
    "so:p=2,q=4": "926cd0328cfa4066274f69a7ac5bbe4b38aad01f26f587e34929cf6d4db4671a",
    "so:p=3,q=3": "f8baeef6004487b1a0076eed3b04492e769d5e3bfaea468f8f3b6a6eca9ca4ed",
    "su_star:n=2": "a5789f6389d8d3942e50acfca6ab19b7b8b77e117b7ad504a078a71530e934d9",
    "sp:p=1,q=2": "4d20cbba80a7294dbda2c2e51d6b1f05b1bdd19646fd30dbafed99041f8796c1",
    "so_star:n=3": "12f7b3b329d9233ce78962fa0e0d34459a1488e66fbbecf5c72907e5165dfa32",
    "so_star:n=4": "a8d5d1e93fd77a99282ab86141a9b0ff1b9c351d159b9b95a72fae14c79ff598",
    "sl_c:n=2": "e8ddd0bc80761ccf764c4f6e18723c8daa1f5f2d14bc724d0cc73bec21ff24c8",
}


def test_pinned_outputs_cover_the_catalog():
    assert list(_PINNED_OUTPUT) == [catalog.form_cli_text(f)
                                    for f in catalog.standard_forms()]


@pytest.mark.parametrize("form", list(_PINNED_OUTPUT))
def test_outputs_match_their_pinned_digest(capsys, form):
    digest = hashlib.sha256()
    for argv in (["describe", form], ["hkr", form], ["section", form, "--json"]):
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _PINNED_OUTPUT[form]

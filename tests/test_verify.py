"""The verification runner: a fault in one check never hides the others."""

import hashlib
import inspect
import json
import textwrap

import pytest

from hkr import catalog
from hkr import dimensions as dm
from hkr import linalg as la
from hkr import roots as rt
from hkr import triples as tp
from hkr import verify as vf
from hkr.errors import ConstructionFailure, InvalidParams
from hkr.scalars import NotReducible, Scalar


def test_unexpected_exception_fails_only_its_check(monkeypatch):
    def planted(an):
        raise ZeroDivisionError("planted fault")

    monkeypatch.setattr(vf, "_check_tds", planted)
    results = vf.verify_form(catalog.form_id("sl_R", n=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    by_check = {r.check: r for r in results}
    assert not by_check["tds"].ok
    assert by_check["tds"].detail == "ZeroDivisionError: planted fault"
    others = [r for r in results if r.check != "tds"]
    assert len(others) == 10
    assert all(r.ok for r in others), [r.line() for r in others if not r.ok]
    assert all(r.seconds >= 0 for r in results)


_SAMPLING_CHECKS = ("regularity", "invariance", "injectivity", "fiber_match")


def test_section_basis_built_once_per_form(monkeypatch):
    calls = []
    original = tp.section_basis

    def counting(*args, **kwargs):
        calls.append(args[0].structure.name)
        return original(*args, **kwargs)

    monkeypatch.setattr(tp, "section_basis", counting)
    results = vf.verify_form(catalog.form_id("su_pq", p=1, q=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    assert all(r.ok for r in results), [r.line() for r in results]
    assert {r.check for r in results} >= set(_SAMPLING_CHECKS)
    assert len(calls) == 1


def test_section_basis_fault_fails_each_sampling_check(monkeypatch):
    def planted(*args, **kwargs):
        raise ConstructionFailure("planted section fault")

    monkeypatch.setattr(tp, "section_basis", planted)
    results = vf.verify_form(catalog.form_id("su_pq", p=1, q=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    by_check = {r.check: r for r in results}
    for check in _SAMPLING_CHECKS:
        assert not by_check[check].ok, check
        assert by_check[check].detail == \
            "ConstructionFailure: planted section fault", check
    others = [r for r in results if r.check not in _SAMPLING_CHECKS]
    assert all(r.ok for r in others), [r.line() for r in others if not r.ok]


# the checks that read the section or the dimension formulas, which need both
# the split subalgebra and the module decomposition
_LATE_CHECKS = ("regularity", "invariance", "injectivity", "fiber_match",
                "dimensions", "openness")


# each stage raises on the identities it asserts, and verify reports that
# raise on every check that reads the stage; the root count is read by the
# dimension formulas and openness alone
_STAGE_FAULTS = [
    (tp, "build_tds",
     ("tds", "normal_triple", "split_subalgebra", "modules")
     + _LATE_CHECKS),
    (tp, "normal_triple", ("normal_triple", "modules") + _LATE_CHECKS),
    (tp, "maximal_split_subalgebra", ("split_subalgebra",) + _LATE_CHECKS),
    (tp, "module_decomposition", ("modules",) + _LATE_CHECKS),
    (rt, "full_root_classification", ("dimensions", "openness")),
]


@pytest.mark.parametrize("module, stage, failing", _STAGE_FAULTS,
                         ids=[stage for _, stage, _ in _STAGE_FAULTS])
def test_a_failing_stage_fails_only_the_checks_that_read_it(
        monkeypatch, module, stage, failing):
    def planted(*args):
        raise ConstructionFailure("planted %s fault" % stage)

    monkeypatch.setattr(module, stage, planted)
    results = vf.verify_form(catalog.form_id("sl_R", n=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    failed = {r.check: r.detail for r in results if not r.ok}
    assert failed == dict.fromkeys(
        failing, "ConstructionFailure: planted %s fault" % stage)
    assert len(results) == 11


# sha256 of the (form, check, ok, detail) rows of verify_form at samples=2,
# fiber_samples=1, conjugators=1: so(3,3) skips two checks, so*(6) adds
# explicit_matrices and so(2,2) fails regularity and invariance
_PINNED_ROW_FORMS = (("sl_R", {"n": 2}), ("su_pq", {"p": 1, "q": 2}),
                     ("so_pq", {"p": 3, "q": 3}), ("so_star", {"n": 3}),
                     ("so_pq", {"p": 2, "q": 2}))
_PINNED_ROWS = \
    "f9d6d3fd3472af856f7e2ab277c35dcb3cae9c0d62faa6c691446cbd5e36330c"


def test_verify_rows_match_their_pinned_digest():
    rows = []
    for family, params in _PINNED_ROW_FORMS:
        rows.extend((r.form, r.check, r.ok, r.detail) for r in vf.verify_form(
            catalog.form_id(family, **params), seed=0, samples=2,
            fiber_samples=1, conjugators=1))
    assert len(rows) == 56
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _PINNED_ROWS


def test_exponent_oracle_holds_on_every_type():
    assert vf._check_exponent_oracle() == "16 types"


def _patch_groups(monkeypatch, change):
    real = rt.weyl_group

    def changed(simples, pair):
        group = real(simples, pair)
        change(group)
        return group

    monkeypatch.setattr(rt, "weyl_group", changed)


def test_exponent_oracle_catches_an_element_in_the_next_layer(monkeypatch):
    def move(group):  # one element of length 1 moved to length 2
        group.layers[1] -= 1
        if len(group.layers) == 2:
            group.layers.append(0)
        group.layers[2] += 1

    _patch_groups(monkeypatch, move)
    with pytest.raises(AssertionError,
                       match=r"^A1: lengths \[1, 0, 1\], Solomon \[1, 1\]$"):
        vf._check_exponent_oracle()


def test_exponent_oracle_catches_a_missing_root_pair(monkeypatch):
    def drop(group):
        del group.roots[-2:]

    _patch_groups(monkeypatch, drop)
    with pytest.raises(AssertionError,
                       match=r"^A1: 0 positive roots, degrees \[2\]$"):
        vf._check_exponent_oracle()


def test_exponent_oracle_catches_a_changed_degree(monkeypatch):
    # the table agrees with the changed degree, so only the identities see it
    def plus_one(degrees):
        return degrees[:-1] + [degrees[-1] + 1]

    real_molien, real_table = rt.molien_degrees, rt.invariant_degrees
    monkeypatch.setattr(rt, "molien_degrees",
                        lambda group, rank: plus_one(real_molien(group, rank)))
    monkeypatch.setattr(rt, "invariant_degrees",
                        lambda label: plus_one(real_table(label)))
    with pytest.raises(AssertionError,
                       match=r"^A1: \|W\| = 2, degrees \[3\]$"):
        vf._check_exponent_oracle()


def test_exponent_oracle_catches_keys_of_r_minus_one_simple_images(
        monkeypatch):
    # a mutant weyl_group that keys an element by w(a_1), ..., w(a_(r-1))
    source = textwrap.dedent(inspect.getsource(rt.weyl_group))
    for full in ("tuple(p[:r])", "ident[:r]"):
        assert source.count(full) == 1, full
        source = source.replace(full, full.replace("[:r]", "[:r - 1]"))
    namespace = dict(vars(rt))
    exec(source, namespace)
    monkeypatch.setattr(rt, "weyl_group", namespace["weyl_group"])
    with pytest.raises(AssertionError, match=r"^A1: \|W\| = 1, reference 2$"):
        vf._check_exponent_oracle()


def test_a_failing_build_is_one_construction_row(monkeypatch):
    def planted(fid):
        raise ConstructionFailure("planted build fault")

    monkeypatch.setattr(catalog, "build", planted)
    results = vf.verify_form(catalog.form_id("sl_R", n=2), seed=0,
                             samples=2, fiber_samples=1, conjugators=1)
    assert [(r.form, r.check, r.ok, r.detail) for r in results] == [
        ("sl(2,R)", "construction", False,
         "ConstructionFailure: planted build fault")]


@pytest.mark.parametrize("counts", [(-3, 0, 0), (0, 1, 1), (2, 0, 1),
                                    (2, 1, 0)])
def test_sample_counts_below_one_are_rejected(monkeypatch, counts):
    # a sampling check that draws nothing must not report a pass
    def unreachable(*args, **kwargs):
        raise AssertionError("built a form for an invalid count")

    monkeypatch.setattr(catalog, "build", unreachable)
    samples, fiber_samples, conjugators = counts
    with pytest.raises(InvalidParams):
        vf.verify_form(catalog.form_id("sl_R", n=2), seed=0, samples=samples,
                       fiber_samples=fiber_samples, conjugators=conjugators)
    with pytest.raises(InvalidParams):
        vf.verify_all(seed=0, samples=samples, fiber_samples=fiber_samples,
                      conjugators=conjugators)


def _sl3r_analysis():
    an = dm.analyze(catalog.build(catalog.form_id("sl_R", n=3)))
    an.section  # built before any charpoly is counted
    return an


def _count_calls(monkeypatch, module, name, replacement=None):
    calls = []
    original = getattr(module, name)
    target = replacement or original

    def counting(*args):
        calls.append(1)
        return target(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _run_invariance(monkeypatch, an, pairs):
    monkeypatch.setattr(tp, "invariance_conjugators", lambda S, count: pairs)
    return vf._run("sl(3,R)", "invariance",
                   lambda: vf._check_invariance(an, 0, len(pairs)))


def test_invariance_fails_a_conjugator_of_determinant_other_than_one(
        monkeypatch):
    # 2I and I/2 are inverse, but det 2I = 8
    pair = (la.mscale(2, la.eye(3)), la.mscale(Scalar.of(1) / 2, la.eye(3)))
    result = _run_invariance(monkeypatch, _sl3r_analysis(), [pair])
    assert not result.ok
    assert result.detail == "conjugate 0: det g != 1"


def test_invariance_fails_a_pair_that_is_not_inverse(monkeypatch):
    # a rational rotation g of SO(3) has det 1, but g g != I
    an = _sl3r_analysis()
    g, _ = tp.invariance_conjugators(an.structure, 1)[0]
    result = _run_invariance(monkeypatch, an, [(g, g)])
    assert not result.ok
    assert result.detail == "conjugate 0: g g^-1 != I"


def test_invariance_takes_one_charpoly_per_conjugator_on_g(monkeypatch):
    an = _sl3r_analysis()
    pairs = tp.invariance_conjugators(an.structure, 3)
    seen = []
    original = vf.la.charpoly

    def recording(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(vf.la, "charpoly", recording)
    result = _run_invariance(monkeypatch, an, pairs[:1])
    assert result.ok, result.detail
    assert result.detail == "1 conjugators"
    result = _run_invariance(monkeypatch, an, pairs)
    assert result.ok, result.detail
    assert seen == [pairs[0][0]] + [g for g, _ in pairs]


def test_fiber_match_does_not_test_regularity(monkeypatch):
    # the matched points are regular because f is (the C* contraction)
    def unreachable(*args):
        raise AssertionError("is_regular called")

    an = _sl3r_analysis()
    monkeypatch.setattr(tp, "is_regular", unreachable)
    monkeypatch.setattr(tp, "section_point_regular", unreachable)
    result = vf._run("sl(3,R)", "fiber_match",
                     lambda: vf._check_fiber_match(an, 0, 2))
    assert result.ok, result.detail
    assert result.detail == "2 targets"


def _run_injectivity(an):
    return vf._run("sl(3,R)", "injectivity",
                   lambda: vf._check_injectivity(an, 0, 10))


def test_injectivity_takes_one_charpoly_per_gamma(monkeypatch):
    # the charpoly of each gamma is one key, its value at t0 mod p; distinct
    # keys need no exact charpoly
    an = _sl3r_analysis()
    keys = _count_calls(monkeypatch, vf.la, "rank_det_mod")
    charpolys = _count_calls(monkeypatch, vf.la, "charpoly")
    result = _run_injectivity(an)
    assert result.ok, result.detail
    assert result.detail == "11 gammas, pairwise distinct invariants"
    assert (len(keys), len(charpolys)) == (11, 0)


def test_injectivity_fails_on_equal_invariants_of_distinct_gammas(
        monkeypatch):
    # every gamma gets the same key and the same exact charpoly: the first
    # distinct pair fails
    an = _sl3r_analysis()
    monkeypatch.setattr(vf.la, "rank_det_mod", lambda rows, p: (3, 1))
    monkeypatch.setattr(vf.la, "charpoly", lambda m, *args: (1,))
    result = _run_injectivity(an)
    assert not result.ok
    assert result.detail.startswith("gammas 0 and ")
    assert result.detail.endswith(": distinct gamma, equal invariants")


def test_injectivity_settles_equal_keys_by_the_exact_charpoly(monkeypatch):
    # equal keys with distinct charpolys pass, one exact charpoly per gamma
    an = _sl3r_analysis()
    _count_calls(monkeypatch, vf.la, "rank_det_mod", lambda rows, p: (3, 1))
    charpolys = _count_calls(monkeypatch, vf.la, "charpoly")
    result = _run_injectivity(an)
    assert result.ok, result.detail
    assert result.detail == "11 gammas, pairwise distinct invariants"
    assert len(charpolys) == 11


def test_injectivity_compares_exact_charpolys_when_the_reduction_declines(
        monkeypatch):
    def declined(values):
        raise NotReducible("planted")

    an = _sl3r_analysis()
    monkeypatch.setattr(tp, "reduction", declined)
    charpolys = _count_calls(monkeypatch, vf.la, "charpoly")
    result = _run_injectivity(an)
    assert result.ok, result.detail
    assert len(charpolys) == 11

"""Cohomology tables, base and moduli dimension formulas, openness."""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hkr import dimensions as dm
from hkr import roots as rt
from hkr import triples as tp
from hkr import verify as vf
from hkr.algebra import RealFormStructure
from hkr.catalog import build, form_id
from hkr.cli import main
from hkr.errors import (AmbiguousCohomology, ConstructionFailure,
                        InvalidParams, RouteDisagreement)


_CACHE = {}


def analysis(family, **kw):
    key = (family, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = dm.analyze(build(form_id(family, **kw)))
    return _CACHE[key]


def test_center_computed_once_per_structure(monkeypatch):
    # the center walk starts from the root data's c_g(a), so no centralizer
    # is taken over all of g, on su(1,2) none of all basis elements either,
    # and the split subalgebra, the decomposition and the quasi-split test
    # share one walk
    an = dm.analyze(build(form_id("su_pq", p=1, q=2)))
    cga = an.root_data.centralizer
    starts, wide, walks = [], [], []
    original_frac = RealFormStructure.centralizer_frac
    original = RealFormStructure.centralizer_in_span

    def starting(self, elements):
        starts.append(self.name)
        return original_frac(self, elements)

    def counting(self, elements, space):
        if len(elements) == self.dim:
            wide.append(self.name)
        if space is cga:
            walks.append(self.name)
        return original(self, elements, space)

    monkeypatch.setattr(RealFormStructure, "centralizer_frac", starting)
    monkeypatch.setattr(RealFormStructure, "centralizer_in_span", counting)
    an.split_sub, an.decomposition, an.quasi_split
    assert starts == [] and wide == [] and len(walks) == 1


def test_triple_centralizer_computed_once_per_analyze(monkeypatch):
    S = build(form_id("su_pq", p=1, q=2))
    seen = []
    original = RealFormStructure.centralizer_in_span

    def recording(self, elements, space):
        seen.append(tuple(tuple(e) for e in elements))
        return original(self, elements, space)

    monkeypatch.setattr(RealFormStructure, "centralizer_in_span", recording)
    an = dm.analyze(S)
    an.decomposition, an.quasi_split
    t = an.triple
    # c(s^C) is the part of ker ad(e) that f centralizes; ker ad(e) is
    # shared with the module decomposition
    assert seen.count((t.f,)) == 1
    assert seen.count((t.e,)) == 1


# --- the stage graph ------------------------------------------------------------

# the function behind each stage of FormAnalysis that the verbs count, and
# behind the section; reduced_system is a lookup on the root data
_STAGE_FUNCTIONS = [(rt, "restricted_roots"), (tp, "build_tds"),
                    (tp, "normal_triple"), (tp, "maximal_split_subalgebra"),
                    (tp, "module_decomposition"), (tp, "is_quasi_split"),
                    (rt, "full_root_classification"), (tp, "section_basis")]
_ALL = {name for _, name in _STAGE_FUNCTIONS}
_SECTION = _ALL - {"is_quasi_split", "full_root_classification"}
_DIMENSIONS = _ALL - {"section_basis"}
_SU12 = "su:p=1,q=2"


def _construct_op():
    an = dm.analyze(build(form_id("su_pq", p=1, q=2)))
    dm.dimension_report(an, dm.CurveContext.canonical(2))


@pytest.mark.parametrize("run, stages", [
    (lambda: main(["describe", _SU12]), {"restricted_roots"}),
    (lambda: main(["lemma73", "--n", "3"]),
     {"restricted_roots", "build_tds", "normal_triple"}),
    (lambda: main(["hkr", _SU12]), _SECTION),
    (lambda: main(["section", _SU12]), _SECTION),
    (lambda: main(["dims", _SU12]), _DIMENSIONS),
    (_construct_op, _DIMENSIONS),
    (lambda: vf.verify_form(form_id("su_pq", p=1, q=2), seed=0, samples=1,
                            fiber_samples=1, conjugators=1), _ALL),
], ids=["describe", "lemma73", "hkr", "section", "dims", "construct",
        "verify_form"])
def test_each_verb_runs_the_stages_it_reads_once(monkeypatch, capsys, run,
                                                 stages):
    calls = Counter()
    for module, name in _STAGE_FUNCTIONS:
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    result = run()
    assert result in (0, None) or all(r.ok for r in result)
    assert dict(calls) == dict.fromkeys(stages, 1)


def test_a_stage_that_raises_is_not_kept(monkeypatch):
    an = dm.analyze(build(form_id("sl_R", n=2)))
    original = tp.normal_triple

    def failing(tds):
        raise ConstructionFailure("planted triple fault")

    monkeypatch.setattr(tp, "normal_triple", failing)
    for _ in range(2):
        with pytest.raises(ConstructionFailure, match="planted triple"):
            an.decomposition
    assert "tds" in vars(an) and "triple" not in vars(an)
    monkeypatch.setattr(tp, "normal_triple", original)
    assert an.decomposition is an.decomposition


def test_section_outside_the_split_subalgebra_is_refused(monkeypatch):
    # the section is built for the split subalgebra: f and each e_i lie in it
    an = dm.analyze(build(form_id("su_pq", p=1, q=2)))
    S, space = an.structure, an.split_sub.space
    outside = next(v for v in map(S.unit_coords, S.m_indices)
                   if not space.contains(v))
    original = tp.section_basis

    def leaving(*args):
        basis = original(*args)
        basis.e_list[-1] = outside
        return basis

    monkeypatch.setattr(tp, "section_basis", leaving)
    with pytest.raises(ConstructionFailure, match=r"^su\(1,2\): the section "
                       r"leaves the split subalgebra$"):
        an.section


# --- line bundle cohomology -------------------------------------------------------

def test_curve_context_validation():
    with pytest.raises(ValueError):
        dm.CurveContext(1, 0)
    with pytest.raises(ValueError):
        dm.CurveContext(2, 3, L_is_canonical=True)
    with pytest.raises(ValueError):
        dm.CurveContext(2, 1, L_is_trivial=True)
    assert dm.CurveContext.canonical(2).d_L == 2
    assert dm.CurveContext.trivial(3).d_L == 0


def test_negative_degree_of_L_is_rejected():
    # the closed form of the base dimension does not hold for deg L < 0
    with pytest.raises(InvalidParams, match="got -3"):
        dm.CurveContext.of_degree(2, -3)
    assert dm.CurveContext.of_degree(2, 0).d_L == 0


def test_h0_h1_canonical_table():
    K2 = dm.CurveContext.canonical(2)
    assert dm.h0_h1_line_power(2, K2) == (3, 0)
    assert dm.h0_h1_line_power(1, K2) == (2, 1)
    assert dm.h0_h1_line_power(0, K2) == (1, 2)
    assert dm.h0_h1_line_power(-1, K2) == (0, 3)
    K3 = dm.CurveContext.canonical(3)
    assert dm.h0_h1_line_power(1, K3) == (3, 1)
    assert dm.h0_h1_line_power(3, K3) == (10, 0)


def test_h0_h1_riemann_roch():
    for g in (2, 3):
        for ctx in (dm.CurveContext.canonical(g),
                    dm.CurveContext.of_degree(g, 2 * g - 1),
                    dm.CurveContext.of_degree(g, 4 * g)):
            for m in range(-2, 4):
                try:
                    h0, h1 = dm.h0_h1_line_power(m, ctx)
                except AmbiguousCohomology:
                    continue
                assert h0 - h1 == m * ctx.d_L - g + 1, (g, ctx.d_L, m)


def test_h0_h1_generic_line_bundle():
    ctx = dm.CurveContext.of_degree(2, 4)
    assert dm.h0_h1_line_power(1, ctx) == (3, 0)
    assert dm.h0_h1_line_power(0, ctx) == (1, 2)
    assert dm.h0_h1_line_power(-1, ctx) == (0, 5)
    # degree exactly 2g - 2 but generic: no sections of the dual, h1 = 0
    assert dm.h0_h1_line_power(1, dm.CurveContext.of_degree(2, 2)) == (1, 0)


def test_h0_h1_trivial_and_degree_zero():
    triv = dm.CurveContext.trivial(2)
    assert dm.h0_h1_line_power(5, triv) == (1, 2)
    zero = dm.CurveContext.of_degree(2, 0)
    assert dm.h0_h1_line_power(3, zero) == (0, 1)
    assert dm.h0_h1_line_power(0, zero) == (1, 2)


def test_h0_h1_ambiguous_window():
    # deg L^m = 2 falls inside [1, 2g-2] for g = 2
    ctx = dm.CurveContext.of_degree(2, 1)
    with pytest.raises(AmbiguousCohomology):
        dm.h0_h1_line_power(2, ctx)


# --- base dimension -----------------------------------------------------------------

def test_base_dim_split_forms_canonical_g2():
    K2 = dm.CurveContext.canonical(2)
    assert dm.hitchin_base_dim(analysis("sl_R", n=2), K2) == 3
    assert dm.hitchin_base_dim(analysis("sl_R", n=3), K2) == 8
    assert dm.hitchin_base_dim(analysis("sl_R", n=4), K2) == 15
    assert dm.hitchin_base_dim(analysis("sp2n_R", n=2), K2) == 10
    assert dm.hitchin_base_dim(analysis("so_pq", p=3, q=3), K2) == 15


def test_base_dim_other_degrees():
    g2_3 = dm.CurveContext.of_degree(2, 3)
    g2_8 = dm.CurveContext.of_degree(2, 8)
    assert dm.hitchin_base_dim(analysis("sl_R", n=2), g2_3) == 5
    assert dm.hitchin_base_dim(analysis("sl_R", n=2), g2_8) == 15
    assert dm.hitchin_base_dim(analysis("sl_R", n=3), g2_3) == 13
    assert dm.hitchin_base_dim(analysis("sl_R", n=3), g2_8) == 38
    assert dm.hitchin_base_dim(analysis("sl_R", n=4), g2_3) == 24
    assert dm.hitchin_base_dim(analysis("sl_R", n=4), g2_8) == 69
    assert dm.hitchin_base_dim(analysis("sp2n_R", n=2), g2_3) == 16
    assert dm.hitchin_base_dim(analysis("sp2n_R", n=2), g2_8) == 46


def test_base_dim_non_split_forms():
    K2 = dm.CurveContext.canonical(2)
    assert dm.hitchin_base_dim(analysis("su_pq", p=1, q=2), K2) == 3
    assert dm.hitchin_base_dim(analysis("su_pq", p=2, q=2), K2) == 10
    assert dm.hitchin_base_dim(analysis("su_pq", p=3, q=3), K2) == 21
    assert dm.hitchin_base_dim(analysis("sl_C_as_real", n=2), K2) == 3


@pytest.mark.parametrize("split_dim, closed", [(4, "13/2"), (5, "8")])
def test_base_dim_disagreement_names_both_routes(split_dim, closed):
    # a planted split subalgebra of the wrong size; d_L = 3 is odd, so the
    # closed form can be a half-integer
    an = dm.analyze(build(form_id("sl_R", n=2)))
    an.split_sub = SimpleNamespace(dim=split_dim)
    with pytest.raises(RouteDisagreement, match=r"^sl\(2,R\): base dim 5 "
                       r"\(h0 sum\) vs %s \(closed form\)$" % closed):
        dm.hitchin_base_dim(an, dm.CurveContext.of_degree(2, 3))


def test_expected_dim_that_is_not_integral_is_refused():
    an = dm.analyze(build(form_id("sl_R", n=2)))
    an.decomposition = SimpleNamespace(a=1, b=1, c=0, dim_z_m=0)
    with pytest.raises(RouteDisagreement, match=r"^sl\(2,R\): expected "
                       r"dimension 9/2 is not integral$"):
        dm.expected_moduli_dim(an, dm.CurveContext.of_degree(2, 3))


def test_base_dim_degenerate_L():
    an = analysis("sl_R", n=3)
    assert dm.hitchin_base_dim(an, dm.CurveContext.trivial(2)) == 2
    assert dm.hitchin_base_dim(an, dm.CurveContext.of_degree(2, 0)) == 0


# --- expected moduli dimension ------------------------------------------------------

def test_expected_dim_split_equals_base():
    K2 = dm.CurveContext.canonical(2)
    for family, kw in (("sl_R", dict(n=2)), ("sl_R", dict(n=3)),
                       ("sp2n_R", dict(n=2)), ("so_pq", dict(p=2, q=3))):
        an = analysis(family, **kw)
        assert dm.expected_moduli_dim(an, K2) == dm.hitchin_base_dim(an, K2)


def test_expected_dim_examples():
    K2 = dm.CurveContext.canonical(2)
    assert dm.expected_moduli_dim(analysis("su_pq", p=1, q=2), K2) == 8
    assert dm.expected_moduli_dim(analysis("su_pq", p=2, q=2), K2) == 15
    assert dm.expected_moduli_dim(analysis("su_pq", p=3, q=3), K2) == 35
    assert dm.expected_moduli_dim(analysis("sl_C_as_real", n=2), K2) == 6


def test_expected_dim_all_degrees_consistent():
    # both routes must agree for quasi-split forms at every degree
    for d_L in (2, 3, 8):
        ctx = dm.CurveContext.of_degree(2, d_L)
        for family, kw in (("su_pq", dict(p=1, q=2)),
                           ("su_pq", dict(p=2, q=2)),
                           ("sl_C_as_real", dict(n=2))):
            an = analysis(family, **kw)
            assert isinstance(dm.expected_moduli_dim(an, ctx), int)


def test_euler_characteristic_difference():
    an = analysis("su_pq", p=1, q=2)
    spec = dm.graded_bundle_spec(an)
    S = an.structure
    for ctx in (dm.CurveContext.canonical(2),
                dm.CurveContext.of_degree(3, 10)):
        chi = dm.euler_characteristic_difference(spec, ctx)
        assert chi == S.dim_m * (ctx.d_L + 1 - ctx.genus) \
            - S.dim_h * (1 - ctx.genus)


def test_graded_bundle_spec_ladders():
    an = analysis("sl_R", n=2)
    spec = dm.graded_bundle_spec(an)
    # single degree-2 block in m^C: own ladder {1,-1}, other ladder {0}
    assert spec.degrees == [2]
    assert spec.m_powers == [[1, -1]]
    assert spec.h_powers == [[0]]


# --- openness -----------------------------------------------------------------------

def test_openness_split_forms():
    K2 = dm.CurveContext.canonical(2)
    for family, kw in (("sl_R", dict(n=4)), ("sp2n_R", dict(n=3)),
                       ("so_pq", dict(p=2, q=3)), ("so_pq", dict(p=3, q=3))):
        br = dm.split_openness_test(analysis(family, **kw), K2)
        assert br.is_open
        assert br.value == 0
        assert (br.term_roots, br.term_b, br.term_z_h) == (0, 0, 0)


def test_openness_fails_off_split():
    K2 = dm.CurveContext.canonical(2)
    for family, kw in (("su_pq", dict(p=1, q=2)), ("su_pq", dict(p=2, q=2)),
                       ("su_star", dict(n=2)), ("sl_C_as_real", dict(n=2))):
        br = dm.split_openness_test(analysis(family, **kw), K2)
        assert not br.is_open
        assert br.value < 0


def test_openness_su22_term_breakdown():
    # 12 roots upstairs vs 8 restricted reduced roots, b = 1
    an = analysis("su_pq", p=2, q=2)
    K2 = dm.CurveContext.canonical(2)
    br = dm.split_openness_test(an, K2)
    assert an.num_roots == 12
    assert an.num_reduced == 8
    assert br.term_roots == -2 * (12 - 8)
    assert br.term_b == -1
    assert br.term_z_h == 0


# --- component count and the rank-one wall structure ---------------------------------

def test_component_count():
    assert dm.component_count(1, 2) == 16
    assert dm.component_count(4, 2) == 64
    assert dm.component_count(2, 3) == 128
    with pytest.raises(ValueError):
        dm.component_count(0, 2)
    for genus in (-1, 1):
        with pytest.raises(InvalidParams, match="genus must be at least 2"):
            dm.component_count(1, genus)


def test_sl2_classify_precedence():
    # emptiness is decided before the torsor wall: alpha = d = 3 > d_L/2
    assert dm.sl2_moduli_classify(3, 3, 4) == "empty"
    assert dm.sl2_moduli_classify(2, 2, 4) == "picard_torsor"
    assert dm.sl2_moduli_classify(0, 1, 4) == "all_semistable"
    assert dm.sl2_moduli_classify(-1, -3, 4) == "empty"
    assert dm.sl2_moduli_classify(Fraction(1, 2), 1, 4) == "all_semistable"
    assert dm.sl2_moduli_classify(0, 0, 0) == "picard_torsor"
    assert dm.sl2_moduli_classify(-1, 0, 0) == "all_semistable"
    assert dm.sl2_moduli_classify(1, 1, 0) == "empty"


# --- report -------------------------------------------------------------------------

def test_dimension_report_round_trip():
    an = analysis("su_pq", p=2, q=2)
    ctx = dm.CurveContext.canonical(2)
    rep = dm.dimension_report(an, ctx)
    d = rep.to_dict()
    assert d["form"] == "su(2,2)"
    assert d["base_dim"] == 10
    assert d["expected_moduli_dim"] == 15
    assert d["is_split"] is False
    assert d["is_quasi_split"] is True
    assert d["hkr_open"] is False
    assert d["openness_terms"]["value"] == rep.openness_terms["value"]


def test_dimension_report_trivial_L():
    an = analysis("sl_R", n=2)
    rep = dm.dimension_report(an, dm.CurveContext.trivial(2))
    assert rep.base_dim == 1
    assert rep.expected_moduli_dim is None
    assert rep.hkr_open is None
    assert rep.openness_terms is None

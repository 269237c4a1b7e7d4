"""Principal TDS, normal triples, split subalgebras, graded modules.

sl(2,R) is small enough to check against hand-computed matrices; the rest
of the forms are exercised through the construction's own exact relation
checks plus targeted structural assertions.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from hkr import catalog
from hkr import dimensions as dm
from hkr import roots as rt
from hkr import triples as tp
from hkr import linalg as la
from hkr.catalog import build, form_id
from hkr.algebra import RealFormStructure
from hkr.errors import (ConstructionFailure, GradingFailure, MismatchWithTable,
                        NoSolution, NonUnique, RelationFailure,
                        RouteDisagreement)
from hkr.scalars import Scalar, ZERO, ONE, I
from test_catalog import _forms_up_to


_CACHE = {}


def chain(family, **kw):
    """build -> tds -> triple -> decomposition, cached per form."""
    key = (family, tuple(sorted(kw.items())))
    if key not in _CACHE:
        S = build(form_id(family, **kw))
        tds = tp.build_tds(rt.restricted_roots(S))
        triple = tp.normal_triple(tds)
        dec = tp.module_decomposition(triple)
        _CACHE[key] = (S, tds, triple, dec)
    return _CACHE[key]


# --- frozen sl(2,R) oracle ------------------------------------------------------

def test_sl2r_tds_frozen_values():
    S, tds, triple, dec = chain("sl_R", n=2)
    assert la.mat_eq(S.matrix_of(tds.w), la.mat([[1, 0], [0, -1]]))
    assert tds.b == [Fraction(-1)]
    assert tds.c == [Fraction(1)]
    assert tds.d == [ONE]
    assert la.mat_eq(S.matrix_of(tds.e_c), la.mat([[0, I], [0, 0]]))
    # f_c = theta(e_c) = -transpose for sl(2,R)
    assert la.mat_eq(S.matrix_of(tds.f_c), la.mat([[0, 0], [-I, 0]]))


def test_sl2r_normal_triple_frozen_values():
    S, tds, triple, dec = chain("sl_R", n=2)
    s = Scalar.sqrt(2) / 4
    e_mat = la.mat([[s, -s * I], [-s * I, -s]])
    assert la.mat_eq(S.matrix_of(triple.e), e_mat)
    f_mat = la.mat([[s, s * I], [s * I, -s]])
    assert la.mat_eq(S.matrix_of(triple.f), f_mat)
    # x = (e_c + f_c)/2 is i/2 times the rotation generator
    assert la.mat_eq(S.matrix_of(triple.x),
                     la.mat([[0, I / 2], [-I / 2, 0]]))


# --- exact relations across forms -------------------------------------------------

RELATION_FORMS = [
    ("sl_R", dict(n=2)), ("sl_R", dict(n=3)),
    ("su_pq", dict(p=1, q=2)), ("su_pq", dict(p=2, q=2)),
    ("sp2n_R", dict(n=2)), ("so_pq", dict(p=2, q=3)),
    ("su_star", dict(n=2)), ("so_star", dict(n=3)),
    ("sl_C_as_real", dict(n=2)),
]


@pytest.mark.parametrize("family,kw", RELATION_FORMS,
                         ids=lambda v: str(v))
def test_tds_relations(family, kw):
    S, tds, triple, dec = chain(family, **kw)
    w, e_c, f_c = tds.w, tds.e_c, tds.f_c
    two_e = tuple(Scalar.of(2) * v for v in e_c)
    assert tuple(S.bracket_coords(w, e_c)) == two_e
    assert tuple(S.bracket_coords(e_c, f_c)) == tuple(
        Scalar.of(v) for v in w)
    # f_c is the image of e_c under the Cartan involution
    assert tuple(S.theta_coords(e_c)) == f_c


@pytest.mark.parametrize("family,kw", RELATION_FORMS,
                         ids=lambda v: str(v))
def test_normal_triple_relations(family, kw):
    S, tds, triple, dec = chain(family, **kw)
    e, f, x = triple.e, triple.f, triple.x
    assert tuple(S.bracket_coords(x, e)) == e
    assert tuple(S.bracket_coords(x, f)) == tuple(-v for v in f)
    assert tuple(S.bracket_coords(e, f)) == x
    # theta fixes x and negates e, f
    assert tuple(S.theta_coords(x)) == x
    assert tuple(S.theta_coords(e)) == tuple(-v for v in e)
    # sqrt(2)(e + f) recovers the split regular element w
    w_s = tuple(Scalar.of(v) for v in tds.w)
    assert tuple(Scalar.sqrt(2) * (a + b) for a, b in zip(e, f)) == w_s


def test_tds_w_positive_coefficients():
    for family, kw in RELATION_FORMS:
        S, tds, triple, dec = chain(family, **kw)
        assert all(ci > 0 for ci in tds.c), S.name
        # -c_i/b_i is a positive rational with square root d_i
        for bi, ci, di in zip(tds.b, tds.c, tds.d):
            assert di * di == Scalar.of(Fraction(-ci, 1) / bi)


def test_tds_rejects_a_root_vector_of_the_wrong_root():
    # y_1 taken from the root space of lambda_1 + lambda_2 brackets with
    # theta y_1 to a multiple of that root's dual, not lambda_1's
    S = build(form_id("sl_R", n=3))
    data = rt.restricted_roots(S)
    top = tuple(a + b for a, b in zip(*data.simples))
    data.root_spaces[data.simples[0]] = data.root_spaces[top]
    with pytest.raises(ConstructionFailure,
                       match=re.escape("[y_1, theta y_1] != b_1 h_1")):
        tp.build_tds(data)


@pytest.mark.parametrize("family, n, message", [
    # A2: lambda_1 and lambda_1 + lambda_2 give positive c_i, but their
    # difference is a root, so the cross brackets spoil [e_c, f_c]
    ("sl_R", 3, "[e_c, f_c] != w"),
    # C2: lambda_1 is long and lambda_1 + lambda_2 short, with
    # pair(lambda_1, lambda_1 + lambda_2) = |lambda_1 + lambda_2|^2, so
    # w = 2 h_2 takes the value 2 on both and c_1 = 0
    ("sp2n_R", 2, "c_1 = 0 is not positive"),
])
def test_tds_rejects_a_non_simple_base(family, n, message):
    S = build(form_id(family, n=n))
    data = rt.restricted_roots(S)
    data.simples = [data.simples[0],
                    tuple(a + b for a, b in zip(*data.simples))]
    with pytest.raises(ConstructionFailure, match=re.escape(message)):
        tp.build_tds(data)


# --- split subalgebra gates -------------------------------------------------------

def test_split_sub_su12_is_so12():
    S, tds, triple, dec = chain("su_pq", p=1, q=2)
    sub = tp.maximal_split_subalgebra(tds)
    assert sub.dim == 3
    assert sub.table_label == "so(1,2)"
    assert rt.type_equivalent(tds.root_data.types[1], "A1")


def test_split_sub_su22_is_sp4r():
    S, tds, triple, dec = chain("su_pq", p=2, q=2)
    sub = tp.maximal_split_subalgebra(tds)
    assert sub.dim == 10
    assert sub.table_label == "sp(4,R)"
    assert rt.type_equivalent(tds.root_data.types[1], "C2")


def test_split_sub_of_split_form_is_everything():
    S, tds, triple, dec = chain("sl_R", n=3)
    sub = tp.maximal_split_subalgebra(tds)
    assert sub.dim == S.dim


GHAT_FORMS = sorted(catalog.form_cli_text(f) for f in catalog.standard_forms())
GHAT_FORMS += ["su:p=4,q=4", "sp_r:n=4", "so_star:n=5"]


@pytest.mark.parametrize("form", GHAT_FORMS)
def test_split_sub_weight_pieces_are_its_meets_with_the_root_spaces(form):
    # each weight piece of the graded closure is ghat meet g_lambda, with
    # dim ghat + dim g_lambda - dim(ghat + g_lambda), and the pieces
    # together have the rows of the split subalgebra's space
    S = build(catalog.parse_form(form))
    data = rt.restricted_roots(S)
    tds = tp.build_tds(data)
    sub = tp.maximal_split_subalgebra(tds)
    zero = (Fraction(0),) * S.rank_a
    gens = [(zero, S.unit_coords(i)) for i in S.a_indices]
    simples = tds.root_data.simples
    gens += list(zip(simples, tds.y))
    gens += [(tuple(-v for v in lam), z) for lam, z in zip(simples, tds.z)]
    pieces = S.generate_subalgebra(gens)
    ghat = sub.space.rows
    for wt, piece in pieces.items():
        g_lam = data.centralizer if wt == zero else data.root_spaces[wt]
        meet = len(ghat) + len(g_lam) - la.rank(ghat + g_lam)
        assert piece.dim == meet, (form, wt)
        assert la.rank(g_lam + piece.rows) == len(g_lam), (form, wt)
    assert la.Subspace([r for p in pieces.values() for r in p.rows]).rows \
        == ghat


def _tds_with_a_shifted_y_1():
    """su(2,2) with y_1 plus a vector of another root space, which is not of
    weight lambda_1."""
    S, tds, _, _ = chain("su_pq", p=2, q=2)
    other = next(lam for lam in tds.root_data.root_spaces
                 if lam != tds.root_data.simples[0])
    shift = tds.root_data.root_spaces[other][0]
    y = [tuple(a + b for a, b in zip(tds.y[0], shift))] + tds.y[1:]
    return S, tds, tp.TdsConstruction(tds.root_data, y, tds.z, tds.b, tds.c,
                                      tds.d, tds.w, tds.e_c, tds.f_c)


def test_split_sub_refuses_a_generator_of_the_wrong_weight():
    S, tds, bad = _tds_with_a_shifted_y_1()
    weight = "(%s)" % ", ".join(str(v) for v in tds.root_data.simples[0])
    with pytest.raises(ConstructionFailure,
                       match=re.escape("generator y_1 is not of weight "
                                       + weight)):
        tp.maximal_split_subalgebra(bad)


def test_graded_closure_stops_on_a_generator_of_the_wrong_weight():
    # labeled lambda_1, the shifted y_1 puts brackets at ever new weights;
    # the closure raises once its pieces outgrow g^C instead of running on
    _, _, bad = _tds_with_a_shifted_y_1()
    S = bad.structure
    simples = bad.root_data.simples
    gens = list(zip(simples, bad.y))
    gens += [(tuple(-v for v in lam), z) for lam, z in zip(simples, bad.z)]
    t0 = time.process_time()
    with pytest.raises(ConstructionFailure,
                       match=r"^su\(2,2\): graded closure exceeds dim 15; a "
                             r"generator weight is wrong$"):
        S.generate_subalgebra(gens)
    assert time.process_time() - t0 < 1


def test_center_dims_vanish_on_catalog():
    for family, kw in RELATION_FORMS:
        S, tds, triple, dec = chain(family, **kw)
        assert tds.root_data.center_dims == (0, 0, 0), S.name


# --- module decomposition ---------------------------------------------------------

def test_module_dimension_identity():
    for family, kw in RELATION_FORMS:
        S, tds, triple, dec = chain(family, **kw)
        assert sum(2 * bl.m - 1 for bl in dec.blocks) == S.dim, S.name
        assert len(dec.located("m")) == dec.a + dec.dim_z_m, S.name


def test_module_blocks_sl2c():
    # two degree-2 modules: one living in h^C, one in m^C
    S, tds, triple, dec = chain("sl_C_as_real", n=2)
    assert sorted(bl.m for bl in dec.blocks) == [2, 2]
    assert [bl.m for bl in dec.located("h")] == [2]
    assert [bl.m for bl in dec.located("m")] == [2]
    assert (dec.a, dec.b, dec.c) == (1, 1, 0)


def test_module_blocks_su22():
    S, tds, triple, dec = chain("su_pq", p=2, q=2)
    assert [bl.m for bl in dec.located("m")] == [2, 4]
    assert (dec.a, dec.b, dec.c) == (2, 1, 0)


def test_module_blocks_su_star4():
    S, tds, triple, dec = chain("su_star", n=2)
    assert [bl.m for bl in dec.located("m")] == [2]
    assert (dec.a, dec.b, dec.c) == (1, 6, 3)
    # c counts trivial h-blocks
    assert sum(1 for bl in dec.located("h") if bl.m == 1) == 3


def test_module_vectors_are_highest_weight():
    S, tds, triple, dec = chain("sp2n_R", n=2)
    for bl in dec.blocks:
        v = bl.vector
        assert not any(S.bracket_coords(triple.e, v))
        got = tuple(S.bracket_coords(triple.x, v))
        want = tuple(Scalar.of(bl.m - 1) * c for c in v)
        assert got == want


# --- quasi-split flag -------------------------------------------------------------

def test_quasi_split_flags():
    cases = {
        ("sl_R", (("n", 3),)): True,
        ("su_pq", (("p", 1), ("q", 2))): True,
        ("su_pq", (("p", 2), ("q", 2))): True,
        ("su_pq", (("p", 1), ("q", 3))): False,
        ("su_star", (("n", 2),)): False,
        ("so_star", (("n", 3),)): False,
        ("sl_C_as_real", (("n", 2),)): True,
    }
    for (family, params), want in cases.items():
        kw = dict(params)
        S, tds, triple, dec = chain(family, **kw)
        assert tp.is_quasi_split(triple) is want, S.name


def test_quasi_split_routes_must_agree(monkeypatch):
    # sl(2,R) is split, so c_g(a) = a is abelian; a center of dim 1 that the
    # TDS centralizer (dim 0) does not match sets the two routes apart
    S = build(form_id("sl_R", n=2))
    triple = tp.normal_triple(tp.build_tds(rt.restricted_roots(S)))
    monkeypatch.setattr(triple.tds.root_data, "center_dims", (1, 0, 1))
    with pytest.raises(RouteDisagreement,
                       match=r"c_g\(a\) abelian = True but dim c\(s\^C\) = 0 "
                             r"vs dim z = 1"):
        tp.is_quasi_split(triple)


def test_normal_triple_rejects_a_corrupted_tds():
    # with e_c doubled, [E, F] = 2W and the triple relations fail
    S, tds, _, _ = chain("sl_R", n=3)
    bad = tp.TdsConstruction(tds.root_data, tds.y, tds.z, tds.b, tds.c, tds.d,
                             tds.w, tuple(2 * v for v in tds.e_c), tds.f_c)
    with pytest.raises(RelationFailure,
                       match=r"sl\(3,R\): \[x,e\] = e, \[x,f\] = -f and "
                             r"\[e,f\] = x do not all hold"):
        tp.normal_triple(bad)


@pytest.mark.parametrize("fid", _forms_up_to(4), ids=catalog.form_cli_text)
def test_swapped_cayley_signs_break_the_triple_relations(fid):
    # normal_triple tries one sign assignment: the swap of e and f never holds
    S = build(fid)
    triple = tp.normal_triple(tp.build_tds(rt.restricted_roots(S)))
    assert tp._triple_relations_hold(S, triple.e, triple.f, triple.x)
    assert not tp._triple_relations_hold(S, triple.f, triple.e, triple.x)


def test_x_spectrum_is_taken_once_per_triple(monkeypatch):
    # the spectrum of x and the ad(x) candidates of the module
    # decomposition read one n x n charpoly
    S = build(form_id("su_pq", p=1, q=3))
    tds = tp.build_tds(rt.restricted_roots(S))
    polys = []
    original = la.charpoly

    def counting(m):
        polys.append(m)
        return original(m)

    monkeypatch.setattr(la, "charpoly", counting)
    triple = tp.normal_triple(tds)
    tp.module_decomposition(triple)
    assert polys == [S.matrix_of(triple.x)]
    roots_ = la.rational_roots([c.as_fraction() for c in original(polys[0])])
    assert triple.x_spectrum == sorted(set(roots_))


def test_split_subalgebra_checked_against_the_table(monkeypatch):
    S, tds, _, _ = chain("sl_R", n=3)
    monkeypatch.setattr(S, "table_row",
                        catalog.TableOneEntry("sl(3,R)", "sl(3,R)", "G2", True))
    with pytest.raises(MismatchWithTable,
                       match=r"split subalgebra type A2, table row needs G2"):
        tp.maximal_split_subalgebra(tds)


def test_build_tds_needs_one_simple_root_per_rank():
    data = rt.restricted_roots(build(form_id("sl_R", n=3)))
    data.simples = data.simples[1:]
    with pytest.raises(ConstructionFailure,
                       match=r"^sl\(3,R\): 1 simple roots for rank 2$"):
        tp.build_tds(data)


# --- section ----------------------------------------------------------------------

def test_section_basis_degrees():
    S, tds, triple, dec = chain("su_pq", p=2, q=2)
    basis = tp.section_basis(triple, dec)
    assert basis.degrees == [2, 4]
    assert basis.e_list[0] == triple.e
    assert basis.central == []


def test_section_point_at_zero_is_f():
    S, tds, triple, dec = chain("sl_R", n=3)
    basis = tp.section_basis(triple, dec)
    pt = tp.section_point(basis, [0] * basis.rank)
    assert pt == triple.f
    assert tp.is_regular(S, pt)
    assert tp.section_point_regular(basis, [0] * basis.rank)


def test_section_points_regular_on_samples():
    S, tds, triple, dec = chain("so_pq", p=2, q=3)
    basis = tp.section_basis(triple, dec)
    for gamma in ([1, 0], [0, 1], [Fraction(1, 2), -3], [-2, Fraction(5, 4)]):
        assert tp.section_point_regular(basis, gamma)


def test_section_basis_refuses_a_non_principal_f():
    # [[1, i, 0], [i, -1, 0], [0, 0, 0]] is a nilpotent of rank one in m^C,
    # the Cayley image of one root vector, so its centralizer in m^C has
    # dim 4 > rank 2; the rest of the triple and the section data stay
    S, tds, triple, dec = chain("sl_R", n=3)
    f = S.coords_of(la.mat([[1, I, 0], [I, -1, 0], [0, 0, 0]]))
    assert la.charpoly(S.matrix_of(f)) == (ZERO,) * S.n + (ONE,)
    assert not tp.is_regular(S, f)
    with pytest.raises(ConstructionFailure,
                       match=r"^sl\(3,R\): f is not regular in m\^C$"):
        tp.section_basis(tp.NormalTriple(triple.tds, triple.e, f, triple.x,
                                         triple.x_spectrum), dec)


def _regular_by_exact_rank(S, x):
    """The oracle: dim m^C less the exact rank of ad(x) on m^C is rank_a."""
    ad = S.ad_matrix(list(x))
    cols = [[row[j] for j in S.m_indices] for row in ad]
    return S.dim_m - la.rank(cols) == S.rank_a


# the 29 FormIds of matrix size <= 5 and three stretch forms of dim 35-63
_REGULARITY_FORMS = _forms_up_to(5) + [
    form_id("su_pq", p=4, q=4), form_id("sp2n_R", n=4),
    form_id("so_star", n=5)]


@pytest.mark.parametrize("fid", _REGULARITY_FORMS, ids=catalog.form_cli_text)
def test_is_regular_matches_the_exact_rank(monkeypatch, fid):
    an = dm.analyze(build(fid))
    S, triple = an.structure, an.triple
    label = sorted(an.root_data.root_spaces)[0]
    y = an.root_data.root_spaces[label][0]
    root_vector = tuple(a - b for a, b in zip(y, S.theta_coords(y)))
    points = [triple.e, triple.f, (ZERO,) * S.dim, root_vector]
    gammas = []
    try:
        basis = an.section
    except ConstructionFailure:
        basis = None  # so(2,2): the degrees do not grade its section
    if basis is not None:
        rng = random.Random("is_regular/%s" % S.name)
        gammas = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(basis.rank)] for _ in range(2)]
        points += [tp.section_point(basis, g) for g in gammas]
    want = [_regular_by_exact_rank(S, x) for x in points]
    assert want[:3] == [True, True, False]
    exact = []
    rank = la.rank
    monkeypatch.setattr(la, "rank", lambda rows: exact.append(1) or rank(rows))
    for forced in (False, True):
        if forced:  # rank 0 mod p never reaches the bound: the exact rank runs
            monkeypatch.setattr(la, "rank_det_mod", lambda rows, p: (0, 0))
        del exact[:]
        assert [tp.is_regular(S, x) for x in points] == want, forced
        assert [tp.section_point_regular(basis, g)
                for g in gammas] == want[4:], forced
        # unforced, only the points that are not regular take the exact rank
        fallbacks = len(points + gammas) if forced else \
            want.count(False) + want[4:].count(False)
        assert len(exact) == fallbacks, forced


def test_fiber_match_round_trip():
    S, tds, triple, dec = chain("sl_R", n=3)
    basis = tp.section_basis(triple, dec)
    gamma = [Scalar.of(Fraction(3, 2)), Scalar.of(-2)]
    pt = tp.section_point(basis, gamma)
    recovered = tp.section_fiber_match(basis, pt)
    assert recovered == gamma


def test_fiber_match_distinguishes_points():
    S, tds, triple, dec = chain("sp2n_R", n=2)
    basis = tp.section_basis(triple, dec)
    g1 = [Scalar.of(1), Scalar.of(2)]
    g2 = [Scalar.of(1), Scalar.of(-2)]
    p1 = la.charpoly(S.matrix_of(tp.section_point(basis, g1)))
    p2 = la.charpoly(S.matrix_of(tp.section_point(basis, g2)))
    assert tuple(p1) != tuple(p2)


def test_fiber_match_so33_unsupported():
    # the degree-3 invariant of so(3,3) is not a characteristic polynomial
    # coefficient, so the triangular solve has no slope there
    S, tds, triple, dec = chain("so_pq", p=3, q=3)
    basis = tp.section_basis(triple, dec)
    pt = tp.section_point(basis, [1, 1, 1])
    with pytest.raises(NoSolution):
        tp.section_fiber_match(basis, pt)


def test_fiber_match_so44_repeated_degree_is_not_unique():
    # so(4,4) has the invariant degree 4 twice (a charpoly coefficient and
    # the Pfaffian), so the degrees do not order a triangular solve
    S, tds, triple, dec = chain("so_pq", p=4, q=4)
    basis = tp.section_basis(triple, dec)
    assert basis.degrees == [2, 4, 4, 6]
    pt = tp.section_point(basis, [1] * basis.rank)
    with pytest.raises(NonUnique, match=r"so\(4,4\): repeated invariant "
                                        r"degrees \[2, 4, 4, 6\]"):
        tp.section_fiber_match(basis, pt)


# --- invariance under exact conjugation ---------------------------------------------

@pytest.mark.parametrize("family,kw", [
    ("sl_R", dict(n=2)), ("su_pq", dict(p=1, q=2)), ("su_star", dict(n=2)),
    ("so_pq", dict(p=1, q=2))],
    ids=lambda v: str(v))
def test_conjugation_preserves_charpoly_and_regularity(family, kw):
    S, tds, triple, dec = chain(family, **kw)
    basis = tp.section_basis(triple, dec)
    pt = tp.section_point(basis, [Fraction(1, 2)] * basis.rank)
    mat = S.matrix_of(pt)
    cp = la.charpoly(mat)
    for g, ginv in tp.invariance_conjugators(S, 4):
        assert la.mat_eq(la.mmul(g, ginv), la.eye(S.n))
        moved = tp.conjugate_coords(S, g, ginv, pt)
        assert la.charpoly(S.matrix_of(moved)) == cp
        assert tp.is_regular(S, moved)


@pytest.mark.parametrize("fid", catalog.standard_forms(),
                         ids=catalog.form_cli_text)
def test_conjugators_rotate_along_the_basis_of_h(fid):
    S = build(fid)
    pairs = tp.invariance_conjugators(S, 20)
    assert len(pairs) == 20
    for k, (g, ginv) in enumerate(pairs):
        assert la.mat_eq(la.mmul(g, ginv), la.eye(S.n))
        if k >= S.dim_h:
            continue
        # g - g^{-1} = 2d M for the k-th basis element M of h
        m_k = S.matrix_of(S.unit_coords(S.h_indices[k]))
        ratio = tp._proportionality(la.flatten(m_k),
                                    la.flatten(la.msub(g, ginv)))
        assert ratio is not None and ratio != ZERO, (S.name, k)
        # g lies in H^C, so it maps m^C into m^C
        for j in S.m_indices:
            moved = la.mmul(la.mmul(g, S.matrix_of(S.unit_coords(j))), ginv)
            coords = S.coords_of(moved)
            assert not any(coords[i] for i in S.h_indices), (S.name, k, j)


def test_conjugators_need_a_rotation_element_of_h():
    # h = span(diag(i, i, -2i)): its one basis element has eigenvalues
    # i, i, -2i, so M^3 != -sM
    h = {(0, 0): I, (1, 1): I, (2, 2): -2 * I}
    a = {(0, 0): 1, (1, 1): -1}
    S = RealFormStructure("u1 + a", 3, [a, h], [a])
    with pytest.raises(ConstructionFailure,
                       match="no exact conjugators available"):
        tp.invariance_conjugators(S, 2)


def test_module_decomposition_rejects_a_missing_candidate(monkeypatch):
    S, tds, triple, _ = chain("su_pq", p=1, q=2)
    candidates = rt.eigenvalue_differences
    monkeypatch.setattr(rt, "eigenvalue_differences",
                        lambda *args, **kw: candidates(*args, **kw)[:-1])
    with pytest.raises(GradingFailure, match="not diagonalizable on ker ad"):
        tp.module_decomposition(triple)


# --- explicit low-rank so* matrices ---------------------------------------------

def test_so_star6_lemma_report():
    rep = tp.so_star_lemma_report(chain("so_star", n=3)[2])
    assert rep.ok()
    assert rep.w_matches_display
    # the displayed eigenvector violates the algebra conditions in its last
    # row; the corrected matrix lies in so*(6) and spans the same root line
    assert not rep.displayed_y_in_algebra
    assert rep.eigen_values == [(Fraction(1),)]
    assert rep.y_scalar == ONE


def test_so_star10_lemma_report():
    rep = tp.so_star_lemma_report(chain("so_star", n=5)[2])
    assert rep.ok()
    assert rep.displayed_y_in_algebra
    assert rep.eigen_values == [(Fraction(1),), (Fraction(1),)]
    assert rep.y_block_traces_zero and rep.x_block_traces_zero


def test_second_so_star10_display_is_the_exchange_of_the_first():
    # the (0 1)(3 4)(5 6)(8 9) row/column exchange of the first display
    perm = list(range(10))
    for i, j in ((0, 1), (3, 4), (5, 6), (8, 9)):
        perm[i], perm[j] = perm[j], perm[i]
    y1 = tp._DISPLAY_Y10_1
    assert tp._DISPLAY_Y10_2 == tuple(
        tuple(y1[perm[r]][perm[c]] for c in range(10)) for r in range(10))
    assert tp._DISPLAY_Y10_2 != y1


def test_so_star_lemma_rejects_other_ranks():
    for family, kw in (("so_star", {"n": 4}), ("sl_R", {"n": 2})):
        with pytest.raises(ValueError, match=r"so\*\(6\) and so\*\(10\)"):
            tp.so_star_lemma_report(chain(family, **kw)[2])

"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with -v to get one status line per criterion; the printed summary lines
appear with -s or in the captured output of a failing run.  Everything is
exact arithmetic; the only tolerances are the stated wall-clock budgets.
"""

import functools
import hashlib
import json
import random
import time
from fractions import Fraction

from hkr import catalog
from hkr import dimensions as dm
from hkr import linalg as la
from hkr import roots as rt
from hkr import triples as tp
from hkr import verify as vf
from hkr.errors import ConstructionFailure
from hkr.scalars import Scalar
from test_catalog import _forms_up_to
from test_linalg import n_fold_power


_ANALYSES = {}
_TIMES = {}
# the stages of a FormAnalysis, each built on first read
STAGES = ("root_data", "tds", "triple", "split_sub", "decomposition",
          "quasi_split", "num_roots", "num_reduced")


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print("criterion %d: FAIL" % num)
                raise
            print("criterion %d: PASS" % num)
        return wrapper
    return deco


def analyses():
    if not _ANALYSES:
        t0 = time.monotonic()
        for fid in catalog.standard_forms():
            an = dm.analyze(catalog.build(fid))
            for stage in STAGES:  # the budget covers every stage
                getattr(an, stage)
            _ANALYSES[an.structure.name] = an
        _TIMES["analyze_all"] = time.monotonic() - t0
    return _ANALYSES


def _rng(form, check):
    return random.Random("0/%s/%s" % (form, check))


def _random_gamma(rng, k):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]


def _regular_a(an, rng):
    S = an.structure
    labels = list(an.root_data.root_spaces)
    while True:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in range(S.rank_a)]
        if all(sum((l * v for l, v in zip(lab, vals)), Fraction(0))
               for lab in labels):
            coords = [Fraction(0)] * S.dim
            for j, v in enumerate(vals):
                coords[S.dim_h + j] = v
            return tuple(coords)


def _text(v):
    """v as nested lists of canonical text: Scalars, Fractions and ints
    by str, so a list and a tuple of equal values read alike."""
    if isinstance(v, (list, tuple)):
        return [_text(x) for x in v]
    return str(v)


def stage_values_before_section(an):
    """What each stage of one analysis before the section outputs."""
    rd, tds, triple, dec = (an.root_data, an.tds, an.triple,
                            an.decomposition)
    return [
        sorted(rd.root_spaces.items()), rd.centralizer, rd.h_centralizer,
        [tds.y, tds.z, tds.b, tds.c, tds.d, tds.w],
        [triple.e, triple.f, triple.x, triple.x_spectrum],
        an.split_sub.space.rows,
        [[bl.m, bl.vector, bl.location] for bl in dec.blocks],
        [dec.a, dec.b, dec.c, dec.dim_z, dec.dim_z_h, dec.dim_z_m],
    ]


def stage_values(an):
    """What each stage of one analysis outputs."""
    sec = an.section
    return stage_values_before_section(an) + [
        [sec.f, sec.e_list, sec.degrees, sec.central]]


def stage_outputs(an):
    """What each stage of one analysis outputs, as canonical text."""
    return _text(stage_values(an))


# sha256 of the stage outputs of the 19 catalog forms, in catalog order; a
# refactor of the analysis chain must leave every one unchanged
_PINNED_STAGES = "d65c1259504d459c554df0d90bc2c2e90dd9a0868e432f890bcbc64cb5b58911"


def test_stage_outputs_match_their_pinned_digest():
    ans = analyses()
    rows = [[name, stage_outputs(ans[name])]
            for name in map(catalog.form_display, catalog.standard_forms())]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _PINNED_STAGES


# sha256 of the stage outputs of every FormId of matrix size <= 6, in
# _forms_up_to order; so(2,2) has no section (ROADMAP item 5), so its row
# holds the stages before it and the section's error
_PINNED_STAGES_UP_TO_6 = \
    "f08598abb01a4e29d9ffd0179d9d9e648e6428a076deb308824e620ffe47b94a"


def test_stage_outputs_up_to_size_6_match_their_pinned_digest():
    rows = []
    for fid in _forms_up_to(6):
        an = dm.analyze(catalog.build(fid))
        try:
            out = stage_outputs(an)
        except ConstructionFailure as exc:
            out = [_text(stage_values_before_section(an)), str(exc)]
        rows.append([catalog.form_cli_text(fid), out])
    assert len(rows) == 46
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _PINNED_STAGES_UP_TO_6


# the leaf types of an exact output; a float is none of them
EXACT_LEAVES = (int, Fraction, Scalar, str, type(None))


def inexact_leaves(v, path="out"):
    """(path, value) of each leaf of the nested lists, tuples and dicts v
    whose type is not exact, such as a float."""
    if isinstance(v, dict):
        v = list(v.items())
    if isinstance(v, (list, tuple)):
        return [bad for k, x in enumerate(v)
                for bad in inexact_leaves(x, "%s[%d]" % (path, k))]
    return [] if isinstance(v, EXACT_LEAVES) else [(path, v)]


def test_no_output_holds_a_float():
    # exact arithmetic throughout: no stage output, root-layer value, lemma
    # report or Molien oracle value is a float; and root labels, spectra
    # and Cartan integers are ints when integral, so a slide back to
    # integral Fractions (the slow path) shows here
    assert inexact_leaves([1, (Fraction(1, 2), {"k": 0.5})]) == [
        ("out[1][1][0][1]", 0.5)]
    for name, an in analyses().items():
        rd, pair = an.root_data, an.root_data.pairing
        labels = list(rd.root_spaces) + rt.reduced_system(rd) + rd.simples
        cart = rt.cartan_matrix(rd.simples, pair)
        values = [stage_values(an), labels, an.triple.x_spectrum, cart,
                  [[pair(a, b) for b in rd.simples] for a in rd.simples],
                  an.tds.b, an.tds.c]
        assert inexact_leaves(values) == [], name
        assert all(type(v) is int for lam in labels + [an.triple.x_spectrum]
                   for v in lam if v.denominator == 1), name
        assert all(type(v) is int for row in cart for v in row), name
    so10 = dm.analyze(catalog.build(catalog.form_id("so_star", n=5)))
    assert inexact_leaves(vars(tp.so_star_lemma_report(so10.triple))) == []
    for label in vf._ORACLE_LABELS:
        simples, pair = rt.abstract_simple_system(label)
        wg = rt.weyl_group(simples, pair)
        values = [rt.cartan_matrix(simples, pair), wg.classes,
                  rt.molien_series(wg, 4 * len(simples) + 6),
                  rt.molien_degrees(wg, len(simples))]
        assert inexact_leaves(values) == [], label


@criterion(1)
def test_criterion_01_split_subalgebra_table():
    # every catalog form: split subalgebra dimension and Cartan type match
    # the reference table row; whole pass under two minutes
    ans = analyses()
    assert len(ans) == 19
    for fid in catalog.standard_forms():
        an = ans[catalog.form_display(fid)]
        row = catalog.lookup_table1(fid)
        assert an.split_sub.table_label == row.split_sub
        assert an.split_sub.dim == catalog.algebra_label_dim(row.split_sub)
        assert rt.type_equivalent(an.root_data.types[1],
                                  row.reduced_type)
        # proved, not checked, by maximal_split_subalgebra: the subalgebra
        # is theta-stable, and the simple roots of its own restricted root
        # system give the reduced type of g
        S, tds, space = an.structure, an.tds, an.split_sub.space
        assert all(space.contains(S.theta_coords(v)) for v in space.rows), \
            S.name
        gens = list(zip(tds.root_data.simples, tds.y))
        gens += [(tuple(-v for v in lam), z)
                 for lam, z in zip(tds.root_data.simples, tds.z)]
        sub_roots = {wt: piece.rows
                     for wt, piece in S.generate_subalgebra(gens).items()
                     if any(wt)}
        sub_data = rt.RestrictedRootData(S, sub_roots, [], [])
        assert rt.classify_simples(sub_data.simples, an.root_data.pairing) \
            == an.root_data.types[1], S.name
    assert _TIMES["analyze_all"] < 120, \
        "table pass took %.1fs" % _TIMES["analyze_all"]


@criterion(2)
def test_criterion_02_tds_relations():
    for an in analyses().values():
        S, tds, triple = an.structure, an.tds, an.triple
        w_s = tuple(Scalar.of(v) for v in tds.w)
        assert tuple(S.bracket_coords(tds.w, tds.e_c)) == \
            tuple(Scalar.of(2) * v for v in tds.e_c), S.name
        assert tuple(S.bracket_coords(tds.w, tds.f_c)) == \
            tuple(Scalar.of(-2) * v for v in tds.f_c), S.name
        assert tuple(S.bracket_coords(tds.e_c, tds.f_c)) == w_s, S.name
        assert all(bi < 0 for bi in tds.b), S.name
        assert all(ci > 0 for ci in tds.c), S.name
        w_a = [tds.w[j] for j in S.a_indices]
        for lam in tds.root_data.simples:  # lam evaluated on w in a
            assert sum(t * v for t, v in zip(w_a, lam)) == 2, S.name
        e, f, x = triple.e, triple.f, triple.x
        assert tuple(S.bracket_coords(x, e)) == e, S.name
        assert tuple(S.bracket_coords(x, f)) == tuple(-v for v in f), S.name
        assert tuple(S.bracket_coords(e, f)) == x, S.name
        for v in (e, f):
            assert tuple(S.theta_coords(v)) == tuple(-u for u in v), S.name
            assert la.is_zero_mat(n_fold_power(S.matrix_of(v), S.n)), S.name
        assert tuple(S.theta_coords(x)) == x, S.name
        # x is diagonalizable on C^n with half-integer eigenvalues
        assert la.eigen_split(la.eye(S.n), list(zip(*S.matrix_of(x))),
                              triple.x_spectrum) is not None, S.name
        assert all(v.denominator in (1, 2) for v in triple.x_spectrum), \
            S.name


@criterion(3)
def test_criterion_03_section_regularity():
    # 100 seeded rational gamma per form, every section point regular
    for an in analyses().values():
        S = an.structure
        basis = tp.section_basis(an.triple, an.decomposition)
        assert basis.e_list[0] == an.triple.e, S.name
        assert len(basis.e_list) == S.rank_a, S.name
        rng = _rng(S.name, "regularity")
        for k in range(100):
            gamma = _random_gamma(rng, basis.rank)
            assert tp.section_point_regular(basis, gamma), \
                "%s sample %d" % (S.name, k)


@criterion(4)
def test_criterion_04_module_identities():
    quasi_true = {"su(1,2)", "su(2,3)", "su(2,2)", "su(3,3)", "so(2,4)"}
    quasi_false = {"su(1,3)", "sp(1,2)", "so*(6)", "su*(4)"}
    fids = {catalog.form_display(fid): fid for fid in catalog.standard_forms()}
    for an in analyses().values():
        S, dec, triple = an.structure, an.decomposition, an.triple
        assert sum(2 * bl.m - 1 for bl in dec.blocks) == S.dim, S.name
        # each ad(x)-eigenspace of ker ad(e) splits by theta, and c counts
        # the h-part of the centralizer of the triple
        kernel = triple.e_kernel
        for ev, vecs in la.eigen_split(
                kernel, [S.bracket_coords(triple.x, v) for v in kernel],
                rt.eigenvalue_differences(triple.x_spectrum)):
            assert sum(map(len, S.theta_split(vecs))) == len(vecs), \
                (S.name, ev)
        assert len(S.theta_split(triple.centralizer)[0]) == dec.c, S.name
        trivial = sum(1 for bl in dec.blocks if bl.m == 1)
        if an.quasi_split:
            assert trivial == dec.dim_z, S.name
        else:
            assert trivial > dec.dim_z, S.name
        if S.name in quasi_true or an.is_split:
            assert an.quasi_split, S.name
        if S.name in quasi_false:
            assert not an.quasi_split, S.name
        assert an.quasi_split == catalog.lookup_table1(
            fids[S.name]).quasi_split, S.name


@criterion(5)
def test_criterion_05_exponent_oracle():
    t0 = time.monotonic()
    labels = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
              "BC1", "BC2", "BC3", "BC4", "D4", "G2", "F4"]
    for label in labels:
        simples, pair = rt.abstract_simple_system(label)
        wg = rt.weyl_group(simples, pair)
        assert len(wg) == rt.weyl_order_reference(label), label
        degs = rt.molien_degrees(wg, len(simples))
        assert degs == rt.invariant_degrees(label), label
    elapsed = time.monotonic() - t0
    assert elapsed < 2, "oracle took %.1fs" % elapsed


@criterion(6)
def test_criterion_06_dimension_route_pairs():
    for an in analyses().values():
        for g in (2, 3):
            contexts = (dm.CurveContext.canonical(g),
                        dm.CurveContext.of_degree(g, 2 * g - 1),
                        dm.CurveContext.of_degree(g, 4 * g))
            for ctx in contexts:
                base = dm.hitchin_base_dim(an, ctx)   # two routes inside
                expected = dm.expected_moduli_dim(an, ctx)  # two for q-s
                if an.is_split:
                    assert base == expected, \
                        "%s g=%d d_L=%d" % (an.structure.name, g, ctx.d_L)


@criterion(7)
def test_criterion_07_split_openness():
    ctx = dm.CurveContext.canonical(2)
    for an in analyses().values():
        br = dm.split_openness_test(an, ctx)
        assert br.is_open == an.is_split, an.structure.name
        if an.is_split:
            assert an.decomposition.b == 0, an.structure.name
            assert an.num_roots == an.num_reduced, an.structure.name
            assert br.value == 0, an.structure.name
        else:
            assert an.decomposition.b > 0 \
                or an.num_roots > an.num_reduced, an.structure.name
            assert br.value < 0, an.structure.name


@criterion(8)
def test_criterion_08_explicit_so_star_matrices():
    rep6 = tp.so_star_lemma_report(analyses()["so*(6)"].triple)
    assert rep6.ok()
    assert rep6.y_scalar is not None  # documented scalar, here exactly 1
    assert rep6.y_block_traces_zero and rep6.x_block_traces_zero
    so10 = dm.analyze(catalog.build(catalog.form_id("so_star", n=5)))
    rep10 = tp.so_star_lemma_report(so10.triple)
    assert rep10.ok()
    assert rep10.x_block_traces_zero


@criterion(9)
def test_criterion_09_fiber_match_and_injectivity():
    supported = 0
    fids = {catalog.form_display(fid): fid for fid in catalog.standard_forms()}
    for an in analyses().values():
        S = an.structure
        # the type letter comes from the reference table; the computed
        # diagram for the one D-type entry collapses to A3, but its cubic
        # invariant is a Pfaffian rather than a charpoly coefficient
        label = catalog.lookup_table1(fids[S.name]).restricted_type
        letter = "".join(ch for ch in label if ch.isalpha())
        if letter not in ("A", "B", "C", "BC"):
            assert not vf.fiber_match_supported(S), S.name
            continue
        assert vf.fiber_match_supported(S), S.name
        supported += 1
        basis = tp.section_basis(an.triple, an.decomposition)
        rng = _rng(S.name, "fiber")
        for k in range(25):
            d = _regular_a(an, rng)
            gamma = tp.section_fiber_match(basis, d)
            pt = tp.section_point(basis, gamma)
            cp_d = la.charpoly(S.matrix_of(tuple(Scalar.of(v) for v in d)))
            assert tuple(la.charpoly(S.matrix_of(pt))) == tuple(cp_d), \
                "%s sample %d" % (S.name, k)
        rng = _rng(S.name, "inject")
        for k in range(100):
            g1 = _random_gamma(rng, basis.rank)
            g2 = _random_gamma(rng, basis.rank)
            if g1 == g2:
                continue
            cp1 = la.charpoly(S.matrix_of(tp.section_point(basis, g1)))
            cp2 = la.charpoly(S.matrix_of(tp.section_point(basis, g2)))
            assert tuple(cp1) != tuple(cp2), "%s pair %d" % (S.name, k)
    assert supported == 18  # everything except the one D-type entry


@criterion(10)
def test_criterion_10_sl2_moduli_grid():
    for alpha in (-1, 0, 1, 2):
        for d in range(-3, 4):
            for d_L in (0, 2, 4):
                got = dm.sl2_moduli_classify(alpha, d, d_L)
                if d > Fraction(abs(d_L), 2) or d < alpha:
                    want = "empty"
                elif alpha == d:
                    want = "picard_torsor"
                else:
                    want = "all_semistable"
                assert got == want, (alpha, d, d_L)


@criterion(11)
def test_criterion_11_verify_all():
    t0 = time.monotonic()
    results = vf.verify_all(seed=0)
    elapsed = time.monotonic() - t0
    fails = [r for r in results if not r.ok]
    assert not fails, "first failure: %s" % fails[0].line() if fails else ""
    assert elapsed < 10, "verify --all took %.1fs" % elapsed

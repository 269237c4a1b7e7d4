"""Structure constants, Cartan involution, and the invariant form.

su(1,2) doubles as a hand-checked oracle: dimension 8 splitting 4 + 4,
restricted rank 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr import dimensions as dm
from hkr import linalg as la
from hkr import roots as rt
from hkr import verify as vf
from hkr.algebra import RealFormStructure, theta_entries
from hkr.catalog import (TableOneEntry, build, form_cli_text, form_id,
                         lookup_table1, standard_forms)
from hkr.errors import ConstructionFailure, NotInAlgebra, NotInTable
from hkr.linalg import Subspace
from hkr.scalars import I, Scalar


S = build(form_id("su_pq", p=1, q=2))


def _commutator(x, y):
    return la.msub(la.mmul(x, y), la.mmul(y, x))


def _zeros(n):
    return la.mat([[0] * n] * n)


def dense_basis(T):
    """The basis matrices of T, dense, as ``matrix_of`` gives them."""
    return [T.matrix_of(T.unit_coords(i)) for i in range(T.dim)]


coord_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coord_vectors = st.lists(coord_fracs.map(Scalar.of), min_size=S.dim,
                         max_size=S.dim)


def test_su12_dimensions():
    assert S.dim == 8
    assert S.dim_h == 4
    assert S.dim_m == 4
    assert S.rank_a == 1
    assert len(dense_basis(S)) == 8


def test_basis_ordering_is_adapted():
    # [h | a | rest of m], theta = +1 on h and -1 on m
    assert list(S.h_indices) == [0, 1, 2, 3]
    assert list(S.a_indices) == [4]
    assert list(S.m_indices) == [4, 5, 6, 7]
    for i in S.h_indices:
        u = S.unit_coords(i)
        assert S.theta_coords(u) == tuple(Scalar.of(c) for c in u)
    for i in S.m_indices:
        u = S.unit_coords(i)
        assert S.theta_coords(u) == tuple(-Scalar.of(c) for c in u)


def test_matrix_coords_round_trip():
    for i in range(S.dim):
        u = S.unit_coords(i)
        assert S.coords_of(S.matrix_of(u)) == tuple(Scalar.of(c) for c in u)


def test_try_coords_rejects_outsiders():
    not_in = la.eye(S.n)  # identity is not traceless-compatible with su(1,2)
    assert S.try_coords_of(not_in) is None


@settings(max_examples=40, deadline=None)
@given(coord_vectors, coord_vectors)
def test_bracket_antisymmetry(u, v):
    uv = S.bracket_coords(u, v)
    vu = S.bracket_coords(v, u)
    assert uv == tuple(-x for x in vu)


@settings(max_examples=25, deadline=None)
@given(coord_vectors, coord_vectors, coord_vectors)
def test_jacobi_identity(u, v, w):
    a = S.bracket_coords(u, S.bracket_coords(v, w))
    b = S.bracket_coords(v, S.bracket_coords(w, u))
    c = S.bracket_coords(w, S.bracket_coords(u, v))
    total = tuple(x + y + z for x, y, z in zip(a, b, c))
    assert all(not t for t in total)


@settings(max_examples=40, deadline=None)
@given(coord_vectors, coord_vectors)
def test_theta_is_a_bracket_automorphism(u, v):
    lhs = S.theta_coords(S.bracket_coords(u, v))
    rhs = S.bracket_coords(S.theta_coords(u), S.theta_coords(v))
    assert lhs == rhs
    assert S.theta_coords(S.theta_coords(u)) == tuple(Scalar.of(c) for c in u)


@settings(max_examples=40, deadline=None)
@given(coord_vectors, coord_vectors, coord_vectors)
def test_form_is_invariant_and_symmetric(u, v, w):
    assert S.form_coords(u, v) == S.form_coords(v, u)
    lhs = S.form_coords(S.bracket_coords(u, v), w)
    rhs = S.form_coords(u, S.bracket_coords(v, w))
    assert lhs == rhs


def test_form_signs_split_by_theta():
    # B(x, x) < 0 on the compact part, > 0 on a
    for i in S.h_indices:
        u = S.unit_coords(i)
        assert S.form_coords(u, u).as_fraction() < 0
    for i in S.a_indices:
        u = S.unit_coords(i)
        assert S.form_coords(u, u).as_fraction() > 0


@settings(max_examples=40, deadline=None)
@given(coord_vectors)
def test_ad_matrix_matches_bracket(u):
    ad = S.ad_matrix(u)
    for i in range(S.dim):
        col = S.bracket_coords(u, S.unit_coords(i))
        assert tuple(row[i] for row in ad) == col


def test_invariant_form_on_matrices():
    # B(X, Y) = Re tr(XY), taken from the matrices here, against the Gram
    # matrix the structure keeps
    basis = dense_basis(S)
    for i, j in ((4, 4), (0, 0), (4, 5), (0, 4)):
        xy = la.mmul(basis[i], basis[j])
        trace = sum((xy[r][r] for r in range(S.n)), Scalar.of(0))
        real, _ = trace.gaussian_parts()
        assert isinstance(real, Fraction)
        assert real == S.form_coords(S.unit_coords(i), S.unit_coords(j))


def test_theta_entries_is_an_involution_fixing_h_and_negating_m():
    for i, x in enumerate(dense_basis(S)):
        entries = {(r, c): e for r, row in enumerate(x)
                   for c, e in enumerate(row) if e}
        theta = theta_entries(entries)
        assert theta_entries(theta) == entries
        # -X^* read from the matrix itself
        assert theta == {(c, r): -x[r][c].conj() for r, c in entries}
        sign = 1 if i < S.dim_h else -1
        assert theta == {k: sign * e for k, e in entries.items()}, i


def test_centralizer_of_a_inside_g():
    a_units = [list(S.unit_coords(i)) for i in S.a_indices]
    cent = S.centralizer_frac(a_units)
    # root spaces carry 2+2+1+1 of the 8 dimensions, so c_g(a) = a + c_h(a) is 2
    assert len(cent) == 2


def test_generate_subalgebra_closes():
    gens = [((), list(S.unit_coords(i))) for i in S.a_indices]
    sub = S.generate_subalgebra(gens)
    assert list(sub) == [()]
    assert sub[()].dim == 1  # a is abelian, already closed
    full = S.generate_subalgebra(
        [((), list(S.unit_coords(i))) for i in (0, 4)])
    assert list(full) == [()]
    assert full[()].dim >= 2


def test_subspace_operations():
    sp = Subspace(la.mat([[1, 0, 0], [0, 1, 0]]))
    assert sp.dim == 2
    assert sp.contains(la.mat([[2, -3, 0]])[0])
    assert not sp.contains(la.mat([[0, 0, 1]])[0])


small_vectors = st.lists(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2)
             .map(Scalar.of), min_size=4, max_size=4),
    min_size=0, max_size=6)


@settings(max_examples=100, deadline=None)
@given(small_vectors)
def test_subspace_add_matches_batch(vectors):
    grown = Subspace([])
    for k, v in enumerate(vectors):
        new = not Subspace(vectors[:k]).contains(v)
        assert grown.add(v) == new
    batch = Subspace(vectors)
    assert grown.rows == batch.rows
    assert grown.pivots == batch.pivots


def _over_field(scalar, rows):
    """rows as drawn, or over Scalar as r + i * (r rotated by one place)."""
    if scalar:
        return [[Scalar.of(x) + I * Scalar.of(y) for x, y in zip(r, r[1:] + r[:1])]
                for r in rows]
    return rows


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.lists(coord_vectors, min_size=0, max_size=2),
       st.lists(coord_vectors, min_size=0, max_size=5))
def test_centralizer_in_span_oracle(scalar, elements, space):
    # independent of ad_matrix: membership by reduction, commuting by
    # bracket_coords, and the count from the rank of the stacked brackets
    elements = _over_field(scalar, elements)
    space = Subspace(_over_field(scalar, space)).rows
    cent = S.centralizer_in_span(elements, space)
    span = Subspace(space)
    for v in cent:
        assert span.contains(v)
        for e in elements:
            assert not any(S.bracket_coords(e, v))
    assert Subspace(cent).dim == len(cent)
    stacked = [[x for e in elements for x in S.bracket_coords(e, v)]
               for v in space]
    assert len(cent) == len(space) - la.rank(stacked)


def test_theta_split_parts():
    cga = S.centralizer_frac([S.unit_coords(i) for i in S.a_indices])
    h_part, m_part = S.theta_split(cga)
    for v in h_part:
        assert S.theta_coords(v) == tuple(v)
    for v in m_part:
        assert S.theta_coords(v) == tuple(-x for x in v)
    assert (len(h_part), len(m_part)) == (1, 1)
    mixed = [tuple(a + b for a, b in zip(S.unit_coords(0), S.unit_coords(4)))]
    h_part, m_part = S.theta_split(mixed)
    assert len(h_part) + len(m_part) != len(mixed)


def _record_kernel_shapes(monkeypatch):
    """(rows, columns) of every kernel_right system, in call order."""
    shapes = []
    original = la.kernel_right

    def recording(rows, ncols):
        shapes.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(la, "kernel_right", recording)
    return shapes


def test_center_kernel_stays_inside_cga(monkeypatch):
    # the basis elements outside a are taken one at a time inside c_g(a):
    # no kernel over all d of them (d^2 rows) is formed, and on su(1,2) the
    # walk is done before it reaches every one
    fresh = build(form_id("su_pq", p=1, q=2))
    data = rt.restricted_roots(fresh)
    shapes = _record_kernel_shapes(monkeypatch)
    assert data.center_dims == (0, 0, 0)
    # c_g(a) comes from the root data; each kernel has d rows, one element
    walk = [cols for rows, cols in shapes if rows == fresh.dim]
    assert all(rows < fresh.dim ** 2 for rows, _ in shapes)
    assert walk[0] == len(data.centralizer)
    assert 0 < len(walk) < fresh.dim - fresh.rank_a


@pytest.mark.parametrize("name, span, a_mats, dims", [
    # gl(2,R): the identity is central and lies in a
    ("gl(2,R)", [{(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1}],
     [{(0, 0): 1}, {(1, 1): 1}], (1, 0, 1)),
    # u(1,1): i times the identity is central and compact
    ("u(1,1)", [{(0, 0): I}, {(1, 1): I}, {(0, 1): 1, (1, 0): 1},
                {(0, 1): I, (1, 0): -I}],
     [{(0, 1): 1, (1, 0): 1}], (1, 1, 0)),
])
def test_center_walks_every_basis_element_when_it_is_not_zero(
        monkeypatch, name, span, a_mats, dims):
    T = RealFormStructure(name, 2, span, a_mats)
    data = rt.restricted_roots(T)
    shapes = _record_kernel_shapes(monkeypatch)
    assert data.center_dims == dims
    # one kernel per basis element outside a, each left with the center
    walk = [cols for rows, cols in shapes if rows == T.dim]
    assert len(walk) == T.dim - T.rank_a and walk[-1] >= dims[0]
    z = T.centralizer_in_span([T.unit_coords(i) for i in range(T.dim)],
                              [T.unit_coords(i) for i in range(T.dim)])
    assert len(z) == dims[0]


# --- the sparse structure constants against matrix commutators -----------------

def _rebuild_mismatches(T):
    """The pairs i < j whose constants do not rebuild the commutator: sum_k
    c^k_ij basis_k against the commutator of the basis matrices themselves,
    with [basis_j, basis_i] read as the negation."""
    bad = []
    basis = dense_basis(T)
    for i in range(T.dim):
        for j in range(i + 1, T.dim):
            coeffs = T.bracket_coords(T.unit_coords(i), T.unit_coords(j))
            total = _zeros(T.n)
            for c, m in zip(coeffs, basis):
                if c:
                    total = la.madd(total, la.mscale(c, m))
            if (T.bracket_coords(T.unit_coords(j), T.unit_coords(i))
                    != tuple(-c for c in coeffs)
                    or not la.mat_eq(total, _commutator(basis[i],
                                                        basis[j]))):
                bad.append((i, j))
    return bad


def test_structure_constants_rebuild_every_commutator():
    # pair by pair, on the 19 catalog forms and sp(8,R); the table holds
    # both orders of each pair, so both are read
    for fid in standard_forms() + [form_id("sp2n_R", n=4)]:
        T = build(fid)
        assert _rebuild_mismatches(T) == [], T.name


def test_a_planted_structure_constant_fails_the_rebuild():
    T = build(form_id("su_pq", p=1, q=2))
    i = T.dim_h  # an a-unit: [a, basis_j] is a multiple of one basis_k
    j, kc = next(iter(T.struct[i].items()))
    (k, c), rest = kc[0], kc[1:]
    T.struct[i][j] = ((k, c + 1),) + rest
    assert _rebuild_mismatches(T) == [tuple(sorted((i, j)))]


# --- the indexed table against the per-pair route it replaced ------------------

def _pair_bracket(x, y):
    """[x, y] of two sparse {(r, c): entry} matrices, with each product
    formed from the rows of its right factor."""
    acc = {}
    for a, b, sign in ((x, y, 1), (y, x, -1)):
        rows = {}
        for (r, c), v in b.items():
            rows.setdefault(r, []).append((c, v))
        for (r, k), u in a.items():
            for c, v in rows.get(k, ()):
                acc[(r, c)] = acc.get((r, c), Scalar.of(0)) + sign * u * v
    return {key: v for key, v in acc.items() if v}


def _per_pair_tables(T):
    """struct and gram of T, one bracket solve and one trace per pair."""
    d, n, sparse = T.dim, T.n, T._sparse_basis
    table = [[] for _ in range(d)]
    gram = [[Scalar.of(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            t = sum((v * sparse[j].get((c, r), Scalar.of(0))
                     for (r, c), v in sparse[i].items()), Scalar.of(0))
            gram[i][j] = gram[j][i] = Scalar.of(t.gaussian_parts()[0])
            if j == i:
                continue
            br = _pair_bracket(sparse[i], sparse[j])
            cij = T._solve({r * n + c: e for (r, c), e in br.items()})
            assert all(c.is_rational() for c in cij.values())
            for k, c in sorted(cij.items()):
                table[i].append((j, k, c))
                table[j].append((i, k, -c))
    return table, gram


@pytest.mark.parametrize("fid", standard_forms() + [
    form_id("su_pq", p=4, q=4), form_id("sp2n_R", n=4),
    form_id("so_star", n=5)], ids=form_cli_text)
def test_indexed_tables_match_the_per_pair_route(fid):
    T = build(fid)
    table, gram = _per_pair_tables(T)
    # the index in order: each j with its (k, c), j and k increasing
    assert [[(j, k, c) for j, kc in at.items() for k, c in kc]
            for at in T.struct] == table
    assert [list(row) for row in T.gram] == gram


@st.composite
def shaped_vectors(draw):
    """A coordinate vector of su(1,2): a unit, a sparse one, a dense one, or
    one over Q(i, sqrt 2)."""
    shape = draw(st.sampled_from(["unit", "sparse", "dense", "radical"]))
    if shape == "unit":
        return S.unit_coords(draw(st.integers(0, S.dim - 1)))
    v = draw(coord_vectors)
    if shape == "sparse":
        keep = draw(st.sets(st.integers(0, S.dim - 1), max_size=3))
        return [x if i in keep else Scalar.of(0) for i, x in enumerate(v)]
    if shape == "radical":
        w = draw(coord_vectors)
        return [x + (I + _ROOT2) * y for x, y in zip(v, w)]
    return v


@settings(max_examples=80, deadline=None)
@given(shaped_vectors(), shaped_vectors())
def test_bracket_walks_either_side_as_ad_matrix_applies(u, v):
    ad = S.ad_matrix(u)
    applied = tuple(sum((row[j] * v[j] for j in range(S.dim)), Scalar.of(0))
                    for row in ad)
    got = S._bracket(la.sparse(u), la.sparse(v))
    assert tuple(got.get(k, Scalar.of(0)) for k in range(S.dim)) == applied
    assert all(got.values())


_ROOT2 = Scalar.sqrt(2)


@st.composite
def bracket_pairs(draw):
    """Two coordinate vectors of su(1,2): rational, or over Q(i, sqrt 2)."""
    u, v = draw(coord_vectors), draw(coord_vectors)
    if draw(st.booleans()):
        u2, v2 = draw(coord_vectors), draw(coord_vectors)
        u = [Scalar.of(x) + (I + _ROOT2) * Scalar.of(y) for x, y in zip(u, u2)]
        v = [Scalar.of(x) + I * _ROOT2 * Scalar.of(y) for x, y in zip(v, v2)]
    return u, v


@settings(max_examples=40, deadline=None)
@given(bracket_pairs())
def test_bracket_coords_match_the_matrix_commutator(pair):
    u, v = pair
    want = S.coords_of(_commutator(S.matrix_of(u), S.matrix_of(v)))
    assert tuple(Scalar.of(x) for x in S.bracket_coords(u, v)) == want
    ad = S.ad_matrix(u)
    applied = tuple(sum((row[j] * v[j] for j in range(S.dim)), Scalar.of(0))
                    for row in ad)
    assert applied == want


# --- guards on the basis and on coordinates -------------------------------------

def test_basis_not_closed_under_bracket_is_rejected():
    # diag(1, -1) and the symmetric swap span the m of sl(2, R), but their
    # bracket lies in the missing compact part
    a = {(0, 0): 1, (1, 1): -1}
    s = {(0, 1): 1, (1, 0): 1}
    with pytest.raises(ConstructionFailure,
                       match="bracket of basis 0, 1 leaves the algebra"):
        RealFormStructure("m only", 2, [s, a], [a])


def test_real_coords_reject_matrices_outside_the_real_span():
    with pytest.raises(NotInAlgebra, match="not in g"):
        S.coords_of(la.eye(S.n))  # not traceless
    # sqrt(2) basis[0] lies in g^C, but its coordinate is not rational
    basis = dense_basis(S)
    coords = S.coords_of(la.mscale(_ROOT2, basis[0]))
    assert coords[0] == _ROOT2 and not coords[0].is_rational()
    assert not any(coords[1:])
    assert S.coords_of(basis[3]) == tuple(Scalar.of(c)
                                          for c in S.unit_coords(3))


# --- the theta-adapted basis, built from a span outside the catalog ---------------

_E = {(0, 1): 1}
_F = {(1, 0): 1}
_H = {(0, 0): 1, (1, 1): -1}


def test_sl2_from_its_span_gets_the_adapted_basis():
    # sl(2, R) from E, F, H in another order: the rotation E - F spans h,
    # then a = H, then the symmetric E + F
    T = RealFormStructure("sl(2,R) by hand", 2, [_F, _H, _E], [_H])
    assert (T.dim, T.dim_h, T.dim_m, T.rank_a) == (3, 1, 2, 1)
    assert T.a_basis() == [la.mat([[1, 0], [0, -1]])]
    basis = dense_basis(T)
    assert basis[0] == la.mat([[0, Fraction(-1, 2)], [Fraction(1, 2), 0]])
    assert basis[2] == la.mat([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert rt.classify_type(rt.restricted_roots(T))[0] == "A1"
    assert T.a_vector([Scalar.of(3)]) == T.coords_of(la.mat([[3, 0], [0, -3]]))


def test_span_theta_does_not_preserve_is_rejected():
    # span(H, E) is not theta-stable: E has halves in h and in m, so the
    # split holds 1 + 1 + 1 vectors for a span of dim 2
    with pytest.raises(ConstructionFailure,
                       match="not preserved: theta split lost dimensions"):
        RealFormStructure("not preserved", 2, [_H, _E], [_H])


def test_dependent_a_basis_is_rejected():
    with pytest.raises(ConstructionFailure,
                       match="a-basis element 1 is dependent"):
        RealFormStructure("sl(2,R)", 2, [_E, _F, _H],
                          [_H, {(0, 0): -2, (1, 1): 2}])


def test_a_basis_in_h_is_rejected():
    rotation = {(0, 1): 1, (1, 0): -1}
    with pytest.raises(ConstructionFailure,
                       match="a-basis element 0 is not in m"):
        RealFormStructure("sl(2,R)", 2, [_E, _F, _H], [rotation])


def test_a_basis_outside_g_is_rejected():
    # diag(1, 0) is fixed by -theta, so it passes the test for m, but it is
    # not traceless: drawn beside the halves of sl(2,R) it adds a dimension
    with pytest.raises(ConstructionFailure,
                       match="theta split lost dimensions"):
        RealFormStructure("sl(2,R)", 2, [_E, _F, _H], [{(0, 0): 1}])


def test_empty_a_basis_is_rejected():
    with pytest.raises(ConstructionFailure,
                       match="rank 0 incompatible with dim m 2"):
        RealFormStructure("sl(2,R)", 2, [_E, _F, _H], [])


def test_span_meeting_i_times_itself_is_rejected():
    # span(H, iH) is theta-stable over R (iH lies in h), but H and iH are
    # dependent over C, so the split keeps only H
    with pytest.raises(ConstructionFailure,
                       match="theta split lost dimensions"):
        RealFormStructure("C H", 2,
                          [_H, {(0, 0): I, (1, 1): -I}], [_H])


# the span of sl(3, R): every E_ij with i != j, then the traceless diagonal
_SL3 = [{(i, j): 1} for i in range(3) for j in range(3) if i != j]
_SL3 += [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]


def test_a_basis_that_does_not_commute_is_rejected():
    # diag(1, -1, 0) and E_12 + E_21 are both symmetric, so both lie in m,
    # but their bracket is 2 (E_12 - E_21), not 0
    a_mats = [{(0, 0): 1, (1, 1): -1}, {(0, 1): 1, (1, 0): 1}]
    with pytest.raises(ConstructionFailure,
                       match=r"^sl\(3,R\): a is not abelian$"):
        RealFormStructure("sl(3,R)", 3, _SL3, a_mats)


def test_a_that_is_not_maximal_abelian_is_rejected_by_the_roots():
    # diag(1, -1, 0) spans an abelian a, so the structure is built, but the
    # traceless diagonal, of dim 2, centralizes it in m
    T = RealFormStructure("sl(3,R)", 3, _SL3,
                          [{(0, 0): 1, (1, 1): -1}])
    assert (T.dim, T.rank_a) == (8, 1)
    with pytest.raises(ConstructionFailure,
                       match=r"^sl\(3,R\): a is not maximal abelian in m "
                             r"\(centralizer of a in m has dim 2\)$"):
        rt.restricted_roots(T)


# --- a structure outside the catalog runs the whole chain -----------------------

_SL3_DIAGONAL_A = [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]


def _chain_outputs(an):
    """The split subalgebra's dim, the section's degrees and the genus-2
    canonical dimension report of an analysis, less the form's name."""
    report = dm.dimension_report(an, dm.CurveContext.canonical(2)).to_dict()
    del report["form"]
    return an.split_sub.dim, an.section.degrees, report


def test_a_hand_built_form_with_its_row_runs_the_whole_chain():
    row = TableOneEntry("sl(3,R)", "sl(3,R)", "A2", True)
    T = RealFormStructure("sl(3,R) by hand", 3, _SL3, _SL3_DIAGONAL_A, row)
    catalog_sl3 = build(form_id("sl_R", n=3))
    assert catalog_sl3.table_row == lookup_table1(form_id("sl_R", n=3))
    ours = _chain_outputs(dm.analyze(T))
    assert ours == _chain_outputs(dm.analyze(catalog_sl3))
    assert ours[:2] == (8, [2, 3])


def test_a_hand_built_form_without_a_row_stops_at_the_table():
    T = RealFormStructure("sl(3,R) by hand", 3, _SL3, _SL3_DIAGONAL_A)
    an = dm.analyze(T)
    assert an.tds.root_data.types == ("A2", "A2")  # the chain runs up to it
    for read in (lambda: an.split_sub, lambda: an.section,
                 lambda: dm.dimension_report(an, dm.CurveContext.canonical(2))):
        with pytest.raises(NotInTable,
                           match=r"^sl\(3,R\) by hand: no Table 1 row to "
                                 r"match$"):
            read()


@pytest.mark.parametrize("check, run", [
    ("roots", lambda an: vf._check_roots(an)),
    ("split_subalgebra", lambda an: vf._check_split_sub(an)),
    ("modules", lambda an: vf._check_modules(an)),
    ("injectivity", lambda an: vf._check_injectivity(an, 0, 1)),
    ("fiber_match", lambda an: vf._check_fiber_match(an, 0, 1)),
])
def test_each_row_reading_check_fails_typed_without_a_row(check, run):
    T = RealFormStructure("sl(3,R) by hand", 3, _SL3, _SL3_DIAGONAL_A)
    result = vf._run(T.name, check, lambda: run(dm.analyze(T)))
    assert not result.ok
    assert result.detail == ("NotInTable: sl(3,R) by hand: no Table 1 row "
                             "to match")

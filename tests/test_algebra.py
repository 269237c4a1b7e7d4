"""Structure constants, Cartan involution, and the invariant form.

su(1,2) doubles as a hand-checked oracle: dimension 8 splitting 4 + 4,
restricted rank 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr import linalg as la
from hkr.algebra import RealFormStructure, theta_entries
from hkr.catalog import build, form_id, standard_forms
from hkr.errors import ConstructionFailure, NotInAlgebra
from hkr.linalg import Subspace
from hkr.scalars import I, Scalar


S = build(form_id("su_pq", p=1, q=2))


def _commutator(x, y):
    return la.msub(la.mmul(x, y), la.mmul(y, x))


def _zeros(n):
    return la.mat([[0] * n] * n)

coord_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coord_vectors = st.lists(coord_fracs.map(Scalar.of), min_size=S.dim,
                         max_size=S.dim)


def test_su12_dimensions():
    assert S.dim == 8
    assert S.dim_h == 4
    assert S.dim_m == 4
    assert S.rank_a == 1
    assert len(S.basis) == 8


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
    n = len(S.basis[0])
    not_in = la.eye(n)  # identity is not traceless-compatible with su(1,2)
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
    for i, j in ((4, 4), (0, 0), (4, 5), (0, 4)):
        xy = la.mmul(S.basis[i], S.basis[j])
        trace = sum((xy[r][r] for r in range(S.n)), Scalar.of(0))
        real, _ = trace.gaussian_parts()
        assert isinstance(real, Fraction)
        assert real == S.form_coords(S.unit_coords(i), S.unit_coords(j))


def test_theta_entries_is_an_involution_fixing_h_and_negating_m():
    for i, x in enumerate(S.basis):
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


def test_center_kernel_stays_inside_cga(monkeypatch):
    fresh = build(form_id("su_pq", p=1, q=2))
    cga = fresh.centralizer_frac([fresh.unit_coords(i) for i in fresh.a_indices])
    shapes = []
    original = la.kernel_right

    def recording(rows, ncols):
        shapes.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(la, "kernel_right", recording)
    assert fresh.center_dims() == (0, 0, 0)
    # the kernel over all of g (more rows than the c_g(a) kernel) has at most
    # dim c_g(a) columns, never one per basis vector
    wide = [cols for rows, cols in shapes if rows > fresh.rank_a * fresh.dim]
    assert wide and max(wide) <= len(cga)


# --- the sparse structure constants against matrix commutators -----------------

def test_structure_constants_rebuild_every_commutator():
    # sum_k c^k_ij basis_k against the commutator of the basis matrices
    # themselves, pair by pair, on the 19 catalog forms and sp(8,R); the
    # table holds both orders of each pair, so both are read
    for fid in standard_forms() + [form_id("sp2n_R", n=4)]:
        T = build(fid)
        for i in range(T.dim):
            for j in range(i + 1, T.dim):
                coeffs = T.bracket_coords(T.unit_coords(i), T.unit_coords(j))
                assert T.bracket_coords(T.unit_coords(j), T.unit_coords(i)) \
                    == tuple(-c for c in coeffs), (T.name, i, j)
                total = _zeros(T.n)
                for c, m in zip(coeffs, T.basis):
                    if c:
                        total = la.madd(total, la.mscale(c, m))
                assert la.mat_eq(total, _commutator(T.basis[i], T.basis[j])), \
                    (T.name, i, j)


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
    # diag(1, -1) and the symmetric swap span a theta-adapted m of sl(2, R),
    # but their bracket lies in the missing compact part
    a = la.mat([[1, 0], [0, -1]])
    s = la.mat([[0, 1], [1, 0]])
    with pytest.raises(ConstructionFailure,
                       match="bracket of basis 0, 1 leaves the algebra"):
        RealFormStructure(name="m only", family="test", params={}, n=2,
                          basis=(a, s), dim_h=0, rank_a=1)


def test_real_coords_reject_matrices_outside_the_real_span():
    with pytest.raises(NotInAlgebra, match="not in g"):
        S.coords_of(la.eye(S.n))  # not traceless
    # sqrt(2) basis[0] lies in g^C, but its coordinate is not rational
    coords = S.coords_of(la.mscale(_ROOT2, S.basis[0]))
    assert coords[0] == _ROOT2 and not coords[0].is_rational()
    assert not any(coords[1:])
    assert S.coords_of(S.basis[3]) == tuple(Scalar.of(c)
                                            for c in S.unit_coords(3))


def test_basis_of_non_theta_eigenvectors_is_rejected():
    # E_01 is sent to -E_10 by theta, so it is in neither h nor m
    a = la.mat([[1, 0], [0, -1]])
    e01 = la.mat([[0, 1], [0, 0]])
    with pytest.raises(ConstructionFailure,
                       match="basis vector 1 is not a theta eigenvector"):
        RealFormStructure(name="not adapted", family="test", params={}, n=2,
                          basis=(a, e01), dim_h=0, rank_a=1)

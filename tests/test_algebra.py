"""Structure constants, Cartan involution, and the invariant form.

su(1,2) doubles as a hand-checked oracle: dimension 8 splitting 4 + 4,
restricted rank 1.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hkr import linalg as la
from hkr.algebra import bracket, invariant_form, theta_matrix, Subspace
from hkr.catalog import build, form_id
from hkr.scalars import Scalar, ZERO


S = build(form_id("su_pq", p=1, q=2))

coord_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coord_vectors = st.lists(coord_fracs, min_size=S.dim, max_size=S.dim)


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
        assert S.form_coords(u, u) < 0
    for i in S.a_indices:
        u = S.unit_coords(i)
        assert S.form_coords(u, u) > 0


@settings(max_examples=40, deadline=None)
@given(coord_vectors)
def test_ad_matrix_matches_bracket(u):
    ad = S.ad_matrix(u)
    for i in range(S.dim):
        v = S.unit_coords(i)
        col = S.bracket_coords(u, v)
        got = S.apply_ad(ad, v)
        assert tuple(got) == col


def test_invariant_form_on_matrices():
    x = S.matrix_of(S.unit_coords(4))
    y = S.matrix_of(S.unit_coords(4))
    val = invariant_form(x, y)
    assert isinstance(val, Fraction)
    assert val == S.form_coords(S.unit_coords(4), S.unit_coords(4))


def test_theta_matrix_involution():
    x = S.matrix_of(S.unit_coords(5))
    assert la.mat_eq(theta_matrix(theta_matrix(x)), x)
    assert la.mat_eq(bracket(x, x), la.zeros(len(x)))


def test_centralizer_of_a_inside_g():
    a_units = [list(S.unit_coords(i)) for i in S.a_indices]
    cent = S.centralizer_frac(a_units)
    # root spaces carry 2+2+1+1 of the 8 dimensions, so c_g(a) = a + c_h(a) is 2
    assert len(cent) == 2


def test_generate_subalgebra_closes():
    gens = [list(S.unit_coords(i)) for i in S.a_indices]
    sub = S.generate_subalgebra(gens)
    assert sub.dim == 1  # a is abelian, already closed
    full = S.generate_subalgebra(
        [list(S.unit_coords(i)) for i in (0, 4)])
    assert full.dim >= 2


def test_subspace_operations():
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    sp = Subspace([e1, e2])
    assert sp.dim == 2
    assert sp.contains([Fraction(2), Fraction(-3), Fraction(0)])
    assert not sp.contains([Fraction(0), Fraction(0), Fraction(1)])
    other = Subspace([e2, [Fraction(0), Fraction(0), Fraction(1)]])
    assert sp.intersect(other).dim == 1
    assert sp.sum(other).dim == 3


small_vectors = st.lists(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
             min_size=4, max_size=4),
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

"""Exact linear algebra: characteristic polynomials, kernels, solves."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hkr import linalg as la
from hkr.scalars import Scalar, ZERO, ONE, I


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def frac_matrix(n):
    return st.lists(
        st.lists(small_fracs, min_size=n, max_size=n),
        min_size=n, max_size=n)


def test_charpoly_ascending_convention():
    # det(tI - A) for A = diag(2, 3) is 6 - 5t + t^2, coefficients ascending
    cp = la.charpoly_frac([[Fraction(2), Fraction(0)],
                           [Fraction(0), Fraction(3)]])
    assert cp == [Fraction(6), Fraction(-5), Fraction(1)]


def test_charpoly_scalar_field():
    m = la.mat([[I, ZERO], [ZERO, -I]])
    assert la.charpoly(m) == (ONE, ZERO, ONE)  # t^2 + 1


def test_rational_roots_include_zero():
    # t^2 - t = t(t - 1): roots 0 and 1
    roots = la.rational_roots([Fraction(0), Fraction(-1), Fraction(1)])
    assert roots is not None
    assert sorted(roots) == [Fraction(0), Fraction(1)]


def test_rational_roots_none_when_not_split():
    # t^2 - 2 has no rational roots
    assert la.rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) is None


def test_rational_roots_multiplicity():
    # (t - 1)^2 = 1 - 2t + t^2
    roots = la.rational_roots([Fraction(1), Fraction(-2), Fraction(1)])
    assert sorted(roots) == [Fraction(1), Fraction(1)]


@settings(max_examples=60, deadline=None)
@given(frac_matrix(3))
def test_charpoly_cayley_hamilton(rows):
    cp = la.charpoly_frac(rows)
    a = la.mat(rows)
    acc = la.zeros(3)
    power = la.eye(3)
    for coeff in cp:
        acc = la.madd(acc, la.mscale(coeff, power))
        power = la.mmul(power, a)
    assert la.is_zero_mat(acc)


@settings(max_examples=60, deadline=None)
@given(frac_matrix(3))
def test_charpoly_frac_agrees_with_scalar_path(rows):
    cp_frac = la.charpoly_frac(rows)
    cp_scalar = la.charpoly(la.mat(rows))
    assert [Scalar.of(c) for c in cp_frac] == list(cp_scalar)


@settings(max_examples=60, deadline=None)
@given(frac_matrix(3), st.lists(small_fracs, min_size=3, max_size=3))
def test_solve_right_solves(rows, x):
    b = [sum(r[j] * x[j] for j in range(3)) for r in rows]
    sol = la.solve_right(rows, b)
    assert sol is not None
    check = [sum(rows[i][j] * sol[j] for j in range(3)) for i in range(3)]
    assert check == b


def test_solve_right_detects_inconsistency():
    # image of [[1], [0]] is the first axis; (0, 1) lies off it
    m = [[Fraction(1)], [Fraction(0)]]
    assert la.solve_right(m, [Fraction(0), Fraction(1)]) is None


@settings(max_examples=60, deadline=None)
@given(frac_matrix(4))
def test_kernel_dimension_theorem(rows):
    ker = la.kernel_right(rows, Fraction(0), Fraction(1))
    assert len(ker) == 4 - la.rank(rows)
    for v in ker:
        image = [sum(rows[i][j] * v[j] for j in range(4)) for i in range(4)]
        assert all(x == 0 for x in image)


def test_mat_pow():
    j = la.mat([[0, 1], [-1, 0]])
    assert la.mat_eq(la.mat_pow(j, 4), la.eye(2))
    assert la.mat_eq(la.mat_pow(j, 2), la.mneg(la.eye(2)))


def test_rref_pivots_are_unit_columns():
    rows = [[Fraction(2), Fraction(4), Fraction(1)],
            [Fraction(1), Fraction(2), Fraction(0)]]
    red, pivots = la.rref(rows)
    assert pivots == [0, 2]
    for k, p in enumerate(pivots):
        col = [red[i][p] for i in range(len(red))]
        assert col[k] == 1
        assert all(col[i] == 0 for i in range(len(red)) if i != k)


def test_symmetric_pivot_signs():
    gram = [[Fraction(2), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(-3), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)]]
    pos, neg, null = la.symmetric_pivot_signs(gram)
    assert (pos, neg, null) == (1, 1, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3))
def test_coords_solver_round_trip(vectors, coeffs):
    # the vectors span a subspace of the first three axes of Q^4
    vecs = [v + [Fraction(0)] for v in vectors]
    solve = la.coords_solver(vecs, Fraction(0), Fraction(1))
    if la.rank(vecs) < len(vecs):
        assert solve is None
        return
    c = coeffs[:len(vecs)]
    assert solve(la.combine(c, vecs, Fraction(0))) == c
    assert solve([Fraction(0)] * 3 + [Fraction(1)]) is None


def test_coords_solver_scalar_field():
    vecs = [[ONE, I, ZERO], [ZERO, ONE, Scalar.sqrt(2)]]
    solve = la.coords_solver(vecs, ZERO, ONE)
    c = [Scalar.sqrt(3), I - ONE]
    assert solve(la.combine(c, vecs, ZERO)) == c
    assert solve([ZERO, ZERO, ONE]) is None


def test_eigen_split_keeps_nonzero_eigenspaces():
    f = Fraction
    vecs = [[f(1), f(1), f(0)], [f(0), f(1), f(1)]]
    op = [[f(2), f(0)], [f(0), f(3)]]
    pieces = la.eigen_split(op, vecs, [f(2), f(3), f(5)], f(0), f(1))
    assert pieces == [(f(2), [vecs[0]]), (f(3), [vecs[1]])]

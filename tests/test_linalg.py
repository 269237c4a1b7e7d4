"""Exact linear algebra: characteristic polynomials, kernels, solves."""

import random
from bisect import bisect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr import linalg as la
from hkr.errors import ConstructionFailure
from hkr.scalars import Scalar, ZERO, ONE, I, reduction


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


def fraction_rational_roots(poly):
    """The rational roots by Horner's rule on Fraction candidates and
    synthetic division of the Fraction coefficients by (t - root): the
    reference for ``la.rational_roots``, in its order of roots."""
    from math import gcd

    def divisors(n):
        n, out, d = abs(n), [], 1
        while d * d <= n:
            if n % d == 0:
                out += [d] if d == n // d else [d, n // d]
            d += 1
        return out

    coeffs = [Fraction(c) for c in poly]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    roots = []
    while len(coeffs) > 1 and not coeffs[0]:
        roots.append(Fraction(0))
        coeffs.pop(0)
    while len(coeffs) > 1:
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        ints = [v // g for v in ints]
        found = next((cand for p in divisors(ints[0])
                      for q in divisors(ints[-1]) if gcd(p, q) == 1
                      for cand in (Fraction(p, q), Fraction(-p, q))
                      if not sum(c * cand ** k for k, c in enumerate(ints))),
                     None)
        if found is None:
            return None
        roots.append(found)
        quot = [Fraction(0)] * (len(coeffs) - 1)
        carry = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            quot[k] = carry
            carry = coeffs[k] + carry * found
        assert not carry
        coeffs = quot
    return roots


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)),
                max_size=5),
       st.integers(0, 3), st.booleans(), st.fractions(min_value=-50,
                                                      max_value=50,
                                                      max_denominator=7),
       st.integers(0, 10 ** 4))
def test_rational_roots_match_the_fraction_reference(factors, zeros,
                                                      irrational, lead, big):
    # a product of (q t - p), t^zeros, maybe t^2 - 2 and a large root,
    # times a nonzero rational leading constant
    if not lead:
        lead = Fraction(3, 2)
    poly = [lead]
    for p, q in factors:
        poly = _poly_mul(poly, [Fraction(-p), Fraction(q)])
    if big:
        poly = _poly_mul(poly, [Fraction(-big), Fraction(1)])
    if irrational:
        poly = _poly_mul(poly, [Fraction(-2), Fraction(0), Fraction(1)])
    poly = [Fraction(0)] * zeros + poly
    got = la.rational_roots(poly)
    assert got == fraction_rational_roots(poly)
    if irrational:
        assert got is None
    else:
        want = [Fraction(0)] * zeros + [Fraction(p, q) for p, q in factors]
        want += [Fraction(big)] if big else []
        assert sorted(got) == sorted(want)


@settings(max_examples=60, deadline=None)
@given(frac_matrix(3), frac_matrix(3), st.booleans())
def test_charpoly_cayley_hamilton(rows, parts, scalar):
    if scalar:  # entries x + y (sqrt(2) + i)
        unit = Scalar.sqrt(2) + I
        a = la.mat([[Scalar.of(x) + unit * Scalar.of(y) for x, y in zip(r, q)]
                    for r, q in zip(rows, parts)])
        cp = la.charpoly(a)
    else:
        cp = la.charpoly_frac(rows)
        a = la.mat(rows)
    acc = la.mat([[0] * 3] * 3)
    power = la.eye(3)
    for coeff in cp:
        acc = la.madd(acc, la.mscale(coeff, power))
        power = la.mmul(power, a)
    assert la.is_zero_mat(acc)


def faddeev_leverrier(a, zero, one):
    """Reference det(tI - A), ascending, by Faddeev-LeVerrier: M_1 = A,
    c_{n-k} = -tr(M_k) / k, M_{k+1} = A (M_k + c_{n-k} I).  It shares no
    step with ``la.charpoly``'s Hessenberg route."""
    n = len(a)
    coeffs = [zero] * n + [one]
    m = [list(row) for row in a]
    for k in range(1, n + 1):
        c = -(sum((m[i][i] for i in range(n)), zero) / k)
        coeffs[n - k] = c
        shifted = [[x + c if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        m = [[sum((a[i][l] * shifted[l][j] for l in range(n)), zero)
              for j in range(n)] for i in range(n)]
    return tuple(coeffs)


sparse_fracs = st.one_of(st.just(Fraction(0)), small_fracs)


def square_matrices(k):
    """k mostly sparse rational n x n matrices of one order n in 0..8."""
    return st.integers(0, 8).flatmap(lambda n: st.lists(
        st.lists(st.lists(sparse_fracs, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        min_size=k, max_size=k))


@settings(max_examples=80, deadline=None)
@given(square_matrices(1))
def test_charpoly_matches_faddeev_leverrier_over_q(mats):
    rows = mats[0]
    ref = faddeev_leverrier(rows, Fraction(0), Fraction(1))
    assert la.charpoly_frac(rows) == list(ref)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_charpoly_matches_faddeev_leverrier_with_i_and_sqrt2(mats):
    # entries x + y sqrt(2) + z i
    root2 = Scalar.sqrt(2)
    a = la.mat([[Scalar.of(x) + root2 * Scalar.of(y) + I * Scalar.of(z)
                 for x, y, z in zip(*rows)] for rows in zip(*mats)])
    assert la.charpoly(a) == faddeev_leverrier(a, ZERO, ONE)


def test_charpoly_of_a_1x1_matrix():
    assert la.charpoly_frac([[Fraction(5)]]) == [Fraction(-5), Fraction(1)]
    assert la.charpoly(la.mat([[I]])) == (-I, ONE)
    assert la.charpoly(()) == (ONE,)


def test_charpoly_with_a_zero_subdiagonal():
    # [[A, B], [0, C]] is block triangular: its Hessenberg form keeps a zero
    # at (2, 1), and det(tI - M) = (t^2 - 5t - 2)(t^2 + 1)
    m = [[1, 2, 7, -1],
         [3, 4, 0, 5],
         [0, 0, 0, 1],
         [0, 0, -1, 0]]
    rows = [[Fraction(x) for x in row] for row in m]
    want = [Fraction(x) for x in (-2, -5, -1, -5, 1)]
    assert la.charpoly_frac(rows) == want
    assert la.charpoly(la.mat(m)) == tuple(Scalar.of(x) for x in want)


def test_charpoly_when_the_pivot_needs_a_swap():
    # column 0 is zero at the subdiagonal and nonzero below it:
    # det(tI - A) = t^3 - 13 t^2 - 9 t + 15
    rows = [[Fraction(x) for x in row]
            for row in ([1, 2, 3], [0, 4, 5], [6, 7, 8])]
    assert la.charpoly_frac(rows) == [Fraction(x) for x in (15, -9, -13, 1)]


def test_charpoly_of_the_nilpotent_f_of_sl3r():
    from hkr import roots as rt
    from hkr import triples as tp
    from hkr.catalog import build, form_id

    S = build(form_id("sl_R", n=3))
    f = S.matrix_of(tp.normal_triple(tp.build_tds(rt.restricted_roots(S))).f)
    # entries in Q(i, sqrt 2); column 0 needs a swap to reach Hessenberg form
    assert not f[1][0] and f[2][0]
    assert la.charpoly(f) == (ZERO, ZERO, ZERO, ONE)  # t^3
    assert faddeev_leverrier(f, ZERO, ONE) == (ZERO, ZERO, ZERO, ONE)


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
    ker = la.kernel_right(la.mat(rows), 4)
    assert len(ker) == 4 - la.rank(la.mat(rows))
    for v in ker:
        image = [sum(rows[i][j] * v[j] for j in range(4)) for i in range(4)]
        assert all(x == 0 for x in image)


def test_kernel_of_an_empty_system_is_the_whole_space():
    assert la.kernel_right([], 3) == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO],
                                      [ZERO, ZERO, ONE]]


def n_fold_power(a, k):
    """A^k as k products."""
    out = la.eye(len(a))
    for _ in range(k):
        out = la.mmul(out, a)
    return out


def test_n_fold_power():
    j = la.mat([[0, 1], [-1, 0]])
    assert la.mat_eq(n_fold_power(j, 4), la.eye(2))
    assert la.mat_eq(n_fold_power(j, 2), la.mscale(-1, la.eye(2)))


def test_rref_pivots_are_unit_columns():
    red, pivots = la.rref(la.mat([[2, 4, 1], [1, 2, 0]]))
    assert pivots == [0, 2]
    for k, p in enumerate(pivots):
        col = [red[i][p] for i in range(len(red))]
        assert col[k] == 1
        assert all(col[i] == 0 for i in range(len(red)) if i != k)


def _column_sweep_rref(rows):
    """Reference RREF by a sweep over the columns, each pivot cleared from
    every other row; an independent route to ``la.rref``'s result."""
    work = [list(r) for r in rows]
    pivots, out = [], []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pick = next((idx for idx, r in enumerate(work) if r[col]), None)
        if pick is None:
            col += 1
            continue
        row = work.pop(pick)
        inv = 1 / row[col]
        row = [e * inv for e in row]
        for r in work + out:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] = r[j] - f * row[j]
        out.append(row)
        pivots.append(col)
        col += 1
        work = [r for r in work if any(r)]
    return out, pivots


echelon_entries = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2),
                         Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def echelon_inputs(draw):
    """Rows over Q, Q(sqrt 2) or Q(i), with dependent and zero rows mixed in."""
    field = draw(st.sampled_from(["rational", "sqrt2", "i"]))
    ncols = draw(st.integers(1, 5))
    row = st.lists(echelon_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    unit = {"rational": ZERO, "sqrt2": Scalar.sqrt(2), "i": I}[field]
    parts = draw(st.lists(row, min_size=len(rows), max_size=len(rows)))
    rows = [[Scalar.of(x) + unit * Scalar.of(y) for x, y in zip(r, q)]
            for r, q in zip(rows, parts)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = Scalar.of(draw(echelon_entries))
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [ZERO] * ncols)
    return rows


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_rref_matches_column_sweep(rows):
    assert la.rref(rows) == _column_sweep_rref(rows)


class _DenseSubspace:
    """The dense-row echelon span that ``la.Subspace`` replaced, kept as an
    oracle: every row is a full list and every reduction scans it."""

    def __init__(self, vectors=()):
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(p, len(v)):
                    if row[j]:
                        v[j] = v[j] - c * row[j]
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        v = self.reduce(vec)
        p = next((j for j, e in enumerate(v) if e), None)
        if p is None:
            return False
        inv = 1 / v[p]
        row = [e * inv if e else e for e in v]
        for r in self.rows:
            f = r[p]
            if f:
                for j in range(p, len(r)):
                    if row[j]:
                        r[j] = r[j] - f * row[j]
        k = bisect(self.pivots, p)
        self.rows.insert(k, row)
        self.pivots.insert(k, p)
        return True

    def kernel(self, ncols):
        basis = []
        for f in range(ncols):
            if f in self.pivots:
                continue
            v = [ZERO] * ncols
            v[f] = ONE
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[f]
            basis.append(v)
        return basis


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_sparse_subspace_matches_dense_rows(rows):
    sparse, dense = la.Subspace(), _DenseSubspace()
    for k, v in enumerate(rows):
        # before v joins: membership dense and sparse
        assert sparse.contains(v) == dense.contains(v)
        assert sparse.contains(la.sparse(v)) == dense.contains(v)
        assert sparse.add(v) == dense.add(v), k
        assert sparse.rows == dense.rows
        assert sparse.pivots == dense.pivots
    if rows:
        ncols = len(rows[0])
        want = dense.kernel(ncols)
        assert la.kernel_right(rows, ncols) == want
        assert la.kernel_right([la.sparse(r) for r in rows], ncols) == want


def leading_minors_positive(a):
    """Sylvester's criterion with det A_k = (-1)^k c_0 of det(tI - A_k)."""
    return all((-1) ** k * la.charpoly_frac([row[:k] for row in a[:k]])[0] > 0
               for k in range(1, len(a) + 1))


@st.composite
def symmetric_matrices(draw):
    # a Gram matrix B^T B is semidefinite, and definite when B is
    # invertible, so both outcomes come up often
    n = draw(st.integers(min_value=0, max_value=6))
    b = draw(st.lists(st.lists(small_fracs, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        return [[sum((b[k][i] * b[k][j] for k in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    return [[b[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_is_positive_definite_matches_sylvester(a):
    assert la.is_positive_definite(a) == leading_minors_positive(a)


@pytest.mark.parametrize("rows, definite", [
    ([], True),
    ([[2, 0, 0], [0, -3, 0], [0, 0, 0]], False),
    ([[0, 1], [1, 0]], False),
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], False),
    ([[2, 1], [1, 2]], True),
], ids=["empty", "diag_2_-3_0", "zero_first_pivot", "rank_one_semidefinite",
        "definite"])
def test_is_positive_definite_cases(rows, definite):
    a = [[Fraction(x) for x in row] for row in rows]
    assert la.is_positive_definite(a) is definite
    assert leading_minors_positive(a) is definite


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3),
                min_size=1, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3))
def test_coords_solver_round_trip(vectors, coeffs):
    # the vectors span a subspace of the first three axes of Q^4
    vecs = la.mat([v + [0] for v in vectors])
    solve = la.coords_solver(vecs)
    if la.rank(vecs) < len(vecs):
        assert solve is None
        return
    c = [Scalar.of(x) for x in coeffs[:len(vecs)]]
    assert solve(la.combine(c, vecs)) == c
    assert solve([ZERO] * 3 + [ONE]) is None


def test_coords_solver_scalar_field():
    vecs = [[ONE, I, ZERO], [ZERO, ONE, Scalar.sqrt(2)]]
    solve = la.coords_solver(vecs)
    c = [Scalar.sqrt(3), I - ONE]
    assert solve(la.combine(c, vecs)) == c
    assert solve([ZERO, ZERO, ONE]) is None


def test_coords_solver_takes_its_width_from_every_vector():
    # sparse vectors, the first one shorter than the span's width
    solve = la.coords_solver([{0: ONE}, {1: ONE}])
    assert solve is not None
    assert solve({1: I, 0: Scalar.of(2)}) == {0: Scalar.of(2), 1: I}
    assert solve([ONE, Scalar.of(3)]) == [ONE, Scalar.of(3)]
    # an entry at or past the width is outside the span
    assert solve({2: ONE}) is None
    assert solve([ONE, ONE, ONE]) is None
    assert solve([ZERO, ZERO, ZERO, ZERO]) == [ZERO, ZERO]
    dense = la.coords_solver(la.mat([[0, 1, 0], [0, 0, 0, 2]]))
    assert dense(la.mat([[0, 2, 0, 2]])[0]) == [Scalar.of(2), ONE]
    assert dense(la.mat([[1, 0, 0, 0]])[0]) is None
    assert la.coords_solver([{0: ONE}, {0: I}]) is None
    assert la.coords_solver([{3: ONE}, {}]) is None


def _images(op, vecs):
    """op(v) for each v in vecs: the images eigen_split takes."""
    return la.mmul(vecs, tuple(zip(*op)))


def test_eigen_split_over_a_dependent_list_raises():
    vecs = la.mat([[1, 0], [2, 0]])
    with pytest.raises(ConstructionFailure,
                       match="restriction basis is dependent"):
        la.eigen_split(vecs, _images(la.eye(2), vecs), [1])


def test_eigen_split_keeps_nonzero_eigenspaces():
    vecs = la.mat([[1, 1, 0], [0, 1, 1]])
    # the ambient operator with eigenvectors vecs[0], vecs[1] and (0, 0, 1)
    # at 2, 3 and 5
    op = la.mat([[2, 0, 0], [-1, 3, 0], [2, -2, 5]])
    images = _images(op, vecs)
    pieces = la.eigen_split(vecs, images, [Fraction(2), 3, 5])
    assert pieces == [(Fraction(2), [list(vecs[0])]), (3, [list(vecs[1])])]
    # images given as {index: nonzero} dicts split alike
    assert la.eigen_split(vecs, [la.sparse(v) for v in images],
                          [Fraction(2), 3, 5]) == pieces


def test_eigen_split_of_a_jordan_block_is_none():
    op = la.mat([[2, 1], [0, 2]])
    units = la.eye(2)
    assert la.eigen_split(units, _images(op, units), [1, 2, 3]) is None
    # a missing candidate leaves the span unfilled too
    diag = la.mat([[1, 0], [0, 2]])
    assert la.eigen_split(units, _images(diag, units), [1, 3]) is None


def test_eigen_split_solves_nothing_once_the_span_is_filled(monkeypatch):
    solved = []
    kernel = la.kernel_right

    def counted(rows, ncols):
        solved.append(ncols)
        return kernel(rows, ncols)

    monkeypatch.setattr(la, "kernel_right", counted)
    op = la.mat([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    vecs = la.mat([[1, 0, 0], [0, 1, 0]])
    pieces = la.eigen_split(vecs, _images(op, vecs), [5, 2, 1, 4, 7])
    assert pieces == [(2, [list(vecs[1])]), (1, [list(vecs[0])])]
    assert solved == [2, 2, 2]  # 5, 2 and 1; never 4 or 7
    assert la.eigen_split([], [], [1]) == []
    assert solved == [2, 2, 2]


def test_eigen_split_rejects_a_span_the_operator_leaves():
    op = la.mat([[0, 0], [1, 0]])
    vecs = la.mat([[1, 0]])
    with pytest.raises(ConstructionFailure, match="does not preserve"):
        la.eigen_split(vecs, _images(op, vecs), [0])


# --- rank and determinant mod p ---------------------------------------------------

def _random_entry(rng, radical):
    x = Scalar.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if radical and rng.random() < 0.5:
        x = x + Scalar.sqrt(2) * rng.randint(-3, 3) + I * rng.randint(-3, 3)
    return x


def _random_matrix(rng, rows, cols, rank, radical):
    """A rows x cols product of random rows x rank and rank x cols factors."""
    left = [[_random_entry(rng, radical) for _ in range(rank)]
            for _ in range(rows)]
    right = [[_random_entry(rng, radical) for _ in range(cols)]
             for _ in range(rank)]
    return la.mmul(left, right) if rank else la.mat([[0] * cols] * rows)


@pytest.mark.parametrize("radical", [False, True], ids=["Q", "Q(i,sqrt2)"])
def test_rank_and_det_mod_p_agree_with_the_exact_ones(radical):
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)),
                           radical)
        red = reduction(x for row in a for x in row)
        rank, det = la.rank_det_mod([[red(x) for x in row] for row in a], red.p)
        assert rank == la.rank(a)
        if rows == cols:
            # det(tI - A) has constant term det(-A) = (-1)^n det A
            assert det == red(la.charpoly(a)[0] * (-1) ** rows)
        else:
            assert det == 0


def test_rank_det_mod_of_the_empty_and_a_singular_matrix():
    assert la.rank_det_mod([], 7) == (0, 1)
    assert la.rank_det_mod([[2, 4], [1, 2]], 7) == (1, 0)
    assert la.rank_det_mod([[0, 1], [1, 0]], 7) == (2, 6)  # det -1
    assert la.rank_det_mod([[7, 14], [0, 0]], 7) == (0, 0)

"""Exact linear algebra over Scalar entries, on sparse rows.

Matrices are tuples of tuples; vectors are tuples or lists.  Entries are
Scalars; ``mat``, ``solve_right``, ``is_positive_definite`` and
``charpoly_frac`` also read int and Fraction entries, and ``rank_det_mod``
reads ints mod a prime.  ``ZERO`` is the only zero Scalar, so an entry is
tested for zero by ``is ZERO``, and every multiply-accumulate step is one
fused ``add_product``.  Row reduction keeps full reduced echelon form so
membership and coordinates come out of the same machinery, and it keeps
each echelon row as a {column: nonzero} dict, so its work grows with the
nonzero entries, not with the width of the rows; vectors may be passed in
that sparse form too.

The shared idioms the other modules build on, each written once here:

- ``Subspace``: a span kept in reduced echelon form on sparse rows, grown
  one vector at a time by ``add``, the one row reduction; ``rref`` and
  ``rank`` read it;
- ``coords_solver``: coefficients of a vector over an independent list, or
  None outside its span (a ``Subspace`` of the vectors beside unit vectors
  placed past the last nonzero index of any of them);
- ``combine``: the linear combination sum_i c_i v_i;
- ``eigen_split``: eigenspaces of an operator, given by its images of a
  span it preserves, for candidate eigenvalues, or None unless they fill it;
- ``kernel_right`` / ``solve_right``: null space and one solution of M x = b;
- ``rank_det_mod``: rank and determinant mod a prime p, the one elimination
  of the modular certificates (a rank mod p is at most the exact rank);
- ``charpoly``: an exact reduction to upper Hessenberg form and the
  Hessenberg recurrence, O(n^3);
- ``is_positive_definite``: Sylvester's criterion by elimination without
  pivoting.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import ConstructionFailure
from .scalars import Scalar, ZERO, ONE, add_product

Mat = Tuple[Tuple[Scalar, ...], ...]


# --- matrix construction and arithmetic -------------------------------------

def mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(tuple(Scalar.of(e) if not isinstance(e, Scalar) else e for e in row)
                 for row in rows)


def eye(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def madd(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mscale(c, a: Mat) -> Mat:
    c = Scalar.of(c) if not isinstance(c, Scalar) else c
    return tuple(tuple(c * x for x in row) for row in a)


def mmul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if x is not ZERO and y is not ZERO:
                    acc = add_product(acc, x, y)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def is_zero_mat(a: Mat) -> bool:
    return all(x is ZERO for row in a for x in row)


def mat_eq(a: Mat, b: Mat) -> bool:
    return is_zero_mat(msub(a, b))


def flatten(a: Mat) -> Tuple[Scalar, ...]:
    return tuple(x for row in a for x in row)


# --- row reduction -------------------------------------------------------------

def sparse(vec) -> dict:
    """The {index: entry} dict of a vector's nonzero entries.

    A vector is a dense sequence or already such a dict (its zero entries,
    if any, are dropped).
    """
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {j: e for j, e in items if e is not ZERO}


def _sub_multiple(target: dict, c, row: dict) -> None:
    """target -= c * row on {index: nonzero} dicts, dropping what cancels."""
    c = -c  # once, so each entry costs one fused multiply-add
    for j, e in row.items():
        x = add_product(target.get(j), c, e)
        if x is ZERO:
            del target[j]
        else:
            target[j] = x


class Subspace:
    """Row-span subspace over an exact field, kept in reduced echelon form.

    Each echelon row is stored sparse, as {column: nonzero entry}, so a
    reduction touches only nonzero entries.  ``add`` and ``contains`` take
    vectors dense or as such dicts (see ``sparse``).  ``add`` is the
    library's one row reduction: ``rref``, ``rank``, ``kernel_right``,
    ``solve_right`` and ``coords_solver`` all read from it.
    """

    __slots__ = ("pivots", "_at", "_ncols")

    def __init__(self, vectors: Sequence = ()):
        self.pivots: List[int] = []
        self._at: dict = {}  # pivot column -> its sparse echelon row
        self._ncols = 0
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> List[list]:
        """The echelon rows in pivot order, as fresh dense lists filled with
        ZERO, as wide as the widest vector added (a dict counts
        up to its last nonzero column)."""
        out = []
        for p in self.pivots:
            dense = [ZERO] * self._ncols
            for j, e in self._at[p].items():
                dense[j] = e
            out.append(dense)
        return out

    def _residual(self, v: dict) -> dict:
        """Reduce the sparse v in place.  The rows vanish on each other's
        pivots, so the pivots to clear are those v holds at the start."""
        at = self._at
        for p in [j for j in v if j in at]:
            _sub_multiple(v, v[p], at[p])
        return v

    def contains(self, vec) -> bool:
        return not self._residual(sparse(vec))

    def add(self, vec) -> bool:
        """Grow the span by vec; False (and no change) if vec is already in it.

        The new row goes in at its pivot position and its pivot column is
        cleared from the other rows, so the rows stay in reduced echelon
        form, which is unique: they equal the RREF of all vectors added.
        """
        v = self._residual(sparse(vec))
        if not v:
            return False
        p = min(v)
        inv = v[p].inv()
        row = {j: e * inv for j, e in v.items()}
        for r in self._at.values():
            f = r.get(p)
            if f is not None:
                _sub_multiple(r, f, row)
        self._at[p] = row
        self.pivots.insert(bisect(self.pivots, p), p)
        width = max(v) + 1 if isinstance(vec, dict) else len(vec)
        self._ncols = max(self._ncols, width)
        return True


def rref(rows: Sequence[Sequence]) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form of the row list; returns (rows, pivot columns).

    Zero rows are dropped.
    """
    space = Subspace(rows)
    return space.rows, space.pivots


def coords_solver(vectors: Sequence[Sequence]):
    """Coordinate map over linearly independent `vectors`, or None if dependent.

    The map sends v to the list c with sum_i c[i] * vectors[i] = v, or to None
    when v lies outside their span; a v given as a {index: nonzero} dict gets
    its c as such a dict.  It reduces v against the echelon form of the rows
    [vectors[i] | unit i]: what is left of the unit part is -c.  The unit
    part starts past the last nonzero index of all the vectors, dense or
    sparse, so a v with an entry there is outside the span.
    """
    k = len(vectors)
    rows = [sparse(v) for v in vectors]
    n = max((max(row) + 1 for row in rows if row), default=0)
    space = Subspace()
    for i, row in enumerate(rows):
        row[n + i] = ONE
        space.add(row)
    if vectors and space.pivots[-1] >= n:
        return None  # a pivot in the unit part: some combination vanishes

    def solve(vec):
        v = sparse(vec)
        if max(v, default=-1) >= n:
            return None
        v = space._residual(v)
        if any(j < n for j in v):
            return None
        if isinstance(vec, dict):
            return {j - n: -c for j, c in v.items()}
        out = [ZERO] * k
        for j, c in v.items():
            out[j - n] = -c
        return out

    return solve


def combine(coeffs: Sequence, vecs: Sequence[Sequence]) -> list:
    """The linear combination sum_i coeffs[i] * vecs[i], as a list."""
    out = [ZERO] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c is not ZERO:
            for j, e in enumerate(v):
                if e is not ZERO:
                    out[j] = add_product(out[j], c, e)
    return out


def eigen_split(vecs: Sequence[Sequence], images: Sequence[Sequence],
                candidates: Sequence
                ) -> Optional[List[Tuple[object, List[list]]]]:
    """Eigenspaces of an operator on the span of independent vecs.

    The operator is given by images[b] = op(vecs[b]) in the ambient
    coordinates, dense or as {index: nonzero} dicts; each must lie in the
    span, and its coordinates over `vecs` are column b of the restricted
    matrix.  Returns (eigenvalue, vectors) for each candidate with a nonzero
    eigenspace, in candidate order (a candidate may be a Fraction or an int,
    and comes back as given), the vectors combined from `vecs`, and solves
    no further once the pieces fill span(vecs).  Returns None if they never
    do: op is then not diagonalizable on the span with its eigenvalues
    among the candidates.
    """
    k = len(vecs)
    solve = coords_solver(vecs)
    if solve is None:
        raise ConstructionFailure("restriction basis is dependent")
    restricted: List[dict] = [{} for _ in range(k)]  # row r, column b
    for b, image in enumerate(images):
        coefs = solve(sparse(image))
        if coefs is None:
            raise ConstructionFailure("operator does not preserve the span")
        for r, c in coefs.items():
            restricted[r][b] = c
    out = []
    left = k
    for ev in candidates:
        if not left:
            break
        shift = Scalar.of(ev)
        # a diagonal entry that cancels is dropped by the row reduction
        shifted = [{**row, r: row.get(r, ZERO) - shift}
                   for r, row in enumerate(restricted)]
        combos = kernel_right(shifted, k)
        if combos:
            out.append((ev, [combine(c, vecs) for c in combos]))
            left -= len(combos)
    return None if left else out


def rank(rows: Sequence[Sequence]) -> int:
    return Subspace(rows).dim


def rank_det_mod(rows: Sequence[Sequence[int]], p: int) -> Tuple[int, int]:
    """(rank, det) of an int matrix mod the prime p, by one elimination;
    det is 0 unless the matrix is square and invertible mod p.

    Reduction mod p is a ring map, so a minor that vanishes exactly vanishes
    mod p: the rank mod p is at most the rank of any matrix it reduces.
    """
    a = [[x % p for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    rank, det = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[piv], a[rank] = a[rank], a[piv]
            det = -det
        row = a[rank]
        det = det * row[c] % p
        inv = pow(row[c], -1, p)
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
        rank += 1
    return rank, det % p if rank == ncols == len(a) else 0


def kernel_right(m_rows: Sequence, ncols: int) -> List[list]:
    """Basis of {x : M x = 0} for M given as rows (map on column vectors).

    The rows are dense or {column: nonzero} dicts.  `ncols` is the size of
    x, so a system with no rows has the whole space.  The basis vector of a
    free column f is 1 at f and minus column f of the echelon rows at their
    pivots.
    """
    space = Subspace(m_rows)
    at_free: dict = {}  # free column -> [(pivot, entry of that row)]
    for p in space.pivots:
        for j, e in space._at[p].items():
            if j != p:
                at_free.setdefault(j, []).append((p, e))
    basis = []
    for f in range(ncols):
        if f in space._at:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for p, e in at_free.get(f, ()):
            v[p] = -e
        basis.append(v)
    return basis


def solve_right(m_rows: Sequence[Sequence], b: Sequence) -> Optional[list]:
    """One solution x of M x = b, or None if inconsistent; int and Fraction
    entries are read as Scalars."""
    if not m_rows:
        return None
    ncols = len(m_rows[0])
    red, pivots = rref(mat([list(r) + [bv] for r, bv in zip(m_rows, b)]))
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the augmented column: inconsistent
        x[p] = row[ncols]
    return x


# --- characteristic polynomial -------------------------------------------------

def _hessenberg(a: Sequence[Sequence]) -> List[list]:
    """An upper Hessenberg matrix similar to A, as fresh row lists.

    Column k is cleared below the subdiagonal by a similarity E A E^-1: a
    row swap with the matching column swap brings a nonzero pivot to
    (k+1, k); then E subtracts u_i times row k+1 from each row i below it,
    and E^-1 adds u_i times column i to column k+1.  One field inverse per
    column.
    """
    h = [list(row) for row in a]
    n = len(h)
    for k in range(n - 2):
        m = k + 1
        p = next((i for i in range(m, n) if h[i][k] is not ZERO), None)
        if p is None:
            continue  # the column is already cleared
        if p != m:
            h[p], h[m] = h[m], h[p]
            for row in h:
                row[p], row[m] = row[m], row[p]
        inv = h[m][k].inv()
        # row m vanishes left of column k; E leaves it as it is
        pivot = [(j, x) for j, x in enumerate(h[m][k:], k) if x is not ZERO]
        factors = []
        for i in range(m + 1, n):
            row = h[i]
            if row[k] is not ZERO:
                u = row[k] * inv
                factors.append((i, u))
                u = -u  # once, so each entry costs one fused multiply-add
                for j, x in pivot:
                    row[j] = add_product(row[j], u, x)
        for row in h:
            acc = row[m]
            for i, u in factors:
                if row[i] is not ZERO:
                    acc = add_product(acc, u, row[i])
            row[m] = acc
    return h


def charpoly(a: Sequence[Sequence]) -> tuple:
    """Coefficients (c_0, ..., c_n) of det(tI - A) = sum c_k t^k, exact.

    A is brought to upper Hessenberg form H by exact similarity, then the
    characteristic polynomials p_m of the leading m x m blocks of H follow
    the recurrence p_m = (t - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ...
    h_{m,m-1}) p_{i-1} (Cohen, *A Course in Computational Algebraic Number Theory*,
    Algorithm 2.2.9), O(n^3) field operations in all.
    """
    h = _hessenberg(a)
    n = len(h)
    polys = [[ONE]]  # polys[k]: ascending coefficients of p_k
    for k in range(n):  # p_{k+1} from p_0, ..., p_k
        prev = polys[k]
        diag = -h[k][k]
        cur = [ZERO] + prev  # t p_k
        if diag is not ZERO:
            for j, c in enumerate(prev):
                cur[j] = add_product(cur[j], diag, c)
        sub = ONE  # h_{i+1,i} ... h_{k,k-1}, 0-based
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i]
            if sub is ZERO:
                break  # the block is triangular from here on
            f = h[i][k]
            if f is not ZERO:
                f = -(f * sub)
                for j, c in enumerate(polys[i]):
                    cur[j] = add_product(cur[j], f, c)
        polys.append(cur)
    return tuple(polys[n])


def charpoly_frac(a: Sequence[Sequence]) -> List[Fraction]:
    """``charpoly`` of a rational matrix (int, Fraction or Scalar entries),
    as a list of Fractions, for the Weyl/Molien oracle; kept under this
    name because bench/tracer.py wraps it."""
    return [c.as_fraction() for c in charpoly(mat(a))]


# --- rational spectra -----------------------------------------------------------

def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _integer_root(ints: List[int]) -> Optional[Tuple[int, int]]:
    """(p, q), q > 0, with p/q a root of sum ints[k] t^k, or None.

    The candidates are +-p/q with p dividing ints[0] and q dividing
    ints[-1] (ints[0] nonzero), and p/q is a root exactly when
    sum_k ints[k] p^k q^(n-k) = 0, evaluated by a homogeneous Horner
    scheme in ints.
    """
    n = len(ints) - 1
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for cand in (p, -p):
                acc, qpow = ints[n], 1
                for k in range(n - 1, -1, -1):
                    qpow *= q
                    acc = acc * cand + ints[k] * qpow
                if not acc:
                    return cand, q
    return None


def rational_roots(poly: Sequence) -> Optional[list]:
    """All roots with multiplicity if the polynomial splits over Q, else None.

    `poly` lists coefficients c_0..c_n of sum c_k t^k, as ints or
    Fractions.  Each root is an exact rational: an int when it is integral,
    else a Fraction, so the root labels and spectra built from them stay on
    ints.  The zero roots come first; the rest are found on the primitive
    integer multiple of the polynomial, which is deflated by (q t - p) for
    each root p/q in lowest terms: by Gauss's lemma the quotient is again a
    primitive integer polynomial.
    """
    coeffs = list(poly)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    roots: list = []
    while len(coeffs) > 1 and not coeffs[0]:
        roots.append(0)
        coeffs.pop(0)
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    while len(ints) > 1:
        found = _integer_root(ints)
        if found is None:
            return None
        p, q = found
        roots.append(p if q == 1 else Fraction(p, q))
        # synthetic division by (q t - p), from the leading coefficient down;
        # p/q is an exact root, so by Gauss's lemma it leaves no remainder
        quot = [0] * (len(ints) - 1)
        carry = ints[-1]
        for k in range(len(ints) - 2, -1, -1):
            quot[k] = carry // q
            carry = ints[k] + quot[k] * p
        ints = quot
    return roots


# --- definiteness ---------------------------------------------------------------

def is_positive_definite(gram: Sequence[Sequence]) -> bool:
    """Whether the symmetric rational matrix is positive definite.

    Elimination without pivoting: while the pivots stay nonzero, the k-th
    pivot is det A_k / det A_(k-1) for the leading k x k blocks A_k, so
    every pivot is positive exactly when every leading minor is
    (Sylvester's criterion).  The empty matrix is positive definite.
    """
    a = [list(row) for row in mat(gram)]
    n = len(a)
    for k in range(n):
        piv = a[k][k]
        if piv.as_fraction() <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return True

"""Real form structures: Cartan involution, invariant form, exact brackets.

A RealFormStructure holds a real matrix Lie algebra g in gl(n, C) through a
theta-adapted basis: the compact part h first, then the chosen maximal
abelian subspace a, then the rest of the -1 eigenspace m.  The Cartan
involution is always theta(X) = -conjugate_transpose(X), applied to the
sparse {(r, c): entry} form of a matrix (``theta_entries``), and the
invariant form is B(X, Y) = Re tr(XY); B must come out negative definite on
h and positive definite on m, and both facts are checked at construction,
not assumed.

Elements live as n x n matrices over Scalar and as coordinate vectors in
the basis, which one coordinate solver over the flattened basis matrices
links.  The basis of a real form is independent over C, so elements of the
complexification g^C (the C-span of the basis) have Scalar coordinates,
and the rational elements of g are those whose coordinates are all Scalars
with ``is_rational()``.  Bracket, form, and involution computations in
coordinates use rational structure data, so they stay exact and cheap even
when the coordinates themselves carry radicals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from .errors import ConstructionFailure, NotInAlgebra
from .linalg import Mat
from .scalars import Scalar, ZERO, ONE


def _sparse_entries(x: Mat) -> Dict[Tuple[int, int], Scalar]:
    return {(i, j): e for i, row in enumerate(x) for j, e in enumerate(row) if e}


def theta_entries(x: Dict[Tuple[int, int], Scalar]
                  ) -> Dict[Tuple[int, int], Scalar]:
    """The Cartan involution theta(X) = -X^* on sparse entries."""
    return {(c, r): -e.conj() for (r, c), e in x.items()}


def _sparse_bracket(x: Dict[Tuple[int, int], Scalar],
                    y: Dict[Tuple[int, int], Scalar]) -> Dict[Tuple[int, int], Scalar]:
    acc: Dict[Tuple[int, int], Scalar] = {}
    yrows: Dict[int, List[Tuple[int, Scalar]]] = {}
    for (r, c), v in y.items():
        yrows.setdefault(r, []).append((c, v))
    for (r, k), a in x.items():
        for c, b in yrows.get(k, ()):
            key = (r, c)
            cur = acc.get(key)
            acc[key] = a * b if cur is None else cur + a * b
    xrows: Dict[int, List[Tuple[int, Scalar]]] = {}
    for (r, c), v in x.items():
        xrows.setdefault(r, []).append((c, v))
    for (r, k), a in y.items():
        for c, b in xrows.get(k, ()):
            key = (r, c)
            cur = acc.get(key)
            acc[key] = -(a * b) if cur is None else cur - a * b
    return {k: v for k, v in acc.items() if v}


def _sparse_trace_product(x: Dict[Tuple[int, int], Scalar],
                          y: Dict[Tuple[int, int], Scalar]) -> Scalar:
    acc = ZERO
    for (r, c), v in x.items():
        w = y.get((c, r))
        if w is not None:
            acc = acc + v * w
    return acc


def _span_kernel(space: Sequence[Sequence], images: Sequence[dict],
                 length: int) -> List[tuple]:
    """Basis of the vectors sum c_i space[i] with sum c_i images[i] = 0.

    Each image is a {index: nonzero} dict over `length` coordinates; the
    system has one sparse row per coordinate.
    """
    rows: List[dict] = [{} for _ in range(length)]
    for c, image in enumerate(images):
        for r, x in image.items():
            rows[r][c] = x
    combos = la.kernel_right(rows, len(space))
    return [tuple(la.combine(c, space)) for c in combos]


@dataclass
class RealFormStructure:
    """A classical real form in a theta-adapted exact basis."""

    name: str
    family: str
    params: Dict[str, int]
    n: int
    basis: Tuple[Mat, ...]
    dim_h: int
    rank_a: int

    dim: int = field(init=False)
    dim_m: int = field(init=False)
    gram: Tuple[Tuple[Scalar, ...], ...] = field(init=False, repr=False)
    # struct[i] lists (j, k, c) for every nonzero coefficient c of basis[k]
    # in [basis[i], basis[j]], ordered by j then k
    struct: List[List[Tuple[int, int, Scalar]]] = field(init=False, repr=False)

    def __post_init__(self):
        d = len(self.basis)
        self.dim = d
        self.dim_m = d - self.dim_h
        if not (0 < self.rank_a <= self.dim_m):
            raise ConstructionFailure("%s: rank %d incompatible with dim m %d"
                                      % (self.name, self.rank_a, self.dim_m))
        self._center_dims: Optional[Tuple[int, int, int]] = None
        self._solve = la.coords_solver([la.flatten(m) for m in self.basis])
        if self._solve is None:
            raise ConstructionFailure("%s: basis is dependent over C" % self.name)
        self._sparse_basis = [_sparse_entries(m) for m in self.basis]
        self._check_adapted()
        self._build_struct()
        self._gram_and_signs()
        self._check_a()

    # --- basis bookkeeping ----------------------------------------------

    @property
    def h_indices(self) -> range:
        return range(0, self.dim_h)

    @property
    def a_indices(self) -> range:
        return range(self.dim_h, self.dim_h + self.rank_a)

    @property
    def m_indices(self) -> range:
        return range(self.dim_h, self.dim)

    def a_basis(self) -> List[Mat]:
        return [self.basis[i] for i in self.a_indices]

    def unit_coords(self, i: int) -> Tuple[Scalar, ...]:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    # --- construction-time validation -------------------------------------

    def _check_adapted(self):
        for i, x in enumerate(self._sparse_basis):
            want = x if i < self.dim_h else {k: -e for k, e in x.items()}
            if theta_entries(x) != want:
                raise ConstructionFailure(
                    "%s: basis vector %d is not a theta eigenvector" % (self.name, i))

    def _build_struct(self):
        """Each bracket of two basis matrices, taken from their sparse
        entries (entry (r, c) at r n + c, as ``la.flatten`` lays it out) and
        solved for its nonzero coefficients, which must all be rational."""
        d, n = self.dim, self.n
        sparse = self._sparse_basis
        table: List[List[Tuple[int, int, Scalar]]] = [[] for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                br = _sparse_bracket(sparse[i], sparse[j])
                cij = self._solve({r * n + c: e for (r, c), e in br.items()})
                if cij is None or not all(c.is_rational() for c in cij.values()):
                    raise ConstructionFailure(
                        "%s: bracket of basis %d, %d leaves the algebra" %
                        (self.name, i, j))
                for k, c in sorted(cij.items()):
                    table[i].append((j, k, c))
                    table[j].append((i, k, -c))
        self.struct = table

    def _gram_and_signs(self):
        d = self.dim
        g = [[ZERO] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                t = _sparse_trace_product(self._sparse_basis[i], self._sparse_basis[j])
                parts = t.gaussian_parts()
                if parts is None:
                    raise ConstructionFailure("%s: trace form left Q(i)" % self.name)
                g[i][j] = g[j][i] = Scalar.of(parts[0])
        self.gram = tuple(tuple(row) for row in g)
        neg_hh = [[-g[i][j] for j in self.h_indices] for i in self.h_indices]
        mm = [[g[i][j] for j in self.m_indices] for i in self.m_indices]
        hm = [[g[i][j] for j in self.m_indices] for i in self.h_indices]
        if any(any(row) for row in hm):
            raise ConstructionFailure("%s: B does not split h and m" % self.name)
        if not la.is_positive_definite(neg_hh):
            raise ConstructionFailure("%s: B not negative definite on h" % self.name)
        if not la.is_positive_definite(mm):
            raise ConstructionFailure("%s: B not positive definite on m" % self.name)

    def _check_a(self):
        for i in self.a_indices:
            if any(j in self.a_indices for j, _, _ in self.struct[i]):
                raise ConstructionFailure("%s: a is not abelian" % self.name)
        cm = self.centralizer_frac([self.unit_coords(i) for i in self.a_indices],
                                   within=self.m_indices)
        if len(cm) != self.rank_a:
            raise ConstructionFailure(
                "%s: a is not maximal abelian in m (centralizer of a in m has dim %d)"
                % (self.name, len(cm)))

    # --- coordinates ------------------------------------------------------

    def coords_of(self, x: Mat) -> Tuple[Scalar, ...]:
        """Coordinates of x in the complex span g^C of the basis."""
        cs = self._solve(la.flatten(x))
        if cs is None:
            raise NotInAlgebra("%s: matrix not in g^C" % self.name)
        return tuple(cs)

    def try_coords_of(self, x: Mat) -> Optional[Tuple[Scalar, ...]]:
        try:
            return self.coords_of(x)
        except NotInAlgebra:
            return None

    def matrix_of(self, coords: Sequence) -> Mat:
        out = [[ZERO] * self.n for _ in range(self.n)]
        for c, entries in zip(coords, self._sparse_basis):
            if c:
                cs = c if isinstance(c, Scalar) else Scalar.of(c)
                for (i, j), e in entries.items():
                    out[i][j] = out[i][j] + cs * e
        return tuple(tuple(row) for row in out)

    # --- operations in coordinates ------------------------------------------

    def _bracket(self, u: Dict[int, Scalar], v: Dict[int, Scalar]
                 ) -> Dict[int, Scalar]:
        """[u, v] on {index: nonzero} coordinates, as such a dict."""
        out: Dict[int, Scalar] = {}
        for i, ui in u.items():
            for j, k, c in self.struct[i]:
                vj = v.get(j)
                if vj is not None:
                    t = ui * vj * c
                    x = out.get(k)
                    out[k] = t if x is None else x + t
        return {k: x for k, x in out.items() if x}

    def bracket_coords(self, u: Sequence, v: Sequence) -> tuple:
        """Coordinates of [u, v]."""
        out = [ZERO] * self.dim
        for k, x in self._bracket(la.sparse(u), la.sparse(v)).items():
            out[k] = x
        return tuple(out)

    def ad_frac(self, i: int) -> List[List[Scalar]]:
        """Matrix of ad(basis[i]) on coordinates: row k, column j holds the
        coefficient of basis[k] in [basis[i], basis[j]].  The name predates
        the one field and stays because bench/tracer.py wraps it."""
        return self.ad_matrix(self.unit_coords(i))

    def ad_matrix(self, u: Sequence) -> List[list]:
        """Matrix of ad(x) for x with coordinates u."""
        d = self.dim
        out = [[ZERO] * d for _ in range(d)]
        for i, ui in enumerate(u):
            if ui:
                for j, k, c in self.struct[i]:
                    row = out[k]
                    row[j] = row[j] + ui * c
        return out

    def theta_coords(self, u: Sequence) -> tuple:
        """theta on coordinates: it fixes the h entries and negates the rest."""
        h = self.dim_h
        return tuple(u[:h]) + tuple(-x for x in u[h:])

    def form_coords(self, u: Sequence, v: Sequence):
        acc = None
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    term = ui * vj * row[j]
                    acc = term if acc is None else acc + term
        return ZERO if acc is None else acc

    # --- centralizers and generated subalgebras ------------------------------

    def centralizer_in_span(self, elements: Sequence[Sequence],
                            space: Sequence[Sequence]) -> List[tuple]:
        """Basis of {v in span(space) : [e, v] = 0 for every element e}.

        `space` must be independent.  With no elements the whole span comes
        back.
        """
        d = self.dim
        sparse_elements = [la.sparse(e) for e in elements]
        images = []
        for v in space:
            sv = la.sparse(v)
            image = {}
            for q, e in enumerate(sparse_elements):
                for k, x in self._bracket(e, sv).items():
                    image[q * d + k] = x
            images.append(image)
        return _span_kernel(space, images, len(elements) * d)

    def theta_split(self, vectors: Sequence[Sequence]
                    ) -> Tuple[List[tuple], List[tuple]]:
        """Bases of span(vectors) meet h^C and span(vectors) meet m^C.

        `vectors` must be independent; the two sizes add up to len(vectors)
        exactly when the span is theta-stable, which callers check.
        """
        m_coords = [la.sparse([v[j] for j in self.m_indices]) for v in vectors]
        h_coords = [la.sparse([v[j] for j in self.h_indices]) for v in vectors]
        h_part = _span_kernel(vectors, m_coords, self.dim_m)
        m_part = _span_kernel(vectors, h_coords, self.dim_h)
        return h_part, m_part

    def centralizer_frac(self, elements: Sequence[Sequence],
                         within: Optional[Sequence[int]] = None
                         ) -> List[Tuple[Scalar, ...]]:
        """Basis of the centralizer of the given elements.

        The unit-span call of `centralizer_in_span`: `within` restricts to
        the span of those basis indices (a coordinate block such as m or h,
        all of g by default); full-length coordinate vectors come back.  The
        name predates the one field and stays because bench/tracer.py wraps
        it.
        """
        idxs = within if within is not None else range(self.dim)
        return self.centralizer_in_span(
            elements, [self.unit_coords(i) for i in idxs])

    def center_dims(self) -> Tuple[int, int, int]:
        """(dim z(g), dim z(g) meet h, dim z(g) meet m), computed once.

        z(g) commutes with a, so it is the centralizer of g inside c_g(a).
        """
        if self._center_dims is None:
            units = [self.unit_coords(i) for i in range(self.dim)]
            cga = self.centralizer_frac([units[i] for i in self.a_indices])
            z = self.centralizer_in_span(units, cga)
            in_h, in_m = self.theta_split(z)
            if len(in_h) + len(in_m) != len(z):
                raise ConstructionFailure("%s: center is not theta-split"
                                          % self.name)
            self._center_dims = (len(z), len(in_h), len(in_m))
        return self._center_dims

    def generate_subalgebra(
            self, gens: Sequence[Tuple[tuple, Sequence[Scalar]]]
    ) -> Dict[tuple, la.Subspace]:
        """Smallest bracket-closed subspace containing the generators, graded
        by weight.

        Each generator comes as (weight, vector), the weight a tuple of
        Fractions.  The closure is spanned by the iterated brackets
        [g_1, [g_2, ..., g_k]] of generators: their span is stable under
        each ad(g_i), so by the Jacobi identity under ad of its own
        elements.  The bracket of vectors of weights alpha and beta has
        weight alpha + beta, so the closure is the direct sum of one
        reduced-echelon ``Subspace`` per weight, returned as a
        {weight: Subspace} dict.  One weight for every generator, such as
        (), gives the ungraded closure.
        """
        spaces: Dict[tuple, la.Subspace] = {}
        frontier = []
        for wt, g in gens:
            space = spaces.setdefault(wt, la.Subspace())
            if space.add(g):
                frontier.append((wt, la.sparse(g)))
        sources = list(frontier)
        while frontier:
            new_vecs = []
            for wg, g in sources:
                for wu, u in frontier:
                    w = self._bracket(g, u)
                    if not w:
                        continue
                    wt = tuple(a + b for a, b in zip(wg, wu))
                    space = spaces.get(wt)
                    if space is None:
                        # a dense first row makes every row full length
                        space = spaces[wt] = la.Subspace(
                            [[w.get(k, ZERO) for k in range(self.dim)]])
                        new_vecs.append((wt, w))
                    elif space.add(w):
                        new_vecs.append((wt, w))
            frontier = new_vecs
        return spaces

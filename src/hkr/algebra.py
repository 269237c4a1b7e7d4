"""Real form structures: Cartan involution, invariant form, exact brackets.

A RealFormStructure holds a real matrix Lie algebra g in gl(n, C) through a
theta-adapted basis that it builds itself from the real span of g and a
chosen a-basis: the compact part h first, then the maximal abelian subspace
a, then the rest of the -1 eigenspace m.  The Cartan involution is always
theta(X) = -conjugate_transpose(X), applied to the sparse {(r, c): entry}
form of a matrix (``Entries``, ``theta_entries``), and the invariant form is
B(X, Y) = Re tr(XY); B must come out negative definite on h and positive
definite on m, and both facts are checked at construction, not assumed.

Elements live as n x n matrices over Scalar and as coordinate vectors in
the basis, which one coordinate solver over the flattened sparse basis
matrices links.  The basis of a real form is independent over C, so
elements of the complexification g^C (the C-span of the basis) have Scalar
coordinates, and the rational elements of g are those whose coordinates are
all Scalars with ``is_rational()``.  Bracket, form, and involution
computations in coordinates use rational structure data, so they stay exact
and cheap even when the coordinates themselves carry radicals.  The
structure constants come from indexes of the basis entries by row and by
column, which form only the products that meet, and only nonzero brackets
are solved; they are kept per element i as a {j: ((k, c), ...)} index, so
a bracket walks the sparser of its operands.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg as la
from .errors import ConstructionFailure, NotInAlgebra, NotInTable
from .linalg import Mat
from .scalars import Reduction, Scalar, ZERO, ONE, add_product

Entries = Dict[Tuple[int, int], Scalar]  # a matrix as {(r, c): nonzero}

_HALF = ONE / 2


def _entries(x: Dict[Tuple[int, int], object]) -> Entries:
    """Sparse entries given as ints, Fractions or Scalars, as Scalars."""
    return {k: Scalar.of(e) for k, e in x.items() if e}


def _flat(x: Entries, n: int) -> Dict[int, Scalar]:
    """x with entry (r, c) at r n + c, as ``la.flatten`` lays it out."""
    return {r * n + c: e for (r, c), e in x.items()}


def theta_entries(x: Entries) -> Entries:
    """The Cartan involution theta(X) = -X^* on sparse entries."""
    return {(c, r): -e.conj() for (r, c), e in x.items()}


def _theta_halves(x: Entries) -> Tuple[Entries, Entries]:
    """The parts (x + theta x)/2 in h and (x - theta x)/2 in m of x."""
    h = {k: e * _HALF for k, e in x.items()}
    m = dict(h)
    for k, e in theta_entries(x).items():
        e = e * _HALF
        h[k] = h[k] + e if k in h else e
        m[k] = m[k] - e if k in m else -e
    return ({k: e for k, e in h.items() if e},
            {k: e for k, e in m.items() if e})


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


class RealFormStructure:
    """A classical real form in a theta-adapted exact basis.

    `span` is a basis of g over R and `a_mats` one of a, each matrix as its
    sparse {(r, c): entry} dict; neither is kept.  Each span matrix x splits
    into its theta-halves (x + theta x)/2 in h and (x - theta x)/2 in m, and
    the basis is drawn from them: the h-halves, the a-basis, then the
    m-halves that a does not already span.  All three are drawn into one
    subspace over the field, so the basis is independent over C by
    construction.  For a real form h^C and m^C meet only in 0, so this keeps
    the same vectors as drawing each half on its own; a span that theta does
    not preserve, or that meets i times itself, loses dimensions in the
    split and is refused.  `table_row` is the ``catalog.TableOneEntry`` the
    analysis compares with.
    """

    def __init__(self, name: str, n: int,
                 span: Sequence[Dict[Tuple[int, int], object]],
                 a_mats: Sequence[Dict[Tuple[int, int], object]],
                 table_row: Optional[object] = None):
        self.name, self.n, self.table_row = name, n, table_row
        # the constants of [m, m] reduced mod p, per prime p (see ``ad_mod``)
        self._struct_mod: Dict[int, dict] = {}
        h, a, m_rest = self._theta_adapted(span, a_mats)
        self.dim_h, self.rank_a = len(h), len(a)
        self._sparse_basis = h + a + m_rest
        self.dim = len(self._sparse_basis)
        self.dim_m = self.dim - self.dim_h
        if not (0 < self.rank_a <= self.dim_m):
            raise ConstructionFailure("%s: rank %d incompatible with dim m %d"
                                      % (self.name, self.rank_a, self.dim_m))
        self._solve = la.coords_solver([_flat(x, self.n)
                                        for x in self._sparse_basis])
        self._build_struct()
        self._gram_and_signs()
        self._check_a()

    def reference_row(self):
        """The Table 1 row the analysis compares with.  Raises NotInTable
        when the structure was built without one."""
        if self.table_row is None:
            raise NotInTable("%s: no Table 1 row to match" % self.name)
        return self.table_row

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
        return [self.matrix_of(self.unit_coords(i)) for i in self.a_indices]

    def a_vector(self, coeffs: Sequence) -> Tuple[Scalar, ...]:
        """Coordinates of sum_j coeffs[j] a_j, the a-basis combination."""
        out = [ZERO] * self.dim
        for i, c in zip(self.a_indices, coeffs):
            out[i] = c
        return tuple(out)

    def unit_coords(self, i: int) -> Tuple[Scalar, ...]:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    # --- construction-time validation -------------------------------------

    def _theta_adapted(self, span, a_mats
                       ) -> Tuple[List[Entries], List[Entries], List[Entries]]:
        """The sparse bases of h, of a and of the rest of m."""
        n = self.n
        a_list = [_entries(a) for a in a_mats]
        drawn = la.Subspace()  # a first, then h and the rest of m
        for i, a in enumerate(a_list):
            if not drawn.add(_flat(a, n)):
                raise ConstructionFailure("%s: a-basis element %d is dependent"
                                          % (self.name, i))
        m_span = la.Subspace()
        h_list, m_rest = [], []
        for x in span:
            xh, xm = _theta_halves(_entries(x))
            if drawn.add(_flat(xh, n)):
                h_list.append(xh)
            xm_flat = _flat(xm, n)
            if m_span.add(xm_flat) and drawn.add(xm_flat):
                m_rest.append(xm)
        for i, a in enumerate(a_list):
            if not m_span.contains(_flat(a, n)):
                raise ConstructionFailure("%s: a-basis element %d is not in m"
                                          % (self.name, i))
        if len(h_list) + len(a_list) + len(m_rest) != len(span):
            raise ConstructionFailure("%s: theta split lost dimensions" % self.name)
        return h_list, a_list, m_rest

    def _build_struct(self):
        """Each nonzero bracket of two basis matrices, solved for its
        coefficients, which must all be rational.  ``struct[i]`` is an index
        {j: ((k, c), ...)} of every nonzero coefficient c of basis[k] in
        [basis[i], basis[j]], j and k increasing: one lookup per j.

        Two indexes of the basis entries, by row and by column, give the
        products X_i X_j and X_j X_i of one X_i with every later X_j, formed
        only where an entry of the left factor meets a row of the right one.
        A pair whose products never form or cancel has bracket zero and
        needs no solve.
        """
        d, n = self.dim, self.n
        # an entry (p, q) of X_i meets row q of X_j in X_i X_j, at (p, c), and
        # column p of X_j in -X_j X_i, at (r, q): each flat index is a part
        # from X_i (p n or q) plus the part held in the index (c or r n)
        by_row: Dict[int, List[Tuple[int, int, Scalar]]] = {}
        by_col: Dict[int, List[Tuple[int, int, Scalar]]] = {}
        for j, x in enumerate(self._sparse_basis):
            for (r, c), e in x.items():
                by_row.setdefault(r, []).append((j, c, e))
                by_col.setdefault(c, []).append((j, r * n, -e))
        table: List[dict] = [{} for _ in range(d)]
        for i, x in enumerate(self._sparse_basis):
            brackets: Dict[int, Dict[int, Scalar]] = {}  # j: [X_i, X_j]
            for (p, q), a in x.items():
                for base, hits in ((p * n, by_row.get(q, ())),
                                   (q, by_col.get(p, ()))):
                    for j, part, b in hits:
                        if j > i:
                            br = brackets.setdefault(j, {})
                            br[base + part] = add_product(
                                br.get(base + part), a, b)
            for j in sorted(brackets):
                br = {key: e for key, e in brackets[j].items() if e is not ZERO}
                if not br:
                    continue
                cij = self._solve(br)
                if cij is None or not all(c.is_rational() for c in cij.values()):
                    raise ConstructionFailure(
                        "%s: bracket of basis %d, %d leaves the algebra" %
                        (self.name, i, j))
                kc = tuple(sorted(cij.items()))
                table[i][j] = kc
                table[j][i] = tuple((k, -c) for k, c in kc)
        self.struct = table

    def _gram_and_signs(self):
        """B(X_i, X_j) = Re tr(X_i X_j), formed only where an entry (r, c)
        of X_i meets the entry (c, r) of X_j; each trace must lie in Q(i)."""
        d = self.dim
        at: Dict[Tuple[int, int], List[Tuple[int, Scalar]]] = {}
        for j, x in enumerate(self._sparse_basis):
            for key, e in x.items():
                at.setdefault(key, []).append((j, e))
        g = [[ZERO] * d for _ in range(d)]
        for i, x in enumerate(self._sparse_basis):
            traces: Dict[int, Scalar] = {}
            for (r, c), e in x.items():
                for j, f in at.get((c, r), ()):
                    if j >= i:
                        traces[j] = add_product(traces.get(j), e, f)
            for j, t in traces.items():
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
        """a is abelian; ``roots.restricted_roots`` checks it is maximal."""
        for i in self.a_indices:
            if any(j in self.a_indices for j in self.struct[i]):
                raise ConstructionFailure("%s: a is not abelian" % self.name)

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
            if c.__class__ is not Scalar:
                c = Scalar.of(c)
            if c is not ZERO:
                for (i, j), e in entries.items():
                    row = out[i]
                    row[j] = add_product(row[j], c, e)
        return tuple(tuple(row) for row in out)

    # --- operations in coordinates ------------------------------------------

    def _bracket(self, u: Dict[int, Scalar], v: Dict[int, Scalar]
                 ) -> Dict[int, Scalar]:
        """[u, v] on {index: nonzero} coordinates, as such a dict.  For each
        u_i it meets v with the index of [basis[i], .], a key intersection
        that walks the smaller side, so a unit v costs one lookup."""
        out: Dict[int, Scalar] = {}
        for i, ui in u.items():
            row = self.struct[i]
            for j in v.keys() & row.keys():
                uv = ui * v[j]
                for k, c in row[j]:
                    out[k] = add_product(out.get(k), uv, c)
        return {k: x for k, x in out.items() if x is not ZERO}

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
            for j, kc in self.struct[i].items() if ui is not ZERO else ():
                for k, c in kc:
                    row = out[k]
                    row[j] = add_product(row[j], ui, c)
        return out

    def ad_mod(self, xp: Sequence[int], red: Reduction) -> List[List[int]]:
        """The m^C columns of ad(x) mod red.p, for x in m^C with coordinates
        reduced to xp.  The constants of [m, m] are reduced once per prime;
        NotReducible when red.p divides one's denominator."""
        h = self.dim_h
        table = self._struct_mod.get(red.p)
        if table is None:
            table = {i: [(j - h, k, red(c)) for j, kc in self.struct[i].items()
                         if j >= h for k, c in kc] for i in self.m_indices}
            self._struct_mod[red.p] = table
        rows = [[0] * self.dim_m for _ in range(self.dim)]
        for i, consts in table.items():
            for j, k, c in consts if xp[i] else ():
                rows[k][j] += xp[i] * c
        return rows

    def theta_coords(self, u: Sequence) -> tuple:
        """theta on coordinates: it fixes the h entries and negates the rest."""
        h = self.dim_h
        return tuple(u[:h]) + tuple(-x for x in u[h:])

    def form_coords(self, u: Sequence, v: Sequence):
        acc = None
        for i, ui in enumerate(u):
            if ui is ZERO:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                if vj is not ZERO and row[j] is not ZERO:
                    acc = add_product(acc, ui * vj, row[j])
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
        exactly when the span is theta-stable, which callers check or prove.
        """
        m_coords = [la.sparse([v[j] for j in self.m_indices]) for v in vectors]
        h_coords = [la.sparse([v[j] for j in self.h_indices]) for v in vectors]
        h_part = _span_kernel(vectors, m_coords, self.dim_m)
        m_part = _span_kernel(vectors, h_coords, self.dim_h)
        return h_part, m_part

    def centralizer_frac(self, elements: Sequence[Sequence]
                         ) -> List[Tuple[Scalar, ...]]:
        """Basis of the centralizer of the given elements in g^C: the
        unit-span call of `centralizer_in_span`.  The name predates the one
        field and stays because bench/tracer.py wraps it."""
        return self.centralizer_in_span(
            elements, [self.unit_coords(i) for i in range(self.dim)])

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
        (), gives the ungraded closure.  Raises ConstructionFailure once the
        pieces add up to more than dim g^C, which a generator given the
        wrong weight brings about: the closure would never end.
        """
        spaces: Dict[tuple, la.Subspace] = {}
        frontier = []
        for wt, g in gens:
            space = spaces.setdefault(wt, la.Subspace())
            if space.add(g):
                frontier.append((wt, la.sparse(g)))
        sources = list(frontier)
        while frontier:
            if sum(space.dim for space in spaces.values()) > self.dim:
                raise ConstructionFailure("%s: graded closure exceeds dim %d; "
                                          "a generator weight is wrong"
                                          % (self.name, self.dim))
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

"""Restricted root systems, Weyl groups, and Cartan-type classification.

The restricted roots of (g, a) are the nonzero joint rational eigenvalue
functionals of ad on the chosen a-basis.  The joint eigenspaces come from
successive exact splitting by each a-unit H, at candidate eigenvalues read
from the n x n matrix of H: the differences of its eigenvalues on C^n
(``ad_spectrum_candidates``), so no dim x dim charpoly is formed.  Each split
(``linalg.eigen_split``) must fill the piece it splits, which proves that
the candidates held the whole spectrum, so multiplicities are exact.  The
same route splits ker ad(e) by ad(x).  The roots on a maximally split
Cartan d = t + a are not split out: once d is checked to be a Cartan
subalgebra, they number num_roots = dim g - rank g^C = dim g - |t| - r, and
the real ones are counted, on demand, by the centralizer of t in each piece
of the ad(a)-grading (``full_root_classification``).
Classification closes a deterministic simple system under its reflections,
once, and reads each component's type off its rank, its root count and its
number of short simple roots; type labels are canonical strings like ``B2``
or ``A1xA1``, compared through the low-rank coincidences (B1 = C1 = A1,
B2 = C2, D2 = A1 x A1, D3 = A3).  ``weyl_group`` enumerates W as
permutations of the same closure's roots, layer by length, classed by
characteristic polynomial for the Molien series.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Dict, List, Sequence, Tuple, Union

from . import linalg as la
from .algebra import RealFormStructure
from .errors import (ConstructionFailure, NonRationalSpectrum,
                     UnrecognizedDiagram)

_F0 = Fraction(0)

# exact rationals: int when integral, else Fraction (as la.rational_roots
# returns them), so the labels of every catalog form are tuples of ints
Rational = Union[int, Fraction]
RootLabel = Tuple[Rational, ...]


def rational_spectrum(structure: RealFormStructure, coords: Sequence
                      ) -> List[Rational]:
    """The distinct eigenvalues on C^n of the element with coordinates
    `coords`, sorted, each an int when integral, else a Fraction.  Raises
    NonRationalSpectrum unless the n x n charpoly splits over Q."""
    m = structure.matrix_of(coords)
    try:
        mus = la.rational_roots([c.as_fraction() for c in la.charpoly(m)])
    except ValueError:  # a coefficient outside Q
        mus = None
    if mus is None:
        raise NonRationalSpectrum("%s: spectrum on C^%d does not split over Q"
                                  % (structure.name, structure.n))
    return sorted(set(mus))


def ad_spectrum_candidates(structure: RealFormStructure, coords: Sequence
                           ) -> List[Rational]:
    """The differences mu_j - mu_k of the eigenvalues of X on C^n, sorted.

    X is the element with coordinates `coords`.  ad(X) on gl(n, C) has
    these eigenvalues, so they are the candidates an eigenspace split of g^C
    by ad(X) needs; where g is complex, g^C also holds a conjugate copy of g,
    on which the elements split here have the conjugate or negated
    differences, again in the set.  Raises NonRationalSpectrum unless the
    n x n charpoly splits over Q.
    """
    return eigenvalue_differences(rational_spectrum(structure, coords))


def eigenvalue_differences(mus: Sequence[Rational]) -> List[Rational]:
    """The distinct differences mu_j - mu_k of the eigenvalues mus, sorted.
    They are ints wherever the mus are, as ``rational_spectrum`` gives them
    on every catalog form."""
    return sorted({a - b for a in mus for b in mus})


class RestrictedRootData:
    """The root spaces, c_g(a) and c_h(a) of a structure; what is derived
    from them (the simple system, the pairing, the type labels, the center)
    is computed on first read and kept.  `centralizer` is a basis of c_g(a)
    in rational Scalar coordinates, `h_centralizer` one of c_h(a), the h^C
    part of c_g(a)."""

    def __init__(self, structure: RealFormStructure,
                 root_spaces: Dict[RootLabel, List[list]],
                 centralizer: List[list], h_centralizer: List[tuple]):
        self.structure, self.root_spaces = structure, root_spaces
        self.centralizer, self.h_centralizer = centralizer, h_centralizer

    @cached_property
    def simples(self) -> List[RootLabel]:
        """Indecomposable positive roots, in lexicographic order."""
        pos = positive_roots(self)
        pos_set = set(pos)
        return [lam for lam in pos
                if not any(tuple(a - b for a, b in zip(lam, mu)) in pos_set
                           for mu in pos if mu != lam)]

    @cached_property
    def pairing(self) -> "RootPairing":
        S = self.structure
        return RootPairing([[S.gram[i][j] for j in S.a_indices]
                            for i in S.a_indices])

    @cached_property
    def types(self) -> Tuple[str, str]:
        """(type of the full system Lambda, type of the reduced system)."""
        reduced_label = classify_simples(self.simples, self.pairing)
        if not is_nonreduced(self):
            return reduced_label, reduced_label
        # the simple system of BC_r has the B_r Cartan matrix (A1 when r = 1)
        if reduced_label == "A1":
            return "BC1", reduced_label
        if "x" not in reduced_label and reduced_label.startswith("B"):
            return "BC" + reduced_label[1:], reduced_label
        raise UnrecognizedDiagram(
            "non-reduced system with reduced type %s" % reduced_label)

    @cached_property
    def center_dims(self) -> Tuple[int, int, int]:
        """(dim z(g), dim z(g) meet h, dim z(g) meet m).

        z(g) is the part of c_g(a) that every basis element centralizes.
        The a-units centralize all of c_g(a); the others are taken one at a
        time, m before h, each inside what the last one left, so the walk
        does nothing more once that is 0, as it soon is on a semisimple g.
        theta is an automorphism, so z(g) is theta-stable and splits.
        """
        S = self.structure
        z = self.centralizer
        for i in chain(range(S.dim_h + S.rank_a, S.dim), S.h_indices):
            if z:
                z = S.centralizer_in_span([S.unit_coords(i)], z)
        in_h, in_m = S.theta_split(z)
        return (len(z), len(in_h), len(in_m))


def restricted_roots(structure: RealFormStructure) -> RestrictedRootData:
    """Joint ad(a)-eigenvalue decomposition of g.  Raises NonRationalSpectrum
    unless each split fills its piece: the candidates held the spectrum.
    The zero piece c_g(a) is theta-stable and splits into c_h(a) and c_m(a);
    a is maximal abelian in m exactly when c_m(a) = a."""
    start = [structure.unit_coords(i) for i in range(structure.dim)]
    spaces = [((), start)]
    for ai in structure.a_indices:
        cands = ad_spectrum_candidates(structure, structure.unit_coords(ai))
        op = structure.ad_frac(ai)
        split = []
        for label, vecs in spaces:
            pieces = la.eigen_split(op, vecs, cands)
            if pieces is None:
                raise NonRationalSpectrum(
                    "%s: ad is not diagonalizable over its candidate "
                    "eigenvalues" % structure.name)
            split.extend((label + (ev,), p) for ev, p in pieces)
        spaces = split
    root_spaces: Dict[RootLabel, List[list]] = {}
    central: List[list] = []
    for label, vecs in spaces:
        if any(label):
            root_spaces[label] = vecs
        else:
            central = vecs
    c_h, c_m = structure.theta_split(central)
    if len(c_m) != structure.rank_a:
        raise ConstructionFailure(
            "%s: a is not maximal abelian in m (centralizer of a in m has dim %d)"
            % (structure.name, len(c_m)))
    if not root_spaces:
        raise ConstructionFailure("%s: no restricted roots" % structure.name)
    return RestrictedRootData(structure, root_spaces, central, c_h)


# --- positivity, simple systems, reduced system -------------------------------

def is_positive(lam: RootLabel) -> bool:
    for v in lam:
        if v:
            return v > 0
    return False


def positive_roots(data: RestrictedRootData) -> List[RootLabel]:
    return sorted(lam for lam in data.root_spaces if is_positive(lam))


def reduced_system(data: RestrictedRootData) -> List[RootLabel]:
    """Roots lam with lam/2 not a root (the system of the split subalgebra):
    those outside {2 mu : mu a root}, so no label is halved."""
    doubled = {tuple(2 * v for v in mu) for mu in data.root_spaces}
    return sorted(lam for lam in data.root_spaces if lam not in doubled)


def is_nonreduced(data: RestrictedRootData) -> bool:
    all_roots = set(data.root_spaces)
    return any(tuple(2 * v for v in lam) in all_roots for lam in all_roots)


# --- inner products on root space ----------------------------------------------

class RootPairing:
    """pair(lam, mu) = B(t_lam, t_mu) on a*, where t_lam in a is the B-dual
    of lam; each dual is solved once, from the Gram matrix of B on a."""

    def __init__(self, gram: List[list]):
        self._gram = gram
        self._duals: Dict[RootLabel, List[Fraction]] = {}

    def dual(self, lam: RootLabel) -> List[Fraction]:
        """The a-basis coordinates of t_lam.  The Gram matrix is invertible:
        B is positive definite on m (the structure is built only then) and
        a lies in m."""
        got = self._duals.get(lam)
        if got is None:
            got = la.solve_right(self._gram, list(lam))
            got = self._duals[lam] = [c.as_fraction() for c in got]
        return got

    def __call__(self, lam: RootLabel, mu: RootLabel) -> Fraction:
        return sum((lv * dv for lv, dv in zip(lam, self.dual(mu))), _F0)


def cartan_matrix(simples: List[RootLabel], pair) -> List[List[int]]:
    """Entries n_ij = 2 (a_i, a_j) / (a_j, a_j); must be integral, and each
    is kept as an int.  The form is symmetric, so each unordered pair is
    evaluated once; the quotient is taken in Fractions, whatever exact
    rationals `pair` returns."""
    r = len(simples)
    gram = [[_F0] * r for _ in range(r)]
    out = [[0] * r for _ in range(r)]
    for j in range(r):
        for i in range(j, r):
            gram[i][j] = gram[j][i] = pair(simples[i], simples[j])
        dj = gram[j][j]
        if dj <= 0:
            raise ConstructionFailure("simple root with nonpositive norm")
        for i in range(r):
            v = Fraction(2 * gram[i][j]) / dj
            if v.denominator != 1:
                raise UnrecognizedDiagram("non-integral Cartan matrix entry %s" % v)
            out[i][j] = v.numerator
    return out


# --- classification by root count --------------------------------------------

def _reflection_closure(cart: List[List[int]]):
    """(roots, perms, pairings) of a Cartan matrix: every image of the
    simples under the reflections s_i(b) = b - <b, a_i^v> a_i, in simple-root
    coordinates, simples first; perms[i][k] is the index of s_i(roots[k])
    and pairings[i][k] = <roots[k], a_i^v>.

    Raises UnrecognizedDiagram past 2r^2 + 240 roots.  A positive-definite
    pairing with integral Cartan entries never gets there: each s_i is an
    orthogonal reflection, so every root lies in Z^r at the norm of a simple
    root, and a lattice meets a sphere of a definite form in finitely many
    points.  A finite system of rank r has fewer roots: an irreducible one
    of rank s has at most 2s^2, save G2, F4, E7 and E8 with 4, 16, 28 and
    112 more (Humphreys, Introduction to Lie Algebras, 11.4 and 12.2), and
    the cross terms of 2r^2 = 2(s_1 + s_2 + ...)^2 cover what several such
    components add.  An affine or hyperbolic Cartan matrix grows roots
    without end, and is refused here.
    """
    r = len(cart)
    coroots = [[cart[j][i] for j in range(r)] for i in range(r)]
    roots = [tuple(int(x == j) for x in range(r)) for j in range(r)]
    index = {b: k for k, b in enumerate(roots)}
    perms: List[List[int]] = [[] for _ in range(r)]
    pairings: List[List[int]] = [[] for _ in range(r)]  # <root, a_i^v>
    bound = 2 * r * r + 240
    for b in roots:  # grows while new images turn up
        for i, row in enumerate(coroots):
            c = sum(map(mul, b, row))
            img = b[:i] + (b[i] - c,) + b[i + 1:]
            if img not in index:
                if len(roots) == bound:
                    raise UnrecognizedDiagram(
                        "more than %d roots: the Cartan matrix is not of "
                        "finite type" % bound)
                index[img] = len(roots)
                roots.append(img)
            perms[i].append(index[img])
            pairings[i].append(c)
    return roots, perms, pairings


# (rank, root count) of the exceptional types; (6, 72) is also B6's and C6's
_EXCEPTIONAL_ROOTS = {(2, 12): "G2", (4, 48): "F4", (6, 72): "E6",
                      (7, 126): "E7", (8, 240): "E8"}


def _component_label(rank: int, n_roots: int, n_short: int) -> str:
    """The type of a connected finite root system from its rank, its root
    count and its number of short simple roots.  A_r has r(r+1) roots, B_r
    and C_r 2r^2, D_r 2r(r-1), and G2, F4, E6, E7, E8 have 12, 48, 72, 126,
    240 (Humphreys, Introduction to Lie Algebras, 12.2).  C_r has r - 1
    short simple roots, B_r one, so B2 = C2 reads B2; A3 = D3 reads A3."""
    label = _EXCEPTIONAL_ROOTS.get((rank, n_roots))
    if label and not (label[0] == "E" and n_short):
        return label
    if n_roots == rank * (rank + 1):
        return "A%d" % rank
    if n_roots == 2 * rank * (rank - 1):
        return "D%d" % rank
    return "%s%d" % ("C" if n_short > 1 else "B", rank)


def classify_simples(simples: List[RootLabel], pair) -> str:
    """Canonical type label of the (reduced) system generated by the simples.

    Each root's support in the simples is connected, and the highest root
    of a component is supported on all of it, so the maximal supports are
    the components and each root lies under exactly one of them."""
    if not simples:
        return ""
    roots = _reflection_closure(cartan_matrix(simples, pair))[0]
    supports = Counter(frozenset(j for j, x in enumerate(b) if x)
                       for b in roots)
    norms = [pair(s, s) for s in simples]
    labels = []
    for comp in supports:
        if any(comp < other for other in supports):
            continue
        top = max(norms[j] for j in comp)
        labels.append(_component_label(
            len(comp), sum(n for s, n in supports.items() if s <= comp),
            sum(1 for j in comp if norms[j] < top)))
    return "x".join(sorted(labels, key=split_label))


def classify_type(data: RestrictedRootData) -> Tuple[str, str]:
    """``data.types``, under the name the benchmark's worker
    (bench/worker.py) calls; the library reads ``data.types``."""
    return data.types


def split_label(label: str) -> Tuple[str, int]:
    """(letter, rank) of an irreducible type label, e.g. ("BC", 2)."""
    letter = "".join(ch for ch in label if ch.isalpha())
    rank = int("".join(ch for ch in label if ch.isdigit()))
    return letter, rank


def _atoms(label: str) -> List[str]:
    """The irreducible factors of a product type label such as ``A1xB2``."""
    return [part.strip() for part in label.split("x") if part.strip()]


def normalize_type(label: str) -> Tuple[str, ...]:
    """Equivalence-class normal form of a product type label."""
    atoms: List[str] = []
    for part in _atoms(label):
        letter, rank = split_label(part)
        if letter in ("B", "C") and rank == 1:
            atoms.append("A1")
        elif letter == "C" and rank == 2:
            atoms.append("B2")
        elif letter == "D" and rank == 1:
            atoms.append("A1")
        elif letter == "D" and rank == 2:
            atoms.extend(["A1", "A1"])
        elif letter == "D" and rank == 3:
            atoms.append("A3")
        else:
            atoms.append("%s%d" % (letter, rank))
    return tuple(sorted(atoms, key=split_label))


def type_equivalent(t1: str, t2: str) -> bool:
    return normalize_type(t1) == normalize_type(t2)


# --- invariant degrees ------------------------------------------------------------

_EXCEPTIONAL_DEGREES = {
    "G2": [2, 6],
    "F4": [2, 6, 8, 12],
    "E6": [2, 5, 6, 8, 9, 12],
    "E7": [2, 6, 8, 10, 12, 14, 18],
    "E8": [2, 8, 12, 14, 18, 20, 24, 30],
}


def invariant_degrees(label: str) -> List[int]:
    """Degrees of the basic Weyl-invariant polynomials for a type label."""
    out: List[int] = []
    for part in _atoms(label):
        if part in _EXCEPTIONAL_DEGREES:
            out.extend(_EXCEPTIONAL_DEGREES[part])
            continue
        letter, rank = split_label(part)
        if letter == "A":
            out.extend(range(2, rank + 2))
        elif letter in ("B", "C", "BC"):
            out.extend(range(2, 2 * rank + 1, 2))
        elif letter == "D":
            out.extend(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
        else:
            raise UnrecognizedDiagram("no degree table for %r" % part)
    return sorted(out)


def weyl_order_reference(label: str) -> int:
    out = 1
    for part in _atoms(label):
        if part == "G2":
            out *= 12
            continue
        if part == "F4":
            out *= 1152
            continue
        letter, rank = split_label(part)
        if letter == "A":
            out *= math.factorial(rank + 1)
        elif letter in ("B", "C", "BC"):
            out *= (2 ** rank) * math.factorial(rank)
        elif letter == "D":
            out *= (2 ** (rank - 1)) * math.factorial(rank)
        else:
            raise UnrecognizedDiagram("no Weyl order for %r" % part)
    return out


# --- Weyl group generation ----------------------------------------------------------

class WeylGroup:
    """A Weyl group enumerated as permutations of its roots, by length.

    `roots` holds every root in simple-root coordinates, simples first.  An
    element w is keyed by the bytes of the indices of w(a_1), ..., w(a_r);
    `keys` lists them in the order found, so element i has length l with
    sum(layers[:l]) <= i < sum(layers[:l + 1]).  `classes` holds one
    (representative matrix, count) per characteristic polynomial.
    """

    def __init__(self, roots: List[Tuple[int, ...]], keys: List[bytes],
                 layers: List[int],
                 classes: List[Tuple[Tuple[Tuple[int, ...], ...], int]]):
        self.roots, self.keys = roots, keys
        self.layers, self.classes = layers, classes

    def __len__(self) -> int:
        return len(self.keys)

    def matrix(self, key: bytes) -> Tuple[Tuple[int, ...], ...]:
        """Row x, column j: the coefficient of a_x in w(a_j)."""
        return tuple(zip(*(self.roots[i] for i in key)))


def weyl_group(simples: List[RootLabel], pair) -> WeylGroup:
    """The Weyl group of a simple system, by breadth-first search on length.

    The roots, and each s_i as a permutation of root indices, come from
    ``_reflection_closure``.  l(w s_i) = l(w) + 1 exactly when w(a_i) > 0
    (Humphreys 1.6-1.7), so layer l + 1 holds the new such products over
    layer l: an element's layer is its length.  Only a layer's full
    permutations are kept, as bytes (256 roots or more mean over 10^12
    elements, refused), and a product is first keyed by its r simple images.

    Each element is classed by its characteristic polynomial.  w is
    orthogonal, so det(tI - w) has e_(r-k) = det(w) e_k, and det(w) =
    (-1)^l(w) with tr w^k for k <= r/2 fixes it (Newton).  With u = w(a_i),
    w s_i = w - u <., a_i^v>, so tr(w s_i) = tr w - <u, a_i^v> and
    tr (w s_i)^2 = tr w^2 - 2 <w(u), a_i^v> + <u, a_i^v>^2; from rank 6 on,
    tr w^k sums the a_j-coordinates of w^k(a_j) along the permutation.
    """
    r = len(simples)
    roots, perms, pairings = _reflection_closure(cartan_matrix(simples, pair))
    gens = [(tuple(p), tuple(p[:r]), c) for p, c in zip(perms, pairings)]
    positive = [is_positive(b) for b in roots]
    if len(roots) > 255:
        raise ConstructionFailure("%d roots: W is too large to enumerate"
                                  % len(roots))
    ident = bytes(range(len(roots)))
    frontier = [(ident, r, r)]  # (w, tr w, tr w^2)
    seen = {ident[:r]: None}  # keys in the order found
    layers: List[int] = []
    classes: Dict[tuple, list] = {}
    while frontier:
        new, det = [], len(layers) % 2
        for w, tr1, tr2 in frontier:
            head, at = w[:r], w.__getitem__
            poly = (det, tr1, tr2)
            if r > 5:
                images = tuple(map(at, head))  # w^2(a_j)
                for _ in range(3, r // 2 + 1):
                    images = tuple(map(at, images))
                    poly += (sum(roots[i][j] for j, i in enumerate(images)),)
            classes.setdefault(poly, [head, 0])[1] += 1
            for u, (s, s_head, c) in zip(head, gens):
                if positive[u]:
                    key = bytes(map(at, s_head))
                    if key not in seen:
                        seen[key] = None
                        new.append((bytes(map(at, s)), tr1 - c[u],
                                    tr2 - 2 * c[at(u)] + c[u] ** 2))
        layers.append(len(frontier))
        frontier = new
    group = WeylGroup(roots, list(seen), layers, [])
    group.classes = [(group.matrix(k), n) for k, n in classes.values()]
    return group


def molien_series(group: WeylGroup, order: int) -> List[Fraction]:
    """(1/|W|) sum_w 1/det(I - tw), truncated to `order` terms.

    1/det(I - tw) depends on w only through det(tI - w), so one charpoly
    per class of `weyl_group`, times the class size, gives the same
    rational series term by term as the sum over every element.
    det(I - tw) has integer coefficients and constant term 1, so its inverse
    series is integral: the sum stays in ints, divided by |W| once.
    """
    total = [0] * order
    for rep, size in group.classes:
        p = la.charpoly_frac(rep)
        # det(I - tw) = t^r charpoly(1/t) with charpoly = det(tI - w)
        terms = [(j, int(c)) for j, c in enumerate(reversed(p)) if j and c]
        inv = [1]
        for k in range(1, order):
            inv.append(-sum(c * inv[k - j] for j, c in terms if j <= k))
        for k in range(order):
            total[k] += size * inv[k]
    return [Fraction(c, len(group)) for c in total]


def molien_degrees(group: WeylGroup, rank: int) -> List[int]:
    """Degrees of basic invariants from the Molien series of the group."""
    order = 4 * rank + 6
    degrees = []
    p = molien_series(group, order)
    for _ in range(rank):
        d = next((k for k in range(1, order) if p[k]), None)
        if d is None:
            raise ConstructionFailure("Molien series terminated early")
        degrees.append(d)
        # multiply by (1 - t^d)
        q = list(p)
        for k in range(order - 1, d - 1, -1):
            q[k] -= p[k - d]
        p = q
    if p[0] != 1 or any(p[1:]):
        raise ConstructionFailure("Molien series is not a product of %d factors"
                                  % rank)
    return degrees


def abstract_simple_system(label: str):
    """Standard-coordinate simple roots and pairing for one irreducible type."""
    letter, rank = split_label(label)
    if letter in ("A", "B", "BC", "C", "D"):
        # e_i - e_(i+1) on the standard basis, then the last root of B, C, D
        n = rank + 1 if letter == "A" else rank
        rows = [[(j == i) - (j == i + 1) for j in range(n)]
                for i in range(rank if letter == "A" else rank - 1)]
        last = {"A": {}, "C": {rank - 1: 2},
                "D": {rank - 2: 1, rank - 1: 1}}.get(letter, {rank - 1: 1})
        rows += [[last.get(j, 0) for j in range(n)]] if last else []
    elif label == "G2":
        rows = [(1, -1, 0), (-2, 1, 1)]
    elif label == "F4":
        h = Fraction(1, 2)
        rows = [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]
    else:
        raise UnrecognizedDiagram("no abstract coordinates for %r" % label)
    simples = [tuple(Fraction(x) for x in row) for row in rows]

    def pair(x, y):
        return sum((a * b for a, b in zip(x, y)), _F0)

    return simples, pair


# --- full root classification on a maximally split Cartan ----------------------------

class FullRootClassification:
    """The roots of g^C on the maximally split Cartan d = t + a.  The real
    and complex counts cost one centralizer per restricted root space, so
    they are computed on first read.  `t_basis` is a maximal torus of
    c_h(a)."""

    def __init__(self, root_data: RestrictedRootData, t_basis: List[tuple],
                 n_imaginary: int):
        self.root_data, self.t_basis = root_data, t_basis
        self.n_imaginary = n_imaginary

    @property
    def n_roots(self) -> int:
        return self.n_imaginary + sum(map(len, self.root_data.root_spaces.values()))

    @cached_property
    def n_real(self) -> int:
        """sum over the restricted roots lambda of dim c_{g_lambda}(t)."""
        S = self.root_data.structure
        return sum(len(S.centralizer_in_span(self.t_basis, vecs))
                   for vecs in self.root_data.root_spaces.values())

    @property
    def n_complex(self) -> int:
        return self.n_roots - self.n_imaginary - self.n_real

    def __repr__(self) -> str:
        return ("FullRootClassification(%s: %d imaginary, %d real, %d complex "
                "roots, dim t = %d)" % (self.root_data.structure.name,
                                        self.n_imaginary, self.n_real,
                                        self.n_complex, len(self.t_basis)))


def maximal_torus(structure: RealFormStructure,
                  span: Sequence[Sequence]) -> List[tuple]:
    """A maximal abelian subalgebra t of the subalgebra with basis `span`.

    Grown one element at a time: each step adds the first vector of
    c_span(t) outside span(t), which commutes with t, so t stays abelian,
    and the next centralizer is taken inside the last one; it stops when
    c_span(t) lies in t.
    """
    t: List[tuple] = []
    t_span = la.Subspace()
    z = list(span)
    while True:
        cand = next((v for v in z if t_span.add(v)), None)
        if cand is None:
            return t
        t.append(cand)
        z = structure.centralizer_in_span([cand], z)


def full_root_classification(root_data: RestrictedRootData
                             ) -> FullRootClassification:
    """Counts the roots of g^C on the maximally split Cartan d = t + a.

    t is a maximal torus of c_h(a).  Everything that commutes with d lies in
    c_g(a), so d is a Cartan subalgebra exactly when c_{c_g(a)}(t) has
    dim |t| + r; then each root space of d^C is a line, and the roots
    number dim g - rank g^C = dim g - |t| - r (Knapp, Lie Groups Beyond an
    Introduction, 2002, ch. VI).  A root is real (zero on t), complex
    (nonzero on both t and a) or imaginary (zero on a): n_im = dim c_g(a) -
    |t| - r, and the restricted root spaces hold the n_re + n_cx others,
    n_re = sum over the restricted roots lambda of dim c_{g_lambda}(t).
    """
    structure = root_data.structure
    t_basis = maximal_torus(structure, root_data.h_centralizer)
    cartan = len(t_basis) + structure.rank_a
    zero_dim = len(structure.centralizer_in_span(t_basis,
                                                 root_data.centralizer))
    if zero_dim != cartan:
        raise ConstructionFailure(
            "%s: d is not a Cartan subalgebra (centralizer dim %d)"
            % (structure.name, zero_dim))
    return FullRootClassification(root_data, t_basis,
                                  len(root_data.centralizer) - cartan)

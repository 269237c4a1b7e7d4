"""Restricted root systems, Weyl groups, and Cartan-type classification.

The restricted roots of (g, a) are the nonzero joint rational eigenvalue
functionals of ad on the chosen a-basis.  The joint eigenspaces come from
successive exact splitting by each a-unit H, at candidate eigenvalues read
from the n x n matrix of H: the differences of its eigenvalues on C^n
(``ad_spectrum_candidates``), so no dim x dim charpoly is formed.  Each split
(``linalg.eigen_split``) must fill the piece it splits, which proves that
the candidates held the whole spectrum, so multiplicities are exact.  The
same route splits ker ad(e) by ad(x).  The roots on a maximally split
Cartan d = t + a are not split out: the ad(a)-grading is computed once, and
each piece is counted by its centralizer of t (``full_root_classification``).
Classification goes through the Cartan matrix of a deterministic simple
system; type labels are canonical strings like ``B2`` or ``A1xA1``, compared
through the low-rank coincidences (B1 = C1 = A1, B2 = C2, D2 = A1 x A1,
D3 = A3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Sequence, Tuple

from . import linalg as la
from .algebra import RealFormStructure
from .errors import (ConstructionFailure, NonRationalSpectrum,
                     UnrecognizedDiagram)

_F0 = Fraction(0)

RootLabel = Tuple[Fraction, ...]


def ad_spectrum_candidates(structure: RealFormStructure, coords: Sequence
                           ) -> List[Fraction]:
    """The differences mu_j - mu_k of the eigenvalues of X on C^n, sorted.

    X is the element with coordinates `coords`.  ad(X) on gl(n, C) has
    these eigenvalues, so they are the candidates an eigenspace split of g^C
    by ad(X) needs; where g is complex, g^C also holds a conjugate copy of g,
    on which the elements split here have the conjugate or negated
    differences, again in the set.  Raises NonRationalSpectrum unless the
    n x n charpoly splits over Q.
    """
    m = structure.matrix_of(coords)
    try:
        mus = la.rational_roots([c.as_fraction() for c in la.charpoly(m)])
    except ValueError:  # a coefficient outside Q
        mus = None
    if mus is None:
        raise NonRationalSpectrum("%s: spectrum on C^%d does not split over Q"
                                  % (structure.name, structure.n))
    mus = set(mus)
    return sorted({a - b for a in mus for b in mus})


@dataclass
class RestrictedRootData:
    structure: RealFormStructure
    root_spaces: Dict[RootLabel, List[list]]
    centralizer: List[list]  # basis of c_g(a), rational Scalar coordinates

    @property
    def rank(self) -> int:
        return self.structure.rank_a


def restricted_roots(structure: RealFormStructure) -> RestrictedRootData:
    """Joint ad(a)-eigenvalue decomposition of g.  Raises NonRationalSpectrum
    unless each split fills its piece: the candidates held the spectrum."""
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
    if not root_spaces:
        raise ConstructionFailure("%s: no restricted roots" % structure.name)
    return RestrictedRootData(structure, root_spaces, central)


# --- positivity, simple systems, reduced system -------------------------------

def is_positive(lam: RootLabel) -> bool:
    for v in lam:
        if v:
            return v > 0
    return False


def positive_roots(data: RestrictedRootData) -> List[RootLabel]:
    return sorted(lam for lam in data.root_spaces if is_positive(lam))


def simple_system(data: RestrictedRootData) -> List[RootLabel]:
    """Indecomposable positive roots, in lexicographic order."""
    pos = positive_roots(data)
    pos_set = set(pos)
    simples = []
    for lam in pos:
        decomposable = False
        for mu in pos:
            if mu == lam:
                continue
            rest = tuple(a - b for a, b in zip(lam, mu))
            if rest in pos_set:
                decomposable = True
                break
        if not decomposable:
            simples.append(lam)
    return simples


def reduced_system(data: RestrictedRootData) -> List[RootLabel]:
    """Roots lam with lam/2 not a root (the system of the split subalgebra)."""
    all_roots = set(data.root_spaces)
    out = []
    for lam in all_roots:
        half = tuple(v / 2 for v in lam)
        if half not in all_roots:
            out.append(lam)
    return sorted(out)


def is_nonreduced(data: RestrictedRootData) -> bool:
    all_roots = set(data.root_spaces)
    return any(tuple(2 * v for v in lam) in all_roots for lam in all_roots)


# --- inner products on root space ----------------------------------------------

def a_gram(structure: RealFormStructure) -> List[list]:
    return [[structure.gram[i][j] for j in structure.a_indices]
            for i in structure.a_indices]


def root_pairing(structure: RealFormStructure):
    """Returns pair(lam, mu) = B(t_lam, t_mu) via B-duality on a."""
    gram = a_gram(structure)
    r = len(gram)
    dual_cache: Dict[RootLabel, List[Fraction]] = {}

    def dual(lam: RootLabel) -> List[Fraction]:
        got = dual_cache.get(lam)
        if got is None:
            got = la.solve_right(gram, list(lam))
            if got is None:
                raise ConstructionFailure("degenerate form on a")
            got = dual_cache[lam] = [c.as_fraction() for c in got]
        return got

    def pair(lam: RootLabel, mu: RootLabel) -> Fraction:
        dm = dual(mu)
        return sum((lv * dv for lv, dv in zip(lam, dm)), _F0)

    return pair


def cartan_matrix(simples: List[RootLabel], pair) -> List[List[Fraction]]:
    """Entries n_ij = 2 (a_i, a_j) / (a_j, a_j); must be integral."""
    r = len(simples)
    out = [[_F0] * r for _ in range(r)]
    for j in range(r):
        dj = pair(simples[j], simples[j])
        if dj <= 0:
            raise ConstructionFailure("simple root with nonpositive norm")
        for i in range(r):
            v = 2 * pair(simples[i], simples[j]) / dj
            if v.denominator != 1:
                raise UnrecognizedDiagram("non-integral Cartan matrix entry %s" % v)
            out[i][j] = v
    return out


# --- Dynkin classification ------------------------------------------------------

def _components(adj: List[List[int]]) -> List[List[int]]:
    n = len(adj)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if adj[v][w] and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _classify_component(idxs: List[int], cart: List[List[Fraction]],
                        norms: List[Fraction]) -> str:
    r = len(idxs)
    if r == 1:
        return "A1"
    bond = {}
    triple = double = 0
    for x in range(r):
        for y in range(x + 1, r):
            i, j = idxs[x], idxs[y]
            b = int(cart[i][j] * cart[j][i])
            bond[(x, y)] = b
            if b == 3:
                triple += 1
            elif b == 2:
                double += 1
            elif b not in (0, 1):
                raise UnrecognizedDiagram("bond multiplicity %d" % b)
    if triple:
        if r == 2 and triple == 1 and double == 0:
            return "G2"
        raise UnrecognizedDiagram("triple bond in rank %d diagram" % r)
    deg = [0] * r
    for (x, y), b in bond.items():
        if b:
            deg[x] += 1
            deg[y] += 1
    if double:
        if double > 1 or any(d > 2 for d in deg):
            raise UnrecognizedDiagram("bad doubly-laced diagram")
        if r == 2:
            return "B2"
        ns = [norms[i] for i in idxs]
        top = max(ns)
        nshort = sum(1 for v in ns if v < top)
        nlong = r - nshort
        if nshort == nlong == 2 and r == 4:
            return "F4"
        if nshort == 1:
            return "B%d" % r
        if nlong == 1:
            return "C%d" % r
        raise UnrecognizedDiagram("doubly-laced diagram with %d short roots" % nshort)
    branch = [x for x in range(r) if deg[x] == 3]
    if any(d > 3 for d in deg):
        raise UnrecognizedDiagram("vertex of degree > 3")
    if not branch:
        return "A%d" % r
    if len(branch) > 1:
        raise UnrecognizedDiagram("more than one branch vertex")
    b = branch[0]
    # arm lengths from the branch vertex
    arms = []
    for start in (x for x in range(r) if bond.get((min(b, x), max(b, x)), 0)):
        length = 1
        prev, cur = b, start
        while True:
            nxt = [y for y in range(r)
                   if y != prev and bond.get((min(cur, y), max(cur, y)), 0)]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return "D%d" % r
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise UnrecognizedDiagram("branched diagram with arms %s" % arms)


def classify_simples(simples: List[RootLabel], pair) -> str:
    """Canonical type label of the (reduced) system generated by the simples."""
    if not simples:
        return ""
    cart = cartan_matrix(simples, pair)
    r = len(simples)
    adj = [[1 if (i != j and cart[i][j]) else 0 for j in range(r)]
           for i in range(r)]
    norms = [pair(s, s) for s in simples]
    labels = [_classify_component(c, cart, norms) for c in _components(adj)]
    return "x".join(sorted(labels, key=split_label))


def classify_type(data: RestrictedRootData) -> Tuple[str, str]:
    """(type of the full restricted system Lambda, type of the reduced system).

    A non-reduced irreducible system is labeled BC_r; its reduced companion
    keeps the Cartan-matrix label of the simple system.
    """
    pair = root_pairing(data.structure)
    simples = simple_system(data)
    reduced_label = classify_simples(simples, pair)
    if is_nonreduced(data):
        # the simple system of BC_r has the B_r Cartan matrix (A1 when r = 1)
        if reduced_label == "A1":
            lam_label = "BC1"
        elif "x" not in reduced_label and reduced_label.startswith("B"):
            lam_label = "BC" + reduced_label[1:]
        else:
            raise UnrecognizedDiagram(
                "non-reduced system with reduced type %s" % reduced_label)
    else:
        lam_label = reduced_label
    return lam_label, reduced_label


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

def weyl_group(simples: List[RootLabel], pair) -> List[Tuple[Tuple[int, ...], ...]]:
    """All Weyl elements as integer matrices in the simple-root basis.

    Row r, column j: coefficient of simple root r in the image of simple
    root j.  Generated by breadth-first closure over the simple reflections.
    s_i differs from the identity only in row i, so s_i w is w with row i
    replaced by sum_k (s_i)_{ik} w_k over the nonzero entries of that row.
    """
    r = len(simples)
    cart = cartan_matrix(simples, pair)
    # row i of s_i: s_i(a_j) = a_j - n(j, i) a_i with
    # n(j, i) = 2(a_j, a_i)/(a_i, a_i)
    gens = []
    for i in range(r):
        row = [(1 if j == i else 0) - int(cart[j][i]) for j in range(r)]
        gens.append((i, [(k, c) for k, c in enumerate(row) if c]))
    ident = tuple(tuple(1 if x == y else 0 for y in range(r)) for x in range(r))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for i, terms in gens:
                row = [0] * r
                for k, c in terms:
                    for y, e in enumerate(w[k]):
                        row[y] += c * e
                prod = w[:i] + (tuple(row),) + w[i + 1:]
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return sorted(seen)


def _power_traces(w: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """(tr w, tr w^2, ..., tr w^r) of an r x r integer matrix.

    tr w^(a+b) = sum_ij (w^a)_ij (w^b)_ji, so the powers up to w^ceil(r/2)
    give every trace.  Each power is a flat row-major list of ints, and
    every entry and trace is one dot product of two flat slices.
    """
    r = len(w)
    flat = [e for row in w for e in row]
    cols = [flat[j::r] for j in range(r)]
    powers = [flat]  # powers[a - 1] = w^a
    while 2 * len(powers) < r:
        p = powers[-1]
        powers.append([sum(map(mul, p[i:i + r], col))
                       for i in range(0, r * r, r) for col in cols])
    # the column-major lists of the powers: their transposes, flat
    transposed = [[x for j in range(r) for x in p[j::r]] for p in powers]
    out = [sum(flat[::r + 1])]
    for k in range(2, r + 1):
        out.append(sum(map(mul, powers[(k + 1) // 2 - 1],
                           transposed[k // 2 - 1])))
    return tuple(out)


def molien_series(wmats: Sequence[Tuple[Tuple[int, ...], ...]],
                  order: int) -> List[Fraction]:
    """(1/|W|) sum_w 1/det(I - tw), truncated to `order` terms.

    1/det(I - tw) depends on w only through det(tI - w).  Over Q, Newton's
    identities make the power sums tr w^k, k = 1..r, determine det(tI - w).
    So the elements are grouped by those integer traces, and one charpoly
    per group, times the group's size, gives the same rational series term
    by term as the sum over every element.  det(I - tw) has integer
    coefficients and constant term 1, so its inverse series is integral:
    the sum stays in ints, divided by |W| once at the end.
    """
    groups: Dict[Tuple[int, ...], list] = {}
    for w in wmats:
        groups.setdefault(_power_traces(w), []).append(w)
    total = [0] * order
    for members in groups.values():
        p = la.charpoly_frac(members[0])
        # det(I - tw) = t^r charpoly(1/t) with charpoly = det(tI - w)
        terms = [(j, int(c)) for j, c in enumerate(reversed(p)) if j and c]
        inv = [1]
        for k in range(1, order):
            inv.append(-sum(c * inv[k - j] for j, c in terms if j <= k))
        size = len(members)
        for k in range(order):
            total[k] += size * inv[k]
    return [Fraction(c, len(wmats)) for c in total]


def molien_degrees(wmats: Sequence[Tuple[Tuple[int, ...], ...]],
                   rank: int) -> List[int]:
    """Degrees of basic invariants from the Molien series of the group."""
    order = 4 * rank + 6
    degrees = []
    p = molien_series(wmats, order)
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

@dataclass
class FullRootClassification:
    structure: RealFormStructure
    t_basis: List[tuple]  # toral completion inside c_h(a)
    n_imaginary: int
    n_real: int
    n_complex: int

    @property
    def n_roots(self) -> int:
        return self.n_imaginary + self.n_real + self.n_complex


def maximal_torus(structure: RealFormStructure,
                  commuting: Sequence[Sequence]) -> List[tuple]:
    """A maximal abelian subalgebra t of the centralizer of `commuting` in h.

    Grown by centralizer passes: each pass adds the first element of
    c_h(t + commuting) outside span(t), which commutes with t, so t stays
    abelian; it stops when every such element already lies in t.
    """
    t: List[tuple] = []
    span = la.Subspace()
    while True:
        z = structure.centralizer_frac(t + list(commuting),
                                       within=structure.h_indices)
        cand = next((v for v in z if span.add(v)), None)
        if cand is None:
            return t
        t.append(cand)


def full_root_classification(structure: RealFormStructure,
                             root_data: RestrictedRootData
                             ) -> FullRootClassification:
    """Counts the roots of g^C on the maximally split Cartan d = t + a.

    `root_data` is the restricted root decomposition of `structure`, and t
    is a maximal torus of c_h(a).  Everything that commutes with d lies in
    c_g(a), so d is a Cartan subalgebra exactly when c_{c_g(a)}(t) has
    dim |t| + r; then each root space of d^C is a line, and the roots are
    counted by dimension.  A root is real (zero on t), complex (nonzero on
    both t and a) or imaginary (zero on a), so n_re = sum over the restricted
    roots lambda of dim c_{g_lambda}(t), n_cx = sum of dim g_lambda - n_re,
    and n_im = dim c_g(a) - |t| - r: one rational centralizer per piece,
    with no eigenvalue of ad(t) formed.
    """
    r = structure.rank_a
    a_units = [structure.unit_coords(i) for i in structure.a_indices]
    t_basis = maximal_torus(structure, a_units)
    cartan = len(t_basis) + r
    zero_dim = len(structure.centralizer_in_span(t_basis,
                                                 root_data.centralizer))
    if zero_dim != cartan:
        raise ConstructionFailure(
            "%s: d is not a Cartan subalgebra (centralizer dim %d)"
            % (structure.name, zero_dim))
    n_re = n_all = 0
    for vecs in root_data.root_spaces.values():
        n_re += len(structure.centralizer_in_span(t_basis, vecs))
        n_all += len(vecs)
    n_im = len(root_data.centralizer) - cartan
    return FullRootClassification(structure, t_basis, n_im, n_re,
                                  n_all - n_re)

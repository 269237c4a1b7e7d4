"""Restricted root systems, diagram classification, Weyl-group oracles."""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from hkr import dimensions as dm
from hkr import linalg as la
from hkr import roots as rt
from hkr.catalog import (build, form_id, standard_forms, form_display,
                         form_cli_text, parse_form, lookup_table1,
                         algebra_label_dim,
                         reference_restricted_type)
from hkr.errors import (ConstructionFailure, NonRationalSpectrum,
                        UnrecognizedDiagram)
from hkr.scalars import I, Scalar
from hkr.verify import _ORACLE_LABELS
from test_linalg import faddeev_leverrier


def data_for(family, **kw):
    return rt.restricted_roots(build(form_id(family, **kw)))


def c_h_of_a(S):
    """c_h(a), taken inside the span of the h units, apart from the root
    data's route through c_g(a)."""
    return S.centralizer_in_span([S.unit_coords(i) for i in S.a_indices],
                                 [S.unit_coords(i) for i in S.h_indices])


def test_su12_is_bc1_with_multiplicities():
    data = data_for("su_pq", p=1, q=2)
    assert data.structure.rank_a == 1
    roots = data.root_spaces
    assert len(roots) == 4  # +-lam, +-2lam
    lam = min(r for r in roots if rt.is_positive(r))
    two_lam = tuple(2 * v for v in lam)
    assert two_lam in roots
    assert len(roots[lam]) == 2
    assert len(roots[two_lam]) == 1
    assert rt.is_nonreduced(data)
    assert rt.classify_type(data) == ("BC1", "A1")


def test_so33_roots_all_multiplicity_one():
    data = data_for("so_pq", p=3, q=3)
    assert len(data.root_spaces) == 12
    assert all(len(vecs) == 1 for vecs in data.root_spaces.values())
    assert not rt.is_nonreduced(data)
    lam, red = rt.classify_type(data)
    assert rt.type_equivalent(lam, "D3")
    assert rt.type_equivalent(lam, "A3")


def test_root_spaces_exhaust_dimension():
    for family, kw in ((("su_pq"), dict(p=2, q=2)),
                       (("sp_pq"), dict(p=1, q=2)),
                       (("so_star"), dict(n=4))):
        S = build(form_id(family, **kw))
        data = rt.restricted_roots(S)
        total = sum(len(vecs) for vecs in data.root_spaces.values())
        assert total + len(data.centralizer) == S.dim


def test_classification_matches_reference_for_all_forms():
    for fid in standard_forms():
        data = rt.restricted_roots(build(fid))
        lam, red = rt.classify_type(data)
        assert rt.type_equivalent(lam, reference_restricted_type(fid)), \
            form_display(fid)
        assert rt.type_equivalent(red, lookup_table1(fid).reduced_type), \
            form_display(fid)
        # the rank is the one the table's type carries
        want = int(reference_restricted_type(fid).lstrip("ABCD"))
        assert data.structure.rank_a == want


def test_simple_system_size_equals_rank():
    for family, kw in ((("sl_R"), dict(n=4)), (("su_pq"), dict(p=2, q=3))):
        data = data_for(family, **kw)
        simples = data.simples
        assert len(simples) == data.structure.rank_a
        # every positive root is a nonnegative integer combination check is
        # heavy; sanity: simples are positive and pairwise non-proportional
        assert all(rt.is_positive(s) for s in simples)


def test_reduced_system_drops_doubled_roots():
    data = data_for("su_pq", p=1, q=3)
    reduced = rt.reduced_system(data)
    assert len(reduced) == 2  # just +-lam for BC1
    for lam in reduced:
        assert tuple(v / 2 for v in lam) not in data.root_spaces


def test_type_equivalence_relations():
    assert rt.type_equivalent("B2", "C2")
    assert rt.type_equivalent("A3", "D3")
    assert rt.type_equivalent("A1", "C1")
    assert rt.type_equivalent("D2", "A1xA1")
    assert not rt.type_equivalent("B3", "C3")
    assert not rt.type_equivalent("A2", "B2")


def test_invariant_degrees_tables():
    assert rt.invariant_degrees("A1") == [2]
    assert rt.invariant_degrees("A2") == [2, 3]
    assert rt.invariant_degrees("A3") == [2, 3, 4]
    assert rt.invariant_degrees("B2") == [2, 4]
    assert rt.invariant_degrees("C3") == [2, 4, 6]
    assert rt.invariant_degrees("BC2") == [2, 4]
    assert rt.invariant_degrees("D4") == [2, 4, 4, 6]
    assert rt.invariant_degrees("G2") == [2, 6]
    assert rt.invariant_degrees("F4") == [2, 6, 8, 12]


def test_weyl_group_b3_order_48():
    simples, pair = rt.abstract_simple_system("B3")
    w = rt.weyl_group(simples, pair)
    assert len(w) == 48
    assert rt.weyl_order_reference("B3") == 48


def test_weyl_orders():
    assert rt.weyl_order_reference("A2") == 6
    assert rt.weyl_order_reference("C4") == 384
    assert rt.weyl_order_reference("D4") == 192
    assert rt.weyl_order_reference("G2") == 12
    assert rt.weyl_order_reference("F4") == 1152


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "B3", "C3", "G2"])
def test_molien_degrees_match_invariant_degrees(label):
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    assert len(w) == rt.weyl_order_reference(label)
    rank = len(simples)
    assert rt.molien_degrees(w, rank) == rt.invariant_degrees(label)


def _full_product_weyl_group(simples, pair):
    """Reference closure: every product s_i w as a full r x r matrix product."""
    r = len(simples)
    cart = rt.cartan_matrix(simples, pair)
    gens = []
    for i in range(r):
        m = [[1 if x == y else 0 for y in range(r)] for x in range(r)]
        for j in range(r):
            m[i][j] -= int(cart[j][i])
        gens.append(tuple(tuple(row) for row in m))
    ident = tuple(tuple(1 if x == y else 0 for y in range(r)) for x in range(r))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                prod = tuple(
                    tuple(sum(g[x][k] * w[k][y] for k in range(r))
                          for y in range(r))
                    for x in range(r))
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return sorted(seen)


def _matrices(group):
    """Every element of a WeylGroup as its integer matrix, in BFS order."""
    return [group.matrix(key) for key in group.keys]


def _poly_inv_trunc(a, order):
    """Power series inverse of a with a[0] != 0, to the given order."""
    inv0 = 1 / a[0]
    out = [Fraction(0)] * order
    out[0] = inv0
    for k in range(1, order):
        acc = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _per_element_molien_series(wmats, order):
    """Reference sum over Fractions: one Faddeev-LeVerrier charpoly and one
    series inverse per element."""
    total = [Fraction(0)] * order
    for w in wmats:
        p = faddeev_leverrier([[Fraction(e) for e in row] for row in w],
                              Fraction(0), Fraction(1))
        inv = _poly_inv_trunc(list(reversed(p)), order)
        for k in range(order):
            total[k] += inv[k]
    n = Fraction(len(wmats))
    return [c / n for c in total]


@pytest.mark.parametrize("label", _ORACLE_LABELS)
def test_weyl_group_matches_full_product_closure(label):
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    assert len(set(w.keys)) == len(w)
    assert sorted(_matrices(w)) == _full_product_weyl_group(simples, pair)


@pytest.mark.parametrize("label", _ORACLE_LABELS)
def test_molien_series_matches_per_element_sum(label):
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    order = 4 * len(simples) + 6
    assert rt.molien_series(w, order) == \
        _per_element_molien_series(_matrices(w), order)


def test_molien_series_takes_one_charpoly_per_polynomial(monkeypatch):
    simples, pair = rt.abstract_simple_system("F4")
    w = rt.weyl_group(simples, pair)
    distinct = {tuple(la.charpoly_frac([[Fraction(e) for e in row]
                                        for row in x])) for x in _matrices(w)}
    calls = []
    real = la.charpoly_frac
    monkeypatch.setattr(la, "charpoly_frac",
                        lambda a: calls.append(a) or real(a))
    rt.molien_series(w, 22)
    assert len(w) == 1152
    assert len(calls) == len(distinct) == 17


@pytest.mark.parametrize("label", [x for x in _ORACLE_LABELS
                                   if not x.startswith("BC")])
def test_each_class_is_one_characteristic_polynomial(label):
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    per_element = Counter(tuple(la.charpoly_frac(m)) for m in _matrices(w))
    per_class = {tuple(la.charpoly_frac(rep)): n for rep, n in w.classes}
    assert per_class == per_element


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_a6_classes_are_the_cycle_types():
    # W(A6) = S7 on the sum-zero hyperplane: cycle type lam has 7!/z_lam
    # elements and charpoly prod_l (t^l - 1) / (t - 1)
    simples, pair = rt.abstract_simple_system("A6")
    w = rt.weyl_group(simples, pair)
    want = {}
    for lam in _partitions(7):
        poly = [1]  # highest degree first
        for part in lam:
            factor = [1] + [0] * (part - 1) + [-1]
            poly = [sum(poly[i] * factor[k - i] for i in range(len(poly))
                        if 0 <= k - i < len(factor))
                    for k in range(len(poly) + part)]
        quotient = [poly[0]]  # divided by t - 1
        for c in poly[1:-1]:
            quotient.append(c + quotient[-1])
        z = math.prod(lam) * math.prod(math.factorial(lam.count(part))
                                       for part in set(lam))
        # charpoly_frac lists the constant term first
        want[tuple(reversed(quotient))] = math.factorial(7) // z
    got = {tuple(la.charpoly_frac(rep)): n for rep, n in w.classes}
    assert len(w) == 5040 and len(want) == 15
    assert got == want
    assert rt.molien_degrees(w, 6) == rt.invariant_degrees("A6")


def test_d6_classes_read_tr_w_cubed():
    # at rank 6, det w and tr w, tr w^2 leave classes of D6 merged
    simples, pair = rt.abstract_simple_system("D6")
    w = rt.weyl_group(simples, pair)
    assert len(w) == rt.weyl_order_reference("D6") == 23040
    assert rt.molien_degrees(w, 6) == rt.invariant_degrees("D6")


_ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "A4": 20, "B2": 8, "B3": 18,
                "B4": 32, "C3": 18, "C4": 32, "D4": 24, "G2": 12, "F4": 48}


@pytest.mark.parametrize("label", sorted(_ROOT_COUNTS))
def test_weyl_group_closes_the_root_system(label):
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    r = len(simples)
    assert len(set(w.roots)) == len(w.roots) == _ROOT_COUNTS[label]
    assert w.roots[:r] == [tuple(int(x == j) for x in range(r))
                           for j in range(r)]
    assert {tuple(-c for c in b) for b in w.roots} == set(w.roots)


def test_weyl_group_refuses_256_roots_or_more():
    # A16 has 272 roots and 17! elements
    simples, pair = rt.abstract_simple_system("A16")
    with pytest.raises(ConstructionFailure,
                       match="^272 roots: W is too large to enumerate$"):
        rt.weyl_group(simples, pair)


def test_a3_layers_count_the_elements_by_length():
    simples, pair = rt.abstract_simple_system("A3")
    assert rt.weyl_group(simples, pair).layers == [1, 3, 5, 6, 5, 3, 1]


def _permutation(group, key):
    """w as a list of root indices: w(b) = sum_j b_j w(a_j)."""
    m = group.matrix(key)
    index = {b: k for k, b in enumerate(group.roots)}
    return [index[tuple(sum(row[j] * b[j] for j in range(len(b)))
                        for row in m)] for b in group.roots]


@pytest.mark.parametrize("label", ["B3", "F4"])
def test_layer_is_the_inversion_count(label):
    # l(w) = #{b > 0 : w(b) < 0} (Humphreys 1.7)
    simples, pair = rt.abstract_simple_system(label)
    w = rt.weyl_group(simples, pair)
    positive = [min(b) >= 0 for b in w.roots]
    lengths = [length for length, size in enumerate(w.layers)
               for _ in range(size)]
    assert len(lengths) == len(w.keys)
    for key, length in zip(w.keys, lengths):
        perm = _permutation(w, key)
        assert perm[:len(simples)] == list(key)
        assert sum(1 for b, image in enumerate(perm)
                   if positive[b] and not positive[image]) == length


def test_cartan_matrix_b2():
    simples, pair = rt.abstract_simple_system("B2")
    cart = rt.cartan_matrix(simples, pair)
    assert cart[0][0] == 2 and cart[1][1] == 2
    assert {cart[0][1], cart[1][0]} == {Fraction(-1), Fraction(-2)}


def test_cartan_matrix_pairs_each_unordered_pair_once():
    simples, pair = rt.abstract_simple_system("F4")
    calls = []

    def counting(lam, mu):
        calls.append(frozenset((lam, mu)))
        return pair(lam, mu)

    rt.cartan_matrix(simples, counting)
    assert len(calls) == 4 * 5 // 2
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("label", _ORACLE_LABELS)
def test_cartan_matrix_is_2_a_i_a_j_over_a_j_a_j(label):
    simples, pair = rt.abstract_simple_system(label)
    assert rt.cartan_matrix(simples, pair) == [
        [2 * pair(a, b) / pair(b, b) for b in simples] for a in simples]


@pytest.mark.parametrize("gram, error", [
    # column 0 holds 2/3 before column 1 reaches its zero norm
    ([[3, 1], [1, 0]], UnrecognizedDiagram),
    # column 0 is integral, so column 1's norm -1 raises
    ([[2, 1], [1, -1]], ConstructionFailure),
])
def test_cartan_matrix_raises_column_by_column(gram, error):
    with pytest.raises(error):
        rt.cartan_matrix([0, 1], lambda a, b: Fraction(gram[a][b]))


def test_unrecognized_diagrams_are_typed():
    with pytest.raises(UnrecognizedDiagram, match="no degree table for 'X2'"):
        rt.invariant_degrees("X2")
    with pytest.raises(UnrecognizedDiagram, match="^no Weyl order for 'E6'$"):
        rt.weyl_order_reference("E6")
    with pytest.raises(UnrecognizedDiagram,
                       match="^no abstract coordinates for 'E6'$"):
        rt.abstract_simple_system("E6")

    def dot(x, y):
        return sum((a * b for a, b in zip(x, y)), Fraction(0))

    # 2 (a_1, a_2) / (a_1, a_1) = 6/9 for a_1 = (3, 0), a_2 = (1, 1)
    simples = [(Fraction(3), Fraction(0)), (Fraction(1), Fraction(1))]
    with pytest.raises(UnrecognizedDiagram,
                       match="non-integral Cartan matrix entry 2/3"):
        rt.classify_simples(simples, dot)


# --- classification by root count, on inputs built by hand -------------------

def _gram_system(gram):
    """Simples 0, ..., r - 1 paired by the Gram matrix `gram`."""
    return list(range(len(gram))), lambda a, b: Fraction(gram[a][b])


def _path(r):
    """The Cartan matrix of A_r: a path of r nodes."""
    return [[2 if i == j else -int(abs(i - j) == 1) for j in range(r)]
            for i in range(r)]


def _branched(*arms):
    """The symmetric Cartan matrix of a tree: node 0, and from it one path
    per arm length."""
    r = 1 + sum(arms)
    gram = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    node = 1
    for length in arms:
        for k in range(length):
            prev = 0 if k == 0 else node - 1
            gram[prev][node] = gram[node][prev] = -1
            node += 1
    return gram


def _blocks(*grams):
    """The block-diagonal matrix of `grams`: the product of their types."""
    r = sum(map(len, grams))
    out: list = []
    for g in grams:
        k = len(out)
        out += [[0] * k + row + [0] * (r - k - len(row)) for row in g]
    return out


_BY_COORDINATES = dict(
    {label: label for label in (
        "A1 A2 A3 A4 A5 A6 A7 A8 B2 B3 B4 B5 B6 B7 B8 C3 C4 C5 C6 C7 C8 "
        "G2 F4").split()},
    C2="B2", D3="A3")

_BY_GRAM = {
    "D4": _branched(1, 1, 1), "D5": _branched(1, 1, 2),
    "D6": _branched(1, 1, 3), "D7": _branched(1, 1, 4),
    "D8": _branched(1, 1, 5),
    "E6": _branched(1, 2, 2), "E7": _branched(1, 2, 3),
    "E8": _branched(1, 2, 4),
    "A1xE8": _blocks(_path(1), _branched(1, 2, 4)),
    "A1xA2xE6": _blocks(_path(1), _path(2), _branched(1, 2, 2)),
    "D4xD4": _blocks(_branched(1, 1, 1), _branched(1, 1, 1)),
}


@pytest.mark.parametrize("label", sorted(_BY_COORDINATES))
def test_classify_simples_on_standard_coordinates(label):
    simples, pair = rt.abstract_simple_system(label)
    assert rt.classify_simples(simples, pair) == _BY_COORDINATES[label]


@pytest.mark.parametrize("want", sorted(_BY_GRAM))
def test_classify_simples_on_a_symmetric_cartan_matrix(want):
    assert rt.classify_simples(*_gram_system(_BY_GRAM[want])) == want


@pytest.mark.parametrize("label", sorted(set(_BY_COORDINATES) - {"C2"}
                                         | {"E6", "E7", "E8"}
                                         | {"D%d" % r for r in range(4, 9)}))
def test_component_label_counts_agree_with_the_degree_table(label):
    # |Phi| = 2 sum(d_i - 1) over the degrees (Humphreys, Reflection Groups
    # and Coxeter Groups, 3.9); the short simples are read off the diagrams
    letter, rank = rt.split_label(label)
    n_short = {"B": 1, "C": rank - 1, "F": 2, "G": 1}.get(letter, 0)
    n_roots = 2 * sum(d - 1 for d in rt.invariant_degrees(label))
    want = "A3" if label == "D3" else label
    assert rt._component_label(rank, n_roots, n_short) == want


@pytest.mark.parametrize("gram, bound", [
    ([[2, -2], [-2, 2]], 248),  # affine A1
    ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 258),  # affine A2
])
@pytest.mark.parametrize("reader", [rt.classify_simples, rt.weyl_group],
                         ids=["classify_simples", "weyl_group"])
def test_an_affine_cartan_matrix_is_refused(reader, gram, bound):
    # its closure has no end; 2r^2 + 240 roots are more than any finite
    # system of rank r holds
    t0 = time.perf_counter()
    with pytest.raises(UnrecognizedDiagram,
                       match=r"^more than %d roots: the Cartan matrix is not "
                             r"of finite type$" % bound):
        reader(*_gram_system(gram))
    assert time.perf_counter() - t0 < 1


def test_full_root_classification_counts():
    # sl(2,C): complexification is two sl2 factors swapped by conjugation,
    # so all four roots are complex
    S = build(form_id("sl_C_as_real", n=2))
    fc = rt.full_root_classification(rt.restricted_roots(S))
    assert len(fc.t_basis) + S.rank_a == 2  # dim of the Cartan d = t + a
    assert fc.n_roots == 4
    assert fc.n_complex == 4
    assert fc.n_real == fc.n_imaginary == 0
    # split form: every root is real, t = 0
    S = build(form_id("sl_R", n=3))
    fc = rt.full_root_classification(rt.restricted_roots(S))
    assert fc.t_basis == []
    assert fc.n_real == fc.n_roots == 6
    assert fc.n_imaginary == fc.n_complex == 0


def test_real_and_complex_counts_wait_until_read(monkeypatch):
    # num_roots is dim g - |t| - r once d is a Cartan subalgebra; the real
    # count costs one centralizer per restricted root space, on first read
    S = build(form_id("su_pq", p=1, q=2))
    data = rt.restricted_roots(S)
    calls = []
    original = type(S).centralizer_in_span

    def counting(self, elements, space):
        calls.append(len(space))
        return original(self, elements, space)

    monkeypatch.setattr(type(S), "centralizer_in_span", counting)
    fc = rt.full_root_classification(data)
    built = len(calls)
    assert fc.n_roots == S.dim - len(fc.t_basis) - S.rank_a == 6
    assert len(calls) == built
    assert (fc.n_real, fc.n_complex) == (2, 4)
    assert len(calls) == built + len(data.root_spaces)
    assert (fc.n_real, fc.n_complex) == (2, 4)
    assert len(calls) == built + len(data.root_spaces)
    assert repr(fc) == ("FullRootClassification(su(1,2): 0 imaginary, 2 real, "
                        "4 complex roots, dim t = 1)")


def test_root_datum_derives_each_fact_once(monkeypatch):
    S = build(form_id("so_star", n=4))
    data = rt.restricted_roots(S)
    solves = []
    original = la.solve_right

    def counting(rows, b):
        solves.append(tuple(b))
        return original(rows, b)

    monkeypatch.setattr(la, "solve_right", counting)
    assert data.simples is data.simples
    assert rt.classify_type(data) is rt.classify_type(data)
    pair = data.pairing
    for lam in data.simples:
        assert pair.dual(lam) is pair.dual(lam)
    # one solve per simple root, shared by the type and the duals
    assert sorted(solves) == sorted(data.simples)
    assert data.h_centralizer is data.h_centralizer
    assert len(data.h_centralizer) == len(c_h_of_a(S))


def test_maximal_torus_grows_inside_the_given_span():
    # a maximal torus of h for sl(3,R) is one-dimensional (so(3) has rank
    # one); inside c_h(a) = 0 it is empty
    S = build(form_id("sl_R", n=3))
    h_units = [S.unit_coords(i) for i in S.h_indices]
    t = rt.maximal_torus(S, h_units)
    assert len(t) == 1
    assert len(S.centralizer_in_span(t, h_units)) == 1
    assert rt.maximal_torus(S, []) == []
    S = build(form_id("su_pq", p=1, q=3))
    span = c_h_of_a(S)
    t = rt.maximal_torus(S, span)
    assert all(not any(S.bracket_coords(x, y)) for x in t for y in t)
    assert len(S.centralizer_in_span(t, span)) == len(t) == 2


def test_ad_a_acts_on_its_root_space_by_the_root_value():
    S = build(form_id("sl_R", n=2))
    data = rt.restricted_roots(S)
    lam = max(data.root_spaces)
    vecs = data.root_spaces[lam]
    ai = next(iter(S.a_indices))
    value = lam[0]  # lam evaluated on the first a-unit
    # the root value alone fills the root space
    pieces = la.eigen_split(S.ad_frac(ai), vecs, [value])
    assert pieces == [(value, vecs)]


def _drop_largest_candidate(monkeypatch):
    """Make ad_spectrum_candidates leave out its largest value."""
    candidates = rt.ad_spectrum_candidates

    def fewer(structure, coords):
        return candidates(structure, coords)[:-1]

    monkeypatch.setattr(rt, "ad_spectrum_candidates", fewer)


def test_restricted_roots_reject_a_missing_candidate(monkeypatch):
    S = build(form_id("sl_R", n=3))
    _drop_largest_candidate(monkeypatch)
    with pytest.raises(NonRationalSpectrum, match="not diagonalizable"):
        rt.restricted_roots(S)


# (n_imaginary, n_real, n_complex, dim_cartan) on the maximally split Cartan
FULL_ROOT_COUNTS = {
    "sl_c:n=2": (0, 0, 4, 2),
    "sl_r:n=2": (0, 2, 0, 1),
    "sl_r:n=3": (0, 6, 0, 2),
    "sl_r:n=4": (0, 12, 0, 3),
    "so:p=2,q=3": (0, 8, 0, 2),
    "so:p=2,q=4": (0, 4, 8, 3),
    "so:p=3,q=3": (0, 12, 0, 3),
    "so_star:n=3": (2, 2, 8, 3),
    "so_star:n=4": (4, 4, 16, 4),
    "sp:p=1,q=2": (4, 2, 12, 3),
    "sp_r:n=1": (0, 2, 0, 1),
    "sp_r:n=2": (0, 8, 0, 2),
    "sp_r:n=3": (0, 18, 0, 3),
    "su:p=1,q=2": (0, 2, 4, 2),
    "su:p=1,q=3": (2, 2, 8, 3),
    "su:p=2,q=2": (0, 4, 8, 3),
    "su:p=2,q=3": (0, 4, 16, 4),
    "su:p=3,q=3": (0, 6, 24, 5),
    "su_star:n=2": (4, 0, 8, 3),
}


def test_full_root_counts_cover_the_catalog():
    assert set(FULL_ROOT_COUNTS) == {form_cli_text(f) for f in standard_forms()}


@pytest.mark.parametrize("form", sorted(FULL_ROOT_COUNTS))
def test_full_root_classification_catalog(form):
    S = build(parse_form(form))
    fc = rt.full_root_classification(rt.restricted_roots(S))
    dim_cartan = len(fc.t_basis) + S.rank_a
    got = (fc.n_imaginary, fc.n_real, fc.n_complex, dim_cartan)
    assert got == FULL_ROOT_COUNTS[form]
    # the roots of g^C number dim g - rank g^C
    assert fc.n_roots == S.dim - dim_cartan


def _compact_candidates(S, t):
    """The differences mu_j - mu_k of the eigenvalues of -it on C^n, sorted.

    A compact torus element t has spectrum i mu, so ad(t) has its
    eigenvalues among i times these.
    """
    m = la.mscale(-I, S.matrix_of(t))
    mus = la.rational_roots([c.as_fraction() for c in la.charpoly(m)])
    assert mus is not None, S.name
    return sorted({a - b for a in mus for b in mus})


def _torus_split(S, t_basis, spaces):
    """Split labeled subspaces of g^C by ad(t) for each t in t_basis.

    Each label gains the eigenvalue i mu of its piece, a Scalar that is zero
    exactly when mu is; every split must fill the subspace it splits.
    """
    for tv in t_basis:
        cands = [I * Scalar.of(mu) for mu in _compact_candidates(S, tv)]
        op = S.ad_matrix(tv)
        split = []
        for label, vecs in spaces:
            pieces = la.eigen_split(op, vecs, cands)
            assert pieces is not None, (S.name, label)
            split.extend((label + (ev,), p) for ev, p in pieces)
        spaces = split
    return spaces


def _counts_by_torus_split(S, data):
    """(n_imaginary, n_real, n_complex, dim_cartan) by splitting every
    restricted piece by ad(t), as a route independent of the centralizer
    counts: every nonzero piece on d = t + a must be a line."""
    r = S.rank_a
    t_basis = rt.maximal_torus(S, c_h_of_a(S))
    spaces = list(data.root_spaces.items())
    spaces.append(((Fraction(0),) * r, data.centralizer))
    n_im = n_re = n_cx = zero_dim = 0
    for label, vecs in _torus_split(S, t_basis, spaces):
        a_zero, t_zero = not any(label[:r]), not any(label[r:])
        if a_zero and t_zero:
            zero_dim += len(vecs)
            continue
        assert len(vecs) == 1, (S.name, label)
        if a_zero:
            n_im += 1
        elif t_zero:
            n_re += 1
        else:
            n_cx += 1
    assert zero_dim == len(t_basis) + r, S.name
    return n_im, n_re, n_cx, zero_dim


@pytest.mark.parametrize("form", sorted(FULL_ROOT_COUNTS))
def test_full_root_counts_match_the_torus_split(form):
    S = build(parse_form(form))
    data = rt.restricted_roots(S)
    fc = rt.full_root_classification(data)
    got = (fc.n_imaginary, fc.n_real, fc.n_complex,
           len(fc.t_basis) + S.rank_a)
    assert _counts_by_torus_split(S, data) == got


def _square(m):
    k = len(m)
    return [[sum((m[i][j] * m[j][c] for j in range(k)), Fraction(0))
             for c in range(k)] for i in range(k)]


def test_candidates_contain_the_ad_spectrum():
    # independent oracle: the dim x dim charpoly of each ad matrix must split
    # over Q with all its roots among the n x n candidates
    checked = 0
    for fid in standard_forms():
        S = build(fid)
        if S.dim > 15:
            continue
        for ai in S.a_indices:
            cands = set(rt.ad_spectrum_candidates(S, S.unit_coords(ai)))
            roots = la.rational_roots(la.charpoly_frac(S.ad_frac(ai)))
            assert roots is not None and len(roots) == S.dim, S.name
            assert set(roots) <= cands, S.name
            checked += 1
        h_units = [S.unit_coords(i) for i in S.h_indices]
        for t in (rt.maximal_torus(S, h_units)
                  + rt.maximal_torus(S, c_h_of_a(S))):
            cands = _compact_candidates(S, t)
            # ad(t) has spectrum i mu, so ad(t)^2 has the rational -mu^2;
            # the candidate set is symmetric, so mu^2 = c^2 puts mu in it
            roots = la.rational_roots(la.charpoly_frac(
                _square(S.ad_matrix(t))))
            assert roots is not None and len(roots) == S.dim, S.name
            assert {-r for r in roots} <= {c * c for c in cands}, S.name
            checked += 1
    assert checked >= 40


def test_candidates_reject_an_irrational_spectrum():
    S = build(form_id("sl_R", n=2))
    # eigenvalues +-sqrt(2)
    x = tuple(c.as_fraction() for c in S.coords_of(la.mat([[1, 1], [1, -1]])))
    with pytest.raises(NonRationalSpectrum):
        rt.ad_spectrum_candidates(S, x)


# the stretch forms beyond the catalog; counts recorded before the n x n
# candidate route replaced the dim x dim charpolys
STRETCH_ROOT_COUNTS = {
    "sp_r:n=4": (0, 32, 0, 4),
    "so_star:n=5": (4, 4, 32, 5),
}


@pytest.mark.parametrize("form", sorted(STRETCH_ROOT_COUNTS))
def test_stretch_form_matches_table(form):
    fid = parse_form(form)
    S = build(fid)
    an = dm.analyze(S)
    row = lookup_table1(fid)
    lam_label, _ = rt.classify_type(an.root_data)
    assert rt.type_equivalent(lam_label, reference_restricted_type(fid))
    assert an.split_sub.table_label == row.split_sub
    assert an.split_sub.dim == algebra_label_dim(row.split_sub)
    assert an.quasi_split == row.quasi_split
    fc = rt.full_root_classification(an.root_data)
    dim_cartan = len(fc.t_basis) + S.rank_a
    got = (fc.n_imaginary, fc.n_real, fc.n_complex, dim_cartan)
    assert got == STRETCH_ROOT_COUNTS[form]
    assert fc.n_roots == an.num_roots == S.dim - dim_cartan

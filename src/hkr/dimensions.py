"""Dimension and counting formulas for the moduli side of the construction.

Everything here is bookkeeping over the module decomposition: Riemann-Roch
values for powers of a line bundle L on a genus-g curve, the Hitchin base
dimension computed two independent ways, graded bundle power lists, the
expected moduli dimension, the split-openness test, and the rank-one moduli
classification.  All arithmetic is exact, in ints.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import roots as rt
from . import triples as tp
from .algebra import RealFormStructure
from .errors import (AmbiguousCohomology, ConstructionFailure, InvalidParams,
                     RouteDisagreement)


class CurveContext:
    """A genus-g curve and the degree of L, canonical, trivial or generic of
    its degree; immutable by use, equal and hashed by value."""

    def __init__(self, genus: int, d_L: int, L_is_canonical: bool = False,
                 L_is_trivial: bool = False):
        self.genus, self.d_L = genus, d_L
        self.L_is_canonical, self.L_is_trivial = L_is_canonical, L_is_trivial
        if self.genus < 2:
            raise InvalidParams("genus must be at least 2")
        if self.d_L < 0:
            # the closed form of the base dimension assumes deg L >= 0
            raise InvalidParams("degree of L must be at least 0, got %d"
                                % self.d_L)
        if self.L_is_canonical and self.d_L != 2 * self.genus - 2:
            raise InvalidParams("canonical L must have degree 2g - 2")
        if self.L_is_trivial and self.d_L != 0:
            raise InvalidParams("trivial L must have degree 0")

    def _key(self) -> Tuple[int, int, bool, bool]:
        return (self.genus, self.d_L, self.L_is_canonical, self.L_is_trivial)

    def __eq__(self, other) -> bool:
        if other.__class__ is not CurveContext:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @staticmethod
    def canonical(genus: int) -> "CurveContext":
        return CurveContext(genus, 2 * genus - 2, L_is_canonical=True)

    @staticmethod
    def trivial(genus: int) -> "CurveContext":
        return CurveContext(genus, 0, L_is_trivial=True)

    @staticmethod
    def of_degree(genus: int, d_L: int) -> "CurveContext":
        return CurveContext(genus, d_L)


def h0_h1_line_power(m: int, ctx: CurveContext) -> Tuple[int, int]:
    """(h0, h1) of L^m.

    Canonical and trivial L are table lookups; otherwise L is generic of its
    degree, which pins the answer only when deg L^m is outside [1, 2g-2].
    """
    g = ctx.genus
    if ctx.L_is_canonical:
        if m >= 2:
            return (2 * m - 1) * (g - 1), 0
        if m == 1:
            return g, 1
        if m == 0:
            return 1, g
        # negative powers by Serre duality against K^(1-m)
        return 0, (1 - 2 * m) * (g - 1)
    if ctx.L_is_trivial:
        return 1, g
    deg = m * ctx.d_L
    if m == 0:
        return 1, g
    if deg > 2 * g - 2:
        return deg - g + 1, 0
    if m == 1 and ctx.d_L >= 2 * g - 2:
        # generic of degree exactly 2g-2 is not canonical, so h1 = 0
        return deg - g + 1, 0
    if deg < 0:
        return 0, g - 1 - deg
    if deg == 0:
        # generic nontrivial of degree zero has no sections
        return 0, g - 1
    raise AmbiguousCohomology("deg L^%d = %d lies in [1, %d] and L is "
                              "neither canonical nor trivial"
                              % (m, deg, 2 * g - 2))


class FormAnalysis:
    """The construction chain of one form.  Each stage is a cached property
    that reads the stages it needs, so no stage runs before it is read or
    twice; a stage that raises is not kept, so each read raises alike."""

    def __init__(self, structure: RealFormStructure):
        self.structure = structure

    @cached_property
    def root_data(self) -> rt.RestrictedRootData:
        return rt.restricted_roots(self.structure)

    @cached_property
    def tds(self) -> tp.TdsConstruction:
        return tp.build_tds(self.root_data)

    @cached_property
    def triple(self) -> tp.NormalTriple:
        return tp.normal_triple(self.tds)

    @cached_property
    def split_sub(self) -> tp.SplitSubalgebra:
        return tp.maximal_split_subalgebra(self.tds)

    @cached_property
    def decomposition(self) -> tp.ModuleDecomposition:
        return tp.module_decomposition(self.triple)

    @cached_property
    def quasi_split(self) -> bool:
        return tp.is_quasi_split(self.triple)

    @cached_property
    def num_roots(self) -> int:
        return rt.full_root_classification(self.root_data).n_roots

    @cached_property
    def num_reduced(self) -> int:
        return len(rt.reduced_system(self.root_data))

    @property
    def is_split(self) -> bool:
        return self.split_sub.dim == self.structure.dim

    @cached_property
    def section(self) -> tp.SectionBasis:
        """The section of the split subalgebra: f and every e_i lie in it."""
        space = self.split_sub.space
        basis = tp.section_basis(self.triple, self.decomposition)
        if not all(map(space.contains, [basis.f] + basis.e_list)):
            raise ConstructionFailure("%s: the section leaves the split "
                                      "subalgebra" % self.structure.name)
        return basis


# analyze(S) builds no stage: each runs on first read
analyze = FormAnalysis


def _halved(twice: int) -> str:
    """twice / 2 in lowest terms: an int, or an odd numerator over 2."""
    return "%d/2" % twice if twice % 2 else str(twice // 2)


def hitchin_base_dim(analysis: FormAnalysis, ctx: CurveContext) -> int:
    """dim of the base, as the h0 sum and as the closed form, asserted equal.

    Trivial L collapses the base to a^C plus the central part; a nontrivial
    degree-zero L admits no nonzero twisted sections at all.
    """
    dec = analysis.decomposition
    if ctx.d_L == 0:
        return dec.a + dec.dim_z_m if ctx.L_is_trivial else 0
    route1 = sum(h0_h1_line_power(bl.m, ctx)[0] for bl in dec.located("m"))
    h1_L = h0_h1_line_power(1, ctx)[1]
    twice = ctx.d_L * analysis.split_sub.dim + \
        dec.a * (ctx.d_L - 2 * ctx.genus + 2) + 2 * h1_L * dec.dim_z_m
    if 2 * route1 != twice:
        raise RouteDisagreement("%s: base dim %s (h0 sum) vs %s (closed form)"
                                % (analysis.structure.name, route1,
                                   _halved(twice)))
    return route1


class GradedBundleSpec:
    def __init__(self, structure: RealFormStructure,
                 h_powers: List[List[int]], m_powers: List[List[int]],
                 degrees: List[int]):
        self.structure = structure
        self.h_powers, self.m_powers = h_powers, m_powers
        self.degrees = degrees


def graded_bundle_spec(analysis: FormAnalysis) -> GradedBundleSpec:
    """Per-block L-power lists of the two graded bundles.

    A block of degree m contributes the odd ladder {m-1, m-3, ..., -m+1} to
    its own side of the Cartan decomposition and the even ladder
    {m-2, ..., -m+2} to the other side.
    """
    S = analysis.structure
    h_powers: List[List[int]] = []
    m_powers: List[List[int]] = []
    degrees: List[int] = []
    for bl in analysis.decomposition.blocks:
        own = list(range(bl.m - 1, -bl.m, -2))
        other = list(range(bl.m - 2, -bl.m + 1, -2))
        if bl.location == "m":
            m_powers.append(own)
            h_powers.append(other)
        else:
            h_powers.append(own)
            m_powers.append(other)
        degrees.append(bl.m)
    total_h = sum(len(lst) for lst in h_powers)
    total_m = sum(len(lst) for lst in m_powers)
    if total_h != S.dim_h or total_m != S.dim_m:
        raise RouteDisagreement("%s: graded power lists cover (%d, %d), "
                                "Cartan decomposition is (%d, %d)"
                                % (S.name, total_h, total_m,
                                   S.dim_h, S.dim_m))
    return GradedBundleSpec(S, h_powers, m_powers, degrees)


def euler_characteristic_difference(spec: GradedBundleSpec,
                                    ctx: CurveContext) -> int:
    """chi(E(m^C) tensor L) - chi(E(h^C)) from the power lists, asserted
    against the closed form dim m^C (d_L + 1 - g) - dim h^C (1 - g)."""
    g, dl = ctx.genus, ctx.d_L
    chi_m = sum((p + 1) * dl + 1 - g
                for lst in spec.m_powers for p in lst)
    chi_h = sum(p * dl + 1 - g for lst in spec.h_powers for p in lst)
    value = chi_m - chi_h
    S = spec.structure
    closed = S.dim_m * (dl + 1 - g) - S.dim_h * (1 - g)
    if value != closed:
        raise RouteDisagreement("%s: chi difference %d vs closed form %d"
                                % (S.name, value, closed))
    return value


def expected_moduli_dim(analysis: FormAnalysis, ctx: CurveContext) -> int:
    """Expected dimension of the moduli space, two routes.

    The direct route adds the failure terms c and h1(z_m tensor L) to the
    Euler characteristic of the deformation complex; the graded-bundle route
    replaces c by dim z_h, and the two agree exactly on quasi-split forms.
    """
    dec = analysis.decomposition
    g, dl = ctx.genus, ctx.d_L
    h1_L = h0_h1_line_power(1, ctx)[1]
    twice = 2 * (dec.c + dec.dim_z_m * h1_L) + dl * analysis.structure.dim \
        + (dec.a - dec.b) * (dl - 2 * g + 2)
    if twice % 2:
        raise RouteDisagreement("%s: expected dimension %s is not integral"
                                % (analysis.structure.name, _halved(twice)))
    value = twice // 2
    if analysis.quasi_split:
        spec = graded_bundle_spec(analysis)
        chi = euler_characteristic_difference(spec, ctx)
        alt = dec.dim_z_h + dec.dim_z_m * h1_L + chi
        if alt != value:
            raise RouteDisagreement("%s: expected dim %d (direct) vs %d "
                                    "(graded route)"
                                    % (analysis.structure.name, value, alt))
    return value


class OpennessBreakdown:
    def __init__(self, value: int, term_roots: int, term_b: int,
                 term_z_h: int, is_open: bool):
        self.value, self.is_open = value, is_open
        self.term_roots, self.term_b, self.term_z_h = (term_roots, term_b,
                                                       term_z_h)


def split_openness_test(analysis: FormAnalysis, ctx: CurveContext
                        ) -> OpennessBreakdown:
    """-d_L(#roots - #reduced restricted roots) - b(g-1) - dim z_h.

    Nonnegative exactly when every term vanishes, which happens exactly for
    the split forms.
    """
    dec = analysis.decomposition
    t1 = -ctx.d_L * (analysis.num_roots - analysis.num_reduced)
    t2 = -dec.b * (ctx.genus - 1)
    t3 = -dec.dim_z_h
    value = t1 + t2 + t3
    is_open = value >= 0
    if ctx.d_L > 0:
        each_zero = t1 == 0 and t2 == 0 and t3 == 0
        if is_open != each_zero or is_open != analysis.is_split:
            raise RouteDisagreement("%s: openness %s, zero terms %s, split %s"
                                    % (analysis.structure.name, is_open,
                                       each_zero, analysis.is_split))
    return OpennessBreakdown(value, t1, t2, t3, is_open)


def component_count(n_cosets: int, genus: int) -> int:
    if n_cosets < 1:
        raise InvalidParams("the coset count must be a positive integer")
    if genus < 2:
        raise InvalidParams("genus must be at least 2")
    return n_cosets * 2 ** (2 * genus)


def sl2_moduli_classify(alpha, d: int, d_L: int) -> str:
    """Moduli of rank-one pairs with fixed determinant degree d.

    Empty when d exceeds |d_L/2| or falls below the stability parameter;
    a torsor over the Picard variety at the critical value alpha = d;
    entirely semistable above it.
    """
    if 2 * d > abs(d_L) or d < alpha:
        return "empty"
    if alpha == d:
        return "picard_torsor"
    return "all_semistable"


class DimensionReport:
    """The dimension figures of one form on one curve; ``to_dict`` gives
    them in the order ``__init__`` sets them, which the CLI's JSON keeps."""

    def __init__(self, form: str, genus: int, d_L: int, a: int, b: int,
                 c: int, dim_z_m: int, dim_z_h: int, dim_g_C: int,
                 dim_split_C: int, num_roots: int,
                 num_reduced_restricted: int, base_dim: int,
                 expected_moduli_dim: Optional[int], is_split: bool,
                 is_quasi_split: bool, hkr_open: Optional[bool],
                 openness_terms: Optional[Dict[str, int]]):
        self.form, self.genus, self.d_L = form, genus, d_L
        self.a, self.b, self.c = a, b, c
        self.dim_z_m, self.dim_z_h = dim_z_m, dim_z_h
        self.dim_g_C, self.dim_split_C = dim_g_C, dim_split_C
        self.num_roots = num_roots
        self.num_reduced_restricted = num_reduced_restricted
        self.base_dim, self.expected_moduli_dim = base_dim, expected_moduli_dim
        self.is_split, self.is_quasi_split = is_split, is_quasi_split
        self.hkr_open, self.openness_terms = hkr_open, openness_terms

    def to_dict(self) -> Dict[str, object]:
        out = dict(vars(self))
        if self.openness_terms is not None:
            out["openness_terms"] = dict(self.openness_terms)
        return out


def dimension_report(analysis: FormAnalysis, ctx: CurveContext
                     ) -> DimensionReport:
    dec = analysis.decomposition
    base = hitchin_base_dim(analysis, ctx)
    expected = hkr_open = terms = None
    if ctx.d_L != 0:
        expected = expected_moduli_dim(analysis, ctx)
        br = split_openness_test(analysis, ctx)
        hkr_open = br.is_open
        terms = {"roots": br.term_roots, "b": br.term_b,
                 "z_h": br.term_z_h, "value": br.value}
        if analysis.is_split and base != expected:
            raise RouteDisagreement("%s: split form with base %d != expected "
                                    "%d" % (analysis.structure.name,
                                            base, expected))
    return DimensionReport(
        analysis.structure.name, ctx.genus, ctx.d_L,
        dec.a, dec.b, dec.c, dec.dim_z_m, dec.dim_z_h,
        analysis.structure.dim, analysis.split_sub.dim,
        analysis.num_roots, analysis.num_reduced,
        base, expected, analysis.is_split, analysis.quasi_split,
        hkr_open, terms)

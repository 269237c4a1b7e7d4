"""Catalog identifiers, reference table rows, and structure construction."""

import hashlib

import pytest

from hkr import catalog, errors
from hkr import linalg as la
from hkr import verify as vf
from hkr.algebra import RealFormStructure
from hkr.errors import (ConstructionFailure, HkrError, InvalidParams,
                        NotInTable, SizeBound)
from hkr.scalars import ZERO
from test_algebra import dense_basis


def _forms_up_to(size):
    """Every FormId of every family with matrix size <= size."""
    found = {}
    for family in catalog.FAMILIES:
        for a in range(1, size + 1):
            for b in range(1, size + 1):
                for kw in ({"n": a}, {"p": a, "q": b}):
                    try:  # each family takes one of the two shapes
                        fid = catalog.form_id(family, **kw)
                    except InvalidParams:
                        continue
                    if catalog.matrix_size(fid) <= size:
                        found[fid] = None
    return list(found)


def _real_rank(fid):
    """The real rank of each family, by its classical formula."""
    f = fid.family
    if f in ("su_pq", "so_pq", "sp_pq"):
        return min(fid.p, fid.q)
    if f in ("sl_R", "su_star", "sl_C_as_real"):
        return fid.n - 1
    if f == "sp2n_R":
        return fid.n
    return fid.n // 2  # so_star


def test_form_id_round_trips_through_cli_text():
    for fid in catalog.standard_forms():
        text = catalog.form_cli_text(fid)
        assert catalog.parse_form(text) == fid


def test_parse_form_examples():
    fid = catalog.parse_form("su:p=1,q=2")
    assert fid.family == "su_pq"
    assert fid.params == (("p", 1), ("q", 2))
    assert catalog.form_display(fid) == "su(1,2)"
    assert catalog.parse_form("sp_r:n=2") == catalog.form_id("sp2n_R", n=2)
    assert catalog.parse_form("sl_c:n=2") == catalog.form_id(
        "sl_C_as_real", n=2)


def test_a_form_id_and_its_table_row_are_values():
    fid = catalog.parse_form("sl_r:n=3")
    same = catalog.form_id("sl_R", n=3)
    assert fid == same and fid is not same and hash(fid) == hash(same)
    assert {fid: "sl(3,R)"}[same] == "sl(3,R)"
    assert fid != catalog.form_id("sl_R", n=4)
    assert fid != ("sl_R", (("n", 3),))  # a record, not a tuple
    row = catalog.lookup_table1("sl_r:n=3")
    again = catalog.lookup_table1(same)
    assert row == again and row is not again and hash(row) == hash(again)
    assert row != catalog.TableOneEntry("sl(3,R)", "sl(3,R)", "A2", False)
    assert row != ("sl(3,R)", "sl(3,R)", "A2", True)


def test_parse_form_rejects_bad_input():
    for bad in ("nope:n=2", "su:p=1", "sl_r:n=1", "su:p=0,q=2", "sl_r"):
        with pytest.raises(InvalidParams):
            catalog.parse_form(bad)


@pytest.mark.parametrize("value", [3.9, 3.0, True, "3"])
def test_form_id_takes_only_ints(value):
    with pytest.raises(InvalidParams, match="must be an int"):
        catalog.form_id("sl_R", n=value)


@pytest.mark.parametrize("family, params", [
    ("sl_R", (("n", "3"),)), ("sl_R", "n=3"), ("sl_R", (("n", 3.0),)),
    ("su_pq", (("p", 1.5), ("q", 2))), ("sl_R", [("n", 3)])])
def test_form_id_rejects_malformed_params(family, params):
    # each would have built a FormId that fails later, or no typed error
    with pytest.raises(InvalidParams):
        catalog.FormId(family, params)


def test_integers_are_ascii_digits(monkeypatch):
    # int() would read each of these; the form syntax and HKR_MAX_DIM do not
    for bad in ("sl_r:n=1_0", "sl_r:n=\u0663", "sl_r:n=+3", "sl_r:n=-3"):
        with pytest.raises(InvalidParams, match="bad integer"):
            catalog.parse_form(bad)
    assert catalog.parse_form("sl_r:n=10") == catalog.form_id("sl_R", n=10)
    for bad in ("1_2", "\u0661\u0662", " 12", "+12"):
        monkeypatch.setenv("HKR_MAX_DIM", bad)
        with pytest.raises(InvalidParams, match="HKR_MAX_DIM"):
            catalog.size_bound()
    monkeypatch.setenv("HKR_MAX_DIM", "12")
    assert catalog.size_bound() == 12


def test_unknown_or_repeated_params_are_rejected():
    with pytest.raises(InvalidParams, match="needs params"):
        catalog.form_id("sl_R", n=3, p=1)
    with pytest.raises(InvalidParams, match="needs params"):
        catalog.parse_form("sl_r:n=3,foo=7")
    with pytest.raises(InvalidParams, match="repeated parameter 'n'"):
        catalog.parse_form("sl_r:n=3,n=4")
    with pytest.raises(InvalidParams, match="repeated parameter 'q'"):
        catalog.parse_form("su:p=1,q=2,q=2")


def test_standard_forms_count():
    forms = catalog.standard_forms()
    assert len(forms) == 19
    assert len(set(forms)) == 19


def test_table1_lookup_classical():
    row = catalog.lookup_table1(catalog.form_id("su_pq", p=2, q=2))
    assert row.split_sub == "sp(4,R)"
    assert row.restricted_type == "C2"
    assert row.quasi_split is True
    row = catalog.lookup_table1("su:p=1,q=3")
    assert row.split_sub == "so(1,2)"
    assert row.quasi_split is False


def test_table1_lookup_exceptional():
    labels = catalog.exceptional_labels()
    assert len(labels) == 12
    assert labels[0] == "e6(6)"
    row = catalog.lookup_table1("f4(-20)")
    assert row.split_sub == "sl(2,R)"
    assert row.restricted_type == "BC1"
    assert row.quasi_split is False
    with pytest.raises(NotInTable):
        catalog.lookup_table1("e9(9)")


def test_algebra_label_dim():
    assert catalog.algebra_label_dim("sl(2,R)") == 3
    assert catalog.algebra_label_dim("sp(4,R)") == 10
    assert catalog.algebra_label_dim("so(2,3)") == 10
    assert catalog.algebra_label_dim("su(2,2)") == 15
    assert catalog.algebra_label_dim("g2(2)") == 14
    assert catalog.algebra_label_dim("f4(4)") == 52
    assert catalog.algebra_label_dim("e6(6)") == 78
    assert catalog.algebra_label_dim("e7(7)") == 133
    assert catalog.algebra_label_dim("e8(8)") == 248


def test_size_bound_env(monkeypatch):
    monkeypatch.delenv("HKR_MAX_DIM", raising=False)
    assert catalog.size_bound() == catalog.DEFAULT_MAX_SIZE
    monkeypatch.setenv("HKR_MAX_DIM", "6")
    assert catalog.size_bound() == 6
    with pytest.raises(SizeBound):
        catalog.build(catalog.form_id("su_pq", p=3, q=4))
    for bad in ("abc", "-5", "0"):
        monkeypatch.setenv("HKR_MAX_DIM", bad)
        with pytest.raises(InvalidParams, match="HKR_MAX_DIM.*%s" % bad):
            catalog.size_bound()


def test_build_every_standard_form():
    for fid in catalog.standard_forms():
        S = catalog.build(fid)
        assert S.dim == S.dim_h + S.dim_m
        assert S.rank_a == _real_rank(fid)
        assert S.name == catalog.form_display(fid)


def test_build_dimension_table():
    expect = {
        "sl(2,R)": (3, 1, 2),
        "sl(3,R)": (8, 3, 5),
        "sl(4,R)": (15, 6, 9),
        "su(1,2)": (8, 4, 4),
        "su(1,3)": (15, 9, 6),
        "su(2,2)": (15, 7, 8),
        "su(2,3)": (24, 12, 12),
        "su(3,3)": (35, 17, 18),
        "sp(2,R)": (3, 1, 2),
        "sp(4,R)": (10, 4, 6),
        "sp(6,R)": (21, 9, 12),
        "so(2,3)": (10, 4, 6),
        "so(2,4)": (15, 7, 8),
        "so(3,3)": (15, 6, 9),
        "su*(4)": (15, 10, 5),
        "sp(1,2)": (21, 13, 8),
        "so*(6)": (15, 9, 6),
        "so*(8)": (28, 16, 12),
        "sl(2,C)": (6, 3, 3),
    }
    for fid in catalog.standard_forms():
        S = catalog.build(fid)
        assert (S.dim, S.dim_h, S.dim_m) == expect[S.name], S.name


# sha256 of one line per FormId of matrix size <= 12, in _forms_up_to order:
# its CLI text, display, matrix size and the four fields of its Table 1 row;
# a refactor of the family facts must leave every one unchanged
_PINNED_FORM_FACTS = \
    "b742c2ab2850cf43d62e1dfcd11d6a477900a2f9a009c1fd538efed6b5216c09"


def test_form_facts_match_their_pinned_digest():
    fids = _forms_up_to(12)
    assert len(fids) == 178
    digest = hashlib.sha256()
    for fid in fids:
        row = catalog.lookup_table1(fid)
        digest.update(("%s %s %d %s %s %s %s\n" % (
            catalog.form_cli_text(fid), catalog.form_display(fid),
            catalog.matrix_size(fid), row.form, row.split_sub,
            row.restricted_type, row.quasi_split)).encode())
    assert digest.hexdigest() == _PINNED_FORM_FACTS


def test_each_family_has_its_own_display():
    # a family that the catalog's facts do not branch on would take the
    # last family's display, and its smallest form would collide with one
    smallest = {}
    for fid in _forms_up_to(4):
        smallest.setdefault(fid.family, catalog.form_display(fid))
    assert list(smallest) == list(catalog.FAMILIES)
    assert len(set(smallest.values())) == len(smallest), smallest


def test_reference_split_flags():
    split = {"sl(2,R)", "sl(3,R)", "sl(4,R)", "sp(2,R)", "sp(4,R)",
             "sp(6,R)", "so(2,3)", "so(3,3)", "so(2,1)", "so(3,2)"}
    extra = [catalog.form_id("so_pq", p=p, q=q) for p, q in ((2, 1), (3, 2))]
    for fid in catalog.standard_forms() + extra:
        name = catalog.form_display(fid)
        row = catalog.lookup_table1(fid)
        is_split = catalog.build(fid).dim == row.split_dim
        assert is_split == (name in split), name
        if is_split:
            assert row.quasi_split


def test_reference_restricted_types():
    cases = {
        "sl(2,R)": "A1", "sl(3,R)": "A2", "sl(4,R)": "A3",
        "su(1,2)": "BC1", "su(1,3)": "BC1", "su(2,2)": "C2",
        "su(2,3)": "BC2", "su(3,3)": "C3",
        "sp(2,R)": "C1", "sp(4,R)": "C2", "sp(6,R)": "C3",
        "so(2,3)": "B2", "so(2,4)": "B2", "so(3,3)": "D3",
        "su*(4)": "A1", "sp(1,2)": "BC1",
        "so*(6)": "BC1", "so*(8)": "C2",
        "sl(2,C)": "A1",
    }
    for fid in catalog.standard_forms():
        assert catalog.lookup_table1(fid).restricted_type == \
            cases[catalog.form_display(fid)]


def test_reference_reduced_types():
    # BC_r reduces to B_r; reduced systems elsewhere match the full ones
    for fid in catalog.standard_forms():
        row = catalog.lookup_table1(fid)
        full, reduced = row.restricted_type, row.reduced_type
        if full.startswith("BC"):
            assert reduced == "B" + full[2:]
        else:
            assert reduced == full


# --- the built basis against the family's defining identities ----------------

def _block(a, b, c, d):
    """The 2 x 2 block matrix [[a, b], [c, d]]."""
    return tuple(ra + rb for ra, rb in zip(a, b)) + \
        tuple(rc + rd for rc, rd in zip(c, d))


def _diag(signs):
    return la.mat([[s if r == c else 0 for c in range(len(signs))]
                   for r, s in enumerate(signs)])


def _zeros(n):
    return la.mat([[0] * n] * n)


def _transpose(x):
    return tuple(zip(*x))


def _conj_transpose(x):
    return tuple(tuple(e.conj() for e in col) for col in zip(*x))


def _trace(x):
    return sum((x[i][i] for i in range(len(x))), ZERO)


def _commutator(x, y):
    return la.msub(la.mmul(x, y), la.mmul(y, x))


def _family_identities(fid):
    """The identities that cut the family out of gl(n, C), each a map from X
    to a matrix that must vanish, written here from this module's own copies
    of the forms, and the family's dimension."""
    n = catalog.matrix_size(fid)
    h = n // 2
    one, zero = la.eye(h), _zeros(h)
    j = _block(zero, la.mscale(-1, one), one, zero)  # [[0,-I],[I,0]]
    rev = la.mat([[1 if r + c == h - 1 else 0 for c in range(h)]
                  for r in range(h)])

    def conj(x):
        return _transpose(_conj_transpose(x))

    def real(x):
        return la.msub(x, conj(x))

    def traceless(x):
        return ((_trace(x),),)

    def bilinear(w):
        return lambda x: la.madd(la.mmul(_transpose(x), w), la.mmul(w, x))

    def hermitian(w):
        return lambda x: la.madd(la.mmul(_conj_transpose(x), w), la.mmul(w, x))

    f = fid.family
    if f in ("su_pq", "so_pq", "sp_pq"):
        k = _diag([1] * fid.p + [-1] * fid.q)
    if f == "sl_R":
        return [real, traceless], n * n - 1
    if f == "su_pq":
        return [hermitian(k), traceless], n * n - 1
    if f == "sp2n_R":
        omega = _block(zero, rev, la.mscale(-1, rev), zero)
        return [real, bilinear(omega)], h * (2 * h + 1)
    if f == "so_pq":
        return [real, bilinear(k)], n * (n - 1) // 2
    if f == "su_star":
        return [lambda x: la.msub(la.mmul(x, j), la.mmul(j, conj(x))),
                traceless], 4 * h * h - 1
    if f == "sp_pq":
        return [bilinear(j), hermitian(_block(k, zero, zero, k))], \
            h * (2 * h + 1)
    if f == "so_star":
        s = _block(zero, one, one, zero)
        signs = _block(one, zero, zero, la.mscale(-1, one))
        return [bilinear(s), hermitian(signs)], h * (2 * h - 1)
    assert f == "sl_C_as_real"
    return [real, lambda x: _commutator(x, j), traceless,
            lambda x: traceless(la.mmul(j, x))], 2 * (h * h - 1)


@pytest.mark.parametrize("fid", _forms_up_to(8), ids=catalog.form_cli_text)
def test_basis_satisfies_family_identities(fid):
    # the basis lies in the algebra and spans a space of its dimension, so
    # it spans the algebra
    identities, dim = _family_identities(fid)
    S = catalog.build(fid)
    basis = dense_basis(S)
    assert len(basis) == dim
    # rank over R: each entry flattened into its real and imaginary parts
    assert la.rank(la.mat([[part for e in la.flatten(x)
                            for part in e.gaussian_parts()]
                           for x in basis])) == dim
    for k, x in enumerate(basis):
        for i, identity in enumerate(identities):
            assert la.is_zero_mat(identity(x)), (k, i)


# sha256 of "dim_h rank_a" and then every basis matrix in order, one line of
# real and imaginary entry parts each, for the catalog and the stretch forms;
# a refactor of the construction must leave the basis unchanged
_PINNED_BASIS = {
    "sl_r:n=2": "b06fe6df0005b63c8a9c43d9171c744647a544b2e4425edbb60c77727a686f53",
    "sl_r:n=3": "a933b3fe1e8d73f4b9b55f6c95cf6c4c7e5f056f444141e01ba9b5b2b59b55b8",
    "sl_r:n=4": "2cb5dbf73ea7df220e6fe95c76c47a6e8e3a0a7045eadd4962cfa3cbbeeb52c5",
    "su:p=1,q=2": "cc9838bcecbac61c20fd13c8dd536314612cedfa41c368d209da3c2ce7d55bdb",
    "su:p=1,q=3": "d10b96fdc81ae2d85fdccbf07bafe6f7b6cd772e7e7290d90a7922b71bd529af",
    "su:p=2,q=3": "43cb6671f5ff759e53b843626d968281273d8b06b2c53f8444a518a83cec26b0",
    "su:p=2,q=2": "7811f0e98d4bfee5bc2a3c6fc1e2c27dec8bc10ff42657ab191843daeb160c5d",
    "su:p=3,q=3": "4bac100ba01055128d63c587882789239f0c1487a2359a6fe453e53f684f630f",
    "sp_r:n=1": "b06fe6df0005b63c8a9c43d9171c744647a544b2e4425edbb60c77727a686f53",
    "sp_r:n=2": "6ab74ade0acab74f12982306097c7335899cab769674eb4792502f8148e9daf0",
    "sp_r:n=3": "073d76a8d75aea46dffa0972ee4a501b7b3b971ee4bdf3cdd017f5be2596473b",
    "so:p=2,q=3": "2eeda7dc4d453b04c641080be1e257c008b8aacbcc2cd26adfbc33a6ab67b59c",
    "so:p=2,q=4": "2afa53ba46cd1754348a6d8ad4c9cc71760a937ea92ce221ce9904192b4404bd",
    "so:p=3,q=3": "a6b2bda38992eb0e95b20fe095b5e12fb0a91f95cfb3d684c51623c757c557d9",
    "su_star:n=2": "48743f33b1c9ac79f589b69b3a2953a8b579a7a89ca0add5abec8ecb5961d36e",
    "sp:p=1,q=2": "2ea3a2468d5f352f780c44c60211a85f186859fe7927e0f694bb02f113e25629",
    "so_star:n=3": "ee5a5beb3b84f987832fbbc85fb08dadb098284b1a3db4c9c5d3bb714f6b6040",
    "so_star:n=4": "7b16efce58b25abe1fce0acf89217e93713d5de762161a8aae43a572fa427f79",
    "sl_c:n=2": "cbafc7985c137c71bd0c551e691c577b3983940401e36c16820f9eae49f8f4cc",
    "su:p=4,q=4": "46ba9f7d8e94b94cd075f6c1900a8ee934b22231eb2ed3d3b3f712b4e40826b5",
    "sp_r:n=4": "53718a55df4c1614c3492dcff4d6ded6cd668e8dcfd7a1067e01104505f77c44",
    "so_star:n=5": "d831ff20368ea97846be71c310085d61a31fbd236cab55612aace4d4b5711093",
}


def test_pinned_basis_covers_the_catalog():
    assert list(_PINNED_BASIS)[:19] == [catalog.form_cli_text(f)
                                        for f in catalog.standard_forms()]


@pytest.mark.parametrize("form", list(_PINNED_BASIS))
def test_basis_matches_its_pinned_digest(form):
    S = catalog.build(catalog.parse_form(form))
    digest = hashlib.sha256(("%d %d\n" % (S.dim_h, S.rank_a)).encode())
    for x in dense_basis(S):
        digest.update((";".join(",".join("%s %s" % e.gaussian_parts()
                                         for e in row) for row in x)
                       + "\n").encode())
    assert digest.hexdigest() == _PINNED_BASIS[form]


def test_build_takes_no_centralizer(monkeypatch):
    # build checks only that a is abelian; the root data finds c_g(a) and
    # checks there that a is maximal abelian in m
    calls = []
    original = RealFormStructure.centralizer_in_span

    def counting(self, *args):
        calls.append(self.name)
        return original(self, *args)

    monkeypatch.setattr(RealFormStructure, "centralizer_in_span", counting)
    for fid in catalog.standard_forms():
        catalog.build(fid)
    assert calls == []


# --- the guards of build, provoked through the declared data ---------------------

def _patch_declare(monkeypatch, change):
    """Make build read change(equations, traces, a_mats, dim) of the
    family's declared data."""
    declare = catalog._declare
    monkeypatch.setattr(catalog, "_declare",
                        lambda fid, n: change(*declare(fid, n)))


def test_build_rejects_a_repeated_a_element(monkeypatch):
    _patch_declare(monkeypatch, lambda eqs, traces, a_mats, dim:
                   (eqs, traces, [a_mats[0]] * 2, dim))
    with pytest.raises(ConstructionFailure,
                       match=r"sl\(3,R\): a-basis element 1 is dependent"):
        catalog.build(catalog.form_id("sl_R", n=3))


def test_build_rejects_an_a_element_in_h(monkeypatch):
    # the rotation generator of sl(2,R) is fixed by theta: it lies in h
    rotation = {(0, 1): 1, (1, 0): -1}
    _patch_declare(monkeypatch, lambda eqs, traces, a_mats, dim:
                   (eqs, traces, [rotation], dim))
    with pytest.raises(ConstructionFailure,
                       match=r"sl\(2,R\): a-basis element 0 is not in m"):
        catalog.build(catalog.form_id("sl_R", n=2))


def test_build_rejects_a_span_theta_does_not_preserve(monkeypatch):
    # tr(E_10 X) = X_01 = 0 leaves the lower-triangular part of sl(2,R),
    # of dim 2; theta sends E_10 to -E_01, so the parts span 1 + 2
    _patch_declare(monkeypatch, lambda eqs, traces, a_mats, dim:
                   (eqs, traces + [{(1, 0): 1}], a_mats, 2))
    with pytest.raises(ConstructionFailure,
                       match=r"sl\(2,R\): theta split lost dimensions"):
        catalog.build(catalog.form_id("sl_R", n=2))


# --- every small form through the verify suite ---------------------------------

_TYPED = {c.__name__ for c in vars(errors).values()
          if isinstance(c, type) and issubclass(c, HkrError)}

# so(2,2) = sl(2,R) + sl(2,R) has the invariant degree 2 twice, so the
# degrees do not grade its section (as for so(4,4), out of scope)
_KNOWN_LIMITS = {"so(2,2)": {"regularity", "invariance"}}


@pytest.mark.parametrize("fid", _forms_up_to(5), ids=catalog.form_cli_text)
def test_verify_sweep_small_forms(fid):
    limits = _KNOWN_LIMITS.get(catalog.form_display(fid), ())
    for r in vf.verify_form(fid, samples=2, fiber_samples=1, conjugators=1):
        if r.check in limits:
            assert r.ok or r.detail.split(":")[0] in _TYPED, (r.check, r.detail)
        else:
            assert r.ok, (r.check, r.detail)

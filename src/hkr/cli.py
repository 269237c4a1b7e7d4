"""Command-line front end.

Verbs: list, describe, hkr, section, dims, table1, lemma73, verify.
All output is either human-readable text or, with --json, a stable schema
tagged with "schema": 1 whose scalar entries use the same grammar that
parse_scalar accepts.  Exit codes:

- 0: success;
- 1: a verification failure, a typed ``HkrError`` from the construction
  (``error: <Type>: <msg>``), an internal fault of any other type
  (``error: internal: <Type>: <msg>``, no traceback), or stdout closed
  early, as by ``| head``;
- 2: a usage error: bad arguments, ``InvalidParams`` or ``SizeBound``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import catalog
from . import dimensions as dm
from . import triples as tp
from . import verify as vf
from .errors import HkrError, InvalidParams, SizeBound
from .scalars import Scalar, parse_int, parse_scalar, ScalarParseError

SCHEMA = 1


def _mat_strings(mat) -> List[List[str]]:
    return [[str(e) for e in row] for row in mat]


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _curve_context(args) -> dm.CurveContext:
    genus = args.genus
    spec = args.L
    if spec == "K":
        return dm.CurveContext.canonical(genus)
    if spec == "O":
        return dm.CurveContext.trivial(genus)
    if spec.startswith("deg:"):
        try:
            deg = parse_int(spec[4:], negative=True)
        except ValueError:
            raise InvalidParams("bad degree in --L %r" % spec)
        return dm.CurveContext.of_degree(genus, deg)
    raise InvalidParams("--L must be K, O, or deg:<int>, got %r" % spec)


def _parse_gamma(text: Optional[str], rank: int) -> List[Scalar]:
    """The --gamma entries; zeros only when --gamma is not given."""
    if text is None:
        return [Scalar.of(0)] * rank
    parts = text.split(",")
    if len(parts) != rank:
        raise InvalidParams("--gamma needs %d entries, got %d"
                            % (rank, len(parts)))
    try:
        return [parse_scalar(p) for p in parts]
    except ScalarParseError as exc:
        raise InvalidParams("bad --gamma entry: %s" % exc)


def cmd_list(args) -> int:
    rows = []
    for fid in catalog.standard_forms():
        entry = catalog.lookup_table1(fid)
        rows.append({
            "form": catalog.form_display(fid),
            "family": fid.family,
            "params": dict(fid.params),
            "restricted_type": entry.restricted_type,
            "split_sub": entry.split_sub,
            "quasi_split": entry.quasi_split,
        })
    text = "\n".join("%-10s %-6s %-10s %s"
                     % (r["form"], r["restricted_type"], r["split_sub"],
                        "quasi-split" if r["quasi_split"] else "")
                     for r in rows)
    _emit({"forms": rows}, args.json, text)
    return 0


def cmd_describe(args) -> int:
    S = catalog.build(catalog.parse_form(args.form))
    data = dm.analyze(S).root_data
    lam_label, reduced_label = data.types
    entry = S.reference_row()
    mults = {",".join(str(v) for v in lab): len(vs)
             for lab, vs in sorted(data.root_spaces.items())}
    payload = {
        "form": S.name,
        "matrix_size": S.n,
        "dim": S.dim,
        "dim_h": S.dim_h,
        "dim_m": S.dim_m,
        "rank": S.rank_a,
        "restricted_type": lam_label,
        "reduced_type": reduced_label,
        "num_restricted_roots": len(data.root_spaces),
        "multiplicities": mults,
        "split_sub": entry.split_sub,
        "quasi_split": entry.quasi_split,
    }
    text = ("%s: dim %d = %d + %d, rank %d, restricted type %s "
            "(reduced %s), split subalgebra %s%s"
            % (S.name, S.dim, S.dim_h, S.dim_m, S.rank_a, lam_label,
               reduced_label, entry.split_sub,
               ", quasi-split" if entry.quasi_split else ""))
    _emit(payload, args.json, text)
    return 0


def cmd_hkr(args) -> int:
    # the section lies in the split subalgebra, which raises
    # MismatchWithTable unless it matches its table row
    an = dm.analyze(catalog.build(catalog.parse_form(args.form)))
    S, triple, basis = an.structure, an.triple, an.section
    payload = {
        "form": S.name,
        "e": _mat_strings(S.matrix_of(triple.e)),
        "f": _mat_strings(S.matrix_of(triple.f)),
        "x": _mat_strings(S.matrix_of(triple.x)),
        "w": _mat_strings(S.matrix_of(an.tds.w)),
        "e_basis": [_mat_strings(S.matrix_of(v)) for v in basis.e_list],
        "degrees": basis.degrees,
        "relations_verified": True,
        "table1_match": True,
    }
    lines = ["%s normal triple (defining representation %dx%d):"
             % (S.name, S.n, S.n)]
    for nm, coords in (("e", triple.e), ("f", triple.f), ("x", triple.x)):
        lines.append("%s =" % nm)
        for row in S.matrix_of(coords):
            lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    lines.append("section degrees: %s" % basis.degrees)
    lines.append("table row match: True")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_section(args) -> int:
    an = dm.analyze(catalog.build(catalog.parse_form(args.form)))
    S, basis = an.structure, an.section
    gamma = _parse_gamma(args.gamma, basis.rank)
    point = tp.section_point(basis, gamma)
    regular = tp.is_regular(S, point)
    payload = {
        "form": S.name,
        "gamma": [str(g) for g in gamma],
        "degrees": basis.degrees,
        "point": _mat_strings(S.matrix_of(point)),
        "regular": regular,
    }
    lines = ["%s section point at gamma = (%s):"
             % (S.name, ", ".join(str(g) for g in gamma))]
    for row in S.matrix_of(point):
        lines.append("  [" + ", ".join(str(v) for v in row) + "]")
    lines.append("regular: %s" % regular)
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_dims(args) -> int:
    an = dm.analyze(catalog.build(catalog.parse_form(args.form)))
    ctx = _curve_context(args)
    rep = dm.dimension_report(an, ctx)
    payload = rep.to_dict()
    lines = ["%s, genus %d, deg L = %d:" % (rep.form, ctx.genus, ctx.d_L),
             "  base_dim = %d" % rep.base_dim]
    if rep.expected_moduli_dim is not None:
        lines.append("  expected_moduli_dim = %d" % rep.expected_moduli_dim)
        lines.append("  hkr_open = %s" % rep.hkr_open)
        lines.append("  openness terms: %s" % rep.openness_terms)
    else:
        lines.append("  moduli formulas not applicable at degree 0")
    lines.append("  a=%d b=%d c=%d, split=%s, quasi_split=%s"
                 % (rep.a, rep.b, rep.c, rep.is_split, rep.is_quasi_split))
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_table1(args) -> int:
    if args.form is not None:
        try:
            entry = catalog.lookup_table1(args.form)
        except HkrError:
            entry = catalog.lookup_table1(catalog.parse_form(args.form))
        rows = [entry]
    else:
        rows = [catalog.lookup_table1(fid) for fid in catalog.standard_forms()]
        rows += [catalog.lookup_table1(k) for k in catalog.exceptional_labels()]
    payload = {"rows": [{"form": r.form, "split_sub": r.split_sub,
                         "restricted_type": r.restricted_type,
                         "quasi_split": r.quasi_split} for r in rows]}
    text = "\n".join("%-10s %-8s %-10s %s"
                     % (r.form, r.restricted_type, r.split_sub,
                        "quasi-split" if r.quasi_split else "")
                     for r in rows)
    _emit(payload, args.json, text)
    return 0


def cmd_lemma73(args) -> int:
    ns = [args.n] if args.n else [3, 5]
    reports = []
    ok_all = True
    lines = []
    for n in ns:
        an = dm.analyze(catalog.build(catalog.form_id("so_star", n=n)))
        rep = tp.so_star_lemma_report(an.triple)
        ok_all = ok_all and rep.ok()
        reports.append({
            "n": n,
            "ok": rep.ok(),
            "w_matches_display": rep.w_matches_display,
            "displayed_y_in_algebra": rep.displayed_y_in_algebra,
            "eigenvalues": [[str(v) for v in t] for t in rep.eigen_values],
            "y_block_traces_zero": rep.y_block_traces_zero,
            "x_block_traces_zero": rep.x_block_traces_zero,
            "y_scalar": None if rep.y_scalar is None else str(rep.y_scalar),
            "notes": rep.notes,
        })
        lines.append("so*(%d): %s" % (2 * n, "ok" if rep.ok() else "FAIL"))
        for note in rep.notes:
            lines.append("  note: " + note)
        if rep.y_scalar is not None:
            lines.append("  y scalar: %s" % rep.y_scalar)
    _emit({"reports": reports}, args.json, "\n".join(lines))
    return 0 if ok_all else 1


def cmd_verify(args) -> int:
    counts = dict(samples=args.samples,
                  fiber_samples=min(vf.FIBER_SAMPLES, args.samples),
                  conjugators=min(vf.CONJUGATORS, args.samples))
    if args.all and args.form is not None:
        raise InvalidParams("verify takes a form or --all, not both")
    if args.all:
        results = vf.verify_all(seed=args.seed, **counts)
    elif args.form is not None:
        fid = catalog.parse_form(args.form)
        results = vf.verify_form(fid, seed=args.seed, **counts)
        results += vf.verify_global(seed=args.seed)
    else:
        raise InvalidParams("verify needs a form or --all")
    fails = [r for r in results if not r.ok]
    if args.json:
        payload = {
            "schema": SCHEMA,
            "seed": args.seed,
            "results": [{"form": r.form, "check": r.check, "ok": r.ok,
                         "detail": r.detail, "seconds": r.seconds}
                        for r in results],
            "failures": len(fails),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print("%d checks, %d failures" % (len(results), len(fails)))
        if fails:
            print("first failure: %s" % fails[0].line())
    return 1 if fails else 0


def _int(text: str) -> int:
    """argparse type: a nonnegative int in ASCII digits (``parse_int``)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hkr",
        description="Exact constructions for real reductive Lie algebras: "
                    "restricted roots, split subalgebras, principal normal "
                    "triples, and moduli dimension formulas.")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit the stable JSON schema")

    sp = sub.add_parser("list", help="list the catalog forms")
    add_json(sp)
    sp.set_defaults(fn=cmd_list)

    sp = sub.add_parser("describe", help="structure of one form")
    sp.add_argument("form", help="e.g. su:p=1,q=2 or sl_r:n=3")
    add_json(sp)
    sp.set_defaults(fn=cmd_describe)

    sp = sub.add_parser("hkr", help="normal triple and section data")
    sp.add_argument("form")
    add_json(sp)
    sp.set_defaults(fn=cmd_hkr)

    sp = sub.add_parser("section", help="evaluate the section at gamma")
    sp.add_argument("form")
    sp.add_argument("--gamma", help="comma list of scalars, e.g. 1,1/2")
    add_json(sp)
    sp.set_defaults(fn=cmd_section)

    sp = sub.add_parser("dims", help="dimension report")
    sp.add_argument("form")
    sp.add_argument("--genus", type=_int, default=2)
    sp.add_argument("--L", default="K", help="K, O, or deg:<int>")
    add_json(sp)
    sp.set_defaults(fn=cmd_dims)

    sp = sub.add_parser("table1", help="reference split-subalgebra table")
    sp.add_argument("form", nargs="?", help="optional form or label")
    add_json(sp)
    sp.set_defaults(fn=cmd_table1)

    sp = sub.add_parser("lemma73", help="explicit so*(6)/so*(10) checks")
    sp.add_argument("--n", type=_int, choices=(3, 5))
    add_json(sp)
    sp.set_defaults(fn=cmd_lemma73)

    sp = sub.add_parser("verify", help="run the verification suites")
    sp.add_argument("form", nargs="?")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--seed", type=_int, default=0)
    sp.add_argument("--samples", type=_positive_int, default=100, metavar="N",
                    help="N regularity samples and injectivity pairs per "
                         "form, and at most N of the %d fiber targets and "
                         "%d conjugators (default 100)"
                         % (vf.FIBER_SAMPLES, vf.CONJUGATORS))
    add_json(sp)
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the flush at
        # interpreter exit cannot raise again (the Python docs' SIGPIPE recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (InvalidParams, SizeBound) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except HkrError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: internal: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

    entwine verify PATH
    entwine cohom PATH --side A --values self --max-degree 3 [--unsafe-degree]
    entwine cup PATH --deg 0 0 [--unsafe-degree]
    entwine equivariant PATH --max-degree 2 [--unsafe-degree]
    entwine deform PATH --max-degree 3 [--unsafe-degree]
    entwine example z2 --out z2.json

Exit codes: 0 all checks passed, 1 a mathematical check failed (the failing
relation or law is named in the report), 2 I/O, parse or resource error (such
as running out of memory).  Each command builds one CheckReport of its checks
and tables, written by --json PATH as a machine-readable report; --seed
(non-negative, default 0) feeds the one sampled check, deform's random
2-cochain; reports are byte-identical across runs for fixed input and seed.
cohom, equivariant and deform take --max-degree (default 3); degrees above 4
are refused unless --unsafe-degree is given, which those three and cup accept.
cohom --side C runs as side A of dual(e) with coefficients V*; verify's regular
(bi)module items are the (co)algebra verdicts, whose identities they are.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import report as rep
from .compalg import ALGEBRA, CompContext, class_products, equivariant_basis, equivariant_checks
from .complexes import build_CpsiAM, cohomology
from .deform import (
    TotalComplex,
    coboundary_witnesses,
    first_order_laws,
    random_two_cochain,
    transport_laws,
)
from .entwining import check_bowtie, dual
from .errors import EntwineError, StructureParseError
from .linalg import hstack, vstack
from .structures import (
    CheckReport,
    dual_bimodule,
    regular_bimodule,
    validate_algebra,
    validate_antipode,
    validate_bialgebra,
    validate_coalgebra,
)
from .zoo import EXAMPLE_NAMES, load, load_coefficients, named_example, save

EXIT_OK = 0
EXIT_MATH = 1
EXIT_IO = 2


def _capped(args, degree, what):
    """degree if it is non-negative and within the degree-4 cap (or the cap is lifted)."""
    if degree < 0:
        raise StructureParseError(f"{what} must be non-negative")
    if degree > 4 and not args.unsafe_degree:
        raise StructureParseError(f"{what} is hard-capped at 4 (pass --unsafe-degree to lift)")
    return degree


def _max_degree(args):
    return _capped(args, args.max_degree, "--max-degree")


def cmd_verify(args):
    # load unchecked: this command's whole point is reporting what fails
    e = load(args.path, validate=False)
    report = CheckReport("verify")
    alg, coalg = validate_algebra(e.algebra), validate_coalgebra(e.coalgebra)
    report.add("algebra axioms", alg.ok, str(alg) if not alg.ok else "")
    report.add("coalgebra axioms", coalg.ok, str(coalg) if not coalg.ok else "")
    if alg.ok and coalg.ok:
        bowtie = check_bowtie(e.algebra, e.coalgebra, e.psi)
        report.items += [(f"bow-tie: {name}", ok, "" if ok else f"witness {w}") for name, ok, w in bowtie.items]
        if e.hopf is not None:
            report.add("bialgebra compatibility", validate_bialgebra(e.hopf).ok)
            report.add("antipode axioms", validate_antipode(e.hopf).ok)
        if bowtie.ok:  # the regular (bi)module axioms are the (co)associativity and (co)unit laws
            report.add("regular bimodule", alg.ok)
            report.add("regular bicomodule", coalg.ok)
    return report, e.summary()


def cmd_cohom(args):
    e = load(args.path)
    n_max = _max_degree(args)
    report = CheckReport("cohom")
    base = e if args.side == "A" else dual(e)  # A_psi(C, V) is C_psi(A, M) of dual(e), M = V*
    if args.values.startswith("file:"):
        coeff = load_coefficients(args.values[5:], e, args.side)
        coeff = coeff if args.side == "A" else dual_bimodule(coeff)
    elif args.values in ("self", "regular"):
        coeff = regular_bimodule(base.algebra)
    else:
        raise StructureParseError(f"unknown --values {args.values!r} (self | regular | file:PATH)")
    cx = build_CpsiAM(base, coeff, n_max)
    betti = {n: cohomology(cx, n).betti for n in range(n_max)}
    report.tables["space dimensions"] = {n: d for n, d in enumerate(cx.space_dims)}
    report.tables["betti numbers"] = betti
    report.add("differentials square to zero", True, "verified at construction")
    return report, e.summary()


def cmd_cup(args):
    m, n = args.deg
    if min(m, n) < 0:
        raise StructureParseError("--deg must be non-negative")
    _capped(args, m + n + 1, "--deg M N builds degree M+N+1, which")
    e = load(args.path)
    report = CheckReport("cup")
    ctx = CompContext(e, ALGEBRA)
    target = ctx.cohomology_at(m + n)  # first, so its complex serves H^m and H^n too
    hm, hn = ctx.cohomology_at(m), ctx.cohomology_at(n)
    report.tables["class counts"] = {f"H^{m}": hm.betti, f"H^{n}": hn.betti, f"H^{m + n}": target.betti}
    cups, sqcups = class_products(ctx, m, n)
    pairs = cups.cols
    rows, nonzero = [], set()
    if pairs:  # reading target.reduce builds the quotient
        classes = target.reduce(hstack([cups, sqcups]))
        cup_classes, sq_classes = classes.select_columns(slice(pairs)), classes.select_columns(slice(pairs, None))
        # reduce is linear, so a residual's class is cup_class - (-1)^{mn} sqcup_class
        residuals = cup_classes + sq_classes if (m * n) % 2 else cup_classes - sq_classes
        nonzero = set(residuals.nonzero_columns())
        columns = classes.transpose().to_fraction_rows()
        rows = [
            {
                "pair": list(divmod(k, hn.betti)),
                "cup_class": [str(v) for v in columns[k]],
                "sqcup_class": [str(v) for v in columns[pairs + k]],
                "residual_vanishes": k not in nonzero,
            }
            for k in range(pairs)
        ]
    report.tables["products on classes"] = rows
    report.add("graded sign rule on cohomology", not nonzero, f"degrees ({m},{n})")
    return report, e.summary()


def cmd_equivariant(args):
    e = load(args.path)
    n_max = _max_degree(args)
    report = CheckReport("equivariant")
    ctx = CompContext(e, ALGEBRA)
    report.tables["equivariant dimensions"] = {n: equivariant_basis(ctx, n).cols for n in range(n_max + 1)}
    report.items += equivariant_checks(ctx, min(n_max, 2)).items
    return report, e.summary()


def cmd_deform(args):
    e = load(args.path)
    n_max = max(3, min(_max_degree(args), 4))  # H^2 needs the degree-3 space
    report = CheckReport("deform")
    tc = TotalComplex(e, n_max)
    report.tables["total complex dimensions"] = {n: d for n, d in enumerate(tc.dims)}
    h2 = cohomology(tc.complex, 2)
    zs = h2.coboundary_basis
    counts = {"cocycles": h2.cocycle_basis.cols, "coboundaries": zs.cols, "classes": h2.betti}
    report.tables["degree-2 classification"] = counts
    failures = [f for f in first_order_laws(e).failures(h2.cocycle_basis) if f]
    for failed in failures:
        report.add("cocycle deforms mod t^2", False, "first-order law failed: " + ", ".join(failed))
    report.add("every basis cocycle deforms mod t^2", not failures, f"{h2.cocycle_basis.cols} cocycles")
    # one witness per coboundary, checked with one product, then every transport at once
    ws = coboundary_witnesses(tc)
    eq_ok = tc.differential(1) @ ws == zs and not any(transport_laws(e).failures(vstack([ws, zs])))
    report.add("every basis coboundary is equivalent to trivial", eq_ok, f"{zs.cols} coboundaries")
    z_bad = random_two_cochain(tc, seed=args.seed)
    if (tc.differential(2) @ z_bad).is_zero():
        report.add("random 2-cochain rejection", True, "sampled a cocycle; nothing to reject")
    else:
        rejected = bool(first_order_laws(e).failures(z_bad)[0])
        report.add("random 2-cochain rejection", rejected, "" if rejected else "non-cocycle accepted")
    return report, e.summary()


def cmd_example(args):
    e = named_example(args.name)
    save(e, args.out)
    report = CheckReport("example")
    report.add(f"wrote {args.name}", True, str(args.out))
    return report, e.summary()


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="entwine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *degree_flags):
        p.add_argument("path", help="structure file (JSON)")
        p.add_argument("--json", dest="json_path", help="write the structured report here")
        p.add_argument("--seed", type=int, default=0)
        if "--max-degree" in degree_flags:
            p.add_argument("--max-degree", type=int, default=3)
        if "--unsafe-degree" in degree_flags:
            p.add_argument("--unsafe-degree", action="store_true", help="lift the degree-4 hard cap")

    p = sub.add_parser("verify", help="run all validators and the bow-tie relations")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohom", help="betti table of the twisted complex")
    common(p, "--max-degree", "--unsafe-degree")
    p.add_argument("--side", choices=["A", "C"], default="A")
    p.add_argument("--values", default="self",
                   help="self | regular (the regular coefficients) | file:PATH (a coefficients file)")
    p.set_defaults(func=cmd_cohom)

    p = sub.add_parser("cup", help="cup products on cohomology classes")
    common(p, "--unsafe-degree")
    p.add_argument("--deg", nargs=2, type=int, default=[0, 0], metavar=("M", "N"))
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("equivariant", help="equivariant subcomplex dimensions and checks")
    common(p, "--max-degree", "--unsafe-degree")
    p.set_defaults(func=cmd_equivariant)

    p = sub.add_parser("deform", help="degree-2 classes and infinitesimal deformations")
    common(p, "--max-degree", "--unsafe-degree")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("example", help="write a named example structure file")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("--out", required=True)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed < 0:
            raise StructureParseError("--seed must be non-negative")
        report, structure = args.func(args)
        rep.render_text(report, structure, elapsed=time.perf_counter() - started)
        if args.json_path:
            rep.write_json(report, structure, args.seed, args.json_path)
    except (StructureParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's allocation failures included: a resource error, not a failed check
        print(f"error: out of memory{f' ({exc})' if str(exc) else ''}", file=sys.stderr)
        return EXIT_IO
    except EntwineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK if report.ok else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

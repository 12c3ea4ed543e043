"""Command-line front end.

    entwine verify PATH
    entwine cohom PATH --side A --values self --max-degree 3 [--unsafe-degree]
    entwine cup PATH --deg 0 0 [--unsafe-degree]
    entwine equivariant PATH --max-degree 2 [--unsafe-degree]
    entwine deform PATH --max-degree 3 [--unsafe-degree]
    entwine example z2 --out z2.json

Exit codes: 0 all checks passed, 1 a mathematical check failed (the failing
relation or law is named in the report), 2 I/O or parse error.  Every command
accepts --json PATH for a machine-readable report and --seed (non-negative,
default 0) for the one sampled check, deform's random 2-cochain; reports are
byte-identical across runs for fixed input and seed.  cohom, equivariant and
deform take --max-degree (default 3); degrees above 4 are refused unless
--unsafe-degree is given, which those three and cup accept.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import report as rep
from .compalg import ALGEBRA, CompContext, class_products, equivariant_basis, equivariant_checks
from .complexes import build_ApsiCV, build_CpsiAM, cohomology
from .deform import (
    TotalComplex,
    coboundary_witnesses,
    first_order_laws,
    random_two_cochain,
    transport_laws,
)
from .entwining import check_bowtie
from .errors import EntwineError, StructureParseError
from .linalg import hstack, vstack
from .structures import (
    regular_bicomodule,
    regular_bimodule,
    validate_algebra,
    validate_antipode,
    validate_bialgebra,
    validate_bicomodule,
    validate_bimodule,
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


def cmd_verify(args) -> dict:
    # load unchecked: this command's whole point is reporting what fails
    e = load(args.path, validate=False)
    report = rep.new_report("verify", e.summary(), args.seed)
    alg = validate_algebra(e.algebra)
    rep.add_check(report, "algebra axioms", alg.ok, str(alg) if not alg.ok else "")
    coalg = validate_coalgebra(e.coalgebra)
    rep.add_check(report, "coalgebra axioms", coalg.ok, str(coalg) if not coalg.ok else "")
    if alg.ok and coalg.ok:
        bowtie = check_bowtie(e.algebra, e.coalgebra, e.psi)
        for name, ok, witness in bowtie.items:
            rep.add_check(report, f"bow-tie: {name}", ok, "" if ok else f"witness {witness}")
        if e.hopf is not None:
            rep.add_check(report, "bialgebra compatibility", validate_bialgebra(e.hopf).ok)
            rep.add_check(report, "antipode axioms", validate_antipode(e.hopf).ok)
        if bowtie.ok:
            m = regular_bimodule(e.algebra)
            v = regular_bicomodule(e.coalgebra)
            rep.add_check(report, "regular bimodule", validate_bimodule(e.algebra, m).ok)
            rep.add_check(report, "regular bicomodule", validate_bicomodule(e.coalgebra, v).ok)
    return report


def cmd_cohom(args) -> dict:
    e = load(args.path)
    n_max = _max_degree(args)
    report = rep.new_report("cohom", e.summary(), args.seed)
    if args.values.startswith("file:"):
        coeff = load_coefficients(args.values[5:], e, args.side)
    elif args.values in ("self", "regular"):
        coeff = regular_bimodule(e.algebra) if args.side == "A" else regular_bicomodule(e.coalgebra)
    else:
        raise StructureParseError(f"unknown --values {args.values!r} (self | regular | file:PATH)")
    cx = build_CpsiAM(e, coeff, n_max) if args.side == "A" else build_ApsiCV(e, coeff, n_max)
    betti = {n: cohomology(cx, n).betti for n in range(n_max)}
    rep.add_table(report, "space dimensions", {n: d for n, d in enumerate(cx.space_dims)})
    rep.add_table(report, "betti numbers", betti)
    rep.add_check(report, "differentials square to zero", True, "verified at construction")
    return report


def cmd_cup(args) -> dict:
    m, n = args.deg
    if min(m, n) < 0:
        raise StructureParseError("--deg must be non-negative")
    _capped(args, m + n + 1, "--deg M N builds degree M+N+1, which")
    e = load(args.path)
    report = rep.new_report("cup", e.summary(), args.seed)
    ctx = CompContext(e, ALGEBRA)
    target = ctx.cohomology_at(m + n)  # first, so its complex serves H^m and H^n too
    hm, hn = ctx.cohomology_at(m), ctx.cohomology_at(n)
    rep.add_table(
        report,
        "class counts",
        {f"H^{m}": hm.betti, f"H^{n}": hn.betti, f"H^{m + n}": target.betti},
    )
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
    rep.add_table(report, "products on classes", rows)
    rep.add_check(report, "graded sign rule on cohomology", not nonzero, f"degrees ({m},{n})")
    return report


def cmd_equivariant(args) -> dict:
    e = load(args.path)
    n_max = _max_degree(args)
    report = rep.new_report("equivariant", e.summary(), args.seed)
    ctx = CompContext(e, ALGEBRA)
    dims = {n: equivariant_basis(ctx, n).cols for n in range(n_max + 1)}
    rep.add_table(report, "equivariant dimensions", dims)
    checks = equivariant_checks(ctx, min(n_max, 2))
    for name, ok, detail in checks.items:
        rep.add_check(report, name, ok, detail)
    return report


def cmd_deform(args) -> dict:
    e = load(args.path)
    n_max = max(3, min(_max_degree(args), 4))  # H^2 needs the degree-3 space
    report = rep.new_report("deform", e.summary(), args.seed)
    tc = TotalComplex(e, n_max)
    rep.add_table(report, "total complex dimensions", {n: d for n, d in enumerate(tc.dims)})
    h2 = cohomology(tc.complex, 2)
    zs = h2.coboundary_basis
    counts = {"cocycles": h2.cocycle_basis.cols, "coboundaries": zs.cols, "classes": h2.betti}
    rep.add_table(report, "degree-2 classification", counts)
    failures = [f for f in first_order_laws(e).failures(h2.cocycle_basis) if f]
    for failed in failures:
        rep.add_check(report, "cocycle deforms mod t^2", False, "first-order law failed: " + ", ".join(failed))
    rep.add_check(report, "every basis cocycle deforms mod t^2", not failures, f"{h2.cocycle_basis.cols} cocycles")
    # one witness per coboundary, checked with one product, then every transport at once
    ws = coboundary_witnesses(tc)
    eq_ok = tc.differential(1) @ ws == zs and not any(transport_laws(e).failures(vstack([ws, zs])))
    rep.add_check(report, "every basis coboundary is equivalent to trivial", eq_ok, f"{zs.cols} coboundaries")
    z_bad = random_two_cochain(tc, seed=args.seed)
    if (tc.differential(2) @ z_bad).is_zero():
        rep.add_check(report, "random 2-cochain rejection", True, "sampled a cocycle; nothing to reject")
    else:
        rejected = bool(first_order_laws(e).failures(z_bad)[0])
        rep.add_check(report, "random 2-cochain rejection", rejected, "" if rejected else "non-cocycle accepted")
    return report


def cmd_example(args) -> dict:
    e = named_example(args.name)
    save(e, args.out)
    report = rep.new_report("example", e.summary(), args.seed)
    rep.add_check(report, f"wrote {args.name}", True, str(args.out))
    return report


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
        report = args.func(args)
        rep.render_text(report, elapsed=time.perf_counter() - started)
        if args.json_path:
            rep.write_json(report, args.json_path)
    except (StructureParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EntwineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK if rep.all_passed(report) else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

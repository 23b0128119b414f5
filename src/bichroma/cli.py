"""Command-line surface.

Exit codes: 0 success, 1 precondition error, 2 parse error, 3 audit
disagreement beyond the documented third-coefficient whitelist.
"""

import argparse
import os
import sys

from . import acceptance
from .graphs import GraphError, census
from .engine import (TooLarge, audit_coefficients, coeff_formula_second,
                     poly_interpolated, poly_partition, poly_recursive)
from .enumeration import (exhaustive_audit, records_to_csv, root_cloud,
                          write_thm24_disagreements)
from .families import FamilySpec, TooSmall, build_family
from .invariance import admits_invariant_colouring, is_invariant_structural
from .meg import MegParseError, load_mixed, parse_graph6, write_meg
from .polynomial import display
from .roots import ConvergenceFailure, find_roots
from .svg import emit_svg

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2
EXIT_AUDIT = 3

_ENGINES = {
    "recursive": poly_recursive,
    "partition": poly_partition,
    "interpolate": poly_interpolated,
}


def _default_seed():
    env = os.environ.get("BICHROMA_SEED")
    return int(env) if env else acceptance.DEFAULT_SEED


def cmd_poly(args):
    M = load_mixed(args.file)
    print(display(_ENGINES[args.engine](M)))
    return EXIT_OK


def cmd_coeffs(args):
    M = load_mixed(args.file)
    c = census(M)
    print("red=%d blue=%d flexible=%d bichromatic_pairs=%d triangles=%d "
          "obstructing=%d" % c.as_tuple())
    print("second coefficient: formula %d" % coeff_formula_second(M))
    if M.n >= 2:
        audit = audit_coefficients(M)
        print("second coefficient: true    %d (%s)"
              % (audit.true_second, "agree" if audit.agrees_second else "DISAGREE"))
        print("third coefficient:  formula %d" % audit.formula_third)
        print("third coefficient:  true    %d (%s)"
              % (audit.true_third, "agree" if audit.agrees_third else "DISAGREE"))
    return EXIT_OK


def cmd_audit(args):
    summary = exhaustive_audit(args.n)
    print("n=%d: %d labelled mixed instances, %d colouring instances"
          % (summary.n, summary.mixed_instances, summary.colouring_instances))
    print("engine agreement:  %d/%d" % (summary.engine_agreements,
                                        summary.mixed_instances))
    print("theorem 2.1:       %d/%d" % (summary.thm21_ok, summary.mixed_instances))
    print("theorem 2.2:       %d/%d" % (summary.thm22_agreements,
                                        summary.mixed_instances))
    print("theorem 2.4:       %d/%d (%d documented disagreements)"
          % (summary.thm24_agreements, summary.mixed_instances,
             len(summary.thm24_disagreements)))
    print("theorem 3.2 equiv: %d/%d" % (summary.thm32_equivalences,
                                        summary.colouring_instances))
    print("theorem 3.3 equiv: %d/%d" % (summary.thm33_equivalences,
                                        summary.colouring_instances))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "thm24_disagreements_n%d.csv" % args.n)
        write_thm24_disagreements(path, summary.thm24_disagreements)
        print("disagreement census written to %s" % path)
    # third-coefficient disagreements are the documented whitelist; any
    # other failure is a regression
    if not summary.clean_except_thm24():
        return EXIT_AUDIT
    return EXIT_OK


def cmd_invariant(args):
    M = load_mixed(args.file)
    report = is_invariant_structural(M)
    if report.invariant:
        print("chromatically invariant")
    else:
        print("not invariant: induced bichromatic %s on vertices %s"
              % ("2-path" if report.witness.kind == "path" else "2K2",
                 " ".join(str(v) for v in report.witness.vertices)))
    return EXIT_OK


def cmd_synth(args):
    with open(args.file) as fh:
        graph = parse_graph6(fh.read())
    bip = admits_invariant_colouring(graph)
    if bip is None:
        print("no non-trivial invariant colouring with both colours at "
              "every vertex")
        return EXIT_OK
    from .invariance import construct_join_colouring
    coloured = construct_join_colouring(graph, bip)
    left, right = bip
    print("sides: {%s} | {%s}" % (",".join(map(str, sorted(left))),
                                  ",".join(map(str, sorted(right)))))
    out = args.out or (os.path.splitext(args.file)[0] + ".meg")
    with open(out, "w") as fh:
        fh.write(write_meg(coloured))
    print("colouring written to %s" % out)
    return EXIT_OK


def cmd_family(args):
    spec = FamilySpec(args.kind, tuple(args.params))
    graph, closed = build_family(spec)
    if closed is None:
        print("%s has no closed form; graph has %d vertices and %d edges"
              % (args.kind, graph.n, len(graph.edges)))
    else:
        print(display(closed))
        rs = find_roots(closed)
        if rs.integer_roots:
            print("integer roots: %s" % " ".join(str(r) for r in rs.integer_roots))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_meg(graph))
        print("graph written to %s" % args.out)
    return EXIT_OK


def cmd_roots(args):
    M = load_mixed(args.file)
    p = poly_partition(M)
    print(display(p))
    rs = find_roots(p, tol=args.tol)
    for r in rs.integer_roots:
        print("integer  %d" % r)
    for v, res, m in rs.real_roots:
        print("real     %.12g  (residual %.2g, multiplicity %d)" % (v, res, m))
    for re, im, res, m in rs.complex_roots:
        print("complex  %.12g + %.12gi  (residual %.2g, multiplicity %d, "
              "conjugate implied)" % (re, im, res, m))
    return EXIT_OK


def cmd_cloud(args):
    records = root_cloud(args.n, args.universe)
    print("%d records" % len(records))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(records_to_csv(records))
        print("csv written to %s" % args.csv)
    if args.svg:
        emit_svg(records, args.svg)
        print("svg written to %s" % args.svg)
    return EXIT_OK


def cmd_verify(args):
    results = acceptance.run_all(seed=args.seed, out_dir=args.out)
    failed = [num for num, ok, _ in results if not ok]
    if failed:
        print("FAILED criteria: %s" % ", ".join(map(str, failed)))
        return EXIT_AUDIT
    print("all %d criteria passed" % len(results))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bichroma",
        description="Chromatic polynomials of mixed 2-edge-coloured graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print the chromatic polynomial of a .meg/.g6 file")
    p.add_argument("file")
    p.add_argument("--engine", choices=sorted(_ENGINES), default="partition")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("coeffs", help="census plus coefficient formulas vs truth")
    p.add_argument("file")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("audit", help="exhaustive theorem audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("invariant", help="chromatic-invariance report")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("synth", help="find and write an invariant colouring of a graph6 graph")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("family", help="build a special family member")
    p.add_argument("kind", choices=["mono_union", "gk2", "cor42", "thm45", "hshift"])
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("roots", help="roots of a graph's chromatic polynomial")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("cloud", help="root cloud of all connected n-vertex graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--universe", choices=["bichromatic", "monochromatic"],
                   default="bichromatic")
    p.add_argument("--csv")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_cloud)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--out", default="bichroma-verify")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MegParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (GraphError, TooLarge, TooSmall, ConvergenceFailure, ValueError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

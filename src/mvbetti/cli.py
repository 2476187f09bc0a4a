"""Command-line front end.

Subcommands on arrangement files: `betti`, `e1`, `e2`, `poset`, `oracle`,
`check`; on double-complex files: `ss`.  Exit codes: 0 success, 1 parse or
validation error, 2 more hyperplanes than the cap on those given to
`count_flats` and the poset sweep, or a usage error (argparse raises
SystemExit(2)), 3 consistency failure (oracle mismatch, negative alternating
sum, an E2 entry off its position or degree range, or convergence failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import textwrap
from itertools import chain

from .arrangement import PROJECTIVE, _affine_chart, _lines, equation_text, parse_arrangement
from .betti import BettiReport, compute_betti
from .errors import CapExceededError, ConsistencyError, ParseError, ValidationError
from .flats import DEFAULT_CAP, build_intersection_poset, mobius_betti, whitney_betti
from .linalg import rref_entries
from .spectral import (
    HORIZONTAL,
    VERTICAL,
    cohomology_dims,
    pages,
    parse_double_complex,
    total_complex,
    verify_convergence,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first `main` call and shared by later ones: `parse_args`
    # leaves the parser unchanged, and help is formatted afresh each time.
    parser = argparse.ArgumentParser(
        prog="mvbetti",
        description="Betti numbers of hyperplane arrangement complements "
        "and spectral sequences of double complexes, computed exactly.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    arrangement_cmds = {
        "betti": ("Betti numbers and Poincare polynomial of the complement",
                  {"--verbose", "--no-oracle"}),
        "e1": ("first page of the Mayer-Vietoris spectral sequence", {"--no-oracle"}),
        "e2": ("second (limit) page of the Mayer-Vietoris spectral sequence", {"--no-oracle"}),
        "poset": ("intersection poset with codimensions and Moebius values", set()),
        "oracle": ("both combinatorial Betti oracles", set()),
        "check": ("full pipeline plus every cross-check; nonzero exit on failure",
                  {"--verbose"}),
    }
    for name, (help_text, flags) in arrangement_cmds.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="arrangement file")
        p.add_argument("--infinity", type=int, default=None, metavar="K",
                       help="index (0-based) of the hyperplane at infinity (projective input)")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="R",
                       help="most hyperplanes given to count_flats and the poset sweep "
                       f"(default {DEFAULT_CAP})")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        # Only the flags a subcommand reads: any other is a usage error, not ignored.
        if "--verbose" in flags:
            p.add_argument("--verbose", action="store_true")
        if "--no-oracle" in flags:
            p.add_argument("--no-oracle", action="store_true", help="skip the oracle cross-checks")
    p = sub.add_parser("ss", help="pages and convergence of a double-complex file")
    p.add_argument("input", help="double complex file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verbose", action="store_true")
    return parser


def _page_entries(page) -> list:
    return [[p, q, d] for (p, q), d in sorted(page.dims.items())] if page else None


def _report_json(report: BettiReport) -> dict:
    oracle = None
    if report.oracle_betti is not None:
        oracle = {"mobius": list(report.oracle_betti), "whitney": list(report.oracle_whitney)}
    return {
        "kind": report.kind,
        "n": report.n,
        "r": report.r,
        "essential_rank": report.essential_rank,
        "shift": report.shift,
        "betti": list(report.betti),
        "poincare": list(report.poincare),
        "e1": _page_entries(report.e1),
        "e2": _page_entries(report.e2),
        "oracle": oracle,
        "agreement": report.agreement,
    }


def _format_page(dims: dict) -> str:
    if not dims:
        return "  (empty page)"
    ps = sorted({p for p, _ in dims})
    qs = sorted({q for _, q in dims}, reverse=True)
    width = max(
        [len(str(d)) for d in dims.values()]
        + [len(str(p)) for p in ps]
        + [len(str(q)) for q in qs]
    )
    header = "q\\p".rjust(6) + "".join(str(p).rjust(width + 2) for p in ps)
    lines = [header]
    for q in qs:
        cells = "".join(str(dims.get((p, q), ".")).rjust(width + 2) for p in ps)
        lines.append(str(q).rjust(6) + cells)
    return "\n".join(lines)


def _poincare_str(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            t = "t" if k == 1 else f"t^{k}"
            terms.append(t if c == 1 else f"{c}{t}")
    return " + ".join(terms) if terms else "0"


def _print_report(args, report: BettiReport):
    if args.json:
        print(json.dumps(_report_json(report), sort_keys=True))
        return
    if args.subcommand in ("betti", "check"):
        print("betti: " + " ".join(str(b) for b in report.betti))
        print("poincare: " + _poincare_str(report.poincare))
        if args.verbose:
            print(f"kind: {report.kind}")
            print(f"n: {report.n}  r: {report.r}")
            print(f"essential rank: {report.essential_rank}  shift: {report.shift}")
            print(f"general position: {'yes' if report.general_position else 'no'}")
            grading = " ".join(f"H^{i}={d}" for i, d in sorted(report.graded.items()))
            print(f"direct-image grading: {grading}")
        if report.agreement is not None:
            print(f"oracle agreement: {'yes' if report.agreement else 'NO'}")
            if args.verbose or not report.agreement:
                print("  mobius:  " + " ".join(str(b) for b in report.oracle_betti))
                print("  whitney: " + " ".join(str(b) for b in report.oracle_whitney))
    elif args.subcommand in ("e1", "e2"):
        page = report.e1 if args.subcommand == "e1" else report.e2
        if page is None:
            print("(no hyperplanes: no spectral sequence)")
        else:
            print(f"page {page.page} (n={page.n}, r={page.r}):")
            print(_format_page(page.dims))


def _read_input(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a ParseError on their line.

    Lines are counted by `arrangement._lines`, as the parser counts them;
    the bytes before the first bad one are UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise ParseError("not UTF-8 text", line=line) from None


def _run_arrangement(args) -> int:
    arr = parse_arrangement(_read_input(args.input))
    if args.infinity is not None and arr.kind != PROJECTIVE:
        raise ValidationError("--infinity is only valid for projective input")

    if args.subcommand in ("poset", "oracle"):
        # These inspect the affine picture directly, so decone here.
        arr = _affine_chart(arr, args.infinity)

    if args.subcommand == "poset":
        n = arr.ambient_dim
        # Sorted by codimension, then by the rational echelon entries; every
        # equation is written before anything is printed.
        flats = [
            {"dim": dim, "codim": codim, "mobius": mu, "equations": _flat_equations(entries, n)}
            for codim, entries, dim, mu in sorted(
                (n - f.dimension, rref_entries(f.rows, f.pivots), f.dimension, mu)
                for f, mu in build_intersection_poset(arr, args.cap).sweep
            )
        ]
        if args.json:
            doc = {"kind": arr.kind, "n": n, "r": arr.r, "flats": flats}
            print(json.dumps(doc, sort_keys=True))
        else:
            print(f"{len(flats)} flats:")
            for f in flats:
                eqs = "; ".join(f["equations"]) or "(ambient space)"
                print(f"  dim={f['dim']} codim={f['codim']} mu={f['mobius']:+d}  {eqs}")
        return 0

    if args.subcommand == "oracle":
        poset = build_intersection_poset(arr, args.cap)
        mobius, whitney = mobius_betti(poset), whitney_betti(poset)
        agree = mobius == whitney
        if args.json:
            doc = {
                "kind": arr.kind,
                "n": arr.ambient_dim,
                "r": arr.r,
                "oracle": {"mobius": list(mobius), "whitney": list(whitney)},
                "agreement": agree,
            }
            print(json.dumps(doc, sort_keys=True))
        else:
            print("mobius:  " + " ".join(str(b) for b in mobius))
            print("whitney: " + " ".join(str(b) for b in whitney))
        return 0 if agree else 3

    report = compute_betti(
        arr,
        infinity_index=args.infinity,
        cap=args.cap,
        oracles=args.subcommand == "check" or not args.no_oracle,
    )
    _print_report(args, report)
    if report.agreement is False:
        print(
            f"inconsistency: pipeline {report.betti} disagrees with oracles "
            f"(mobius {report.oracle_betti}, whitney {report.oracle_whitney})",
            file=sys.stderr,
        )
        return 3
    return 0


def _flat_equations(entries: list, n: int) -> list:
    # `entries` are a flat's rational echelon rows [a_1 ... a_n | c], row-major.
    try:
        return [equation_text(entries[i : i + n + 1]) for i in range(0, len(entries), n + 1)]
    except ValueError:  # `str` of an int with more digits than Python converts
        raise ValidationError(
            "a flat equation has an entry of more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for writing an "
            "integer as text (PYTHONINTMAXSTRDIGITS raises it)"
        ) from None


def _run_ss(args) -> int:
    dc = parse_double_complex(_read_input(args.input))
    tc = total_complex(dc)
    h = cohomology_dims(tc)
    box = dc.support_box()
    r_max = 2 if box is None else max(2, max(box[1] - box[0], box[3] - box[2]) + 2)
    results = {}
    for filtration in (HORIZONTAL, VERTICAL):
        pt = pages(dc, filtration, r_max)
        results[filtration] = (pt, verify_convergence(pt, h))
    converged = all(ok for _, ok in results.values())
    if args.json:
        doc = {
            "total_cohomology": {str(k): v for k, v in sorted(h.items())},
            "r_max": r_max,
            "filtrations": {
                name: {
                    "stable_at": pt.stable_at,
                    "converges": ok,
                    "pages": {
                        str(r): [[p, q, d] for (p, q), d in sorted(pt.page(r).items())]
                        for r in range(r_max + 1)
                    },
                }
                for name, (pt, ok) in results.items()
            },
            "converges": converged,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        htext = " ".join(f"H^{k}={v}" for k, v in sorted(h.items())) or "0"
        print(f"total cohomology: {htext}")
        for name, (pt, ok) in results.items():
            # Every bar dies by page spread + 1 < r_max, so stable_at < r_max.
            print(f"filtration {name}: stable at r={pt.stable_at}, "
                  f"converges: {'yes' if ok else 'NO'}")
            shown = ((r, pt.page(r)) for r in (range(r_max + 1) if args.verbose else (1, 2)))
            for label, dims in chain(shown, [("inf", pt.limit())]):
                print(f"  E_{label}:")
                print(textwrap.indent(_format_page(dims), "  "))
    return 0 if converged else 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "ss":
            return _run_ss(args)
        if args.cap < 1:
            raise ValidationError("--cap bounds the hyperplanes given to count_flats and "
                                  "the poset sweep; it must be at least 1")
        return _run_arrangement(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

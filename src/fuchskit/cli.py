"""fuchs-kit: command-line front end.

Reads exact JSON descriptions of differential modules or representations,
runs the requested computation, and prints a deterministic JSON document
(sorted keys, exact rationals).  Exit codes: 0 success, 1 typed domain
error (machine-readable error object), 2 malformed input.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import jsonio
from .errors import FuchsKitError, InputError
from .expring import solve_dsigma, solve_partial
from .functors import (
    DEFAULT_DEGREE_BOUND,
    _hom_report,
    ensure_constant_form,
    exponents,
    fuchs_decomposition,
    mon,
    rm,
)
from .diffmod import DiffModule, ext_dim
from .sigmamod import trivialize


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuchs-kit",
        description="Exact computations with regular singular differential modules over K[t,1/t].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "exponents": "multiset of exponents of a differential module",
        "mon": "monodromy representation of a differential module",
        "rm": "differential module attached to a representation of Z",
        "constant-form": "gauge to a constant connection matrix",
        "fuchs": "Fuchs decomposition: triangularizing gauge and rank-one factors",
        "solve": "solve d_sigma(x) = y or partial(x) = y in the exponent ring",
        "hom": "basis of horizontal morphisms between two modules",
        "ext": "dimension of the Yoneda extension group Ext(M, N)",
        "trivialize": "trivializing matrix of a representation over the exponent ring",
        "verify": "run the seeded property suites",
    }
    parsers = {}
    for name, description in descriptions.items():
        p = parsers[name] = sub.add_parser(name, help=description)
        if name != "verify":
            p.add_argument("--input", help="path to the JSON input ('-' for stdin)")
            p.add_argument("--json", dest="inline", help="inline JSON input")
    for name in ("exponents", "mon", "constant-form", "fuchs", "hom", "ext"):
        parsers[name].add_argument(
            "--exponent-candidates",
            help="comma separated classes p/q used by the constant-form search",
        )
        parsers[name].add_argument(
            "--degree-bound",
            type=int,
            default=DEFAULT_DEGREE_BOUND,
            help="Laurent degree window for the constant-form search",
        )
    parsers["verify"].add_argument("--suite", default="all", help="property id prefix or 'all'")
    parsers["verify"].add_argument("--seed", type=int, default=42)
    parsers["verify"].add_argument("--cases", type=int, default=8)
    parsers["verify"].add_argument("--max-dim", type=int, default=5)
    return parser


def _read_input(args):
    if args.inline is not None and args.input is not None:
        raise InputError("give either --input or --json, not both")
    if args.inline is not None:
        text = args.inline
    elif args.input is not None:
        try:
            text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read --input: {exc}") from None
    else:
        raise InputError("missing input: use --input <path> or --json <text>")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None


def _search_options(args):
    opts = {}
    if getattr(args, "exponent_candidates", None) is not None:
        opts["exponent_candidates"] = [
            jsonio.decode_exponent_class(part.strip(), "exponent candidate")
            for part in args.exponent_candidates.split(",")
        ]
    if getattr(args, "degree_bound", None) is not None:
        if args.degree_bound < 0:
            raise InputError("--degree-bound must be nonnegative")
        opts["laurent_degree_bound"] = args.degree_bound
    return opts


def _pair_input(doc):
    jsonio._expect_dict(doc, "input", ("left", "right"))
    return (
        jsonio.decode_diffmodule(doc["left"], "left"),
        jsonio.decode_diffmodule(doc["right"], "right"),
    )


def _run_command(args):
    if args.command == "verify":
        from .generate import Sizes
        from .verify import PROPERTIES, run_suite

        only = None if args.suite == "all" else args.suite
        if only and not any(prop_id.startswith(only) for prop_id, _ in PROPERTIES):
            raise InputError(f"--suite {only!r} matches no property id")
        if args.cases < 1 or args.max_dim < 1:
            raise InputError("--cases and --max-dim must be positive")
        return run_suite(seed=args.seed, cases=args.cases, sizes=Sizes(max_dim=args.max_dim), only=only)

    doc = _read_input(args)
    if args.command == "exponents":
        module = jsonio.decode_diffmodule(doc)
        ms = exponents(module, **_search_options(args))
        return {"exponents": jsonio.encode_exponent_multiset(ms)}
    if args.command == "mon":
        module = jsonio.decode_diffmodule(doc)
        return jsonio.encode_sigmamodule(mon(module, **_search_options(args)))
    if args.command == "rm":
        v = jsonio.decode_sigmamodule(doc)
        return jsonio.encode_diffmodule(rm(v))
    if args.command == "constant-form":
        module = jsonio.decode_diffmodule(doc)
        cf = ensure_constant_form(module, **_search_options(args))
        return jsonio.encode_constant_form(cf)
    if args.command == "fuchs":
        module = jsonio.decode_diffmodule(doc)
        fd = fuchs_decomposition(module, **_search_options(args))
        return {
            "gauge": jsonio.encode_matrix(fd.gauge, jsonio.encode_laurent),
            "triangular": jsonio.encode_matrix(fd.triangular, jsonio.encode_cyclotomic),
            "factors": [jsonio.encode_cyclotomic(x) for x in fd.factors],
            "exponents": jsonio.encode_exponent_multiset(fd.exponent_multiset),
        }
    if args.command == "solve":
        jsonio._expect_dict(doc, "input", ("operator", "target"))
        operator = doc["operator"]
        target = jsonio.decode_expring(doc["target"], "target")
        if operator == "dsigma":
            solution = solve_dsigma(target)
        elif operator == "partial":
            solution = solve_partial(target)
        else:
            raise InputError('operator must be "dsigma" or "partial"')
        return {"solution": jsonio.encode_expring(solution)}
    if args.command in ("hom", "ext"):
        # a constant module is its own constant form, so nothing below
        # searches again
        c1, c2 = (
            DiffModule.from_constant(ensure_constant_form(m, **_search_options(args)).constant)
            for m in _pair_input(doc)
        )
        if args.command == "ext":
            return {"dimension": ext_dim(c1, c2)}
        space, report = _hom_report(c1, c2)
        return {
            "dimension": space.dimension,
            "basis": [jsonio.encode_matrix(f, jsonio.encode_laurent) for f in space.basis],
            "mon_comparison": report,
        }
    if args.command == "trivialize":
        v = jsonio.decode_sigmamodule(doc)
        b = trivialize(v)
        return {"basis": jsonio.encode_matrix(b, jsonio.encode_expring)}
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, indent, code = _run_command(args), 2, 0
    except InputError as exc:
        doc, indent, code = {"error": {"type": "InvalidInput", "message": str(exc)}}, None, 2
    except FuchsKitError as exc:
        doc, indent, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 2, 1
    try:
        print(json.dumps(doc, indent=indent, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): point stdout at
        # devnull so that the flush at exit cannot raise again, and fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

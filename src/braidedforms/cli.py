"""Batch front-end.

Commands
  check           verify the axioms of a structure-constant file
  wedge-dims      per-degree dimensions of the antisymmetric tensor algebra
  build-calculus  construct the exterior algebra of forms and verify it
  classify        close candidate generator sets and tabulate their calculi

Exit codes
  0  success: every requested axiom/verification passed
  1  an axiom or verification failed (including unstable submodule generators
     and structure maps that do not factor, e.g. on a non-Hopf algebra)
  2  input file missing, malformed, or schema violation, an --out path
     that cannot be written, or a malformed command line (an unknown or
     missing command, option or value, a missing or extra FILE, a bad choice,
     or a --max-degree that is not an integer >= 1)
  3  the requested construction exceeds the desk-scale resource bound, or
     runs out of memory

Reports are JSON with "schema_version"; identical inputs always produce
bit-identical reports (exact arithmetic, no randomness, sorted keys).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import io
from .bimodules import check_crossed_module, check_hopf_bimodule
from .braiding import check_yang_baxter
from .calculus import (
    crossed_submodule_closure,
    exterior_calculus,
    exterior_calculus_via_comma,
    kernel_counit_crossed,
    read_off_submodule,
    smash_calculus,
    verify_calculus,
)
from .checks import Checks
from .errors import BraidedFormsError, NotASubmodule, ParseError, TooLarge
from .hopf import check_hopf
from .matrix import Matrix
from .tensor_hopf import build_wedge, wedge_vs_quadratic

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_TOO_LARGE = 3


def _emit(report: dict, out: str | None) -> None:
    report = {"schema_version": io.SCHEMA_VERSION, **report}
    if out:
        try:
            io.save_json(report, out)
        except OSError as exc:
            raise ParseError(f"cannot write the report: {exc}") from exc
    else:
        sys.stdout.write(io.dumps(report))


def _print_checks(checks: Checks, failed_only: bool = False) -> None:
    for name, witness in sorted(checks.first.items()):
        if witness is None and failed_only:
            continue
        mark = "ok" if witness is None else f"FAIL ({witness})"
        print(f"  {name:<24} {mark}")


def cmd_check(args) -> int:
    obj = io.load_json(args.file)
    checks = CHECKERS[args.kind](obj, io.Path(args.file).parent)
    report = {"command": "check", "kind": args.kind, "checks": checks.to_obj()}
    print(f"check {args.kind}: {args.file}")
    _print_checks(checks)
    _emit(report, args.out)
    return EXIT_OK if checks.ok else EXIT_FAIL


def cmd_wedge_dims(args) -> int:
    obj = io.load_json(args.file)
    space = io.braiding_from_obj(obj)
    report = {"command": "wedge-dims", "max_degree": args.max_degree}
    if args.compare_quadratic:
        cmp = wedge_vs_quadratic(space, args.max_degree)
        report["dims"] = cmp["wedge_dims"]
        report["quadratic_dims"] = cmp["quadratic_dims"]
        report["equal"] = cmp["equal"]
        report["first_unequal_degree"] = cmp["first_unequal_degree"]
        print("wedge dims:    " + ",".join(map(str, cmp["wedge_dims"])))
        print("quadratic dims: " + ",".join(map(str, cmp["quadratic_dims"])))
        if cmp["equal"]:
            print("EQUAL")
        else:
            print(f"UNEQUAL from degree {cmp['first_unequal_degree']}")
    else:
        w = build_wedge(space, args.max_degree)
        report["dims"] = list(w.dims)
        print("wedge dims: " + ",".join(map(str, w.dims)))
    _emit(report, args.out)
    return EXIT_OK


def _route_report(calc, N: int, route: str, verified: list) -> tuple[dict, Checks]:
    """The route's report entry and checks.  `verified` holds the (blocks,
    checks) of each algebra this command has verified: the checks read only
    the blocks, so an algebra whose blocks equal a held entry's takes its
    checks, and any other is verified and added."""
    # no route table built at import: a tracer that rebinds this module's
    # names must see both builders' calls
    build = exterior_calculus if route == "biproduct" else exterior_calculus_via_comma
    alg = build(calc, N)
    blocks = alg.blocks()
    for seen, checks in verified:
        if seen == blocks:
            break
    else:
        checks = verify_calculus(alg)
        verified.append((blocks, checks))
    return {
        "dims": list(alg.dims),
        "checks": checks.to_obj(),
        "d_blocks": [d.to_obj() for d in alg.differential],
    }, checks


def cmd_build_calculus(args) -> int:
    obj = io.load_json(args.file)
    calc = io.calculus_from_obj(obj, io.Path(args.file).parent)
    fodc_checks = verify_calculus(calc)
    report = {"command": "build-calculus", "max_degree": args.max_degree,
              "route": args.route, "fodc_checks": fodc_checks.to_obj()}
    if not fodc_checks.ok:
        # the forms exist only over a first-order calculus: on a broken X the
        # derived braiding need not even be invertible
        print("first-order calculus: CHECKS FAILED")
        _print_checks(fodc_checks, failed_only=True)
        _emit(report, args.out)
        return EXIT_FAIL
    ok = True
    routes = ["maximal", "biproduct"] if args.route == "both" else [args.route]
    verified = []
    for route in routes:
        sub, checks = _route_report(calc, args.max_degree, route, verified)
        ok = ok and checks.ok
        if args.route == "both":
            report.setdefault("routes", {})[route] = sub
        else:
            report.update(sub)
        print(f"route {route}: dims " + ",".join(map(str, sub["dims"]))
              + ("  all checks pass" if checks.ok else "  CHECKS FAILED"))
        _print_checks(checks, failed_only=True)
    if args.route == "both":
        agree = report["routes"]["maximal"]["dims"] == report["routes"]["biproduct"]["dims"]
        report["routes_agree"] = agree
        ok = ok and agree
        print("routes agree on dims" if agree else "ROUTES DISAGREE on dims")
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_classify(args) -> int:
    obj = io.load_json(args.file)
    h = io.classify_hopf(obj, io.Path(args.file).parent)
    # the generators live in Ker eps, whose dimension the counit gives at
    # once, so a bad candidate list fails before any structure is built
    ker_dim = h.dim - h.counit.rank()
    if "candidates" in obj:
        if not isinstance(obj["candidates"], list):
            raise ParseError('"candidates" must be a list of generator lists')
        candidates = [io.generators_from_obj(vecs, ker_dim) for vecs in obj["candidates"]]
    else:
        # default sweep: no generators, each coordinate vector, all of them
        eye = Matrix.identity(ker_dim)
        candidates = [Matrix.zero(ker_dim, 0)] + [eye.col(c) for c in range(ker_dim)] + [eye]
    mc, ik = kernel_counit_crossed(h)
    entries = []
    ok = True
    calculi = {}  # closed echelon basis -> (calculus, roundtrip): each built once
    for gens in candidates:
        closed = crossed_submodule_closure(mc, gens)
        if closed not in calculi:
            calc = smash_calculus(mc, ik, closed)
            calculi[closed] = calc, read_off_submodule(calc) == closed
        calc, roundtrip = calculi[closed]
        ok = ok and roundtrip
        entries.append({
            "generators": gens.cols,
            "closure_dim": closed.cols,
            "calculus_dim": calc.x.dim,
            "roundtrip": roundtrip,
        })
        print(f"  {gens.cols} generator(s) -> submodule dim {closed.cols}, "
              f"calculus dim {calc.x.dim}, roundtrip {'ok' if roundtrip else 'FAIL'}")
    report = {"command": "classify", "ker_counit_dim": mc.dim, "entries": entries}
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# check kind -> checker(obj, base dir). Each looks up its names when called:
# a tracer that rebinds this module's names must see the calls.
CHECKERS = {
    "hopf": lambda obj, base: check_hopf(io.hopf_from_obj(obj)),
    "braiding": lambda obj, base: check_yang_baxter(io.braiding_from_obj(obj).psi),
    "bimodule": lambda obj, base: check_hopf_bimodule(io.bimodule_from_obj(obj, base)),
    "crossed": lambda obj, base: check_crossed_module(io.crossed_from_obj(obj, base)),
    "calculus": lambda obj, base: verify_calculus(io.calculus_from_obj(obj, base)),
}
REQUIRED = object()  # the default of an option that must be given

# command -> (handler, {option: (kind, default)}). A kind is bool (a flag),
# int (a count >= 1), str, or a tuple of the choices.
COMMANDS = {
    "check": (cmd_check, {
        "--kind": (tuple(CHECKERS), REQUIRED),
        "--out": (str, None)}),
    "wedge-dims": (cmd_wedge_dims, {
        "--max-degree": (int, 4),
        "--compare-quadratic": (bool, False),
        "--out": (str, None)}),
    "build-calculus": (cmd_build_calculus, {
        "--max-degree": (int, 3),
        "--route": (("maximal", "biproduct", "both"), "biproduct"),
        "--out": (str, None)}),
    "classify": (cmd_classify, {
        "--out": (str, None)}),
}

USAGE = """Usage
  braidedforms check FILE --kind {hopf,braiding,bimodule,crossed,calculus} [--out REPORT]
  braidedforms wedge-dims FILE [--max-degree N] [--compare-quadratic] [--out REPORT]
  braidedforms build-calculus FILE [--max-degree N] [--route {maximal,biproduct,both}] [--out REPORT]
  braidedforms classify FILE [--out REPORT]
"""


def _help(args) -> int:
    print(__doc__ + "\n" + USAGE, end="")
    return EXIT_OK


def _option(token: str, options: dict) -> str:
    """The option that token names in full or by an unambiguous prefix."""
    if token in options:
        return token
    found = [name for name in options if name.startswith(token)]
    if len(found) != 1:
        raise ParseError(f"ambiguous option {token}: {', '.join(found)}" if found
                         else f"unknown option {token}")
    return found[0]


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            n = int(text)
        except ValueError:
            n = 0
        if n < 1:
            raise ParseError(f"{name} must be an integer >= 1, got {text!r}")
        return n
    if kind is not str and text not in kind:
        raise ParseError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
    return text


def parse_argv(argv) -> tuple:
    """(handler, args) for a command line. args holds FILE as `file` and each
    option of the command, named without its dashes (`--max-degree` as
    `max_degree`), at its default when not given. Any -h/--help is (_help,
    None); every other malformed command line raises ParseError."""
    command = file = None
    options, values = {"--help": (bool, False)}, {}
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-" and token != "-":
            name, eq, text = token.partition("=")
            name = "--help" if name == "-h" else _option(name, options)
            kind, _ = options[name]
            if kind is bool:
                if eq:
                    raise ParseError(f"{name} takes no value")
                if name == "--help":
                    return _help, None
                values[name] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("--"):
                    raise ParseError(f"{name} needs a value")
            values[name] = _value(name, kind, text)
        elif command is None:
            if token not in COMMANDS:
                raise ParseError(f"unknown command {token!r}: use one of {', '.join(COMMANDS)}")
            command = token
            options = {**options, **COMMANDS[command][1]}
        elif file is None:
            file = token
        else:
            raise ParseError(f"unexpected argument {token!r}: {command} takes one FILE")
    if command is None:
        raise ParseError(f"missing command: use one of {', '.join(COMMANDS)}")
    if file is None:
        raise ParseError(f"{command} needs a FILE")
    handler, spec = COMMANDS[command]
    args = SimpleNamespace(file=file)
    for name, (_, default) in spec.items():
        value = values.get(name, default)
        if value is REQUIRED:
            raise ParseError(f"{command} needs {name}")
        setattr(args, name[2:].replace("-", "_"), value)
    return handler, args


def main(argv=None) -> int:
    try:
        handler, args = parse_argv(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except MemoryError:
        print("error: out of memory: the construction exceeds the available memory",
              file=sys.stderr)
        return EXIT_TOO_LARGE
    except NotASubmodule as exc:
        print(f"error: {exc}; hint: extend the generator list until it is "
              "closed under the action and coaction", file=sys.stderr)
        return EXIT_FAIL
    except BraidedFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

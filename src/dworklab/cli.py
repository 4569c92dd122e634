"""Command line front end: suite replay, script proving, concrete comparison.

Exit codes: 0 success, 1 falsified/invalid, 2 input error, 3 inconclusive,
4 internal error (an exception no command maps; never a verdict).

Only the concrete engine (`weyl`) is imported with this module.  The
symbolic engine (`certificates`, `dsl`, `search` and what they import)
loads when `verify-paper` or `prove` runs, so `dwork-check` never pays
for it.  `verify_paper`, `check_certificate` and `search_prove` stay
globals of this module, as wrappers that import on call: the commands
look them up here, so a tracer can replace them here.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from .errors import ParseError
from .reports import machine_document, render_report, search_dict
from .weyl.compare import dwork_compare
from .weyl.poly import default_names, parse_poly

_MODES = {"strict": "strict-smooth", "allow-singular": "allow-singular"}


def _common_flags(p):
    p.add_argument("--mode", choices=sorted(_MODES),
                   help="smoothness policy override")
    p.add_argument("--strata", type=int, default=None,
                   help="highest rule stratum allowed")
    p.add_argument("--output", choices=("text", "machine"), default="text")


@cache
def build_parser():
    """The argparse parser, built on the first call and shared after it;
    parsing leaves it unchanged (an `append` copies its default)."""
    ap = argparse.ArgumentParser(
        prog="dworklab",
        description="replay, prove, and numerically check integral-transform "
                    "identities for algebraic D-modules")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="replay the built-in certificates")
    _common_flags(p)

    p = sub.add_parser("prove", help="check or search a goal script")
    p.add_argument("script", help="path to a .dwk script")
    p.add_argument("--search", type=int, default=None, metavar="DEPTH",
                   help="search for a proof when the script has no steps")
    _common_flags(p)

    p = sub.add_parser("dwork-check",
                       help="compare twisted and supported de Rham tables")
    p.add_argument("--f", action="append", default=[], metavar="EXPR",
                   help="defining polynomial (repeatable)")
    p.add_argument("--n", type=int, default=None,
                   help="number of base variables")
    p.add_argument("--d-max", type=int, default=None,
                   help="largest twisted window cutoff")
    p.add_argument("--pole-max", type=int, default=None,
                   help="largest pole order on the complement side")
    p.add_argument("--window", type=int, default=None,
                   help="first twisted window cutoff")
    p.add_argument("--output", choices=("text", "machine"), default="text")
    return ap


# Lowest meaningful value of each integer flag; anything below is an
# input error rather than an empty (and falsely agreeing) computation.
_FLOORS = {"strata": 0, "search": 0, "n": 1, "pole_max": 1, "window": 0}


def _line_col(text, offset):
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, col


def _fail_input(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def verify_paper(*args, **kwargs):
    from .certificates import verify_paper
    return verify_paper(*args, **kwargs)


def check_certificate(*args, **kwargs):
    from .certificates import check_certificate
    return check_certificate(*args, **kwargs)


def search_prove(*args, **kwargs):
    from .search import prove
    return prove(*args, **kwargs)


def cmd_verify_paper(args):
    mode = _MODES[args.mode] if args.mode else None
    rep = verify_paper(mode=mode, allowed_strata=args.strata)
    sys.stdout.write(render_report(rep, args.output))
    return 0 if rep.ok else 1


def cmd_prove(args):
    from .dsl import load_script

    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        return _fail_input(str(e))
    except UnicodeDecodeError as e:
        return _fail_input(f"{args.script}: {e}")
    try:
        bound = load_script(text)
    except ParseError as e:
        if e.span is not None:
            line, col = _line_col(text, e.span[0])
            return _fail_input(f"{args.script}:{line}:{col}: {e.message}")
        return _fail_input(f"{args.script}: {e.message}")
    cert = bound.certificate
    if cert is None:
        return _fail_input(f"{args.script}: script declares no goal")
    mode = _MODES[args.mode] if args.mode else None
    if cert.steps:
        rep = check_certificate(bound.ctx, cert, mode=mode,
                                allowed_strata=args.strata)
        sys.stdout.write(render_report(rep, args.output))
        return 0 if rep.ok else 1
    if args.search is None:
        if args.output == "machine":
            sys.stdout.write(machine_document("prove",
                                              {"status": "inconclusive"}))
        else:
            print("goal has no proof script; pass --search DEPTH to look "
                  "for one")
        return 3
    mode = mode or cert.mode
    strata = args.strata if args.strata is not None else cert.allowed_strata
    res = search_prove(bound.ctx, cert.goal_lhs, cert.goal_rhs,
                       max_depth=args.search, mode=mode,
                       allowed_strata=strata, excluded=cert.excluded_rules)
    if not res.found:
        sys.stdout.write(render_report(res, args.output))
        return 3
    # the one dataclass, `ProofCertificate`, is changed with `replace`
    from dataclasses import replace

    found = replace(cert, steps=tuple(res.steps), closure=res.closure,
                    mode=mode, allowed_strata=strata)
    rep = check_certificate(bound.ctx, found)
    if args.output == "machine":
        sys.stdout.write(render_report(rep, "machine",
                                       extra={"search": search_dict(res)}))
    else:
        sys.stdout.write(render_report(res, "text"))
        sys.stdout.write(render_report(rep, "text"))
    return 0 if rep.ok else 1


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _infer_names(texts, n):
    used = set()
    for t in texts:
        used.update(_NAME_RE.findall(t))
    if n is None:
        if used <= {"x", "y", "z"}:
            n = 3 if "z" in used else 2 if "y" in used else 1
        elif all(re.fullmatch(r"x\d+", u) for u in used) and used:
            n = max(int(u[1:]) for u in used)
        else:
            raise ValueError(
                "cannot infer the variable count; pass --n explicitly")
    for names in (default_names(n), tuple(f"x{i+1}" for i in range(n))):
        if used <= set(names):
            return n, names
    raise ValueError(f"variables {sorted(used)} do not fit {n} base "
                     f"variables; expected {default_names(n)}")


def cmd_dwork_check(args):
    if not args.f:
        return _fail_input("pass at least one --f polynomial")
    try:
        n, names = _infer_names(args.f, args.n)
        fs = [parse_poly(t, names) for t in args.f]
    except (ValueError, ParseError) as e:
        return _fail_input(str(e))
    for t, f in zip(args.f, fs):
        if f.is_zero():
            return _fail_input(f"zero polynomial {t!r} cuts out all of "
                               f"affine {n}-space")
        if f.degree() == 0:
            return _fail_input(f"constant polynomial {t!r} cuts out nothing")
    t_max = None if args.pole_max is None else args.pole_max - 1
    try:
        cmp = dwork_compare(fs, d0=args.window, d_max=args.d_max, t_max=t_max)
    except ValueError as e:
        # a twisted cap below the first cutoff, --pole-max above
        # cech.MAX_POLE, or more --f sections than compare.MAX_SECTIONS
        return _fail_input(str(e))
    extra = {"f": list(args.f), "n": n}
    sys.stdout.write(render_report(cmp, args.output, extra=extra))
    if cmp.inconclusive:
        return 3
    return 0 if cmp.match else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    for name, low in _FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            return _fail_input(f"--{name.replace('_', '-')} must be at least "
                               f"{low}, got {value}")
    try:
        if args.command == "verify-paper":
            return cmd_verify_paper(args)
        if args.command == "prove":
            return cmd_prove(args)
        return cmd_dwork_check(args)
    except Exception as e:  # a crash is never a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end acceptance gate.

Each test checks one headline guarantee and prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line (visible with ``pytest -s`` and in
the captured output of any failure).
"""

import dataclasses
import random
import time
from fractions import Fraction

from dworklab import (
    builtin_suite,
    check_certificate,
    parse_poly,
    parse_script,
    render_script,
    verify_paper,
)
from dworklab.certificates import get_certificate
from dworklab.errors import RuleError
from dworklab.rules import Moves, apply_step
from dworklab.search import prove
from dworklab.terms import equal_normal, split_shift
from dworklab.weyl.cech import CechDeRham, complement_cohomology
from dworklab.weyl.compare import (
    _nonzero,
    dwork_compare,
    dwork_twist,
    supports_cohomology,
)
from dworklab.weyl.forms import masks_of_degree
from dworklab.weyl.twisted import TwistedComplex, twisted_cohomology

import docgen
import oracles
from conftest import BUNDLED
from test_certificates import EXPECTED_RULES, EXPECTED_STEPS
from test_weyl_cech import window_basis

X = ("x",)
XY = ("x", "y")

SUITE = [
    (["x"], X, {2: 1}),
    (["x^2"], X, {2: 1}),
    (["x^2-1"], X, {2: 2}),
    (["x^3-x"], X, {2: 3}),
    (["x", "y"], XY, {4: 1}),
]


def _polys(texts, names):
    return [parse_poly(t, names) for t in texts]


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name!r} failed"


def test_chain_replay_suite():
    t0 = time.perf_counter()
    rep = verify_paper()
    elapsed = time.perf_counter() - t0
    ok = rep.ok and len(rep.reports) == 9
    for sub in rep.reports:
        ok = ok and sub.rules_used == EXPECTED_RULES[sub.certificate]
        ok = ok and len(sub.steps) == EXPECTED_STEPS[sub.certificate]
    _ctx, c4 = get_certificate("C4")
    ok = ok and c4.closure is not None and c4.closure.kind == "kashiwara"
    ok = ok and elapsed < 1.0
    _report("chain-replay-suite", ok)


def test_strict_mode_flags_singular_corner():
    strict = verify_paper(mode="strict-smooth")
    lax = verify_paper(mode="allow-singular")
    failing = [r for r in strict.reports if not r.ok]
    ok = (len(failing) == 1 and failing[0].certificate == "C5"
          and "smooth" in failing[0].reason and "S" in failing[0].reason
          and lax.ok)
    _report("strict-smoothness-gate", ok)


def test_shift_ledger_balance():
    rep = verify_paper()
    ok = all(r.ledger_total == r.expected_shift for r in rep.reports)
    c4 = next(r for r in rep.reports if r.certificate == "C4")
    # the two tower unfoldings overshoot by one degree and come back
    ok = ok and c4.ledger == [0, 2, 0, -1, 0] and c4.ledger_total == 1
    _report("shift-ledger-balance", ok)


def _accepted_moves(ctx, moves, term, gates):
    """(path, undo, result) for each move the rules accept in term."""
    core, _k = split_shift(term)
    for path, sub in oracles.subterms(core):
        for rule, d, b, ud, ub, _new, _delta in moves(sub):
            after, _d = apply_step(ctx, term, rule, d, path, b, **gates)
            if len(list(oracles.subterms(after))) <= 64:
                yield path, (rule, ud, ub), after


def test_rule_round_trip_fuzz():
    contexts, pairs = builtin_suite()
    gates = {"mode": "allow-singular", "allowed_strata": 1,
             "excluded": frozenset()}
    rng = random.Random(0xA4)
    seeds = ([(k, c.goal_lhs) for k, c in pairs]
             + [(k, c.goal_rhs) for k, c in pairs])
    count = failures = walk = 0
    while count < 10_000 and walk < 400:
        key, term = seeds[walk % len(seeds)]
        walk += 1
        ctx = contexts[key]
        moves = Moves(ctx, **gates)
        for _ in range(40):
            succs = list(_accepted_moves(ctx, moves, term, gates))
            if not succs:
                break
            for path, (rule, d, b), after in succs:
                try:
                    back, _d = apply_step(ctx, after, rule, d, path, b, **gates)
                except RuleError:
                    failures += 1
                    continue
                count += 1
                if not equal_normal(ctx, back, term):
                    failures += 1
            term = rng.choice(succs)[2]
    ok = count >= 10_000 and failures == 0
    _report("round-trip-fuzz", ok)


def test_concrete_comparison_suite():
    t0 = time.perf_counter()
    ok = True
    for texts, names, expected in SUITE:
        cmp = dwork_compare(_polys(texts, names))
        ok = (ok and not cmp.inconclusive and cmp.match
              and _nonzero(cmp.twisted.dims) == expected
              and _nonzero(cmp.supports.dims) == expected)
    ok = ok and time.perf_counter() - t0 < 120.0
    _report("concrete-comparison-suite", ok)


def test_multiplicity_insensitivity():
    ok = True
    for texts, names, expected in SUITE:
        squared = [f * f for f in _polys(texts, names)]
        sup = supports_cohomology(squared)
        tw = twisted_cohomology(dwork_twist(squared), d_max=16)
        ok = (ok and sup.stabilized and tw.stabilized
              and sup.dims == expected and _nonzero(tw.dims) == expected)
    _report("multiplicity-insensitivity", ok)


def _decoded(cx, row):
    """A row keyed by tuple columns instead of integer codes."""
    return {cx.column(code): v for code, v in row.items()}


def _twisted_square_is_zero(F, D):
    cx = TwistedComplex(F, D)
    bound = max(D - 2 * F.degree(), 0)
    for k in range(cx.n):
        for mask in masks_of_degree(cx.n, k):
            for mono in oracles.graded_monomials(cx.n, bound):
                out = {}
                for (m2, mask2), c in _decoded(cx,
                                               cx.apply(mono, mask)).items():
                    for col, c2 in _decoded(cx, cx.apply(m2, mask2)).items():
                        s = out.get(col, 0) + c * c2
                        if s:
                            out[col] = s
                        else:
                            out.pop(col, None)
                if out:
                    return False
    return True


def _cech_square_is_zero(cx, t):
    P, D = cx.schedule(t)
    for I, mono, mask in window_basis(cx, P, D):
        out = {}
        row = _decoded(cx, cx.diff_row(I, mono, mask, P))
        for (J, m2, mask2), c in row.items():
            for col, c2 in _decoded(cx,
                                    cx.diff_row(J, m2, mask2, P + 1)).items():
                s = out.get(col, Fraction(0)) + c * c2
                if s:
                    out[col] = s
                else:
                    out.pop(col, None)
        if out:
            return False
    return True


def test_exactness_at_every_truncation():
    ok = True
    for texts, names, _expected in SUITE:
        fs = _polys(texts, names)
        F = dwork_twist(fs)
        tw = twisted_cohomology(F)
        ok = ok and tw.stabilized
        for D, dims in tw.rungs:
            ok = ok and _twisted_square_is_zero(F, D)
            ok = ok and all(v >= 0 for v in dims.values())
        comp = complement_cohomology(fs)
        cx = CechDeRham(fs, comp.rungs[-1][0])
        ok = ok and comp.stabilized
        for t, dims in comp.rungs:
            ok = ok and _cech_square_is_zero(cx, t)
            # sequence nodes at this cutoff: constants survive, the rest
            # transports to supported classes without going negative
            ok = ok and dims[0] == 1
            ok = ok and all(v >= 0 for v in dims.values())
        sup = supports_cohomology(fs)
        n, r = fs[0].nvars, len(fs)
        ok = ok and sup.dims.get(1, 0) == comp.dims[0] - 1
        for k in range(1, n + r):
            ok = ok and sup.dims.get(k + 1, 0) == comp.dims.get(k, 0)
        chi_u = sum((-1) ** k * v for k, v in comp.dims.items())
        chi_z = sum((-1) ** k * v for k, v in sup.dims.items())
        ok = ok and chi_z == 1 - chi_u
    _report("exactness-at-every-truncation", ok)


def test_search_rediscovers_support_collapse():
    ctx, cert = get_certificate("C4")
    res = prove(ctx, cert.goal_lhs, cert.goal_rhs, max_depth=6,
                mode="strict-smooth")
    ok = res.found and len(res.steps) <= 6
    if ok:
        replay = dataclasses.replace(cert, steps=tuple(res.steps),
                                     closure=res.closure, lemmas=())
        ok = check_certificate(ctx, replay).status == "verified"
    _report("search-rediscovery", ok)


def test_script_round_trip():
    text = BUNDLED.read_text(encoding="utf-8")
    doc = parse_script(text)
    rendered = render_script(doc)
    ok = parse_script(rendered) == doc
    ok = ok and render_script(parse_script(rendered)) == rendered
    rng = random.Random(0xD51)
    for _ in range(1000):
        gen = docgen.random_document(rng)
        ok = ok and parse_script(render_script(gen)) == gen
        if not ok:
            break
    _report("script-round-trip", ok)

"""Bidirectional search: rediscovery of the support-collapse chain."""

import dataclasses
import time

import pytest

from dworklab import rules, search
from dworklab.certificates import ProofStep, check_certificate, get_certificate
from dworklab.dsl import load_script
from dworklab.errors import RuleError
from dworklab.geometry import SubName
from dworklab.rules import Moves, apply_step
from dworklab.search import prove
from dworklab.terms import (
    Fourier,
    Oim,
    Opb,
    RGamma,
    Shift,
    Struct,
    Tensor,
    Var,
    serialize,
    size,
    split_shift,
    subterms,
)


def test_search_rediscovers_the_support_collapse():
    ctx, cert = get_certificate("C4")
    t0 = time.time()
    res = prove(ctx, cert.goal_lhs, cert.goal_rhs, max_depth=6,
                mode="strict-smooth")
    elapsed = time.time() - t0
    assert res.found
    assert res.closure is not None and res.closure.kind == "kashiwara"
    assert len(res.steps) <= 6
    replay = dataclasses.replace(cert, steps=tuple(res.steps),
                                 closure=res.closure, lemmas=())
    rep = check_certificate(ctx, replay)
    assert rep.status == "verified", rep.reason
    assert elapsed < 30.0


def test_search_respects_mode():
    ctx, cert = get_certificate("C5")
    res = prove(ctx, cert.goal_lhs, cert.goal_rhs, max_depth=4,
                mode="allow-singular")
    assert res.found
    replay = dataclasses.replace(cert, steps=tuple(res.steps),
                                 closure=res.closure)
    assert check_certificate(ctx, replay).status == "verified"


def test_found_steps_replay_exactly_not_just_up_to_shift():
    # every edge in the backward frontier is recorded as the undo its rule
    # offered, kept only if it landed back exactly, so replays cannot drift
    ctx, cert = get_certificate("C6")
    res = prove(ctx, cert.goal_lhs, cert.goal_rhs, max_depth=4,
                allowed_strata=0)
    assert res.found and res.closure is None
    replay = dataclasses.replace(cert, steps=tuple(res.steps))
    assert check_certificate(ctx, replay).status == "verified"


def test_search_gives_up_cleanly():
    ctx, _cert = get_certificate("C4")
    m = Var("M", "X")
    lhs = Tensor(m, Struct("X"))
    rhs = Oim(ctx.composite("s"), m)  # not equivalent
    res = prove(ctx, lhs, rhs, max_depth=2)
    assert not res.found
    assert res.steps == []
    assert res.depth == 2
    assert res.expanded > 0


def test_search_finds_trivial_one_steps():
    ctx, _ = get_certificate("C4")
    m = Var("M", "X")
    lhs = Opb(ctx.identity("X"), m)
    res = prove(ctx, lhs, m, max_depth=2)
    assert res.found and len(res.steps) == 1


# --- the move table -------------------------------------------------------------

# the frontier terms each search expands: the built-in certificates at
# their own step counts and the bundled script's support-collapse goal at
# depth 6; C2, C4, C8 and C9 are not found, so their counts include every
# closure retry
EXPANDED = {"C2": 4812, "C4": 843, "C5": 7, "C6": 4, "C7": 10,
            "C8": 58, "C9": 18, "collapse": 1140}
MISSED = {"C2", "C4", "C8", "C9"}


def _goals(suite, collapse_text):
    contexts, certs = suite
    for key, cert in certs:
        if cert.name in EXPANDED:
            yield (cert.name, contexts[key], cert.goal_lhs, cert.goal_rhs,
                   len(cert.steps), cert)
    bound = load_script(collapse_text)
    cert = bound.certificate
    yield "collapse", bound.ctx, cert.goal_lhs, cert.goal_rhs, 6, cert


def _search(ctx, lhs, rhs, depth, cert):
    return prove(ctx, lhs, rhs, max_depth=depth, mode=cert.mode,
                 allowed_strata=cert.allowed_strata,
                 excluded=cert.excluded_rules)


def _reference_successors(ctx, moves, term, gates):
    """The successors found the direct way: every offered move applied to
    the whole term with `apply_step`, then its undo applied to the result.
    Yields (step, serialized term, undo or None), the undo given only when
    it lands back exactly on `term`."""
    core, _k = split_shift(term)
    for path, sub in subterms(core):
        for (rule, d, b), (urule, ud, ub) in moves(sub):
            try:
                nt, _delta = apply_step(ctx, term, rule, d, path, b, **gates)
            except RuleError:
                continue
            if size(nt) > search._SIZE_CAP:
                continue
            try:
                back, _d = apply_step(ctx, nt, urule, ud, path, ub, **gates)
            except RuleError:
                kept = False
            else:
                kept = serialize(back) == serialize(term)
            undo = ProofStep(urule, ud, path, ub) if kept else None
            yield ProofStep(rule, d, path, b), serialize(nt), undo


def _table_successors(table, term, well_formed=True):
    """The same, read off the move table in both directions."""
    forward = search._successors(table, term, {}, True, well_formed)
    backward = search._successors(table, term, {}, False, well_formed)
    for (nk, _nt, step), (back_nk, _b, undo) in zip(forward, backward,
                                                     strict=True):
        assert back_nk == nk
        yield step, nk, undo


def _assert_reference_successors(table, term, well_formed=None):
    if well_formed is None:
        well_formed = search._variety(table.ctx, term) is not None
    want = list(_reference_successors(table.ctx, table.moves, term,
                                      table.gates))
    assert list(_table_successors(table, term, well_formed)) == want, \
        serialize(term)


@pytest.fixture(scope="module")
def expanded(suite, collapse_text):
    """(table, term, well-formed) for every term the searches of `_goals`
    expand, in order."""
    out = []
    real = search._successors

    def recording(table, term, seen, forward=True, well_formed=True):
        out.append((table, term, well_formed))
        return real(table, term, seen, forward, well_formed)

    search._successors = recording
    try:
        for _name, ctx, lhs, rhs, depth, cert in _goals(suite, collapse_text):
            _search(ctx, lhs, rhs, depth, cert)
    finally:
        search._successors = real
    return out


def test_move_table_gives_the_reference_successors(expanded):
    # the wrapped goal sides of the closure retries are ill-formed here,
    # so the whole-term fallback is exercised too
    assert not all(wf for _t, _term, wf in expanded)
    assert len(expanded) > 800
    for table, term, well_formed in expanded:
        _assert_reference_successors(table, term, well_formed)


def _every_bundle_offers(moves, sub):
    """R16 and R17 offered as they first were: forward at every pushforward
    or pullback and R17 backward at every pushforward of a transform, once
    per declared bundle; R16 backward at a transform of a pullback."""
    bundles = moves.names["bundle"]
    if isinstance(sub, Oim):
        yield from (("R16", "fwd", {"bundle": b}) for b in bundles)
    elif isinstance(sub, Fourier) and isinstance(sub.arg, Opb):
        yield "R16", "bwd", {"bundle": sub.bundle}
    if isinstance(sub, Opb):
        yield from (("R17", "fwd", {"bundle": b}) for b in bundles)
    elif isinstance(sub, Oim) and isinstance(sub.arg, Fourier):
        yield from (("R17", "bwd", {"bundle": b}) for b in bundles)


def _accepted(table, sub, offers):
    """The offers `rewrite` accepts at `sub`, with what each gives, and the
    number it refuses."""
    out, refused = [], 0
    for rule, d, b in offers:
        try:
            new, delta = rules.rewrite(table.ctx, sub, rule, d, b,
                                       **table.gates)
        except RuleError:
            refused += 1
        else:
            out.append((rule, d, b, serialize(new), delta))
    return out, refused


def test_r16_r17_offer_exactly_the_moves_they_accept(expanded):
    # offering R16/R17 only along a dual zero section or at a transform
    # along the dual drops refusals and no accepted move, in order
    seen = set()
    refused_before = refused_now = accepted = 0
    for table, term, _wf in expanded:
        enabled = {name for name, _enum in table.moves.rules} & {"R16", "R17"}
        core, _k = split_shift(term)
        for _path, sub in subterms(core):
            key = (id(table), serialize(sub))
            if key in seen:
                continue
            seen.add(key)
            now = [move for move, _undo in table.moves(sub)
                   if move[0] in enabled]
            before = [move for move in _every_bundle_offers(table.moves, sub)
                      if move[0] in enabled]
            want, refused = _accepted(table, sub, before)
            got, still_refused = _accepted(table, sub, now)
            assert got == want, serialize(sub)
            refused_before += refused
            refused_now += still_refused
            accepted += len(got)
    assert accepted and refused_now < refused_before


def test_search_work_is_pinned(suite, collapse_text):
    for name, ctx, lhs, rhs, depth, cert in _goals(suite, collapse_text):
        res = _search(ctx, lhs, rhs, depth, cert)
        assert res.expanded == EXPANDED[name], name
        assert res.found == (name not in MISSED), name


def test_one_move_table_per_prove(monkeypatch):
    ctx, cert = get_certificate("C2")
    tables = []
    calls = 0

    class CountingTable(search.MoveTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    real = search.rewrite

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "MoveTable", CountingTable)
    monkeypatch.setattr(search, "rewrite", counting)
    res = _search(ctx, cert.goal_lhs, cert.goal_rhs, 7, cert)
    # not found: the direct search and every closure retry ran on one table
    assert not res.found
    assert len(tables) == 1
    # applying each offered move to the whole term took 17 227 apply_step
    # calls; matching once per distinct subterm takes 7 419 rewrites
    assert calls < 17227


def _table(ctx, mode="strict-smooth"):
    gates = {"mode": mode, "allowed_strata": 1, "excluded": frozenset()}
    return search.MoveTable(ctx, Moves(ctx), gates)


def test_move_table_at_the_size_cap(dwork, monkeypatch):
    # R10 unfolds k nested supports into k push-pull pairs: k nodes more,
    # shifted by -k, so at the cap the root shift node decides
    monkeypatch.setattr(search, "_SIZE_CAP", 8)
    tower = Var("M", "X")
    for _ in range(6):
        tower = RGamma(SubName("S"), tower)
    table = _table(dwork, mode="allow-singular")
    for term in (tower, Shift(tower, 1), Shift(tower, 2)):
        _assert_reference_successors(table, term)


def _drop(ctx, sub, direction, b, mode, allowed):
    """Opb[f](A) <-> A: a replacement on another variety."""
    if direction == "bwd":
        return Opb(b["f"], sub), 0
    if not isinstance(sub, Opb):
        raise rules.Fail("need a pullback")
    return sub.arg, 0


def _drop_moves(moves, sub):
    if isinstance(sub, Opb):
        yield ("fwd", {}), ("bwd", {"f": sub.morphism})


def _leak(ctx, sub, direction, b, mode, allowed):
    """M -> M (x) O, undone with a shift left over."""
    if direction == "fwd":
        if not isinstance(sub, Var):
            raise rules.Fail("need an object")
        return Tensor(sub, Struct(sub.variety)), 0
    if not (isinstance(sub, Tensor) and isinstance(sub.right, Struct)):
        raise rules.Fail("need a unit factor")
    return sub.left, 1


def _leak_moves(moves, sub):
    if isinstance(sub, Var):
        yield ("fwd", {}), ("bwd", {})


def test_move_table_falls_back_where_local_checks_are_unsound(dwork,
                                                              monkeypatch):
    # no built-in rule changes a subterm's variety or leaves a shift when
    # undone, so two made-up rules do; the table must then agree with the
    # whole-term checks: no Oim[pi](M) from Oim[pi](Opb[pi](M)), no backward
    # edge back to the ill-formed Opb[pi](O[V]), and no backward edge whose
    # undo leaves a shift
    monkeypatch.setitem(rules.RULES, "R98", (0, _drop, _drop_moves))
    monkeypatch.setitem(rules.RULES, "R99", (0, _leak, _leak_moves))
    table = _table(dwork)
    pi = dwork.composite("pi")
    m = Var("M", "X")
    terms = [Oim(pi, Opb(pi, m)), Opb(pi, Struct("V")),
             Tensor(m, Struct("X")), Shift(Oim(pi, Opb(pi, m)), 2)]
    for term in terms:
        _assert_reference_successors(table, term)
    # ...and both offered moves that applied
    subs = [sub for term in terms
            for _path, sub in subterms(split_shift(term)[0])]
    applied = {row[0] for sub in subs
               for row in table.rows(sub, serialize(sub))}
    assert {"R98", "R99"} <= applied

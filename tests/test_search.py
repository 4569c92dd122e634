"""Bidirectional search: rediscovery of the support-collapse chain."""

import dataclasses
import re
import time

import pytest

from dworklab import rules, search
from dworklab.certificates import (
    Closure,
    ProofStep,
    check_certificate,
    get_certificate,
)
from dworklab.dsl import load_script
from dworklab.errors import RuleError, TermError
from dworklab.geometry import CLOSED_EMBEDDING_KINDS, SubName
from dworklab.rules import Moves, apply_step
from dworklab.search import prove
from dworklab.terms import (
    Oim,
    Opb,
    RGamma,
    Shift,
    Struct,
    Tensor,
    Var,
    canonical_shift,
    equation_variety,
    keyed_subterms,
    replace,
    serialize,
    split_shift,
    with_shift,
)

from oracles import subterms


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
    rhs = RGamma(SubName("S"), m)  # on X too, but not equivalent
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


def test_search_on_equal_sides_finds_the_empty_chain():
    # sides equal up to a zero shift are found before any expansion, even
    # with no depth to search
    ctx, _ = get_certificate("C4")
    t = Oim(ctx.composite("s"), Struct("X"))
    for rhs in (t, Shift(t, 0)):
        res = prove(ctx, t, rhs, max_depth=0)
        assert res.found and res.closure is None
        assert res.steps == [] and res.expanded == 0 and res.depth == 0


# --- the move table -------------------------------------------------------------

# the successors each search generates: the built-in certificates at
# their own step counts and the bundled script's support-collapse goal at
# depth 6; C2, C4, C8 and C9 are not found, so their counts include every
# closure retry
EXPANDED = {"C2": 1744, "C4": 523, "C5": 7, "C6": 4, "C7": 10,
            "C8": 41, "C9": 18, "collapse": 850}
# the same for the plain search, whose last layer builds every successor
PLAIN_EXPANDED = {"C2": 4812, "C4": 843, "C5": 7, "C6": 4, "C7": 10,
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


def _offers(moves, sub):
    """Every candidate the `RULES` rows of the rules `moves` tries offer at
    `sub`, in rule order, read straight off each row's `Offer`s."""
    tried = {name for at in moves.at.values() for name, *_ in at}
    for name, (_stratum, _fn, where) in rules.RULES.items():
        if name not in tried:
            continue
        for way, offer in where.items():
            direction, law = (way, None) if isinstance(way, str) else way
            if not isinstance(sub, offer.outer) or (
                    offer.inner and not isinstance(sub.arg, offer.inner)):
                continue
            if offer.key is None:
                found = offer.pick(moves, sub) if offer.pick else [{}]
            else:
                values = (offer.pick(moves, sub) if offer.pick
                          else moves.names[offer.key])
                found = [{offer.key: v} for v in values]
            for b in found:
                yield name, direction, {"law": law, **b} if law else dict(b)


def _size(t):
    """t's node count, by the reference walker."""
    return len(list(subterms(t)))


def _reference_successors(moves, term):
    """The successors found the direct way: every offered candidate applied
    to the whole term with `apply_step`, then the undo its rule names
    applied to the result.  Yields (step, serialized term, undo or None),
    the undo given only when it lands back exactly on `term`."""
    ctx, gates = moves.ctx, moves.gates
    core, _k = split_shift(term)
    for path, sub in subterms(core):
        for rule, d, b in _offers(moves, sub):
            try:
                nt, _delta = apply_step(ctx, term, rule, d, path, b, **gates)
            except RuleError:
                continue
            if _size(nt) > search._SIZE_CAP:
                continue
            _new, _delta, (ud, ub) = rules.rewrite(ctx, sub, rule, d, b,
                                                   **gates)
            try:
                back, _d = apply_step(ctx, nt, rule, ud, path, ub, **gates)
            except RuleError:
                kept = False
            else:
                kept = serialize(back) == serialize(term)
            undo = ProofStep(rule, ud, path, ub) if kept else None
            yield ProofStep(rule, d, path, b), serialize(nt), undo


def _table_successors(table, term):
    """The same, read off the move table in both directions."""
    forward = search._successors(table, term, {}, True)
    backward = search._successors(table, term, {}, False)
    for (nk, _nt, step), (back_nk, _b, undo) in zip(forward, backward,
                                                     strict=True):
        assert back_nk == nk
        yield step, nk, undo


def _assert_reference_successors(table, term):
    want = list(_reference_successors(table, term))
    assert list(_table_successors(table, term)) == want, serialize(term)


@pytest.fixture(scope="module")
def expanded(suite, collapse_text):
    """(table, term) for every term the searches of `_goals` expand, in
    order."""
    out = []
    real = search._successors

    def recording(table, term, seen, forward=True, probe=None):
        out.append((table, term))
        return real(table, term, seen, forward, probe)

    search._successors = recording
    try:
        for _name, ctx, lhs, rhs, depth, cert in _goals(suite, collapse_text):
            _search(ctx, lhs, rhs, depth, cert)
    finally:
        search._successors = real
    return out


def test_move_table_gives_the_reference_successors(expanded):
    assert len(expanded) > 800
    for table, term in expanded:
        _assert_reference_successors(table, term)


def test_the_keyed_walk_keys_and_sizes_every_expanded_subterm(expanded):
    # each entry's serialization and size are the reference walkers'
    assert len(expanded) > 800
    for _table, term in expanded:
        walk = keyed_subterms(term)
        whole = walk[0][2]
        for path, sub, key, start, n in walk:
            assert key == serialize(sub), path
            assert whole[start:start + len(key)] == key, path
            assert n == _size(sub), path


def _rows(moves, sub):
    return [(rule, d, b, ud, ub, serialize(new), delta)
            for rule, d, b, ud, ub, new, delta in moves(sub)]


# keyless offers whose pick only gates them: R19 forward along an
# identity and at a tensor with a structure-sheaf factor, R20
# `etens_opb_proj2` forward along a plain product's second projection
GATED = {("R19", ("fwd", "opb_id")), ("R19", ("fwd", "oim_id")),
         ("R19", ("fwd", "tensor_unit")),
         ("R20", ("fwd", "etens_opb_proj2"))}


def test_narrowed_candidates_lose_no_move(expanded, monkeypatch):
    # where a pick narrows a key's declared names (the bundle of a written
    # transform, the bundles whose dual zero section or dual projection is
    # the written map, the negated or paired bundles, the squares whose
    # legs are the written maps) or gates a keyless offer, trying every
    # declared name, or the offer everywhere, accepts the same moves, in
    # order
    names = set(expanded[0][0].names)
    widened = {(name, way) for name, (_s, _fn, where) in rules.RULES.items()
               for way, offer in where.items()
               if offer.pick and (offer.key in names or (name, way) in GATED)}
    narrowed = {name: (stratum, fn, {
        way: offer._replace(pick=None) if (name, way) in widened else offer
        for way, offer in where.items()})
        for name, (stratum, fn, where) in rules.RULES.items()}
    full = {}
    seen = set()
    kept = set()
    for moves, term in expanded:
        if id(moves) not in full:
            with monkeypatch.context() as m:
                m.setattr(rules, "RULES", narrowed)
                full[id(moves)] = Moves(moves.ctx, **moves.gates)
        core, _k = split_shift(term)
        for _path, sub in subterms(core):
            key = (id(moves), serialize(sub))
            if key in seen:
                continue
            seen.add(key)
            got = _rows(moves, sub)
            assert got == _rows(full[id(moves)], sub), serialize(sub)
            kept.update((rule, (d, b["law"]) if "law" in b else d)
                        for rule, d, b, *_ in got)
    assert len(seen) > 2000
    # every widened offer but R13's accepts moves on these subterms
    assert widened - kept == {("R13", "fwd"), ("R13", "bwd")}


def test_search_work_is_pinned(suite, collapse_text):
    for name, ctx, lhs, rhs, depth, cert in _goals(suite, collapse_text):
        res = _search(ctx, lhs, rhs, depth, cert)
        assert res.expanded == EXPANDED[name], name
        assert res.found == (name not in MISSED), name


# --- the plain search: every layer builds every successor -------------------


def _plain_successors(moves, term, seen, forward):
    """Every successor of `term`, each term built and serialized whole:
    ``(serialization, term, step)``, the step None for a term in `seen`
    or, going backward, for an undo that does not land back exactly."""
    core, k = split_shift(term)
    for path, sub in subterms(core):
        key = serialize(sub)
        for i, (rule, d, b, ud, ub, new, delta, *_) in enumerate(
                moves.rows(sub, key, _size(sub))):
            nt = with_shift(replace(core, path, new), k + delta)
            if _size(nt) > search._SIZE_CAP:
                continue
            nk = serialize(nt)
            if nk in seen or not (forward or moves.undoes(key, i)):
                yield nk, None, None
            elif forward:
                yield nk, nt, ProofStep(rule, d, path, b)
            else:
                yield nk, nt, ProofStep(rule, ud, path, ub)


def _plain_mitm(moves, lhs, rhs, max_depth):
    """(steps or None, successors generated): layers grow from the smaller
    side until they meet or the depths sum to `max_depth`."""
    try:
        equation_variety(moves.ctx, lhs, rhs)
    except TermError:
        return None, 0
    left, right = canonical_shift(lhs), canonical_shift(rhs)
    sides = [{serialize(left): None}, {serialize(right): None}]
    if sides[0].keys() == sides[1].keys():
        return [], 0
    levels = [{serialize(left): left}, {serialize(right): right}]
    expanded = 0
    for _layer in range(max_depth):
        if not any(levels):
            break
        side = 0 if levels[0] and (
            len(levels[0]) <= len(levels[1]) or not levels[1]) else 1
        parents, other = sides[side], sides[1 - side]
        nxt = {}
        for key, term in levels[side].items():
            for nk, nt, step in _plain_successors(moves, term, parents,
                                                  side == 0):
                expanded += 1
                if step is None:
                    continue
                parents[nk] = (key, step)
                nxt[nk] = nt
                if nk in other:
                    chains = []
                    for tree in sides:
                        chain, at = [], nk
                        while tree[at] is not None:
                            at, step = tree[at]
                            chain.append(step)
                        chains.append(chain)
                    return chains[0][::-1] + chains[1], expanded
        levels[side] = nxt
    return None, expanded


def _plain_prove(ctx, lhs, rhs, depth, cert):
    """`prove` over the plain search: the direct pass, then each closed
    embedding's pushforward, all on one move table."""
    moves = Moves(ctx, cert.mode, cert.allowed_strata, cert.excluded_rules)
    steps, total = _plain_mitm(moves, lhs, rhs, depth)
    if steps is not None:
        return search.SearchResult(True, steps, None, total, len(steps))
    for atom in [a for a in ctx.atoms.values()
                 if a.kind in CLOSED_EMBEDDING_KINDS][:8]:
        j = ctx.composite(atom.name)
        steps, n = _plain_mitm(moves, Oim(j, lhs), Oim(j, rhs), depth)
        total += n
        if steps is not None:
            return search.SearchResult(True, steps,
                                       Closure("kashiwara", atom.name),
                                       total, len(steps))
    return search.SearchResult(False, [], None, total, depth)


def test_search_meets_where_the_plain_search_does(suite, collapse_text):
    # the last layer only probes for a meeting and builds nothing else, so
    # at every depth up to each goal's step count it finds what the plain
    # search finds, the same chain at the same depth, with no more work
    for name, ctx, lhs, rhs, steps, cert in _goals(suite, collapse_text):
        for depth in range(1, steps + 1):
            res = _search(ctx, lhs, rhs, depth, cert)
            want = _plain_prove(ctx, lhs, rhs, depth, cert)
            assert (res.found, res.steps, res.depth, res.closure) == (
                want.found, want.steps, want.depth, want.closure), \
                (name, depth)
            assert res.expanded <= want.expanded, (name, depth)
        assert want.expanded == PLAIN_EXPANDED[name], name
        assert want.found == (name not in MISSED), name


def test_one_move_table_per_prove(monkeypatch):
    ctx, cert = get_certificate("C2")
    tables = []
    tries = {"accepted": 0, "refused": 0}

    class CountingTable(Moves):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    real = rules.rewrite

    def counting(*args, **kwargs):
        try:
            found = real(*args, **kwargs)
        except rules._REFUSALS:
            tries["refused"] += 1
            raise
        tries["accepted"] += 1
        return found

    monkeypatch.setattr(search, "Moves", CountingTable)
    monkeypatch.setattr(rules, "rewrite", counting)
    res = _search(ctx, cert.goal_lhs, cert.goal_rhs, 7, cert)
    # not found: the direct search and every closure retry ran on one table
    assert not res.found
    assert len(tables) == 1
    # applying each offered move to the whole term took 17 227 apply_step
    # calls; trying each candidate once per distinct subterm, with the undo
    # checks, took 6 560 tries; probing the last layer for a meeting and
    # offering base change, the transform's backward step and the
    # identity and projection laws only along their maps took 2 147; the
    # unit law offered only at a tensor with a structure-sheaf factor
    # takes 2 071
    assert tries == {"accepted": 1011, "refused": 1060}


def _table(ctx, mode="strict-smooth"):
    return Moves(ctx, mode)


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


def test_move_table_under_negative_root_shifts(dwork):
    # below the cap, R10 unfolds up to all six supports, so its -k shifts
    # take the root shift below zero, which no built-in search reaches
    tower = Var("M", "X")
    for _ in range(6):
        tower = RGamma(SubName("S"), tower)
    table = _table(dwork, mode="allow-singular")
    for term in (tower, Shift(tower, 1), Shift(tower, 2)):
        _assert_reference_successors(table, term)
        assert any(re.search(r"\)\[-\d+\]$", nk)
                   for _step, nk, _undo in _table_successors(table, term))


def _drop(ctx, sub, direction, b, mode):
    """Opb[f](A) <-> A: a replacement on another variety."""
    if direction == "bwd":
        return Opb(b["f"], sub), 0, ("fwd", {})
    if not isinstance(sub, Opb):
        raise rules.Fail("need a pullback")
    return sub.arg, 0, ("bwd", {"f": sub.morphism})


def test_a_replacement_on_another_variety_is_refused_at_every_path(
        dwork, monkeypatch):
    # no built-in rule changes a subterm's variety, so a made-up rule
    # does: rewrite refuses it at the root as below it, and the move table
    # keeps no row for it
    monkeypatch.setitem(rules.RULES, "R98",
                        (0, _drop, {"fwd": rules.Offer(Opb)}))
    pi = dwork.composite("pi")
    m = Var("M", "X")
    pulled = Opb(pi, m)
    for term, path in ((pulled, ()), (Oim(pi, pulled), (0,)),
                       (Shift(Oim(pi, pulled), 2), (0,))):
        with pytest.raises(RuleError, match="lives on X, not on V"):
            apply_step(dwork, term, "R98", "fwd", path)
    with pytest.raises(RuleError, match="lives on V, not on X"):
        apply_step(dwork, m, "R98", "bwd", (), {"f": pi})
    table = _table(dwork)
    for term in (pulled, Oim(pi, pulled)):
        assert all(row[0] != "R98"
                   for _path, sub in subterms(term)
                   for row in table.rows(sub, serialize(sub), _size(sub)))
        _assert_reference_successors(table, term)


def _leak(ctx, sub, direction, b, mode):
    """M -> M (x) O, undone with a shift left over."""
    if direction == "fwd":
        if not isinstance(sub, Var):
            raise rules.Fail("need an object")
        return Tensor(sub, Struct(sub.variety)), 0, ("bwd", {})
    if not (isinstance(sub, Tensor) and isinstance(sub.right, Struct)):
        raise rules.Fail("need a unit factor")
    return sub.left, 1, ("fwd", {})


def test_an_undo_that_leaves_a_shift_is_no_backward_edge(dwork, monkeypatch):
    # no built-in rule leaves a shift when undone, so a made-up rule does:
    # its move is a forward edge, but never a backward one
    monkeypatch.setitem(rules.RULES, "R99",
                        (0, _leak, {"fwd": rules.Offer(Var)}))
    table = _table(dwork)
    pi = dwork.composite("pi")
    m = Var("M", "X")
    for term in (Tensor(m, Struct("X")), Oim(pi, Opb(pi, m)),
                 Shift(Oim(pi, Opb(pi, m)), 2)):
        _assert_reference_successors(table, term)
        leaks = [undo for step, _nk, undo in _table_successors(table, term)
                 if step.rule == "R99"]
        assert leaks and leaks == [None] * len(leaks)


def _one_way(ctx, sub, direction, b, mode):
    """M -> M (x) O, whose undo the rule refuses."""
    if direction == "bwd":
        raise rules.Fail("no way back")
    if not isinstance(sub, Var):
        raise rules.Fail("need an object")
    return Tensor(sub, Struct(sub.variety)), 0, ("bwd", {})


def test_a_move_whose_undo_is_refused_is_not_undone_exactly(dwork,
                                                            monkeypatch):
    # no built-in rule refuses its own undo, so a made-up rule does: its
    # move is a forward edge, and `undoes` judges it not exact
    monkeypatch.setitem(rules.RULES, "R97",
                        (0, _one_way, {"fwd": rules.Offer(Var)}))
    table = _table(dwork)
    m = Var("M", "X")
    key = serialize(m)
    rows = table.rows(m, key, _size(m))
    at = [i for i, row in enumerate(rows) if row[0] == "R97"]
    assert at
    assert [table.undoes(key, i) for i in at] == [False] * len(at)
    _assert_reference_successors(table, m)


def test_search_between_two_varieties_expands_nothing(dwork):
    # every step keeps its subterm's variety, so no chain joins sides on
    # two varieties and the search does not start
    for lhs, rhs in ((Struct("X"), Struct("V")),
                     (Oim(dwork.composite("pi"), Var("M", "X")),
                      Opb(dwork.composite("pi"), Var("M", "X")))):
        res = prove(dwork, lhs, rhs, max_depth=4)
        assert not res.found and res.steps == [] and res.expanded == 0


def test_search_from_an_ill_formed_side_expands_nothing(dwork):
    # no step applies to an ill-formed term, so the search does not start,
    # not even when both sides are the same ill-formed term
    bad = Opb(dwork.composite("pi"), Struct("V"))
    for lhs, rhs in ((bad, Struct("V")), (Struct("V"), bad), (bad, bad)):
        res = prove(dwork, lhs, rhs, max_depth=4)
        assert not res.found and res.steps == [] and res.expanded == 0

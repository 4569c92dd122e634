"""Bidirectional search: rediscovery of the support-collapse chain."""

import dataclasses
import time

from dworklab.certificates import check_certificate, get_certificate
from dworklab.search import prove
from dworklab.terms import Oim, Opb, Struct, Tensor, Var


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

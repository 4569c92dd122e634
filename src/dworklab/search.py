"""Bidirectional proof search over the rewrite rules.

Frontiers grow from both goal sides and meet on exact raw serializations;
a meeting point is reassembled into a forward step list.  The moves, and
the step undoing each, come from the rules themselves (`rules.Moves`);
this module only grows the frontiers.  A backward edge is recorded as its
undo and kept only when that undo lands back exactly on the frontier
state it came from.  When the direct search fails, the goal is retried
inside a pushforward along each declared closed embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import Closure, ProofStep
from .errors import RuleError
from .geometry import EMBEDDING_KINDS
from .rules import Moves, apply_step
from .terms import (
    Oim,
    canonical_shift,
    navigate,
    serialize,
    size,
    split_shift,
    subterm_paths,
)


# terms larger than this are never put on a frontier
_SIZE_CAP = 64


@dataclass
class SearchResult:
    found: bool
    steps: list = field(default_factory=list)
    closure: Closure | None = None
    expanded: int = 0
    depth: int = 0


def _successors(ctx, moves, term, gates):
    """Terms one offered move away, with the move and its undo as steps."""
    core, _k = split_shift(term)
    for path in subterm_paths(core):
        for (rule, d, b), (urule, ud, ub) in moves(navigate(core, path)):
            try:
                nt, _delta = apply_step(ctx, term, rule, d, path, b, **gates)
            except RuleError:
                continue
            if size(nt) > _SIZE_CAP:
                continue
            yield ProofStep(rule, d, path, b), ProofStep(urule, ud, path, ub), nt


def _path(parents, key):
    """The recorded steps from `key` back to its frontier's root."""
    steps = []
    while parents[key] is not None:
        key, step = parents[key]
        steps.append(step)
    return steps


def _mitm(ctx, moves, lhs, rhs, max_depth, gates):
    left = canonical_shift(lhs)
    right = canonical_shift(rhs)
    lkey, rkey = serialize(left), serialize(right)
    fpar = {lkey: None}
    bpar = {rkey: None}
    if lkey == rkey:
        return [], 0
    flevel = {lkey: left}
    blevel = {rkey: right}
    fd = bd = 0
    expanded = 0
    while fd + bd < max_depth and (flevel or blevel):
        forward = (len(flevel) <= len(blevel) and flevel) or not blevel
        if forward:
            fd += 1
        else:
            bd += 1
        src = flevel if forward else blevel
        parents = fpar if forward else bpar
        other = bpar if forward else fpar
        nxt = {}
        for key, term in src.items():
            for step, undo, nt in _successors(ctx, moves, term, gates):
                expanded += 1
                nk = serialize(nt)
                if nk in parents:
                    continue
                if not forward:
                    # record the undo, and keep the edge only if the undo
                    # lands back exactly on this frontier state
                    try:
                        back, _d = apply_step(ctx, nt, undo.rule, undo.direction,
                                              undo.path, undo.bindings, **gates)
                    except RuleError:
                        continue
                    if serialize(back) != key:
                        continue
                    step = undo
                parents[nk] = (key, step)
                nxt[nk] = nt
                if nk in other:
                    # backward steps are recorded as undos, so they
                    # already run from the meeting point to the goal
                    return _path(fpar, nk)[::-1] + _path(bpar, nk), expanded
        if forward:
            flevel = nxt
        else:
            blevel = nxt
    return None, expanded


def prove(ctx, lhs, rhs, max_depth=6, mode="strict-smooth", allowed_strata=1,
          excluded=frozenset()):
    """Search for a rewrite chain between two terms.

    One layered bidirectional pass covers every chain length up to
    `max_depth`; if it exhausts, the pair is retried wrapped in each
    declared closed embedding's pushforward (returned as a closure on
    the result).
    """
    gates = {"mode": mode, "allowed_strata": allowed_strata,
             "excluded": excluded}
    moves = Moves(ctx, allowed_strata, excluded)
    steps, total = _mitm(ctx, moves, lhs, rhs, max_depth, gates)
    if steps is not None:
        return SearchResult(True, steps, None, total, len(steps))
    wrappers = [a.name for a in ctx.atoms.values()
                if a.kind in EMBEDDING_KINDS and a.kind != "open"][:8]
    for name in wrappers:
        j = ctx.composite(name)
        steps, n = _mitm(ctx, moves, Oim(j, lhs), Oim(j, rhs), max_depth, gates)
        total += n
        if steps is not None:
            return SearchResult(True, steps, Closure("kashiwara", name),
                                total, len(steps))
    return SearchResult(False, [], None, total, max_depth)

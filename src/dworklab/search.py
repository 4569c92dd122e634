"""Bidirectional proof search over the rewrite rules.

Frontiers grow from both goal sides and meet on exact raw serializations;
a meeting point is reassembled into a forward step list.  This module
only grows the frontiers: the moves, the step undoing each and whether
that undo is exact all come from `rules.Moves`, the per-search move
table.  A backward edge is recorded as its undo and kept only when that
undo lands back exactly on the frontier state it came from.  When the
direct search fails, the goal is retried inside a pushforward along each
declared closed embedding.

The rules are matched once per distinct subterm, not once per place it
occurs.  `prove` builds one `Moves` and shares it across the direct
search and every closure retry.  A term is walked once per expansion
(`keyed_subterms`), which gives each subterm's serialization and its
offset in the term's.  `Moves.rows` is keyed by a subterm's
serialization and keeps the move, its undo, the replacement, the shift
delta and the replacement's serialization.  A successor's
serialization is spliced from those: the replacement's put in the
subterm's place, the root shift with the delta folded in wrapped around
it by `terms.shifted_key`.  A successor whose serialization is longer
than `_KEY_CAP` is dropped, which bounds every frontier.  This module
never spells term text itself: keys come from `terms`, and are only cut
and joined here.  The successor term itself, the replacement put in at
its path, is built only when the frontier records a step; nothing is
re-applied to the whole term.  `rules.rewrite` accepts only
replacements that are well-formed on the subterm's own variety, so
from well-formed goal sides every successor is well-formed; a goal with
an ill-formed side, or with sides on two varieties, is not searched.
`Moves.undoes` decides whether a move's undo lands back exactly on the
subterm, with the opposite delta, once per (subterm, move), the first
time a backward edge needs it.

The layer that brings the two depths to `max_depth` only probes: what it
makes is never expanded, so only a meeting counts.  It skips every
subterm whose surrounding text, the term's serialization before and
after it, fits no key the other side has recorded (root shifts
unwrapped on both sides, by `terms.core_key` on theirs; one sorted list
per layer, bisected), and builds a term, a step or an undo check only
for a successor whose key the other side has.  It meets where the
plain layer, which builds every successor, meets.  `expanded` counts
the successors generated.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

from .certificates import Closure, ProofStep
from .errors import TermError
from .geometry import CLOSED_EMBEDDING_KINDS
# `apply_step` is not called here; tracing tools look it up on this module
from .rules import Moves, apply_step  # noqa: F401
from .terms import (
    Oim,
    canonical_shift,
    core_key,
    equation_variety,
    keyed_subterms,
    replace,
    serialize,
    shifted_key,
    split_shift,
    with_shift,
)


# terms serialized longer than this are never put on a frontier: the
# built-in searches make none longer than 176 characters, and a goal
# nested 200 supports deep none shorter than 2 599 going forward
_KEY_CAP = 1024


class SearchResult:
    def __init__(self, found, steps=None, closure=None, expanded=0,
                 depth=0):
        self.found = found
        self.steps = [] if steps is None else steps
        self.closure = closure
        self.expanded = expanded
        self.depth = depth


def _successors(moves, term, seen, forward=True, probe=None):
    """Terms one offered move away, as ``(serialization, term, step)``.
    The step is the one the frontier records: going forward the move
    itself; going backward its undo, or None when the undo does not land
    back exactly on `term`.  It is None too when `seen` has the term
    already, and then the undo is not tried.  A successor's serialization
    is spliced from `term`'s; the term itself is built only with a step,
    and is None otherwise.

    With a `probe`, the other side's recorded keys and their sorted
    cores (`terms.core_key`), the expansion only looks for a meeting: a
    subterm whose surrounding text fits no core offers nothing, and a
    step is given only for a key the other side has."""
    core, k = split_shift(term)
    walk = keyed_subterms(core)
    ckey = walk[0][2]
    if probe:
        meet, cores = probe
    for path, sub, key, start in walk:
        end = start + len(key)
        if probe and not _fits(cores, ckey[:start], ckey[end:]):
            continue
        for i, row in enumerate(moves.rows(sub, key)):
            rule, d, b, ud, ub, new_sub, delta, new_key = row
            nk = shifted_key(ckey[:start] + new_key + ckey[end:], k + delta)
            if len(nk) > _KEY_CAP:
                continue
            if (nk not in meet if probe else nk in seen) or not (
                    forward or moves.undoes(key, i)):
                yield nk, None, None
                continue
            step = (ProofStep(rule, d, path, b) if forward
                    else ProofStep(rule, ud, path, ub))
            yield nk, with_shift(replace(core, path, new_sub), k + delta), step


def _fits(cores, head, tail):
    """Whether some core reads `head`, then at least one character, then
    `tail`: the only cores a rewrite between the two can reach."""
    least = len(head) + len(tail)
    for c in islice(cores, bisect_left(cores, head), None):
        if not c.startswith(head):
            return False
        if len(c) > least and c.endswith(tail):
            return True
    return False


def _path(parents, key):
    """The recorded steps from `key` back to its frontier's root."""
    steps = []
    while parents[key] is not None:
        key, step = parents[key]
        steps.append(step)
    return steps


def _mitm(moves, lhs, rhs, max_depth):
    try:
        equation_variety(moves.ctx, lhs, rhs)
    except TermError:
        return None, 0  # no chain joins an ill-formed side, or two varieties
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
        forward = bool(len(flevel) <= len(blevel) and flevel or not blevel)
        if forward:
            fd += 1
        else:
            bd += 1
        src = flevel if forward else blevel
        parents = fpar if forward else bpar
        other = bpar if forward else fpar
        nxt = {}
        # the last layer can only meet the other side: it only probes,
        # against the other side's keys and their cores, sorted
        probe = ((other, sorted({core_key(key) for key in other}))
                 if fd + bd == max_depth else None)
        for key, term in src.items():
            for nk, nt, step in _successors(moves, term, parents, forward,
                                            probe):
                expanded += 1
                if step is None:
                    continue
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
    the result).  All passes read one move table.
    """
    moves = Moves(ctx, mode, allowed_strata, excluded)
    steps, total = _mitm(moves, lhs, rhs, max_depth)
    if steps is not None:
        return SearchResult(True, steps, None, total, len(steps))
    wrappers = [a.name for a in ctx.atoms.values()
                if a.kind in CLOSED_EMBEDDING_KINDS][:8]
    for name in wrappers:
        j = ctx.composite(name)
        steps, n = _mitm(moves, Oim(j, lhs), Oim(j, rhs), max_depth)
        total += n
        if steps is not None:
            return SearchResult(True, steps, Closure("kashiwara", name),
                                total, len(steps))
    return SearchResult(False, [], None, total, max_depth)

"""Bidirectional proof search over the rewrite rules.

Frontiers grow from both goal sides and meet on exact raw serializations;
a meeting point is reassembled into a forward step list (steps found on
the right-hand frontier flip direction).  Candidate moves are enumerated
from declared geometry — squares, intersection and preimage facts,
transform pairs, product maps — so branching stays bounded; bare identity
insertions are not searched.  When the direct search fails, the goal is
retried inside a pushforward along each declared closed embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import Closure, ProofStep
from .errors import RuleError
from .geometry import EMBEDDING_KINDS, SubName, SubPre
from .rules import apply_step
from .terms import (
    ETensor,
    Exp,
    Fourier,
    Oim,
    Opb,
    RGamma,
    Struct,
    Tensor,
    canonical_shift,
    navigate,
    serialize,
    size,
    split_shift,
    subterm_paths,
)

_ATOM_PAIR_CAP = 2500


@dataclass
class SearchResult:
    found: bool
    steps: list = field(default_factory=list)
    closure: Closure | None = None
    expanded: int = 0
    depth: int = 0


def _tower_depth(sub, node_outer, node_inner):
    d = 0
    cur = sub
    while isinstance(cur, node_outer) and isinstance(cur.arg, node_inner):
        d += 1
        cur = cur.arg.arg
    return d


def _nested_rgamma(sub):
    d = 0
    cur = sub
    while isinstance(cur, RGamma):
        d += 1
        cur = cur.arg
    return d


def _split_pairs(ctx, m):
    """Atom pairs (f, g) with g after f equal to m, for compose splits."""
    atoms = list(ctx.atoms.values())
    if len(atoms) * len(atoms) > _ATOM_PAIR_CAP:
        return
    for f in atoms:
        for g in atoms:
            if f.target != g.source:
                continue
            gf = ctx.compose(ctx.composite(g.name), ctx.composite(f.name))
            if ctx.morphisms_equal(gf, m):
                yield ctx.composite(f.name), ctx.composite(g.name)


def _moves_at(ctx, sub):
    """Candidate (rule, direction, bindings) for one subterm."""
    mv = []
    bundles = sorted(ctx.fourier)
    squares = sorted(ctx.squares)
    if isinstance(sub, Opb):
        if isinstance(sub.arg, Opb):
            mv.append(("R1", "fwd", {}))
        for f, g in _split_pairs(ctx, sub.morphism):
            mv.append(("R1", "bwd", {"f": f, "g": g}))
        if isinstance(sub.arg, Tensor):
            mv.append(("R3", "fwd", {}))
        if isinstance(sub.arg, Oim):
            for sq in squares:
                mv.append(("R5", "bwd", {"square": sq}))
        if isinstance(sub.arg, Exp):
            mv.append(("R11", "fwd", {}))
        for b in bundles:
            mv.append(("R13", "bwd", {"bundle": b}))
            mv.append(("R17", "fwd", {"bundle": b}))
        mv.append(("R14", "bwd", {}))
        mv.append(("R19", "fwd", {"law": "opb_id"}))
        if isinstance(sub.arg, Struct):
            mv.append(("R19", "fwd", {"law": "struct_pullback"}))
        if isinstance(sub.arg, ETensor):
            mv.append(("R20", "fwd", {"law": "etens_opb_sndmap"}))
            mv.append(("R20", "fwd", {"law": "etens_opb_diag"}))
        mv.append(("R20", "fwd", {"law": "etens_opb_proj2"}))
    elif isinstance(sub, Oim):
        if isinstance(sub.arg, Oim):
            mv.append(("R2", "fwd", {}))
        for f, g in _split_pairs(ctx, sub.morphism):
            mv.append(("R2", "bwd", {"f": f, "g": g}))
        if isinstance(sub.arg, Tensor):
            mv.append(("R4", "fwd", {}))
        if isinstance(sub.arg, Opb):
            for sq in squares:
                mv.append(("R5", "fwd", {"square": sq}))
            depth = _tower_depth(sub, Oim, Opb)
            for k in range(1, depth + 1):
                mv.append(("R10", "bwd", {"layers": k}))
        if isinstance(sub.arg, RGamma):
            for name in sorted(ctx.subvarieties):
                mv.append(("R8", "fwd", {"sub": SubName(name)}))
        for b in bundles:
            mv.append(("R12", "bwd", {"bundle": b}))
            mv.append(("R16", "fwd", {"bundle": b}))
            mv.append(("R17", "bwd", {"bundle": b}))
        mv.append(("R15", "fwd", {}))
        mv.append(("R19", "fwd", {"law": "oim_id"}))
        if isinstance(sub.arg, ETensor):
            for law in ("etens_oim_idmap", "etens_oim_fstmap"):
                mv.append(("R20", "fwd", {"law": law}))
    elif isinstance(sub, Tensor):
        mv.append(("R3", "bwd", {}))
        mv.append(("R4", "bwd", {}))
        mv.append(("R6", "bwd", {}))
        mv.append(("R19", "fwd", {"law": "tensor_unit"}))
        mv.append(("R20", "bwd", {"law": "etens_opb_diag"}))
    elif isinstance(sub, RGamma):
        mv.append(("R6", "fwd", {}))
        if isinstance(sub.arg, RGamma):
            mv.append(("R7", "fwd", {}))
        for members in sorted(ctx.cap_facts, key=sorted):
            names = sorted(members)
            orders = [(names[0], names[-1])]
            if len(names) == 2:
                orders.append((names[1], names[0]))
            for a, b in orders:
                bind = {"left": SubName(a), "right": SubName(b)}
                if isinstance(sub.arg, RGamma):
                    mv.append(("R7", "fwd", dict(bind)))
                mv.append(("R7", "bwd", dict(bind)))
        if isinstance(sub.arg, Oim):
            mv.append(("R8", "bwd", {"sub": SubPre(sub.arg.morphism, sub.sub)}))
            for name in sorted(ctx.subvarieties):
                mv.append(("R8", "bwd", {"sub": SubName(name)}))
        for k in range(1, _nested_rgamma(sub) + 1):
            mv.append(("R10", "fwd", {"layers": k}))
        mv.append(("R18", "fwd", {}))
        for name in sorted(ctx.subvarieties):
            mv.append(("R18", "bwd", {"sub": SubName(name)}))
    elif isinstance(sub, Struct):
        for atom in ctx.atoms.values():
            if atom.source == sub.variety:
                mv.append(("R19", "bwd",
                           {"law": "struct_pullback", "f": ctx.composite(atom.name)}))
    elif isinstance(sub, Fourier):
        mv.append(("R12", "fwd", {"bundle": sub.bundle}))
        if isinstance(sub.arg, Fourier):
            mv.append(("R13", "fwd", {"bundle": sub.arg.bundle}))
        mv.append(("R14", "fwd", {}))
        mv.append(("R15", "bwd", {}))
        mv.append(("R16", "bwd", {"bundle": sub.bundle}))
    elif isinstance(sub, ETensor):
        mv.append(("R20", "bwd", {"law": "etens_opb_proj2"}))
        mv.append(("R20", "bwd", {"law": "etens_oim_idmap"}))
        mv.append(("R20", "bwd", {"law": "etens_opb_sndmap"}))
        mv.append(("R20", "bwd", {"law": "etens_oim_fstmap"}))
    return mv


def _successors(ctx, term, gates, size_cap):
    core, _k = split_shift(term)
    for path in subterm_paths(core):
        sub = navigate(core, path)
        for rule, direction, bindings in _moves_at(ctx, sub):
            try:
                nt, _delta = apply_step(ctx, term, rule, direction, path,
                                        bindings, **gates)
            except RuleError:
                continue
            if size(nt) > size_cap:
                continue
            yield ProofStep(rule, direction, path, bindings), nt


def _inverse_step(ctx, parent, step):
    """The step undoing `step` (which was applied to `parent`), if guessable.

    Bindings whose meaning depends on direction are re-read off the parent
    term; a None means the move has no usable inverse.  Callers must still
    verify the round trip — raw shapes can drift through normal-form
    matched slots.
    """
    rule, d, path, b = step.rule, step.direction, step.path, dict(step.bindings)
    flip = "bwd" if d == "fwd" else "fwd"
    core, _k = split_shift(parent)
    sub = navigate(core, path)
    if rule in ("R1", "R2"):
        if d == "bwd":
            return None
        outer, inner = sub.morphism, sub.arg.morphism
        fg = ({"f": outer, "g": inner} if rule == "R1"
              else {"f": inner, "g": outer})
        return ProofStep(rule, "bwd" if not b else "fwd", path, fg)
    if rule == "R7":
        if d == "fwd" and not b:
            return ProofStep(rule, "bwd", path,
                             {"left": sub.sub, "right": sub.arg.sub})
        if d == "fwd":
            return ProofStep(rule, "fwd", path,
                             {"left": sub.sub, "right": sub.arg.sub})
        return ProofStep(rule, "fwd", path, {})
    if rule == "R8":
        if d == "fwd":
            return ProofStep(rule, "bwd", path, {"sub": sub.arg.sub})
        return ProofStep(rule, "fwd", path, {"sub": sub.sub})
    if rule == "R11":
        if d == "fwd":
            return ProofStep(rule, "bwd", path,
                             {"f": sub.morphism, "psi": sub.arg.func})
        return ProofStep(rule, "fwd", path, {})
    if rule == "R18":
        if d == "fwd":
            return ProofStep(rule, "bwd", path, {"sub": sub.sub})
        return ProofStep(rule, "fwd", path, {})
    if rule == "R19":
        law = b.get("law")
        if d == "fwd" and law in ("opb_id", "oim_id", "struct_pullback"):
            return ProofStep(rule, "bwd", path, {"law": law, "f": sub.morphism})
        if d == "fwd" and law == "tensor_unit":
            return ProofStep(rule, "bwd", path, {"law": law})
        if d == "bwd" and law == "struct_pullback":
            return ProofStep(rule, "fwd", path, {"law": law})
        if d == "bwd":
            return ProofStep(rule, "fwd", path, {"law": law})
    return ProofStep(rule, flip, path, b)


def _reassemble(fpar, bpar, meet):
    steps = []
    key = meet
    while fpar[key] is not None:
        pkey, step = fpar[key]
        steps.append(step)
        key = pkey
    steps.reverse()
    key = meet
    while bpar[key] is not None:
        pkey, step = bpar[key]  # already inverted: maps this state to parent
        steps.append(step)
        key = pkey
    return steps


def _mitm(ctx, lhs, rhs, max_depth, gates, size_cap):
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
            for step, nt in _successors(ctx, term, gates, size_cap):
                expanded += 1
                nk = serialize(nt)
                if nk in parents:
                    continue
                keep = step
                if not forward:
                    # record the inverting step and insist it lands back
                    # exactly on this frontier state
                    inv = _inverse_step(ctx, term, step)
                    if inv is None:
                        continue
                    try:
                        back, _d = apply_step(ctx, nt, inv.rule, inv.direction,
                                              inv.path, inv.bindings, **gates)
                    except RuleError:
                        continue
                    if serialize(back) != key:
                        continue
                    keep = inv
                parents[nk] = (key, keep)
                nxt[nk] = nt
                if nk in other:
                    return _reassemble(fpar, bpar, nk), expanded
        if forward:
            flevel = nxt
        else:
            blevel = nxt
    return None, expanded


def prove(ctx, lhs, rhs, max_depth=6, mode="strict-smooth", allowed_strata=1,
          excluded=frozenset(), size_cap=64, try_closure=True):
    """Search for a rewrite chain between two terms.

    One layered bidirectional pass covers every chain length up to
    `max_depth`; if it exhausts, the pair is retried wrapped in each
    declared closed embedding's pushforward (returned as a closure on
    the result).
    """
    gates = {"mode": mode, "allowed_strata": allowed_strata,
             "excluded": excluded}
    steps, total = _mitm(ctx, lhs, rhs, max_depth, gates, size_cap)
    if steps is not None:
        return SearchResult(True, steps, None, total, len(steps))
    if try_closure:
        wrappers = [a.name for a in ctx.atoms.values()
                    if a.kind in EMBEDDING_KINDS and a.kind != "open"][:8]
        for name in wrappers:
            j = ctx.composite(name)
            steps, n = _mitm(ctx, Oim(j, lhs), Oim(j, rhs), max_depth,
                             gates, size_cap)
            total += n
            if steps is not None:
                return SearchResult(True, steps, Closure("kashiwara", name),
                                    total, len(steps))
    return SearchResult(False, [], None, total, max_depth)

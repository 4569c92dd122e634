"""The window ladder shared by both sides: rungs until three agree, and
on to the cap when a comparison asks for it.  The report a ladder
returns carries the rest of its ladder, its complex and the cutoffs not
yet run, so going on to the cap builds nothing again and runs no cutoff
twice."""

from __future__ import annotations

from functools import partial


class CohomologyReport:
    # `_rest(report)` continues the report to its cap; a slot, so it stays
    # out of `vars(report)` and of every document built from it
    __slots__ = ("__dict__", "_rest")

    def __init__(self, kind, dims, rungs=None, note=""):
        self.kind = kind
        self.dims = dims
        self.rungs = [] if rungs is None else rungs
        self.note = note

    @property
    def stabilized(self):
        return self.dims is not None

    def to_cap(self):
        """The report continued on the complex that made it.  A ladder's
        report runs every cutoff it has left, in place, and reads its
        table again off its last three rungs; a supported report is read
        again off its complement report, continued (`compare`)."""
        return self._rest(self)


def ladder(kind, rung, cutoffs):
    """Run `rung` at each cutoff until three consecutive tables agree, or
    to the last cutoff, and return the report; `to_cap` continues it.  A
    report whose last three rungs do not agree has no table, and a note
    says so."""
    rep = CohomologyReport(kind=kind, dims=None)
    cutoffs = iter(cutoffs)
    rep._rest = partial(_climb, rung, cutoffs)
    return _climb(rung, cutoffs, rep, stop_early=True)


def _climb(rung, cutoffs, rep, stop_early=False):
    """`rep` with `rung` run at the cutoffs left, up to the first three
    agreeing tables when `stop_early`, and its table read again.  Once
    every cutoff has run, the report lets go of its complex."""
    for cut in cutoffs:
        rep.rungs.append((cut, rung(cut)))
        if stop_early and _settled(rep.rungs) is not None:
            break
    else:
        rep._rest = partial(_climb, None, ())
    rep.dims = _settled(rep.rungs)
    if rep.dims is None:
        rep.note = f"{rep.kind} ladder did not stabilize"
    return rep


def _settled(rungs):
    """The table of the last three rungs when they agree, else None."""
    tail = [dims for _cut, dims in rungs[-3:]]
    return tail[0] if len(tail) == 3 and tail.count(tail[0]) == 3 else None

"""The window ladder shared by both sides: rungs until three agree, and
on to the cap when a comparison asks for it."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CohomologyReport:
    kind: str
    dims: dict | None
    rungs: list = field(default_factory=list)
    note: str = ""

    @property
    def stabilized(self):
        return self.dims is not None


def ladder(kind, rung, cutoffs):
    """Run `rung` at each cutoff, as a generator of one report.

    The report is yielded first when three consecutive tables agree, or
    after the last cutoff.  Resumed, the ladder runs its remaining
    cutoffs and yields the report again, its table now read off its last
    three rungs.  A report whose last three rungs do not agree has no
    table, and a note says so."""
    rep = CohomologyReport(kind=kind, dims=None)
    cutoffs = iter(cutoffs)
    for stop_early in (True, False):
        for cut in cutoffs:
            rep.rungs.append((cut, rung(cut)))
            if stop_early and _settled(rep.rungs) is not None:
                break
        rep.dims = _settled(rep.rungs)
        if rep.dims is None:
            rep.note = f"{kind} ladder did not stabilize"
        yield rep


def _settled(rungs):
    """The table of the last three rungs when they agree, else None."""
    tail = [dims for _cut, dims in rungs[-3:]]
    return tail[0] if len(tail) == 3 and tail.count(tail[0]) == 3 else None

"""The window ladder shared by both sides: rungs until three agree."""

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
    """Run `rung` at each cutoff until three consecutive tables agree."""
    rep = CohomologyReport(kind=kind, dims=None)
    for cut in cutoffs:
        dims = rung(cut)
        rep.rungs.append((cut, dims))
        tail = rep.rungs[-3:]
        if len(tail) == 3 and all(d == dims for _cut, d in tail):
            rep.dims = dims
            return rep
    rep.note = f"{kind} ladder did not stabilize"
    return rep

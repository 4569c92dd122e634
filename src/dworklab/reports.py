"""Render validation, search, and cohomology reports as text or machine JSON.

Machine output is canonical: schema_version 1, sorted keys, compact
separators, one trailing newline — byte-identical across runs for the
same inputs.  Every machine document starts from its dataclass's own
fields, read with `vars`, and overrides only what needs converting (a
search's steps and closure, a cohomology report's grade tables and its
`stabilized` property).  So `ValidationReport`, `StepRecord`, `LemmaNote`,
`SearchResult`, `Closure`, `CohomologyReport` and `DworkComparison` keep
a `__dict__` (no `slots=True`); `ProofStep` has slots and is written out
field by field.
"""

from __future__ import annotations

import json

from .certificates import PaperReport, ValidationReport
# step bindings and paths are spelled as a script writes them
from .dsl import render_expr as binding_str, render_path
from .search import SearchResult
from .weyl.compare import CohomologyReport, DworkComparison

SCHEMA_VERSION = 1


# --- dict forms -------------------------------------------------------------------


def validation_dict(rep):
    return dict(vars(rep), steps=[vars(r) for r in rep.steps])


def paper_dict(rep):
    out = {
        "ok": rep.ok,
        "mode": rep.mode,
        "certificates": [validation_dict(r) for r in rep.reports],
        "lemmas": [vars(n) for n in rep.lemma_notes],
    }
    if rep.stratum_needs is not None:
        out["stratum_needs"] = rep.stratum_needs
    return out


def search_dict(res):
    return dict(vars(res),
                closure=None if res.closure is None else vars(res.closure),
                steps=[{"rule": s.rule, "direction": s.direction,
                        "path": list(s.path),
                        "bindings": {k: binding_str(v)
                                     for k, v in s.bindings.items()}}
                       for s in res.steps])


def _graded(dims):
    """A grade table with string keys, in grade order."""
    return {str(k): v for k, v in sorted(dims.items())}


def cohomology_dict(rep):
    return dict(vars(rep), stabilized=rep.stabilized,
                dims=None if rep.dims is None else _graded(rep.dims),
                rungs=[[cut, _graded(dims)] for cut, dims in rep.rungs])


def comparison_dict(cmp):
    return dict(vars(cmp), twisted=cohomology_dict(cmp.twisted),
                supports=cohomology_dict(cmp.supports))


# --- text forms -------------------------------------------------------------------


def _dims_str(dims):
    if dims is None:
        return "(not stabilized)"
    if not dims:
        return "{}"
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(dims.items())) + "}"


def validation_text(rep, verbose=True):
    lines = [f"{rep.certificate}: {rep.status}"
             + (f" ({rep.reason})" if rep.reason else "")]
    lines.append(f"  mode: {rep.mode}   steps: {len(rep.steps)}")
    used = ", ".join(f"{r}x{c}" if c > 1 else r
                     for r, c in sorted(rep.rules_used.items()))
    lines.append(f"  rules: {used or '(none)'}")
    lines.append(f"  shift ledger: {rep.ledger} -> {rep.ledger_total} "
                 f"(goal wants {rep.expected_shift})")
    if verbose:
        for rec in rep.steps:
            flag = "ok " if rec.ok else "FAIL"
            tail = rec.error if not rec.ok else rec.term
            lines.append(f"  [{rec.index}] {flag} {rec.rule} {rec.direction} "
                         f"at {render_path(rec.path)}  {tail}")
    return "\n".join(lines) + "\n"


def paper_text(rep):
    lines = []
    for sub in rep.reports:
        lines.append(validation_text(sub, verbose=False).rstrip("\n"))
    for note in rep.lemma_notes:
        how = (f"discharged via {', '.join(note.via)}"
               if note.discharged else "NOT discharged")
        lines.append(f"lemma {note.lemma!r} used by {note.certificate}: {how}")
    n_ok = sum(1 for r in rep.reports if r.status == "verified")
    lines.append(f"verified {n_ok}/{len(rep.reports)} certificates")
    for name, over in sorted((rep.stratum_needs or {}).items()):
        lines.append(f"{name} needs stratum rules above the bound: "
                     f"{', '.join(over)}")
    return "\n".join(lines) + "\n"


def search_text(res):
    if not res.found:
        return (f"no proof found (depth {res.depth}, "
                f"{res.expanded} expansions)\n")
    lines = [f"proof found: {len(res.steps)} steps at depth {res.depth} "
             f"({res.expanded} expansions)"]
    if res.closure is not None:
        lines.append(f"  closure {res.closure.kind} {res.closure.morphism}")
    for s in res.steps:
        b = ", ".join(f"{k}={binding_str(v)}"
                      for k, v in sorted(s.bindings.items()))
        lines.append(f"  {s.rule} {s.direction} at {render_path(s.path)}"
                     + (f" with {b}" if b else ""))
    return "\n".join(lines) + "\n"


def cohomology_text(rep):
    lines = [f"{rep.kind}: {_dims_str(rep.dims)}"]
    for cut, dims in rep.rungs:
        lines.append(f"  rung {cut}: {_dims_str(dims)}")
    if rep.note:
        lines.append(f"  note: {rep.note}")
    return "\n".join(lines) + "\n"


def comparison_text(cmp):
    out = cohomology_text(cmp.twisted) + cohomology_text(cmp.supports)
    if cmp.inconclusive:
        return out + "result: inconclusive (raise the caps)\n"
    return out + f"result: {'match' if cmp.match else 'MISMATCH'}\n"


# --- one table of report kinds -----------------------------------------------------

# report class, machine kind, dict form, text form
_KINDS = (
    (ValidationReport, "validation", validation_dict, validation_text),
    (PaperReport, "paper", paper_dict, paper_text),
    (SearchResult, "search", search_dict, search_text),
    (CohomologyReport, "cohomology", cohomology_dict, cohomology_text),
    (DworkComparison, "comparison", comparison_dict, comparison_text),
)


def _kind_of(obj):
    for cls, kind, dict_form, text_form in _KINDS:
        if isinstance(obj, cls):
            return kind, dict_form, text_form
    raise TypeError(f"no report form for {type(obj).__name__}")


def machine_document(kind, fields):
    """Frame one machine document: `fields` plus its kind and the schema
    version, as one canonical JSON line."""
    doc = dict(fields, kind=kind, schema_version=SCHEMA_VERSION)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def machine_report(obj, extra=None):
    """Canonical JSON line for any report object."""
    kind, dict_form, _text_form = _kind_of(obj)
    return machine_document(kind, {**dict_form(obj), **(extra or {})})


def text_report(obj):
    _kind, _dict_form, text_form = _kind_of(obj)
    return text_form(obj)


def render_report(obj, output="text", extra=None):
    if output == "machine":
        return machine_report(obj, extra=extra)
    return text_report(obj)

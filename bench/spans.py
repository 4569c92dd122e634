"""Spans around calls into dworklab's layers, installed from outside.

`Tracer.install` replaces each traced function where its caller looks it
up (a module global such as `dworklab.search.apply_step`, or a class
attribute such as `TwistedComplex.rows`) with a wrapper that records one
span per call: name, start, end, parent span and operation id.  Spans are
kept in compact arrays and written out by `write_spans`; per-name totals,
self times and call counts are folded in as each span closes.  A call
made while a span of the same name is open (recursion, or a second
import of the same function) is passed through unrecorded, so a count is
a count of outermost calls.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import dworklab.certificates
import dworklab.cli
import dworklab.dsl
import dworklab.rules
import dworklab.search
import dworklab.terms
import dworklab.weyl.cech
import dworklab.weyl.compare
import dworklab.weyl.twisted
from dworklab.weyl.cech import CechDeRham
from dworklab.weyl.poly import MultiPoly
from dworklab.weyl.twisted import TwistedComplex


def _rank_feed(counters, rows):
    counters["linalg.rows_fed"] += len(rows)
    counters["linalg.nnz_fed"] += sum(map(len, rows))


def _expanded(counters, result):
    counters["search.expanded"] += result.expanded


# (owner, attribute, span name, hook).  A hook gets the counters and the
# call's first positional argument ("arg") or its result ("result").
TARGETS = (
    (dworklab.cli, "main", "cli.main", None),
    (dworklab.cli, "parse_poly", "poly.parse", None),
    (dworklab.cli, "dwork_compare", "compare.dwork_compare", None),
    (dworklab.cli, "render_report", "reports.render", None),
    (dworklab.cli, "verify_paper", "certificates.verify_paper", None),
    (dworklab.cli, "check_certificate", "certificates.check", None),
    (dworklab.cli, "search_prove", "search.prove", ("result", _expanded)),
    (dworklab.search, "prove", "search.prove", ("result", _expanded)),
    (dworklab.certificates, "check_certificate", "certificates.check", None),
    (dworklab.weyl.compare, "twisted_cohomology", "twisted.ladder", None),
    (dworklab.weyl.compare, "complement_cohomology", "cech.ladder", None),
    (TwistedComplex, "rung", "twisted.rung", None),
    (TwistedComplex, "rows", "twisted.rows", None),
    (CechDeRham, "rung", "cech.rung", None),
    (CechDeRham, "diff_row", "cech.rows", None),
    (dworklab.weyl.twisted, "rank", "linalg.rank", ("arg", _rank_feed)),
    (dworklab.weyl.cech, "rank", "linalg.rank", ("arg", _rank_feed)),
    (MultiPoly, "__mul__", "poly.mul", None),
    (MultiPoly, "__pow__", "poly.mul", None),
    (dworklab.search, "apply_step", "rules.apply_step", None),
    (dworklab.certificates, "apply_step", "rules.apply_step", None),
    (dworklab.terms, "serialize", "terms.serialize", None),
    (dworklab.rules, "serialize", "terms.serialize", None),
    (dworklab.search, "serialize", "terms.serialize", None),
    (dworklab.certificates, "serialize", "terms.serialize", None),
    (dworklab.terms, "normalize", "terms.normalize", None),
    (dworklab.rules, "normalize", "terms.normalize", None),
    (dworklab.certificates, "normalize", "terms.normalize", None),
    (dworklab.dsl, "parse_script", "dsl.parse", None),
    (dworklab.dsl, "bind_script", "dsl.bind", None),
    (dworklab.dsl, "render_script", "dsl.render", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._active = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.ok = Counter()
        self.counters = Counter()
        self.op_id = -1
        self._stack = []
        self._next = 0
        self._saved = []
        self.rank_hook = None

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(False)
        return nid

    def wrap(self, name, fn, hook=None, tag=None):
        nid = self._nid(name)
        active = self._active
        stack = self._stack
        counters = self.counters
        on_arg = hook[1] if hook and hook[0] == "arg" else None
        on_result = hook[1] if hook and hook[0] == "result" else None
        is_rank = name == "linalg.rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            if on_arg is not None:
                on_arg(counters, args[0])
            if is_rank and self.rank_hook is not None:
                self.rank_hook(tag, args, kwargs)
            active[nid] = True
            sid = self._next
            self._next += 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] = False
                self._close(nid, sid, t0, t1, frame[1], ok)
            if on_result is not None:
                on_result(counters, out)
            return out

        return wrapper

    def _close(self, nid, sid, t0, t1, child, ok):
        dur = t1 - t0
        name = self.names[nid]
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if ok:
            self.ok[name] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[1] += dur
            parent = top[0]
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.start.append(t0)
        self.end.append(t1)

    def install(self):
        for owner, attr, name, hook in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr,
                    self.wrap(name, fn, hook, tag=owner.__name__))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path):
        """One line per span: op, span, parent, name, start and end in us."""
        t_zero = min(self.start) if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.sid)):
                fh.write(f"{self.op[i]}\t{self.sid[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - t_zero) * 1e6:.1f}\t"
                         f"{(self.end[i] - t_zero) * 1e6:.1f}\n")

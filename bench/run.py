#!/usr/bin/env python3
"""dworklab benchmark: three closed-loop workloads, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload dwork-check --seed 1 --seconds 24 --trace 0

One client runs the workload's operations in a fixed order, pass after
pass, each call starting when the previous one returned, until
`--seconds` have passed (at least one whole pass).  Every output is
checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Earlier lines name each failed operation and give the figures a reader
of the workload looks for.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
FROZEN_REPEATS = 3
# Largest frozen row set (in nonzero entries) that the Fraction oracle
# re-ranks after a traced dwork-check run.
ORACLE_NNZ = 10000
LAYERS = ("cli", "poly", "compare", "twisted", "cech", "linalg", "search",
          "rules", "terms", "certificates", "dsl", "reports")
# per-layer metric -> span name (time per pass, or outermost calls per pass)
SPAN_TIMES = {
    "linalg.rank_s": "linalg.rank",
    "twisted.ladder_s": "twisted.ladder",
    "twisted.rung_s": "twisted.rung",
    "twisted.rows_s": "twisted.rows",
    "cech.ladder_s": "cech.ladder",
    "cech.rung_s": "cech.rung",
    "cech.rows_s": "cech.rows",
    "poly.mul_s": "poly.mul",
    "poly.parse_s": "poly.parse",
    "compare.dwork_compare_s": "compare.dwork_compare",
    "search.prove_s": "search.prove",
    "rules.apply_step_s": "rules.apply_step",
    "terms.serialize_s": "terms.serialize",
    "terms.normalize_s": "terms.normalize",
    "certificates.check_s": "certificates.check",
    "certificates.verify_paper_s": "certificates.verify_paper",
    "dsl.parse_s": "dsl.parse",
    "dsl.bind_s": "dsl.bind",
    "dsl.render_s": "dsl.render",
    "reports.render_s": "reports.render",
}
SPAN_CALLS = {
    "linalg.rank_calls": "linalg.rank",
    "twisted.rungs": "twisted.rung",
    "cech.rungs": "cech.rung",
    "rules.apply_step_calls": "rules.apply_step",
    "terms.serialize_calls": "terms.serialize",
    "terms.normalize_calls": "terms.normalize",
}
COUNTERS = ("linalg.rows_fed", "linalg.nnz_fed", "search.expanded")
IMPORTED = ("dsl", "geometry", "terms", "rules", "certificates", "search",
            "reports", "cli", "weyl")


class Tally:
    """Per-operation times and outcomes over whole passes."""

    def __init__(self, ops, may_fail, probe):
        self.ops = ops
        self.may_fail = may_fail
        self.probe = probe
        self.times = [[] for _ in ops]   # corrected to reference speed
        self.pass_times = []
        self.raw_pass_times = []
        self.attempted = 0
        self.failures = Counter()   # "op: reason" -> count
        self.errors = set()         # wrong results, unexpected failures

    def one_pass(self, before_op=None):
        from workloads import Failed, Wrong

        total = raw_total = 0.0
        for i, op in enumerate(self.ops):
            if before_op is not None:
                before_op(i)
            self.attempted += 1
            crash = None
            mark = self.probe.start()
            t0 = perf_counter()
            try:
                res = op.run()
            except Exception as e:  # a crash in the program fails the op
                crash = e
            raw = perf_counter() - t0
            dt = self.probe.corrected(mark, raw)
            self.times[i].append(dt)
            total += dt
            raw_total += raw
            if crash is not None:
                self._fail(op, f"raised {type(crash).__name__}: {crash}")
                continue
            try:
                op.check(res)
            except Failed as e:
                self._fail(op, str(e))
            except Wrong as e:
                self.errors.add(f"{op.name}: wrong result: {e}")
            except Exception as e:  # output of an unexpected shape
                self.errors.add(f"{op.name}: unreadable result: "
                                f"{type(e).__name__}: {e}")
        self.pass_times.append(total)
        self.raw_pass_times.append(raw_total)

    def _fail(self, op, reason):
        key = f"{op.name}: {reason}"
        self.failures[key] += 1
        if op.name not in self.may_fail:
            self.errors.add(f"{key} (not an expected failure)")

    @property
    def failed(self):
        return sum(self.failures.values())

    def medians(self):
        return [statistics.median(t) for t in self.times]


def run_passes(tally, seconds):
    t_end = perf_counter() + seconds
    while True:
        tally.one_pass()
        if perf_counter() >= t_end:
            return


def fresh_interpreter(code, *flags):
    """Run `code` in a new isolated interpreter that imports from src/."""
    prog = (f"import sys\nsys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            f"{code}")
    proc = subprocess.run([sys.executable, "-I", *flags, "-c", prog],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc


def setup_seconds(setup_code):
    """Median time from a fresh interpreter to the first operation's state."""
    body = "\n".join("    " + ln for ln in
                     ["import dworklab"] + setup_code.splitlines())
    code = ("from time import perf_counter\n"
            "from speed import SpeedProbe\n"
            "with SpeedProbe() as probe:\n"
            "    mark = probe.start()\n"
            "    t0 = perf_counter()\n"
            f"{body}\n"
            "    raw = perf_counter() - t0\n"
            "    print(probe.corrected(mark, raw))\n")
    return statistics.median(
        float(fresh_interpreter(code).stdout.split()[-1])
        for _ in range(SETUP_REPEATS))


def import_seconds():
    """Median self import time of each dworklab module, from -X importtime."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        err = fresh_interpreter("import dworklab, dworklab.cli",
                                "-X", "importtime").stderr
        got = dict.fromkeys(IMPORTED, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _cum, module = line[len("import time:"):].split("|")
            module = module.strip()
            if not module.startswith("dworklab."):
                continue
            short = module.split(".")[1]
            if short in got:
                got[short] += int(self_us) / 1e6
        runs.append(got)
    return {f"import.{m}_s": statistics.median(r[m] for r in runs)
            for m in IMPORTED}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, seconds):
    tally = Tally(wl.ops, wl.may_fail, SpeedProbe())
    with tally.probe:
        run_passes(tally, seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = tally.medians()
    metrics = {
        "setup_s": metric(setup_seconds(wl.setup_code), "s"),
        "pass_s": metric(statistics.median(tally.pass_times), "s"),
        "op_geomean_ms": metric(
            statistics.geometric_mean(medians) * 1000, "ms"),
        "peak_rss_mib": metric(peak_mib, "MiB"),
    }
    print(f"{len(tally.pass_times)} passes of {len(wl.ops)} operations; "
          f"median pass {statistics.median(tally.raw_pass_times):.4f} s "
          f"wall, {metrics['pass_s']['value']:.4f} s at reference speed")
    for op, m in zip(wl.ops, medians):
        print(f"  median {m * 1000:12.3f} ms  {op.name}")
    for name, value, unit in wl.summary(medians):
        print(f"{name} = {value:.6g} {unit}")
    return tally, metrics


class FrozenSets:
    """Largest twisted and Čech U ∪ W row sets fed to `rank`, per input."""

    def __init__(self):
        self.current = None
        self.sets = {}      # (op index, side) -> (nnz, rows, key)
        self._last = []     # the two previous Čech row lists

    def record(self, tag, args, kwargs):
        rows, key = args[0], kwargs.get("key")
        side = "twisted" if tag.endswith("twisted") else "cech"
        if side == "cech":
            last, self._last = self._last, (self._last + [rows])[-2:]
            # cech.rung ranks U, then W, then the list U + W
            if len(last) < 2 or len(rows) != len(last[0]) + len(last[1]):
                return
            if any(a is not b for a, b in zip(rows, last[0] + last[1])):
                return
        nnz = sum(map(len, rows))
        slot = (self.current, side)
        if nnz > self.sets.get(slot, (-1,))[0]:
            self.sets[slot] = (nnz, rows, key)

    def time_and_check(self, tally):
        """Rank every set alone; agree with the Fraction oracle where cheap."""
        from dworklab.weyl.linalg import rank
        import oracles

        total = 0.0
        for (op_index, side), (nnz, rows, key) in sorted(self.sets.items()):
            times = []
            with SpeedProbe() as probe:
                for _ in range(FROZEN_REPEATS):
                    mark = probe.start()
                    t0 = perf_counter()
                    r = rank(rows, key=key)
                    times.append(probe.corrected(mark, perf_counter() - t0))
            total += statistics.median(times)
            name = tally.ops[op_index].name
            verdict = "too large for the oracle"
            if nnz <= ORACLE_NNZ:
                t0 = perf_counter()
                want = oracles.rank(rows)
                verdict = (f"oracle agrees ({perf_counter() - t0:.3f} s)"
                           if r == want else f"ORACLE SAYS {want}")
                if r != want:
                    tally.errors.add(f"{name}: frozen {side} rank {r}, "
                                     f"oracle {want}")
            print(f"  frozen {side:7s} {name:24s} {len(rows):6d} rows "
                  f"{nnz:7d} nnz  rank {r:5d}  "
                  f"{statistics.median(times):.4f} s  {verdict}")
        return total


def traced(wl, seconds, seed):
    """Untraced and traced passes in turn; per-layer figures per traced
    pass."""
    from spans import Tracer

    tally = Tally(wl.ops, wl.may_fail, SpeedProbe())
    tracer = Tracer()
    frozen = FrozenSets() if wl.name == "dwork-check" else None
    plain, traced_passes, traced_raw = [], [], []

    def before_op(i):
        tracer.op_id += 1
        if frozen is not None:
            frozen.current = i

    t_end = perf_counter() + seconds
    with tally.probe:
        while not traced_passes or perf_counter() < t_end:
            tally.one_pass()
            plain.append(tally.pass_times[-1])
            # row sets are captured during the first traced pass only
            tracer.rank_hook = (frozen.record if frozen and not traced_passes
                                else None)
            tracer.install()
            try:
                tally.one_pass(before_op)
            finally:
                tracer.uninstall()
            traced_passes.append(tally.pass_times[-1])
            traced_raw.append(tally.raw_pass_times[-1])
    passes = len(traced_passes)
    traced_pass = statistics.median(traced_passes)
    ref_pass = statistics.median(plain)
    # span times are wall clock; bring them to reference speed like the rest
    speed = sum(traced_passes) / sum(traced_raw)

    calls = tracer.calls
    layer = {name: (tracer.total[span] * speed / passes, "s")
             for name, span in SPAN_TIMES.items()}
    layer.update((name, (calls[span] / passes, "count"))
                 for name, span in SPAN_CALLS.items())
    layer.update((name, (tracer.counters[name] / passes, "count"))
                 for name in COUNTERS)
    steps = calls["rules.apply_step"]
    layer["rules.apply_step_ok_ratio"] = (
        tracer.ok["rules.apply_step"] / steps if steps else 0.0, "ratio")
    layer["linalg.frozen_rank_s"] = (
        frozen.time_and_check(tally) if frozen else 0.0, "s")
    for name in LAYERS:
        own = sum(v for k, v in tracer.self_time.items()
                  if k.split(".")[0] == name)
        layer[f"self.{name}_s"] = (own * speed / passes, "s")
    layer.update((k, (v, "s")) for k, v in import_seconds().items())
    layer["trace.pass_s"] = (traced_pass, "s")
    layer["trace.overhead_pct"] = ((traced_pass / ref_pass - 1) * 100, "%")

    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write_spans(spans)
    print(f"{passes} traced passes, each after an untraced one; "
          f"{len(tracer.sid)} spans written to {spans.relative_to(ROOT)}")
    print(f"tracing overhead: traced pass {traced_pass:.4f} s, "
          f"untraced {ref_pass:.4f} s")
    if steps:
        print(f"rules.apply_step: {tracer.ok['rules.apply_step']} of "
              f"{steps} calls returned a term")
    return tally, {k: metric(v, u) for k, (v, u) in layer.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("dwork-check", "proof-search", "replay-scripts"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (SRC / "dworklab" / "__init__.py",
                 ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a "
                  f"dworklab checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT / "tests"))
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, WORK, args.seed)
    if args.trace:
        tally, metrics = traced(wl, args.seconds, args.seed)
    else:
        tally, metrics = untraced(wl, args.seconds)
    for key, count in sorted(tally.failures.items()):
        print(f"failed x{count}: {key}")
    for key in sorted(tally.errors):
        print(f"ERROR: {key}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"correct": not tally.errors,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

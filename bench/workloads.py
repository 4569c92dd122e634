"""The three workloads: their operations, inputs and output checks.

Each workload is a fixed list of operations run in a closed loop by one
client.  An operation's `run` makes the call into dworklab that is timed;
its `check` then judges the result without timing and raises `Failed` when
the operation produced no result or `Wrong` when it produced a wrong one.
No check compares against a saved copy of dworklab's own output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics

import dworklab.certificates
import dworklab.cli
import dworklab.dsl
import dworklab.search

import docs


class Failed(Exception):
    """The operation ended without a result."""


class Wrong(Exception):
    """The operation's result is incorrect."""


@dataclasses.dataclass
class Op:
    name: str
    run: object
    check: object


@dataclasses.dataclass
class Workload:
    name: str
    ops: list
    may_fail: frozenset
    # statements run after `import dworklab` in a fresh interpreter to
    # reach the state the first operation starts from
    setup_code: str
    # the figures a user of the workload looks for, from median op times
    summary: object


# Supported cohomology of the zero locus Z of each input, from topology
# alone (bench/README.md derives each table).  dwork-check must report it
# as the supported table and, with zero entries dropped, as the twisted one.
CHECK_INPUTS = (
    (("x^3-x",), {2: 3}),
    (("x^4-1/3*x",), {2: 4}),
    (("(x^2-1)^3",), {2: 2}),
    (("x*y",), {2: 2, 3: 1}),
    (("x^2+y^3",), {2: 1}),
    (("x*y-1/2",), {2: 1, 3: 1}),
    (("x", "y"), {4: 1}),
)

# Lemma-free bundled certificates searched at their own step count.  These
# four are not found at that depth (search is not yet complete for the
# depth it is given), so they may fail; any other failure is an error.
SEARCHED = ("C2", "C4", "C5", "C6", "C7", "C8", "C9")
KNOWN_MISSES = frozenset({"C2 depth 7", "C4 depth 5", "C8 depth 8",
                          "C9 depth 9"})

COLLAPSE_GOAL = ("goal collapse : Opb[iotacheck](Oim[s](O[X])) ~ "
                 "RGamma[S](O[X])[1];\n")
COLLAPSE_DEPTH = 6

# Rendered size of one round-trip document set (see docs.document_set).
DOCSET_BYTES = 16384


def _cli(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dworklab.cli.main(argv)
        return code, buf.getvalue()
    return run


def machine_doc(out, kind):
    """Parse a `--output machine` document and check its canonical form."""
    try:
        doc = json.loads(out)
    except ValueError:
        raise Wrong("output is not one JSON document") from None
    if out != json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n":
        raise Wrong("machine output does not re-serialize byte for byte")
    if doc.get("schema_version") != 1:
        raise Wrong(f"schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise Wrong(f"kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def _table(dims):
    return {int(k): v for k, v in (dims or {}).items() if v}


def _verdict_check(fs, expected):
    def check(res):
        code, out = res
        doc = machine_doc(out, "comparison")
        if doc["inconclusive"] or code == 3:
            raise Failed("inconclusive")
        if doc["f"] != list(fs):
            raise Wrong(f"echoed inputs {doc['f']}")
        supports = _table(doc["supports"]["dims"])
        twisted = _table(doc["twisted"]["dims"])
        if supports != expected:
            raise Wrong(f"supported table {supports}, expected {expected}")
        if twisted != expected:
            raise Wrong(f"twisted table {twisted}, expected {expected}")
        if not doc["match"] or code != 0:
            raise Wrong(f"exit {code}, match {doc['match']}")
    return check


def dwork_check(root, work, seed):
    ops = []
    for fs, expected in CHECK_INPUTS:
        argv = ["dwork-check"]
        for f in fs:
            argv += ["--f", f]
        ops.append(Op(" ".join(argv[1:]), _cli(argv + ["--output", "machine"]),
                      _verdict_check(fs, expected)))

    def summary(medians):
        return [("check_total_s", sum(medians), "s"),
                ("check_geomean_s", statistics.geometric_mean(medians), "s")]

    return Workload("dwork-check", ops, frozenset(), "import dworklab.cli",
                    summary)


def _collapse_check(res):
    code, out = res
    if code == 3:
        raise Failed("not found")
    doc = machine_doc(out, "validation")
    found = doc["search"]["steps"]
    if not doc["search"]["found"] or len(found) > COLLAPSE_DEPTH:
        raise Wrong(f"search reported {len(found)} steps")
    if doc["status"] != "verified" or code != 0:
        raise Wrong(f"found chain replays as {doc['status']}: {doc['reason']}")
    if len(doc["steps"]) != len(found):
        raise Wrong("replayed step count differs from the chain found")


def _search_op(ctx, cert):
    depth = len(cert.steps)

    def run():
        res = dworklab.search.prove(
            ctx, cert.goal_lhs, cert.goal_rhs, max_depth=depth,
            mode=cert.mode, allowed_strata=cert.allowed_strata,
            excluded=cert.excluded_rules)
        rep = None
        if res.found:
            found = dataclasses.replace(cert, steps=tuple(res.steps),
                                        closure=res.closure)
            rep = dworklab.certificates.check_certificate(ctx, found)
        return res, rep

    def check(out):
        res, rep = out
        if not res.found:
            raise Failed("not found")
        if len(res.steps) > depth:
            raise Wrong(f"{len(res.steps)} steps found at depth {depth}")
        if rep.status != "verified":
            raise Wrong(f"found chain replays as {rep.status}: {rep.reason}")

    return Op(f"{cert.name} depth {depth}", run, check)


def proof_search(root, work, seed):
    bundled = root / "src" / "dworklab" / "data" / "dwork_theorem.dwk"
    # the bundled declarations, with the goal, its steps and closure removed
    keep = [ln for ln in bundled.read_text(encoding="utf-8").splitlines(True)
            if not ln.startswith(("goal ", "step ", "closure "))]
    script = work / "collapse.dwk"
    script.write_text("".join(keep) + COLLAPSE_GOAL, encoding="utf-8")
    ops = [Op(f"collapse depth {COLLAPSE_DEPTH}",
              _cli(["prove", str(script), "--search", str(COLLAPSE_DEPTH),
                    "--output", "machine"]),
              _collapse_check)]
    contexts, certs = dworklab.certificates.builtin_suite()
    by_name = {cert.name: (contexts[key], cert) for key, cert in certs}
    for name in SEARCHED:
        ops.append(_search_op(*by_name[name]))

    def summary(medians):
        return [("search_s", sum(medians), "s")]

    return Workload("proof-search", ops, KNOWN_MISSES,
                    "import dworklab.cli\n"
                    "dworklab.certificates.builtin_suite()", summary)


def _paper_check(res):
    code, out = res
    doc = machine_doc(out, "paper")
    certs = doc["certificates"]
    bad = [c["certificate"] for c in certs if c["status"] != "verified"]
    if len(certs) != 9 or bad:
        raise Wrong(f"{len(certs)} certificates, not verified: {bad}")
    undischarged = [n["lemma"] for n in doc["lemmas"] if not n["discharged"]]
    if not doc["lemmas"] or undischarged:
        raise Wrong(f"lemmas not discharged: {undischarged}")
    if not doc["ok"] or code != 0:
        raise Wrong(f"exit {code}, ok {doc['ok']}")


def _bundled_check(n_steps):
    def check(res):
        code, out = res
        doc = machine_doc(out, "validation")
        if doc["status"] != "verified" or code != 0:
            raise Wrong(f"exit {code}, status {doc['status']}: "
                        f"{doc['reason']}")
        if len(doc["steps"]) != n_steps:
            raise Wrong(f"{len(doc['steps'])} steps replayed, "
                        f"script has {n_steps}")
    return check


def _round_trips(documents):
    def run():
        out = []
        for doc in documents:
            text = dworklab.dsl.render_script(doc)
            back = dworklab.dsl.parse_script(text)
            out.append((text, back, dworklab.dsl.render_script(back)))
        return out

    def check(out):
        for i, (doc, (text, back, again)) in enumerate(zip(documents, out)):
            if back != doc:
                raise Wrong(f"document {i}: parse(render(doc)) != doc")
            if again != text:
                raise Wrong(f"document {i}: render(parse(text)) != text")
    return run, check


def replay_scripts(root, work, seed):
    bundled = root / "src" / "dworklab" / "data" / "dwork_theorem.dwk"
    n_steps = sum(ln.startswith("step ") for ln in
                  bundled.read_text(encoding="utf-8").splitlines())
    documents = docs.document_set(seed, DOCSET_BYTES)
    text_bytes = sum(len(dworklab.dsl.render_script(d).encode("utf-8"))
                     for d in documents)
    run, check = _round_trips(documents)
    # proof steps replayed per pass: the whole suite, then the script
    steps = n_steps + sum(len(cert.steps) for _key, cert
                          in dworklab.certificates.builtin_suite()[1])
    ops = [
        Op("verify-paper", _cli(["verify-paper", "--output", "machine"]),
           _paper_check),
        Op("prove dwork_theorem.dwk",
           _cli(["prove", str(bundled), "--output", "machine"]),
           _bundled_check(n_steps)),
        Op(f"round-trip {len(documents)} documents", run, check),
    ]

    def summary(medians):
        return [("replay_steps_per_s", steps / (medians[0] + medians[1]),
                 "steps/s"),
                ("script_kib_per_s", text_bytes / 1024 / medians[2], "KiB/s")]

    return Workload("replay-scripts", ops, frozenset(), "import dworklab.cli",
                    summary)


WORKLOADS = {
    "dwork-check": dwork_check,
    "proof-search": proof_search,
    "replay-scripts": replay_scripts,
}

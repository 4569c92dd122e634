"""Functions under src/ that no command, demo or workload enters.

Usage: python tests/traffic.py

Under `sys.settrace` the script runs, in this process: one pass of each
benchmark workload through bench/run.py (`--seconds 0 --trace 0`, by
`runpy`), every script under demos/, and the CLI commands in COMMANDS,
input errors among them, each checked for its exit code.  The trace
records only which functions are called.  Then it prints every function
defined under src/ (every `def`, nested ones included) that none of
them entered.

It exits non-zero if a run goes wrong (a workload that is not
`correct`, a demo that raises, a command with another exit code), if an
unentered function is not in ALLOWED, or if an ALLOWED entry was entered
or names no function: each function in ALLOWED carries the one-line
reason it may stay unentered, and the list must stay exact.  A function
that only tests reach does not belong under src/.

The file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "dworklab" / "data"

WORKLOADS = ("dwork-check", "proof-search", "replay-scripts")

# (path under src/, qualified name) -> why nothing needs to enter it
ALLOWED = {
    ("dworklab/__init__.py", "__dir__"):
        "only `dir(dworklab)` calls it, for interactive use",
    ("dworklab/geometry.py", "GeometryContext.identity"):
        "a script's id(V); no bundled script or workload spells one",
    ("dworklab/records.py", "_repr"):
        "a record's repr, for error texts of terms that no parsed input "
        "reaches, and for library callers",
    ("dworklab/records.py", "_setattr"):
        "refuses assignment to a field; nothing assigns one",
    ("dworklab/records.py", "_delattr"):
        "refuses deletion of a field; nothing deletes one",
    ("dworklab/records.py", "_getstate"):
        "copy, deepcopy and pickle of a record; no command copies one",
    ("dworklab/records.py", "_setstate"):
        "copy, deepcopy and pickle of a record; no command copies one",
    ("dworklab/weyl/linalg.py", "rank"):
        "the benchmark's tracer wraps it under twisted.rank and cech.rank",
    ("dworklab/weyl/poly.py", "MultiPoly.__eq__"):
        "value equality of polynomials, for library callers",
    ("dworklab/weyl/poly.py", "MultiPoly.__repr__"):
        "the polynomial's repr, for library callers",
    ("dworklab/weyl/cech.py", "CechDeRham.column"):
        "the documented decoder of a Čech column code",
}


def _collapse(goal):
    """The bundled proof's declarations with `goal` as the only goal."""
    keep = [line for line in
            (DATA / "dwork_theorem.dwk").read_text("utf-8").splitlines()
            if not line.startswith(("goal ", "step ", "closure "))]
    return "\n".join(keep + [goal]) + "\n"


# file name -> text, written to a temporary directory ("{dir}" below)
SCRIPTS = {
    "collapse.dwk": _collapse(
        "goal collapse : Opb[iotacheck](Oim[s](O[X])) ~ RGamma[S](O[X])[1];"),
    "sides.dwk": "variety X dim 1;\nvariety V dim 1;\ngoal g : O[X] ~ O[V];\n",
    "nogoal.dwk": "variety X dim 1;\n",
    "deep.dwk": _collapse("goal deep : " + "RGamma[S](" * 400 + "O[X]"
                          + ")" * 400 + " ~ O[X];"),
}

# (CLI arguments, the exit code they must end with)
COMMANDS = [
    (["dwork-check", "--f", "x*y", "--output", "machine"], 0),
    (["dwork-check", "--f", "x*y*z"], 0),
    (["dwork-check", "--f", "x", "--f", "y", "--f", "x+y",
      "--output", "machine"], 0),
    (["dwork-check", "--f", "y*(x^2-1/3)"], 0),
    (["dwork-check", "--f", "x1*x2*x3*x4", "--output", "machine"], 0),
    # the first tables differ (zeros at cutoffs 2, 4, 6): both continued
    (["dwork-check", "--f", "x^9+y^8", "--window", "2", "--output",
      "machine"], 0),
    (["dwork-check", "--f", "x^2-1", "--d-max", "2"], 2),
    (["dwork-check", "--f", "(x+y+1)^120"], 2),
    (["dwork-check", "--f", "x*y", "--pole-max", "1000000"], 2),
    (["dwork-check", "--f", "x", "--f", "y", "--f", "x+1", "--f", "y+1",
      "--f", "x+y"], 2),
    (["dwork-check", "--f", "x*y", "--window", "-1"], 2),
    (["dwork-check", "--f", "x*q"], 2),
    (["verify-paper", "--output", "machine"], 0),
    (["verify-paper"], 0),
    (["verify-paper", "--strata", "0", "--output", "machine"], 1),
    (["prove", str(DATA / "dwork_theorem.dwk"), "--output", "machine"], 0),
    (["prove", str(DATA / "dwork_theorem.dwk")], 0),
    (["prove", "{dir}/collapse.dwk", "--search", "6", "--output",
      "machine"], 0),
    (["prove", "{dir}/collapse.dwk", "--search", "6"], 0),
    (["prove", "{dir}/collapse.dwk"], 3),
    (["prove", "{dir}/sides.dwk"], 2),
    (["prove", "{dir}/nogoal.dwk"], 2),
    (["prove", "{dir}/deep.dwk", "--search", "1"], 2),
    (["prove", "{dir}/missing.dwk"], 2),
]


def defined_functions():
    """(path under src/, qualified name) -> (file, first line, name) of
    every function defined under src/; the first line is the code
    object's, so a decorated function starts at its first decorator."""
    found = {}

    def visit(node, prefix, path, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[path, qual] = (file, first, child.name)
                visit(child, qual + ".", path, file)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path, file)
            else:
                visit(child, prefix, path, file)

    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        visit(tree, "", file.relative_to(SRC).as_posix(),
              os.path.realpath(file))
    return found


def run_everything(problems):
    """Run the workloads, demos and commands; append what went wrong."""
    argv, path = sys.argv, list(sys.path)
    sys.path[:0] = [str(ROOT / "bench")]
    try:
        for name in WORKLOADS:
            sys.argv = ["bench/run.py", "--workload", name, "--seed", "1",
                        "--seconds", "0", "--trace", "0"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    runpy.run_path(str(ROOT / "bench" / "run.py"),
                                   run_name="__main__")
                except SystemExit as e:
                    if e.code:
                        problems.append(f"workload {name}: exit {e.code}")
            last = (out.getvalue().strip().splitlines() or ["{}"])[-1]
            if not json.loads(last).get("correct"):
                problems.append(f"workload {name}: not correct")
    finally:
        sys.argv, sys.path[:] = argv, path
    for demo in sorted((ROOT / "demos").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception as e:  # a broken demo is reported, not fatal
            problems.append(f"demo {demo.name}: {type(e).__name__}: {e}")
    from dworklab.cli import main

    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        for name, text in SCRIPTS.items():
            pathlib.Path(tmp, name).write_text(text, encoding="utf-8")
        for args, want in COMMANDS:
            args = [a.replace("{dir}", tmp) for a in args]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            if code != want:
                problems.append(f"dworklab {' '.join(args)}: exit {code}, "
                                f"expected {want}")


def main():
    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    entered = set()

    def tracer(frame, _event, _arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    problems = []
    sys.settrace(tracer)
    try:
        run_everything(problems)
    finally:
        sys.settrace(None)
    entered = {(os.path.realpath(f), line, name)
               for f, line, name in entered}
    unentered = sorted(key for key, where in functions.items()
                       if where not in entered)
    for key in unentered:
        reason = ALLOWED.get(key)
        print(f"{key[0]}: {key[1]}"
              + (f"  (allowed: {reason})" if reason else "  NOT ALLOWED"))
        if reason is None:
            problems.append(f"{key[0]}: {key[1]} is entered by nothing")
    for key in sorted(set(ALLOWED) - set(unentered)):
        problems.append(f"allowed {key[0]}: {key[1]} "
                        + ("was entered" if key in functions
                           else "is not defined"))
    print(f"{len(unentered)} of {len(functions)} functions unentered")
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutants the test suite must kill, one small edit to the package each.

Usage: python tests/mutants.py

Each row of MUTANTS names a file under src/, an exact old text, the new
text that replaces it, the tests that must fail on the result and why
they should.  For each row the script copies src/ to a temporary
directory, patches the copy and runs the named tests against it with
`python -m pytest -x -q` in a subprocess, the copy first on PYTHONPATH.
A mutant is killed when pytest reports a failing test (exit code 1).

The old text must occur exactly once in its file, and pytest must find
every named test, so a row that no longer applies is reported as stale
rather than passing quietly.  At the end the script names every
survivor and every stale row, and exits non-zero if there is any.

The file has no `test_` prefix, so pytest does not collect it.  A change
that shows a test guards an invariant by a mutation adds its row here.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

CECH = "dworklab/weyl/cech.py"
CECH_TESTS = "tests/test_weyl_cech.py::"

# (file under src/, old text, new text, test node ids, reason)
MUTANTS = [
    (CECH,
     "self._records.get((pole - 1, q - 1), ((), ()))[1]",
     "self._records.get((pole - 1, q), ((), ()))[1]",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows",
      f"{CECH_TESTS}test_a_rung_after_its_predecessor_builds_no_pole_p_row"],
     "the Čech d² = 0 skip reads the (pole − 1, q) record, a grade off: "
     "its leads are not the rows d² = 0 proves dependent"),
    (CECH,
     "skip = set(self._records.get((pole - 1, q - 1), ((), ()))[1])",
     "skip = set()",
     [f"{CECH_TESTS}test_a_ladder_builds_and_reduces_the_pinned_rows"],
     "no Čech d² = 0 skip: the answers stay right, but every dependent "
     "row is built and reduced to zero"),
    (CECH,
     "ech = self._feed(P + 1, q - 1, D + self.maxdeg + 1)",
     "ech = self._feed(P + 1, q - 1, self.schedule(t + 1)[1] "
     "+ self.maxdeg + 1)",
     [f"{CECH_TESTS}test_no_record_reaches_past_a_stage_read_one_pole_up"],
     "U fed one schedule step further: its records reach past a stage "
     "read one pole up, where the whole-record skip is no longer sound"),
    (CECH,
     "sgI = -gI if (len(I) - 1) & 1 else gI",
     "sgI = gI",
     [f"{CECH_TESTS}test_total_differential_squares_to_zero"],
     "the de Rham part of the Čech differential loses its sign "
     "(−1)^(|I|−1) on pieces of even size"),
    (CECH,
     "squares[I] = _int_terms(gI * gI)",
     "squares[I] = _int_terms(gI)",
     [f"{CECH_TESTS}test_rungs_match_reference"],
     "W embedded by g_I instead of g_I², one pole short of U"),
    ("dworklab/weyl/twisted.py",
     "exclude=below[k]",
     "exclude=below[k + 1]",
     ["tests/test_weyl_twisted.py::test_ladder_skips_rows_known_dependent"],
     "the twisted skip reads grade k's own pivots instead of grade k − 1's"),
    ("dworklab/weyl/forms.py",
     "shift = (2 * max(e * self._wmax, self._kmax)).bit_length()",
     "shift = max(e * self._wmax, self._kmax).bit_length()",
     ["tests/test_weyl_forms.py::"
      "test_walked_blocks_equal_weighing_every_monomial"],
     "the weight walk's packing base without its factor 2: distinct "
     "weights can pack alike"),
    ("dworklab/cli.py",
     "from .errors import ParseError\n",
     "from .dsl import load_script\nfrom .errors import ParseError\n",
     ["tests/test_package.py::test_dwork_check_loads_no_symbolic_module"],
     "the CLI imports the script language with itself, and with it the "
     "whole symbolic engine, which dwork-check never uses"),
]


def _patched(src, path, old, new):
    """Replace `old` by `new` in the copy's `path`; an error unless `old`
    occurs there exactly once."""
    target = src / path
    text = target.read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        return f"old text occurs {found} times in {path}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    return None


def _run(row):
    """'killed', 'survived' or 'stale: <why>' for one row."""
    path, old, new, tests, _reason = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        error = _patched(src, path, old, new)
        if error:
            return f"stale: {error}"
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c",
             "import dworklab; print(dworklab.__file__)"],
            env=env, capture_output=True, text=True, cwd=ROOT)
        if not where.stdout.startswith(str(src)):
            return f"stale: dworklab imports from {where.stdout.strip()!r}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            env=env, capture_output=True, text=True, cwd=ROOT)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    last = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"stale: pytest exit {done.returncode}: {last[0]}"


def main():
    bad = []
    for row in MUTANTS:
        start = time.perf_counter()
        verdict = _run(row)
        print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  "
              f"{row[0]}: {row[4]}", flush=True)
        if verdict != "killed":
            bad.append((verdict, row))
    for verdict, row in bad:
        print(f"{verdict}: {row[0]}: {row[1]!r} -> {row[2]!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

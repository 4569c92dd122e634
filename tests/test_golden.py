"""CLI documents against recorded copies.

Each file under tests/golden/ is the standard output of one run.

The `dwork-check --output machine` documents cover the de Rham engine.
The first eleven were recorded before it moved to integer column codes,
the three-variable quadric and the two-variable cubic before the twisted
ladder began to leave out rows known to be dependent, and the two- and
three-section inputs `x*y, x-y` and `x, y, x+y` before the Čech ladder
began to carry its kernels across rungs.  The Brieskorn–Pham inputs
`x^3+y^3+z^3` and `x^2+y^3+z^6` were recorded before both complexes
began to eliminate only the weight-0 block of their torus grading, when
they took about 7 s and 44 s; they now take well under 1 s.

The symbolic engine's documents were recorded before the script parser,
renderer and binder began to read one table of expression forms:
`verify-paper --output machine`, `prove` of the bundled script in machine
output, and `prove collapse.dwk --search 6` in machine and in text
output.  `collapse.dwk` is the bundled script without its `goal`, `step`
and `closure` lines, plus the support-collapse goal (the `collapse_text`
fixture).

The four-variable inputs `x1*x2*x3*x4` (dwork-check-x1x2x3x4.json) and
`x1^3+x2^3+x3^3+x4^3` (dwork-check-cubes4.json) were recorded with the
engine as it stood after both changes above, at about 1 s each;
`tests/test_closed_forms.py` checks their tables against closed forms by
reading these documents, so no ladder runs twice.

The inputs with no torus `x^3+y^3+x` (dwork-check-x3+y3+x.json) and
`y*(x^3-x)` (dwork-check-y_x3-x.json) were recorded before the Čech
ladder's d² = 0 skip began to read every lead of the (p − 1, q − 1)
record, a change that lowers the rows their ladders build.

The CI workflow also compares `x*y*z` (dwork-check-xyz.json), `x, y, x+y`,
the two inputs with no torus `x^2*y + 1/3*y^3 + 3*y^2 - 1/2` and
`y*(x^2-1/3)`, `x^2+y^3+z^6` and `x^3+y^3+z^3` (these four each under a
10 s timeout), the two four-variable inputs (each under a 5 s timeout),
the four lines `x, y, x+1, y+1` (dwork-check-x_y_x+1_y+1.json, under a
30 s timeout; recorded before the Čech rung began to leave out embedded
W rows known dependent, when it took about 10 s), `verify-paper` and the
machine-output search from the shell.
"""

import pathlib

import pytest

from conftest import BUNDLED
from dworklab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# (dwork-check arguments, recorded document, exit code)
CASES = [
    (["--f", "x^3-x"], "dwork-check-x3-x.json", 0),
    (["--f", "x^4-1/3*x"], "dwork-check-x4-x_3.json", 0),
    (["--f", "(x^2-1)^3"], "dwork-check-x2-1_cubed.json", 0),
    (["--f", "x*y"], "dwork-check-xy.json", 0),
    (["--f", "x^2+y^3"], "dwork-check-x2+y3.json", 0),
    (["--f", "x*y-1/2"], "dwork-check-xy-1_2.json", 0),
    (["--f", "x", "--f", "y"], "dwork-check-x_y.json", 0),
    (["--f", "x^2/3-y/5"], "dwork-check-x2_3-y_5.json", 0),
    (["--f", "y*(x^2-1/3)"], "dwork-check-y_x2-1_3.json", 0),
    (["--f", "x^2-1", "--d-max", "4"], "dwork-check-x2-1_dmax4.json", 3),
    (["--f", "x*y*z"], "dwork-check-xyz.json", 0),
    (["--f", "x^2+y^2+z^2"], "dwork-check-x2+y2+z2.json", 0),
    (["--f", "x^2*y + 1/3*y^3 + 3*y^2 - 1/2"],
     "dwork-check-x2y+y3_3+3y2-1_2.json", 0),
    (["--f", "x*y", "--f", "x-y"], "dwork-check-xy_x-y.json", 0),
    (["--f", "x", "--f", "y", "--f", "x+y"], "dwork-check-x_y_x+y.json", 0),
    (["--f", "x^3+y^3+z^3"], "dwork-check-x3+y3+z3.json", 0),
    (["--f", "x^2+y^3+z^6"], "dwork-check-x2+y3+z6.json", 0),
    (["--f", "x1*x2*x3*x4"], "dwork-check-x1x2x3x4.json", 0),
    (["--f", "x1^3+x2^3+x3^3+x4^3"], "dwork-check-cubes4.json", 0),
    (["--f", "x^3+y^3+x"], "dwork-check-x3+y3+x.json", 0),
    (["--f", "y*(x^3-x)"], "dwork-check-y_x3-x.json", 0),
]


@pytest.mark.parametrize("args,name,code", CASES, ids=[c[1] for c in CASES])
def test_machine_document_is_byte_identical(args, name, code, capsys):
    assert main(["dwork-check", *args, "--output", "machine"]) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / name).read_bytes()


# (CLI arguments, recorded document, exit code); COLLAPSE stands for the
# path of the goal-only script
COLLAPSE = object()
SYMBOLIC = [
    (["verify-paper", "--output", "machine"], "verify-paper.json", 0),
    (["prove", str(BUNDLED), "--output", "machine"],
     "prove-dwork_theorem.json", 0),
    (["prove", COLLAPSE, "--search", "6", "--output", "machine"],
     "prove-collapse-search6.json", 0),
    (["prove", COLLAPSE, "--search", "6"], "prove-collapse-search6.txt", 0),
]


@pytest.mark.parametrize("args,name,code", SYMBOLIC,
                         ids=[c[1] for c in SYMBOLIC])
def test_symbolic_document_is_byte_identical(args, name, code, collapse_text,
                                             tmp_path, capsys):
    script = tmp_path / "collapse.dwk"
    script.write_text(collapse_text, encoding="utf-8")
    args = [str(script) if a is COLLAPSE else a for a in args]
    assert main(args) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / name).read_bytes()

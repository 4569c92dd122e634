"""`dwork-check --output machine` documents against recorded copies.

Each file under tests/golden/ is the standard output of one run.  The
first eleven were recorded before the de Rham engine moved to integer
column codes, the three-variable quadric and the two-variable cubic
before the twisted ladder began to leave out rows known to be dependent,
and the two- and three-section inputs `x*y, x-y` and `x, y, x+y` before
the Čech ladder began to carry its kernels across rungs.  The CI
workflow also compares `x*y*z` (dwork-check-xyz.json) and `x, y, x+y`
from the shell.
"""

import pathlib

import pytest

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
]


@pytest.mark.parametrize("args,name,code", CASES, ids=[c[1] for c in CASES])
def test_machine_document_is_byte_identical(args, name, code, capsys):
    assert main(["dwork-check", *args, "--output", "machine"]) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / name).read_bytes()

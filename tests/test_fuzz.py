"""Seeded property tests: hostile input through `cli.main` never crashes.

A mutated script ends in a verdict or an input error (exit 0-3), and a
polynomial, hostile or not, in a match, an input error or an honest
"inconclusive" (exit 0, 2 or 3): exit 1 there would be a false mismatch
and exit 4 a crash.  Hypothesis runs derandomized, with no example
database, so every run draws the same examples.
"""

import pathlib
import random
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dworklab import dsl  # noqa: E402
from dworklab.cli import main  # noqa: E402

from conftest import BUNDLED, COLLAPSE_GOAL  # noqa: E402
from docgen import random_document  # noqa: E402

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# --- mutated scripts -------------------------------------------------------------

_PROOF = BUNDLED.read_text(encoding="utf-8")
# the bundled proof, its goal alone, and two generated documents
SCRIPTS = [_PROOF, _PROOF[:_PROOF.index("\ngoal ")] + COLLAPSE_GOAL] + [
    dsl.render_script(random_document(random.Random(seed)))
    for seed in range(2)]
# characters a mutation inserts: script syntax, digits, a stray byte
CHARS = st.sampled_from(list(";:,()[]/=~.-#_ \nxX0129") + ["\x00", "é"])
DEEP = "RGamma[S](" * (dsl.MAX_NESTING + 1) + "O[X]" + ")" * (
    dsl.MAX_NESTING + 1)
EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10**4), CHARS),
    st.tuples(st.just("delete"), st.integers(0, 10**4), st.integers(1, 8)),
    st.tuples(st.just("replace"), st.integers(0, 10**4), CHARS),
    st.tuples(st.just("nest"), st.integers(0, 10**4), st.just(DEEP)),
    # a whole line, so most scripts still parse and reach the checker
    st.tuples(st.just("drop"), st.integers(0, 10**4), st.just(None)),
)


def _mutate(text, edits):
    for op, at, arg in edits:
        at %= len(text) + 1
        if op == "delete":
            text = text[:at] + text[at + arg:]
        elif op == "drop":
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at)
            text = text[:start] + ("" if end < 0 else text[end + 1:])
        elif op == "nest":
            # after a goal's colon, where an expression is read, if any
            goal = text.find("goal ")
            if goal >= 0 and ":" in text[goal:]:
                at = text.index(":", goal) + 1
            text = text[:at] + arg + text[at:]
        else:
            text = text[:at] + arg + text[at + (op == "replace"):]
    return text


@pytest.fixture(scope="module")
def script(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.dwk"


@settings(FUZZ, max_examples=300)
@given(source=st.sampled_from(SCRIPTS),
       edits=st.lists(EDITS, min_size=1, max_size=4))
def test_a_mutated_script_is_a_verdict_or_an_input_error(script, source,
                                                         edits):
    script.write_text(_mutate(source, edits), encoding="utf-8")
    assert main(["prove", str(script)]) in (0, 1, 2, 3)


# --- polynomials -------------------------------------------------------------------

ATOMS = st.sampled_from(["x", "y", "0", "1", "2", "3", "7"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}"),
    )


POLYS = st.recursive(ATOMS, _extend, max_leaves=4)
HOSTILE = st.sampled_from(["(" * 101 + "x" + ")" * 101, "-" * 5000 + "1",
                           "^120", "\x00", "@"])


@settings(FUZZ, max_examples=150)
@given(text=POLYS, piece=st.none() | HOSTILE, at=st.integers(0, 100))
def test_a_polynomial_is_a_match_an_input_error_or_inconclusive(text, piece,
                                                                at):
    if piece is not None:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    # `--f=` keeps a leading sign from reading as a flag
    assert main(["dwork-check", f"--f={text}"]) in (0, 2, 3)


# pure powers, so both sides have a torus and stay cheap at every degree
POWERS = st.lists(
    st.tuples(st.sampled_from(["1", "2", "-1", "1/2", "-3"]),
              st.sampled_from("xy"), st.integers(1, 7)),
    min_size=1, max_size=2)


@settings(FUZZ, max_examples=100)
@given(terms=POWERS, data=st.data())
def test_a_small_window_or_cap_is_never_a_mismatch(terms, data):
    """A `--window` below the default, or a low `--d-max` or `--pole-max`,
    can leave a ladder on windows too small to hold a class: the run must
    then end in a match or an honest "inconclusive", never a mismatch."""
    text = "+".join(f"{c}*{v}^{e}" for c, v, e in terms)
    deg_f = max(e for _c, _v, e in terms) + 1  # deg F = deg f + 1
    window = data.draw(st.integers(0, deg_f + 1), label="window")
    argv = ["dwork-check", f"--f={text}", "--window", str(window)]
    d_max = data.draw(st.none() | st.integers(0, deg_f + 8), label="d_max")
    if d_max is not None:
        argv += ["--d-max", str(d_max)]
    pole_max = data.draw(st.none() | st.integers(1, 4), label="pole_max")
    if pole_max is not None:
        argv += ["--pole-max", str(pole_max)]
    assert main(argv) in (0, 2, 3)


# --- the suite's own configuration ---------------------------------------------------

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_test_is_a_plain_failure(tmp_path):
    """Under the repository's pytest configuration (warnings are errors), a
    falsified `@given` test exits 1 like any failing test; a warning raised
    while hypothesis reports the example must not make it exit 3."""
    config = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY,
                                               encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr

"""Seeded property test: `dsl.lex` reads a script as the plain lexer does.

`dsl.lex` checks a whole text for a stray character with one match, then
splits it into token texts and reads their end offsets off the running
sum of the parts' lengths.  `oracles.tokenize` is the plain lexer it
replaced: one `finditer` pass that builds a token per match.  On every
drawn string the two give the same token texts and `(start, end)` spans,
or the same stray message and span.  The strings mix script syntax with
the characters where the two could part: `>` without its `-`, `#`
comments, Unicode whitespace (U+00A0, U+2028), a Unicode digit (U+0663,
which lexes as an integer) and non-ASCII characters that are stray (`²`,
`é`).

Hypothesis runs derandomized, with no example database, so every run
draws the same examples.
"""

import string

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dworklab import dsl  # noqa: E402
from dworklab.errors import ParseError  # noqa: E402

import oracles  # noqa: E402

SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=500,
                  suppress_health_check=[HealthCheck.too_slow])

CHARS = (string.ascii_letters + string.digits + "_;:,()[]/=~.->#"
         + " \t\n\u00a0\u2028\u0663\u00b2\u00e9?@")
# whole pieces of script, so that arrows, comments and names run together
PIECES = list(CHARS) + ["->", "# a -> b\n", "R1", "12", "step", "   "]
TEXTS = st.one_of(st.text(alphabet=CHARS, max_size=60),
                  st.lists(st.sampled_from(PIECES), max_size=30).map("".join))


def _split(text):
    """The tokens as (text, start, end), or the stray (message, span)."""
    try:
        toks, ends = dsl.lex(text)
    except ParseError as e:
        return e.message, e.span
    return [(tok, end - len(tok), end) for tok, end in zip(toks, ends)]


def _plain(text):
    try:
        return [(tok.text, tok.start, tok.end)
                for tok in oracles.tokenize(text)]
    except ValueError as e:
        return e.args


@SEEDED
@given(TEXTS)
def test_lex_agrees_with_the_plain_lexer(text):
    assert _split(text) == _plain(text)

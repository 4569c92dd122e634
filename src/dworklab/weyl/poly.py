"""Multivariate polynomials over exact rationals, and a small infix parser."""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from ..errors import ParseError


class MultiPoly:
    """Polynomial in a fixed number of variables; terms map exponent
    tuples to nonzero Fractions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max(sum(m) for m in self.terms) if self.terms else -1

    def denominator(self):
        """Lcm of the coefficient denominators: the least integer scale."""
        return math.lcm(*(c.denominator for c in self.terms.values()))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars,
                             {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def diff(self, j):
        out = {}
        for m, c in self.terms.items():
            if m[j]:
                mm = list(m)
                mm[j] -= 1
                out[tuple(mm)] = c * m[j]
        return MultiPoly(self.nvars, out)

    def extend(self, nvars):
        """Reinterpret in a larger variable ring (new variables appended)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable ring")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {m + pad: c for m, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("mixed variable rings")
        return other

    def __repr__(self):
        return f"MultiPoly({poly_to_str(self, default_names(self.nvars))!r})"


def default_names(nvars):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i + 1}" for i in range(nvars))


def count_monomials(nvars, d):
    return math.comb(d + nvars, nvars) if d >= 0 else 0


def monomials_of_degree(nvars, total):
    """Exponent tuples of total degree exactly `total`, in the order
    `graded_monomials` lists them."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for cut in itertools.combinations(range(total + nvars - 1), nvars - 1):
        prev = -1
        e = []
        for c in cut:
            e.append(c - prev - 1)
            prev = c
        e.append(total + nvars - 2 - prev)
        yield tuple(e)


def graded_monomials(nvars, d):
    """Exponent tuples of total degree <= d, graded then lexicographic."""
    out = []
    for total in range(d + 1):
        out.extend(monomials_of_degree(nvars, total))
    return out


_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()]")


def _tokenize(text):
    """The tokens of `text`, with the whitespace around them skipped; a
    character that starts no token is refused at its offset."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"bad character {text[pos]!r} in polynomial at "
                             f"offset {pos}")
        out.append(m.group())
        pos = _SPACE.match(text, m.end()).end()
    return out


# the most parentheses one polynomial may nest; the parser recurses per level
MAX_PARENS = 100
# Caps on what one power or product may build, each checked from its
# factors before anything is expanded:
# - the highest degree it may reach;
MAX_DEGREE = 64
# - the most terms it may have, predicted as min(C(d + n, n), t1·t2) for a
#   product of degree d whose factors use n variables and
#   min(C(d + n, n), C(t + k - 1, k)) for the k-th power of t terms.  The
#   work of an expansion grows with its terms, not only its degree:
#   (x+y+z+1)^30 (5 456 terms) takes seconds, and at this cap
#   (x+y+z+1)^16 (969 terms) parses in about 0.2 s while ^17 is refused;
MAX_TERMS = 1000
# - the most bits a power's coefficients may take from its base's, predicted
#   as k·log2 of the largest numerator or denominator among the base's
#   coefficients.
MAX_COEFF_BITS = 4096


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise ParseError(f"polynomial degree {degree} is above the cap of "
                         f"{MAX_DEGREE}")


def _check_terms(degree, bound, *factors):
    """Refuse a product or power of `factors` whose predicted terms pass
    the cap: at most `bound`, and at most the monomials of its degree in
    the variables the factors use."""
    used = sum(1 for j in range(factors[0].nvars)
               if any(m[j] for f in factors for m in f.terms))
    terms = min(count_monomials(used, degree), bound)
    if terms > MAX_TERMS:
        raise ParseError(f"polynomial of up to {terms} terms is above the "
                         f"cap of {MAX_TERMS}")


class _PolyParser:
    def __init__(self, tokens, names):
        self.toks = tokens
        self.i = 0
        self.depth = 0  # parentheses open around the current token
        self.names = list(names)
        self.nvars = len(self.names)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self):
        t = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            t = t + rhs if op == "+" else t - rhs
        return t

    def term(self):
        t = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                degree = t.degree() + rhs.degree()
                _check_degree(degree)
                _check_terms(degree, len(t.terms) * len(rhs.terms), t, rhs)
                t = t * rhs
            else:
                if rhs.degree() > 0 or rhs.is_zero():
                    raise ParseError("division is only by nonzero constants")
                t = t * (Fraction(1) / rhs.terms[(0,) * self.nvars])
        return t

    def unary(self):
        negate = False
        while self.peek() in ("-", "+"):
            negate ^= self.take() == "-"
        t = self.power()
        return -t if negate else t

    def power(self):
        base = self.atom()
        while self.peek() in ("^", "**"):
            self.take()
            e = self.take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            k = int(e)
            degree = base.degree() * k
            _check_degree(degree)
            # C(t + k - 1, k) multisets of k terms; the 0th power is 1
            _check_terms(degree,
                         math.comb(len(base.terms) + k - 1, k) if k else 1,
                         base)
            bits = k * math.log2(max((max(abs(c.numerator), c.denominator)
                                      for c in base.terms.values()),
                                     default=1))
            if bits > MAX_COEFF_BITS:
                raise ParseError(f"power with coefficients of "
                                 f"{math.ceil(bits)} bits is above the cap "
                                 f"of {MAX_COEFF_BITS}")
            base = base ** k
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_PARENS:
                raise ParseError(f"parentheses nest deeper than {MAX_PARENS} "
                                 "levels in polynomial")
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parenthesis in polynomial")
            self.depth -= 1
            return inner
        if tok is None:
            raise ParseError("polynomial ended unexpectedly")
        if tok.isdigit():
            return MultiPoly.constant(self.nvars, int(tok))
        if tok in self.names:
            return MultiPoly.variable(self.nvars, self.names.index(tok))
        raise ParseError(f"unknown symbol {tok!r} in polynomial "
                         f"(variables here: {', '.join(self.names)})")


def parse_poly(text, names):
    """Parse an infix polynomial over the given variable names."""
    p = _PolyParser(_tokenize(text), names)
    out = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r} in polynomial")
    return out


def poly_to_str(p, names=None):
    names = list(names or default_names(p.nvars))
    if not p.terms:
        return "0"
    bits = []
    for m in sorted(p.terms, key=lambda m: (sum(m), m), reverse=True):
        c = p.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        body = "*".join(factors)
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c}*{body}"
        bits.append(piece)
    out = bits[0]
    for piece in bits[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out

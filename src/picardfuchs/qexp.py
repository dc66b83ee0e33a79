"""Eta-product q-expansions, Fourier coefficient tables, and naive point counts.

The registry stores the recurring cusp forms: name, weight, coefficients at
the listed primes, and where available the eta-product. Products expand
through the pentagonal-number theorem; the Hilbert form h keeps quadratic
coefficients and, like 12/1, 32/1, 32/2, is data-only. The stated tensor
relations between Galois representations are prose metadata, never asserted
as coefficient identities.

Point counts for u^2 = f8 are raw chartwise sums of 1 + chi_p(f8) over
P^3(F_p), chi_p the quadratic character with chi_p(0) = 0; well defined
because deg f8 = 8 is even.  For eight linear forms the sum runs on bit
masks over the (z, v)-planes of the charts: chi_p is multiplicative, so a
plane's character sum is a popcount of the points where no form vanishes,
signed by the parity of the non-residue factors.

OCTICS holds the octic of each catalog arrangement as an Arrangement, the
one owner of the plane format, and RIGID_FIBRES the rigid members recorded
as fibres of a family.  Transcription flags:
  - 248: the third moving factor is printed as "x+(y+1)y-tz+v", which is not
    a linear form; the octic is stored verbatim as a string, flagged sic,
    and used in no computation.
  - 264: the eighth factor is printed inhomogeneously as "y+2-2z"; the
    stored plane homogenizes the constant with the fourth coordinate.
  - form "8": the stored note "tensor square of the f32 representation" does
    not hold: a_5(8) = 0, while a_5(f32)^2 - 2*5 = -6 = a_5(16).  The note is
    kept as printed; "8" is the weight-3 CM form of Q(sqrt(-2)).
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import prod

from .arith import Immutable, Polynomial, QuadraticNumber, _exact_int, _exact_rational, _is_probable_prime
from .errors import (
    BadReduction,
    CoefficientOutOfRange,
    EvenPrime,
    InexactScalar,
    InvalidEtaProduct,
    InvalidFormRecord,
    InvalidOctic,
    InvalidTruncation,
    NoEtaProduct,
    NonUnitConstantTerm,
    NotPrime,
    TruncationTooLow,
)


class QSeries(Immutable):
    """Integer coefficients of q^0 .. q^N."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation=None):
        cs = [_exact_int(c, InexactScalar, "a q-series coefficient") for c in coeffs]
        truncation = len(cs) - 1 if truncation is None else _exact_int(truncation, InvalidTruncation, "the truncation")
        if truncation < 0:
            raise TruncationTooLow("a q-series needs a truncation >= 0, got %d" % truncation)
        cs = cs[: truncation + 1] + [0] * (truncation + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "truncation", truncation)

    def coefficient(self, n):
        if not 0 <= n <= self.truncation:
            raise CoefficientOutOfRange("coefficient q^%d outside q^0 .. q^%d" % (n, self.truncation))
        return self.coeffs[n]

    def leading_power(self):
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return QSeries(out, n)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = []
        for n, c in enumerate(self.coeffs):
            if c:
                shown.append("%+d*q^%d" % (c, n))
            if len(shown) == 6:
                shown.append("...")
                break
        return " ".join(shown) if shown else "0"


def _euler_block(m, N):
    """prod_n (1 - q^(m n)) through q^N, by the pentagonal-number theorem."""
    out = [0] * (N + 1)
    out[0] = 1
    k = 1
    while True:
        e1 = m * k * (3 * k - 1) // 2
        e2 = m * k * (3 * k + 1) // 2
        if e1 > N and e2 > N:
            break
        sign = -1 if k % 2 else 1
        if e1 <= N:
            out[e1] += sign
        if e2 <= N:
            out[e2] += sign
        k += 1
    return QSeries(out, N)


def _inverse_unit(qs):
    # constant term must be +-1 so the inverse stays integral
    n = qs.truncation
    lead = qs.coeffs[0]
    if lead not in (1, -1):
        raise NonUnitConstantTerm("constant term %d has no integral inverse" % lead)
    out = [0] * (n + 1)
    out[0] = lead
    for m in range(1, n + 1):
        acc = 0
        for j in range(1, m + 1):
            acc += qs.coeffs[j] * out[m - j]
        out[m] = -acc * lead
    return QSeries(out, n)


class EtaProductSpec(Immutable):
    """q^leading_power * prod_(m,e) prod_n (1 - q^(m n))^e."""

    __slots__ = ("leading_power", "factors")

    def __init__(self, leading_power, factors):
        factors = tuple(
            (_exact_int(m, InvalidEtaProduct, "an eta factor m"), _exact_int(e, InvalidEtaProduct, "an eta exponent e"))
            for m, e in factors
        )
        leading_power = _exact_int(leading_power, InvalidEtaProduct, "the leading power")
        if leading_power < 0 or not all(m >= 1 and e != 0 for m, e in factors):
            raise InvalidEtaProduct("no eta product q^%d %s" % (leading_power, factors))
        object.__setattr__(self, "leading_power", leading_power)
        object.__setattr__(self, "factors", factors)

    def __repr__(self):
        body = "".join(
            "(1-q^%dn)^%d" % (m, e) if m > 1 else "(1-q^n)^%d" % e
            for m, e in self.factors
        )
        return "q^%d %s" % (self.leading_power, body)


def eta_product(spec, N):
    """Exact expansion of the eta product through q^N."""
    if _exact_int(N, InvalidTruncation, "the truncation") < 1:
        raise TruncationTooLow("an eta product needs N >= 1, got %d" % N)
    out = QSeries([1], N)
    for m, e in spec.factors:
        block = _euler_block(m, N)
        if e < 0:
            block, e = _inverse_unit(block), -e
        for _ in range(e):
            out = out * block
    h = spec.leading_power
    shifted = [0] * h + list(out.coeffs[: N + 1 - h])
    return QSeries(shifted, N)


class FormRecord(Immutable):
    """A named cusp form: weight, prime coefficient table, optional eta product."""

    __slots__ = ("name", "weight", "primes", "table", "eta", "notes")

    def __init__(self, name, weight, primes, table, eta=None, notes=""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "primes", tuple(primes))
        object.__setattr__(self, "table", tuple(table))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "notes", notes)
        if len(self.primes) != len(self.table):
            raise InvalidFormRecord("%s: %d primes but %d coefficients" % (name, len(self.primes), len(self.table)))
        if not all(p < q for p, q in zip(self.primes, self.primes[1:])):
            raise InvalidFormRecord("%s: primes must increase" % (name,))

    def __repr__(self):
        return "FormRecord(%r, weight=%s)" % (self.name, self.weight)


_P29 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_P23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)

FORMS = {
    "f32": FormRecord(
        "f32",
        2,
        _P29,
        (0, 0, -2, 0, 0, 6, 2, 0, 0, -10),
        EtaProductSpec(1, ((4, 2), (8, 2))),
        "attached to the conductor-32 elliptic curve y^2 = x^3 - x",
    ),
    "16": FormRecord(
        "16",
        3,
        _P23,
        (0, 0, -6, 0, 0, 10, -30, 0, 0),
        EtaProductSpec(1, ((4, 6),)),
        "CM by Q(sqrt(-1))",
    ),
    "8": FormRecord(
        "8",
        3,
        _P23,
        (-2, -2, 0, 0, 14, 0, 2, -34, 0),
        EtaProductSpec(1, ((1, 2), (2, 1), (4, 1), (8, 2))),
        "CM by Q(sqrt(-2)); tensor square of the f32 representation (not asserted)",
    ),
    "6/1": FormRecord(
        "6/1",
        4,
        _P23,
        (-2, -3, 6, -16, 12, 38, -126, 20, 168),
        EtaProductSpec(1, ((1, 2), (2, 2), (3, 2), (6, 2))),
    ),
    "8/1": FormRecord(
        "8/1",
        4,
        _P23,
        (0, -4, -2, 24, -44, 22, 50, 44, -56),
        EtaProductSpec(1, ((2, 4), (4, 4))),
    ),
    "12/1": FormRecord("12/1", 4, _P23, (0, 3, -18, 8, 36, -10, 18, -100, 72)),
    "32/1": FormRecord(
        "32/1",
        4,
        _P23,
        (0, 0, 22, 0, 0, -18, -94, 0, 0),
        notes="tensor cube of the f32 representation (not asserted)",
    ),
    "32/2": FormRecord("32/2", 4, _P23, (0, 8, -10, 16, -40, -50, -30, 40, 48)),
    "h": FormRecord(
        "h",
        (4, 2),
        _P23,
        (
            0,
            9,
            10,
            QuadraticNumber(16, 4, 2),
            -726,
            2938,
            QuadraticNumber(-62, 16, 2),
            6650,
            QuadraticNumber(40, -8, 2),
        ),
        notes="Hilbert form over Q(sqrt(2)), weight (4,2), level 6*sqrt(2); inert primes",
    ),
}


def lookup_form(name):
    key = str(name).strip()
    if key in ("f_32", "f_{32}"):
        key = "f32"
    if key not in FORMS:
        raise KeyError("unknown form %r; known: %s" % (name, ", ".join(sorted(FORMS))))
    return FORMS[key]


class TableReport(Immutable):
    """Per-prime comparison of an expansion against the stored table."""

    __slots__ = ("name", "rows",)

    def __init__(self, name, rows):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def passed(self):
        return all(ok for _p, _want, _got, ok in self.rows)

    def lines(self):
        out = []
        for p, want, got, ok in self.rows:
            out.append(
                "%s  a_%-2d  expected %6s  computed %6s  %s"
                % (self.name, p, want, got, "ok" if ok else "MISMATCH")
            )
        return out

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "rows": [
                {"prime": p, "expected": str(want), "computed": str(got), "ok": ok}
                for p, want, got, ok in self.rows
            ],
        }

    def __repr__(self):
        return "TableReport(%r, %s)" % (self.name, "pass" if self.passed else "FAIL")


def verify_form_table(name, N=None):
    """Compare the eta expansion of a registered form against its prime table."""
    rec = lookup_form(name)
    if rec.eta is None:
        raise NoEtaProduct("form %r is stored as table data only" % (rec.name,))
    N = rec.primes[-1] if N is None else _exact_int(N, InvalidTruncation, "the truncation")
    if N < rec.primes[-1]:
        raise TruncationTooLow("expansion through q^%d is too short for a_%d" % (N, rec.primes[-1]))
    qs = eta_product(rec.eta, N)
    rows = []
    for p, want in zip(rec.primes, rec.table):
        got = qs.coefficient(p)
        rows.append((p, want, got, got == want))
    return TableReport(rec.name, rows)


# ---------------------------------------------------------------------------
# point counts


def _quadratic_character_table(p):
    chi = [0] * p
    half = (p - 1) // 2
    for a in range(1, p):
        chi[a] = 1 if pow(a, half, p) == 1 else -1
    return chi


def _octic_terms(f8, p):
    """Reduce to a list of (coeff mod p, exponents); accepts monomial dicts or 8 linear forms."""
    def redc(c):
        c = _exact_rational(c, "an octic coefficient")
        den = c.denominator % p
        if den == 0:
            raise BadReduction("coefficient %s has bad reduction mod %d" % (c, p))
        return c.numerator * pow(den, -1, p) % p

    if isinstance(f8, dict):
        terms = []
        for key, c in f8.items():
            key = tuple(_exact_int(e, InvalidOctic, "an octic exponent") for e in key)
            if len(key) != 4 or min(key) < 0:
                raise InvalidOctic("octic monomial %s needs four nonnegative exponents" % (key,))
            if sum(key) != 8:
                raise InvalidOctic("octic must be homogeneous of degree 8")
            terms.append((redc(c), key))
        return terms, None
    forms = [tuple(redc(c) for c in form) for form in f8]
    if len(forms) != 8 or any(len(f) != 4 for f in forms):
        raise InvalidOctic("octic must be eight linear forms of four coefficients")
    return None, forms


def _chart_planes(p):
    """P^3(F_p) once, as (cells, planes): the points (x, y, z, v), (x, y) in planes, (z, vs) in cells, v in vs.

    The planes are (1, y, z, v), (0, 1, z, v) and (0, 0, z, v), the last cut
    to the row z = 1 and the point (0, 0, 0, 1).
    """
    every = range(p)
    return ([(z, every) for z in every], [(1, y) for y in every] + [(0, 1)]), ([(0, range(1, 2)), (1, every)], [(0, 0)])


def _line_masks(c, p, chi):
    """Zero and non-residue masks over v of b + c v, for b = 0 .. p-1.

    Bit v of zeros[b] is set when b + c v = 0 mod p, bit v of odd[b] when
    chi_p(b + c v) = -1.
    """
    full = (1 << p) - 1
    if c == 0:
        return [full if b == 0 else 0 for b in range(p)], [full if chi[b] < 0 else 0 for b in range(p)]
    # b + c v = c (v + b/c): the masks for b are those for b = 0 rotated down by b/c
    base = sum(1 << v for v in range(p) if chi[c * v % p] < 0)
    inv = pow(c, -1, p)
    zeros, odd = [], []
    for b in range(p):
        k = b * inv % p
        zeros.append(1 << (-k % p))
        odd.append(((base >> k) | (base << (p - k))) & full)
    return zeros, odd


def count_double_octic(f8, p):
    """Number of F_p-points of u^2 = f8(x,y,z,v) over P^3(F_p), chartwise.

    Each projective point contributes 1 + chi_p(f8), with chi_p(0) = 0, so
    branch points count once and the two sheets count elsewhere.  The points
    are walked as p + 2 planes of n points (`_chart_planes`), ints whose bit
    z W + v, W = 2p, is the point (z, v).  On a plane a linear form reads
    b + c z + d v; its zero and non-residue masks are those at b = 0
    (`_line_masks` rows, written twice) shifted down b/d bits, rotating every
    row, or b/c rows if d = 0, or it is the constant b.  chi_p is
    multiplicative, so with c0 the product of the constants the plane adds

        n + chi_p(c0) (popcount(live) - 2 popcount(live & par)),
        live = plane & ~(OR_i zeros_i),  par = XOR_i odd_i:

    a point counts where no form vanishes, signed by the parity of its
    non-residue factors; 4 big-int operations per form and plane.  A
    monomial octic is evaluated point by point over the same planes.
    """
    p = _exact_int(p, NotPrime, "the prime")
    if p == 2:
        raise EvenPrime("the double-cover count needs an odd prime")
    if not _is_probable_prime(p):
        raise NotPrime("the double-cover count needs a prime, got %d" % p)
    chi = _quadratic_character_table(p)
    terms, forms = _octic_terms(f8, p)
    total = 0
    if forms is None:
        for cells, planes in _chart_planes(p):
            for x, y in planes:
                for z, vs in cells:
                    for v in vs:
                        acc = 0
                        for c, (ex, ey, ez, ev) in terms:
                            acc += c * pow(x, ex, p) * pow(y, ey, p) * pow(z, ez, p) * pow(v, ev, p)
                        total += 1 + chi[acc % p]
        return total
    W, moving, fixed = 2 * p, [], []
    # the masks of _line_masks over v as bit strings written twice, so a row of
    # W bits rotates by a shift of under p bits
    texts = {c: [[format(m, "0%db" % p) * 2 for m in masks] for masks in _line_masks(c, p, chi)] for c in {f[3] for f in forms}}
    for a0, a1, a2, a3 in forms:
        if not (a2 or a3):
            fixed.append((a0, a1))
            continue
        rows, inv, unit = (range(p), pow(a3, -1, p), 1) if a3 else (range(2 * p - 1), pow(a2, -1, p), W)
        # row r of a base mask reads a2 r + a3 v over v; (z, v) of the plane
        # with offset b reads the base at (z, v + b/a3), or at (z + b/a2, v)
        base = [int("".join([row[a2 * r % p] for r in reversed(rows)]), 2) for row in texts[a3]]
        moving.append((a0, a1, inv, unit, *base))
    for cells, planes in _chart_planes(p):
        plane = sum(((1 << len(vs)) - 1) << z * W + vs.start for z, vs in cells)
        for x, y in planes:
            c0, dead, par = prod(a0 * x + a1 * y for a0, a1 in fixed) % p, 0, 0
            for a0, a1, inv, unit, zeros, odd in moving:
                shift = (a0 * x + a1 * y) * inv % p * unit
                dead |= zeros >> shift
                par ^= odd >> shift
            live = plane & ~dead
            total += plane.bit_count() + chi[c0] * (live.bit_count() - 2 * (live & par).bit_count())
    return total


# ---------------------------------------------------------------------------
# octic arrangements


# the Polynomial of a checked int tuple, built once: the 768 coefficients of
# OCTICS take 12 values.  The key is checked first, as a shorthand key would
# take (True, 0) for (1, 0), which compares and hashes equal
_int_polynomial = lru_cache(Polynomial)


def _t_polynomial(c):
    """A shorthand octic coefficient, an int or a tuple of ascending ints, as a Polynomial in t."""
    return _int_polynomial(tuple(_exact_int(a, InvalidOctic, "an octic coefficient") for a in (c if isinstance(c, tuple) else (c,))))


def _integer_texts(c):
    """The ints of a JSON octic coefficient, a list of integer strings; anything else raises InvalidOctic."""
    if not (isinstance(c, list) and all(isinstance(s, str) and re.fullmatch(r"-?[0-9]+", s) for s in c)):
        raise InvalidOctic("an octic coefficient must be a list of integer strings, got %r" % (c,))
    return tuple(map(int, c))


class Arrangement(Immutable):
    """Eight planes, each the four integer t-polynomials that multiply x, y, z and v; it iterates as its planes.

    Built from the shorthand of OCTICS, one argument per plane (see _t_polynomial).
    """

    __slots__ = ("planes",)

    def __init__(self, *planes):
        if len(planes) != 8 or any(not isinstance(pl, (list, tuple)) or len(pl) != 4 for pl in planes):
            raise InvalidOctic("an arrangement needs eight planes of four coefficients")
        object.__setattr__(self, "planes", tuple(tuple(map(_t_polynomial, plane)) for plane in planes))

    def __iter__(self):
        return iter(self.planes)

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.planes == other.planes

    def __hash__(self):
        return hash(self.planes)

    def at(self, t):
        """The eight linear forms of the fibre at t, as count_double_octic takes them."""
        return [tuple(c(t) for c in plane) for plane in self.planes]

    def to_json(self):
        return [[[str(a) for a in c.coeffs] for c in plane] for plane in self.planes]

    @classmethod
    def from_json(cls, data):
        """Read what to_json writes; any other shape or text raises InvalidOctic."""
        if not (isinstance(data, list) and all(isinstance(plane, list) for plane in data)):
            raise InvalidOctic("an octic must be a list of planes, got %r" % (data,))
        return cls(*([_integer_texts(c) for c in plane] for plane in data))


# the coordinate planes and the parameter
X, Y, Z, V = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
T = (0, 1)

# arrangement id -> Arrangement; 248 stays the printed text (sic, see above)
OCTICS = {
    4: Arrangement(X, Y, Z, V, (1, 1, 0, 0), (1, T, T, -1), (1, 1, T, -1), (0, 1, 1, 0)),
    13: Arrangement(X, Y, Z, V, (0, 1, 1, 0), (1, 0, -1, -1), (1, 1, 0, 0), (1, 0, -1, T)),
    34: Arrangement(X, Y, Z, V, (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (0, 1, -1, T)),
    72: Arrangement(X, Y, Z, V, (1, -1, 0, -1), (1, 1, 1, 0), (0, 1, T, T), (0, 1, 1, 1)),
    261: Arrangement(X, Y, Z, V, (1, -1, -1, 1), (1, 1, 1, 1), (1, -1, T, (0, -1)), (1, 1, T, T)),
    264: Arrangement(X, Y, Z, V, (1, 2, (-2, 1), (2, -1)), (-1, -1, 2, (-2, 1)), (1, 1, T, 0), (0, 1, -2, 2)),
    270: Arrangement(X, Y, Z, V, (1, 1, 1, 0), (0, 1, 1, 1), (T, -2, T, T), (-1, -2, T, -1)),
    33: Arrangement(X, Y, Z, V, (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, -1, 1), (1, -1, -1, T)),
    35: Arrangement(X, Y, Z, (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1), (1, -1, 0, 0), (1, T, (1, -1), -1)),
    70: Arrangement(Y, X, Z, V, (1, T, 0, 0), (0, 1, -1, -1), (1, -1, 0, -1), (1, -1, 1, 0)),
    71: Arrangement(X, Y, Z, V, (1, 1, 0, 0), (1, 1, 1, 1), (0, T, -1, -1), (-1, T, -1, 0)),
    97: Arrangement(X, Y, Z, V, (1, 1, 0, 0), (1, 1, 1, 1), (-1, 0, T, -1), (0, 1, -1, -1)),
    98: Arrangement(X, Y, Z, V, (1, 0, 1, -1), (1, 1, 1, 0), (0, 1, 1, 1), (0, 1, T, T)),
    152: Arrangement(X, Y, Z, V, (1, -1, -1, 1), (1, 1, 1, 1), (1, -1, T, (0, -1)), (0, 1, 0, 1)),
    153: Arrangement(X, Y, Z, V, (1, 1, 1, 0), (-1, T, 0, -1), (-1, T, -1, -1), (0, 1, 1, 1)),
    197: Arrangement(X, Y, Z, V, (1, -1, -1, 1), (1, 0, T, 1), (1, T, T, 0), (0, T, T, 1)),
    198: Arrangement(X, Y, Z, V, (1, -1, 0, -1), (1, 1, 1, 0), ((1, 1), -1, -1, 0), (0, 1, 1, 1)),
    243: Arrangement(X, Y, Z, V, (1, 1, 0, 1), (1, 1, 1, 0), (1, T, 1, 1), (0, 1, 1, 1)),
    247: Arrangement(X, Y, Z, V, (1, -1, 0, -1), (1, 1, 1, 0), (-1, 0, T, (0, -1)), (0, 1, 1, 1)),
    248: "xyzv(x+z+v)(x+y+z)(x+(y+1)y-tz+v)(y-z-v)",
    250: Arrangement(X, Y, Z, V, (1, 1, 1, 0), (1, T, -1, 1), (1, 0, 1, 1), (0, 1, 1, -1)),
    252: Arrangement(X, Y, Z, V, (1, 1, 0, 1), (1, 1, 1, 0), (-1, 0, T, 1), (-1, -2, T, -1)),
    258: Arrangement(X, Y, Z, V, (1, -1, 2, -2), (1, -1, 1, -1), (1, T, 1, T), (0, 1, -1, 2)),
    266: Arrangement(X, Y, Z, V, (2, 1, 0, 2), (1, (1, 1), -1, 1), (1, T, 1, 0), (0, 1, -2, 2)),
    273: Arrangement(X, Y, Z, V, (1, 1, 1, 0), (2, 0, -2, -1), (1, (0, 2), -1, T), (0, 2, 2, 1)),
}

# rigid specialisations recorded in family notes: member id -> (family, parameter)
RIGID_FIBRES = {69: (250, 0), 93: (250, -1), 245: (250, 1), 240: (250, -2)}

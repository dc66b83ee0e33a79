"""Eta-product q-expansions, Fourier coefficient tables, and naive point counts.

The registry stores the recurring cusp forms: name, weight, coefficients at
the listed primes, and where available the eta-product. Products expand
through the pentagonal-number theorem; the Hilbert form h keeps quadratic
coefficients and, like 12/1, 32/1, 32/2, is data-only. The stated tensor
relations between Galois representations are prose metadata, never asserted
as coefficient identities.

Point counts for u^2 = f8 are raw chartwise sums of 1 + chi_p(f8) over
P^3(F_p), chi_p the quadratic character with chi_p(0) = 0; well defined
because deg f8 = 8 is even.  For eight linear forms the sum runs on p-bit
masks along the lines of the charts: chi_p is multiplicative, so on a line
where each form reads b + c v the character sum is a popcount of the points
where no form vanishes, signed by the parity of the non-residue factors.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Immutable, QuadraticNumber, _is_probable_prime
from .errors import (
    BadReduction,
    CoefficientOutOfRange,
    EvenPrime,
    InvalidEtaProduct,
    InvalidFormRecord,
    InvalidOctic,
    NoEtaProduct,
    NonUnitConstantTerm,
    NotPrime,
    TruncationTooLow,
)


class QSeries(Immutable):
    """Integer coefficients of q^0 .. q^N."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation=None):
        cs = [int(c) for c in coeffs]
        if truncation is None:
            truncation = len(cs) - 1
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
        factors = tuple((int(m), int(e)) for m, e in factors)
        leading_power = int(leading_power)
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
    if N < 1:
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
    if N is None:
        N = rec.primes[-1]
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
        c = Fraction(c)
        den = c.denominator % p
        if den == 0:
            raise BadReduction("coefficient %s has bad reduction mod %d" % (c, p))
        return c.numerator * pow(den, -1, p) % p

    if isinstance(f8, dict):
        terms = []
        for key, c in f8.items():
            key = tuple(int(e) for e in key)
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


def _chart_lines(p):
    """Lines (x, y, z, vs) covering P^3(F_p) once: the points (x, y, z, v), v in vs.

    The charts are (1, y, z, v), (0, 1, z, v), (0, 0, 1, v) and the point
    (0, 0, 0, 1), which is the line (0, 0, 0, v) cut to v = 1.
    """
    every = range(p)
    for y in every:
        for z in every:
            yield 1, y, z, every
    for z in every:
        yield 0, 1, z, every
    yield 0, 0, 1, every
    yield 0, 0, 0, range(1, 2)


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
    are walked line by line (`_chart_lines`).  For a product of linear forms
    l_i, chi_p is multiplicative, so on a line each l_i reads b_i + c_i v and
    the line's character sum is

        popcount(live & ~par) - popcount(live & par),
        live = ~(OR_i zeros_i[b_i]),  par = XOR_i odd_i[b_i],

    with the p-bit masks of `_line_masks` over v: a point counts where no form
    vanishes, with the sign of the parity of its non-residue factors.  That is
    8 mask operations per line in place of 8 evaluations per point.  A
    monomial octic is evaluated point by point along the same lines.
    """
    p = int(p)
    if p == 2:
        raise EvenPrime("the double-cover count needs an odd prime")
    if not _is_probable_prime(p):
        raise NotPrime("the double-cover count needs a prime, got %d" % p)
    chi = _quadratic_character_table(p)
    terms, forms = _octic_terms(f8, p)
    total = 0
    if forms is None:
        for x, y, z, vs in _chart_lines(p):
            for v in vs:
                acc = 0
                for c, (ex, ey, ez, ev) in terms:
                    acc += c * pow(x, ex, p) * pow(y, ey, p) * pow(z, ez, p) * pow(v, ev, p)
                total += 1 + chi[acc % p]
        return total
    masks = {c: _line_masks(c, p, chi) for c in {f[3] for f in forms}}
    lines = [(f[0], f[1], f[2]) + masks[f[3]] for f in forms]
    for x, y, z, vs in _chart_lines(p):
        dead = par = 0
        for a0, a1, a2, zeros, odd in lines:
            b = (a0 * x + a1 * y + a2 * z) % p
            dead |= zeros[b]
            par ^= odd[b]
        live = (((1 << len(vs)) - 1) << vs.start) & ~dead
        total += len(vs) + (live & ~par).bit_count() - (live & par).bit_count()
    return total

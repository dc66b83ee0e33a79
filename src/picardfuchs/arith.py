"""Exact scalar, polynomial, rational-function and truncated-power-series arithmetic.

Scalars are fractions.Fraction or QuadraticNumber, an element a + b*sqrt(d) of
the quadratic field tagged by a squarefree integer d (d != 0, 1).  Arithmetic
never leaves the tagged field; mixing two different d values is an error.

Polynomials are dense tuples of coefficients, ascending degree, with the zero
polynomial stored as the empty tuple.  Power series carry an explicit
truncation order N (coefficients of t^0 .. t^N; the series is known mod
t^(N+1)); binary operations propagate the minimum order of their inputs.

Everything here is immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import (
    FactorizationFailed,
    InexactDivision,
    InexactScalar,
    InvalidDiscriminant,
    InvalidPower,
    MixedFields,
    NonPositiveInteger,
    TruncationTooLow,
    UnresolvedFactor,
    ZeroPolynomial,
    ZeroRadicand,
)

# ---------------------------------------------------------------------------
# integer helpers


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin witnesses for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Return the prime factorization of n >= 1 as a dict prime -> exponent."""
    if n < 1:
        raise NonPositiveInteger("factorization needs an integer >= 1, got %d" % n)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over 2,3,5 residues
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 10_000_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += incs[i]
        i = (i + 1) % 8
    if n > 1:
        if f * f > n or _is_probable_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            r = math.isqrt(n)
            if r * r == n and _is_probable_prime(r):
                out[r] = out.get(r, 0) + 2
            else:
                raise FactorizationFailed("cannot factor %d" % n)
    return out


def squarefree_part(n):
    """Write n = s^2 * d with d squarefree; return (s, d).  n must be nonzero."""
    if n == 0:
        raise ZeroRadicand("zero has no squarefree part")
    s, d = 1, 1 if n > 0 else -1
    for p, e in factorize(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def divisors(n):
    """All positive divisors of n != 0, ascending."""
    out = [1]
    for p, e in factorize(abs(n)).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _check_power(e):
    if not isinstance(e, int) or e < 0:
        raise InvalidPower("power must be an integer >= 0, got %r" % (e,))


def rational_sqrt(q):
    """Exact square root of a Fraction if it is a perfect square, else None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# quadratic field elements


def _is_squarefree(n, bound=100_000):
    """Whether n != 0 has no square factor, or None when trial division up to `bound` cannot tell.

    Once no prime below p divides n and p^3 > n, n has at most two prime
    factors, so it has a square factor exactly when it is a square.
    """
    n, p = abs(n), 2
    while p * p * p <= n:
        if p > bound:
            if _is_probable_prime(n):
                return True
            return False if math.isqrt(n) ** 2 == n else None
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return n == 1 or math.isqrt(n) ** 2 != n


@lru_cache(maxsize=256)
def _field_tag(d):
    """d, once checked to be a squarefree integer other than 0 and 1; cached, as every QuadraticNumber asks."""
    squarefree = d not in (0, 1) and _is_squarefree(d)
    if squarefree is None:
        raise InvalidDiscriminant("cannot decide whether the quadratic field tag %d is squarefree" % d)
    if not squarefree:
        raise InvalidDiscriminant("a quadratic field tag must be squarefree and not 0 or 1, got %d" % d)
    return d


def _exact_fraction(x):
    """Fraction(x) for an exact scalar; a float or a bool has no exact reading and raises InexactScalar."""
    if isinstance(x, (float, bool)):
        raise InexactScalar("a scalar must be exact, not the %s %r" % (type(x).__name__, x))
    return Fraction(x)


class Immutable:
    """Base of the value types: no attribute can be set or deleted after construction.

    Constructors write their slots through object.__setattr__.
    """

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


class QuadraticNumber(Immutable):
    """a + b*sqrt(d) with rational a, b and squarefree integer d (d != 0, 1).

    `a` and `b` are Fractions and `d` is an int.  The constructor checks its
    input: the parts must be exact (no float, no bool) and the tag a
    squarefree int.  The arithmetic is an integer kernel: each operation
    writes both operands over one denominator, (x + y*sqrt(d)) / m, from the
    numerators and denominators of their parts, computes each part of the
    result as one integer quotient, builds it with a single
    Fraction(numerator, denominator) and makes the result through
    `_quadratic`, which skips the checks its inputs have already passed.  An
    int or a Fraction operand, on either side, is the field element with
    zero sqrt part; a QuadraticNumber with another tag raises MixedFields.

    Type rule: arithmetic with a QuadraticNumber operand returns a
    QuadraticNumber, also when its sqrt part is zero (`collapse` turns such
    a value into a Fraction).  ROADMAP item 1 will change the rule, so that
    a zero sqrt part always gives a Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InexactScalar("a quadratic field tag must be an integer, got %r" % (d,))
        d = _field_tag(d)
        object.__setattr__(self, "a", _exact_fraction(a))
        object.__setattr__(self, "b", _exact_fraction(b))
        object.__setattr__(self, "d", d)

    def _parts(self):
        """(x, y, m) with self = (x + y*sqrt(d)) / m and m > 0."""
        a, b = self.a, self.b
        ad, bd = a.denominator, b.denominator
        return a.numerator * bd, b.numerator * ad, ad * bd

    def _operand(self, other):
        """other as (x, y, m) in the field of self, like `_parts`; None for a type outside it."""
        if type(other) is QuadraticNumber:
            if other.d != self.d:
                raise MixedFields("mixed discriminants %d and %d" % (self.d, other.d))
            return other._parts()
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        x1, y1, m1 = self._parts()
        m = m1 * m2
        return _quadratic(Fraction(x1 * m2 + x2 * m1, m), Fraction(y1 * m2 + y2 * m1, m), self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        x1, y1, m1 = self._parts()
        m = m1 * m2
        return _quadratic(Fraction(x1 * m2 - x2 * m1, m), Fraction(y1 * m2 - y2 * m1, m), self.d)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        x1, y1, m1 = self._parts()
        m = m1 * m2
        return _quadratic(Fraction(x2 * m1 - x1 * m2, m), Fraction(y2 * m1 - y1 * m2, m), self.d)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        x1, y1, m1 = self._parts()
        m = m1 * m2
        return _quadratic(Fraction(x1 * x2 + self.d * y1 * y2, m), Fraction(x1 * y2 + y1 * x2, m), self.d)

    __rmul__ = __mul__

    def inverse(self):
        return self._divide(1, 0, 1, *self._parts())

    def _divide(self, x1, y1, m1, x2, y2, m2):
        """(x1 + y1 sqrt d)/m1 over (x2 + y2 sqrt d)/m2 = m2 (x1 + y1 sqrt d)(x2 - y2 sqrt d) / (m1 N), N the norm x2^2 - d y2^2."""
        d = self.d
        n = x2 * x2 - d * y2 * y2
        if n == 0:
            raise ZeroDivisionError("zero quadratic number")
        n *= m1
        return _quadratic(Fraction(m2 * (x1 * x2 - d * y1 * y2), n), Fraction(m2 * (y1 * x2 - x1 * y2), n), d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._divide(*self._parts(), *o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._divide(*o, *self._parts())

    def __pow__(self, e):
        _check_power(e)
        x, y, m = self._parts()
        d = self.d
        den = m**e
        px, py = 1, 0
        while e:
            if e & 1:
                px, py = px * x + d * py * y, px * y + py * x
            e >>= 1
            if e:
                x, y = x * x + d * y * y, 2 * x * y
        return _quadratic(Fraction(px, den), Fraction(py, den), d)

    def conjugate(self):
        return _quadratic(self.a, -self.b, self.d)

    def norm(self):
        """a^2 - d*b^2, always a Fraction."""
        x, y, m = self._parts()
        return Fraction(x * x - self.d * y * y, m * m)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            if other.d == self.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        root = "sqrt(%d)" % self.d
        bp = "" if abs(self.b) == 1 else "%s*" % _fmt_coeff(abs(self.b))
        s = "-" if self.b < 0 else ("+" if self.a != 0 else "")
        head = str(self.a) if self.a != 0 else ""
        return "%s%s%s%s" % (head, s, bp, root)


_set_a, _set_b, _set_d = (QuadraticNumber.__dict__[k].__set__ for k in QuadraticNumber.__slots__)


def _quadratic(a, b, d):
    """The QuadraticNumber a + b*sqrt(d) from Fraction parts and a checked tag: the kernel's constructor, without the public checks."""
    q = object.__new__(QuadraticNumber)
    _set_a(q, a)
    _set_b(q, b)
    _set_d(q, d)
    return q


def _fmt_coeff(q):
    return str(q)


def as_scalar(x):
    """Coerce ints to Fraction; pass Fractions and QuadraticNumbers through."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, QuadraticNumber)):
        return x
    raise TypeError("unsupported scalar %r" % (x,))


def collapse(x):
    """Collapse a QuadraticNumber with vanishing sqrt part to a Fraction."""
    if isinstance(x, QuadraticNumber) and x.b == 0:
        return x.a
    return x


def conjugate_scalar(x):
    return x.conjugate() if isinstance(x, QuadraticNumber) else x


def scalar_sort_key(x):
    """Deterministic total order: lexicographic on (rational part, sqrt part)."""
    if isinstance(x, QuadraticNumber):
        return (x.a, x.b)
    return (Fraction(x), Fraction(0))


def scalar_sign(x):
    """Sign by the leading nonzero component of (a, b)."""
    a, b = scalar_sort_key(x)
    v = a if a != 0 else b
    return -1 if v < 0 else (1 if v > 0 else 0)


def quadratic_sqrt(q):
    """sqrt of a nonzero Fraction as a Fraction or a QuadraticNumber (0 + s*sqrt(d))."""
    if q == 0:
        raise ZeroRadicand("sqrt of zero has no quadratic field tag")
    r = rational_sqrt(q)
    if r is not None:
        return r
    sn, dn = squarefree_part(q.numerator)
    sd, dd = squarefree_part(q.denominator)
    # sqrt(q) = (sn/(sd*dd)) * sqrt(dn*dd)
    s, d = squarefree_part(dn * dd)
    return QuadraticNumber(0, Fraction(sn * s, sd * dd), d)


# serialization: rationals as "num/den", quadratics as {"a","b","d"}


def scalar_to_json(x):
    if isinstance(x, QuadraticNumber):
        return {"a": str(x.a), "b": str(x.b), "d": x.d}
    return str(Fraction(x))


def scalar_from_json(v):
    if isinstance(v, dict):
        return collapse(QuadraticNumber(v["a"], v["b"], v["d"]))
    return _exact_fraction(v)


# ---------------------------------------------------------------------------
# dense polynomials


class Polynomial(Immutable):
    """Dense univariate polynomial over Fraction or a fixed quadratic field."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls):
        return cls(())

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((other,)) * -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        _check_power(e)
        out, base = Polynomial((1,)), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = Polynomial(()), self
        inv = 1 / other.lead
        while not r.is_zero and r.degree >= other.degree:
            k = r.degree - other.degree
            c = r.lead * inv
            q = q + Polynomial([0] * k + [c])
            r = r - Polynomial([0] * k + [c]) * other
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return self * (1 / as_scalar(other))
        q, r = divmod(self, other)
        if not r.is_zero:
            raise InexactDivision("inexact polynomial division")
        return q

    def derivative(self):
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, v):
        out = as_scalar(0)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def compose(self, other):
        """Substitute the polynomial `other` for the variable."""
        out = Polynomial(())
        for c in reversed(self.coeffs):
            out = out * other + c
        return out

    def shift(self, a):
        """Taylor shift p(t) -> p(t + a); the one polynomial-level entry to taylor_shift."""
        return Polynomial(taylor_shift(self.coeffs, a))

    def monic(self):
        if self.is_zero:
            return self
        return self * (1 / self.lead)

    def valuation(self):
        """Index of the first nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def map_coeffs(self, f):
        return Polynomial([f(c) for c in self.coeffs])

    def primitive_integer(self):
        """For rational coefficients: the integer-primitive multiple with positive lead.

        Returns (primitive polynomial, scale) with self = scale * primitive.
        """
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no primitive part")
        (row,), den = integer_rows([self.map_coeffs(collapse)])
        prim = zprimitive(row)
        return Polynomial(prim), Fraction(row[-1], den * prim[-1])

    def __repr__(self):
        return "Polynomial(%s)" % (format_polynomial(self, "t"),)


def taylor_shift(coeffs, a, terms=None):
    """First `terms` coefficients (all by default) of p(t + a), p given by `coeffs`.

    Horner's rule on a plain list of scalars (von zur Gathen & Gerhard, ISSAC
    1997): p(t + a) = (...(c_n (t + a) + c_(n-1))(t + a) + ...) + c_0.  A
    coefficient of each partial result depends only on coefficients of the
    previous one at the same or a lower index, so keeping the first `terms`
    of each costs about deg * terms multiply-adds.  Zero coefficients take no
    part in a product, so a coefficient is a QuadraticNumber exactly when
    Polynomial arithmetic would make it one: a QuadraticNumber zero and
    Fraction(0) serialize differently.  No trailing zeros are trimmed inside
    the first `terms`.  All-int input (coefficients and a) stays int, with
    zero 0: the fraction-free Frobenius recurrence shifts integer polynomials.
    """
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    terms = len(cs) if terms is None else min(terms, len(cs))
    if terms <= 0:
        return []
    if type(a) is int and set(map(type, cs)) == {int}:
        zero = 0
    else:
        a = as_scalar(a)
        zero = Fraction(0)
    out = []
    for c in reversed(cs):
        # out <- out * (t + a) + c, from the top index down so out[p - 1] is still old
        if len(out) < terms:
            out.append(zero)
        for p in range(len(out) - 1, 0, -1):
            lo, hi = out[p - 1], out[p]
            if hi:
                out[p] = lo + hi * a if lo else hi * a
            else:
                out[p] = lo if lo else zero
        low = out[0] * a if out[0] else zero
        out[0] = low + c if c else low
    return out


def quadratic_taylor_shift(A, B, tags, u, v, tagged, d, terms):
    """taylor_shift over Z[sqrt d] on integer pairs, with the scalar types taylor_shift gives.

    The polynomial is sum (A[k] + B[k] sqrt d) t^k and the shift u + v sqrt d.
    tags[k] (and `tagged`, for the shift) say whether the scalar that the
    pair stands for is a QuadraticNumber.  This is taylor_shift's loop, with
    its zero tests on the pairs' values, so a returned tag is True exactly
    where taylor_shift on those scalars returns a QuadraticNumber: a result
    is one when a QuadraticNumber took part in it, and a zero tested away
    takes no part.  Returns (A', B', tags') of length min(terms, deg + 1).
    """
    n = len(A)
    while n and not (A[n - 1] or B[n - 1]):
        n -= 1
    terms = min(terms, n)
    oa, ob, ot = [], [], []
    if terms <= 0:
        return oa, ob, ot
    dv = d * v
    for k in range(n - 1, -1, -1):
        # out <- out * (t + a) + c, from the top index down so out[p - 1] is still old
        if len(oa) < terms:
            oa.append(0)
            ob.append(0)
            ot.append(False)
        for p in range(len(oa) - 1, -1, -1):
            ha, hb = oa[p], ob[p]
            if ha or hb:
                ha, hb, ht = ha * u + hb * dv, ha * v + hb * u, ot[p] or tagged
            else:
                ha = hb = 0
                ht = False
            la, lb = (oa[p - 1], ob[p - 1]) if p else (A[k], B[k])
            if la or lb:
                ha, hb, ht = ha + la, hb + lb, ht or (ot[p - 1] if p else tags[k])
            oa[p], ob[p], ot[p] = ha, hb, ht
    return oa, ob, ot


def format_polynomial(p, var):
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = var
        else:
            mono = "%s^%d" % (var, i)
        cstr = str(c)
        if isinstance(c, QuadraticNumber) and c.b != 0:
            cstr = "(%s)" % cstr
        if mono:
            if cstr == "1":
                cstr = ""
            elif cstr == "-1":
                cstr = "-"
            else:
                cstr += "*"
        term = cstr + mono if mono else cstr
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return "".join(parts)


def poly_gcd(p, q):
    """Monic gcd over the coefficient field: over Q the monic form of zgcd."""
    # a QuadraticNumber, even with zero sqrt part, keeps Euclid over Q(sqrt d):
    # its Polynomial arithmetic fixes the scalar types of the result
    if any(type(c) is QuadraticNumber for c in p.coeffs + q.coeffs):
        return _euclid_gcd(p, q)
    g = zgcd(*integer_rows((p, q))[0])
    return Polynomial([Fraction(c, g[-1]) for c in g])


def _euclid_gcd(p, q):
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# integer polynomials: lists of ints in ascending degree, [] for zero, no
# trailing zeros


def integer_rows(polys):
    """(rows, den): rows[i] = den * polys[i] as integer lists, den the lcm of every denominator."""
    den = math.lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [[c.numerator * (den // c.denominator) for c in p.coeffs] for p in polys], den


def ztrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def zadd(a, b):
    return ztrim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def zderiv(a):
    return [i * c for i, c in enumerate(a)][1:]


def zprimitive(a):
    """a over its content, with a positive leading coefficient."""
    if not a:
        return []
    g = math.gcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def zquo(a, b):
    """Exact quotient a / b in Z[t] (b nonzero); a remainder raises InexactDivision."""
    r, n, lead = list(a), len(b) - 1, b[-1]
    q = [0] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], lead)
        if rem:
            break
        q[k] = c
        if c:
            for i in range(n):
                r[k + i] -= c * b[i]
    else:
        if not any(r[:n]):
            return q
    raise InexactDivision("%s does not divide %s in Z[t]" % (b, a))


def zgcd(a, b):
    """Primitive gcd in Z[t], with positive lead ([] when both are zero): the primitive remainder sequence.

    Euclid on pseudo-remainders, each made primitive, so every step stays
    in Z[t] and no answer needs checking.
    """
    a, b = zprimitive(a), zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, n, lead = list(a), len(b) - 1, b[-1]
        while len(r) > n:
            c, k = r[-1], len(r) - 1 - n
            r = [x * lead for x in r]
            for i in range(n + 1):
                r[k + i] -= c * b[i]
            ztrim(r)
        a, b = b, zprimitive(r)
    return a


def squarefree_factor(p):
    """Yun decomposition of a rational-coefficient polynomial.

    Returns [(factor, multiplicity), ...] with pairwise-coprime squarefree
    primitive factors of positive leading coefficient whose weighted product
    equals p up to a nonzero rational constant.  Constant factors are dropped.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    p, _ = p.primitive_integer()
    if p.degree < 1:
        return []
    out = []
    g = poly_gcd(p, p.derivative())
    w = p / g
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        f = w / y
        if f.degree > 0:
            fp, _ = f.primitive_integer()
            out.append((fp, m))
        w, g = y, g / y
        m += 1
    return out


def rational_roots_squarefree(p):
    """Rational roots of a primitive squarefree integer polynomial, ascending."""
    roots = []
    v = p.valuation()
    if v:
        roots.append(Fraction(0))
        p = Polynomial(p.coeffs[v:])
    if p.degree < 1:
        return roots, p
    a0 = int(p.coeffs[0])
    an = int(p.lead)
    cands = set()
    for num in divisors(a0):
        for den in divisors(an):
            f = Fraction(num, den)
            cands.add(f)
            cands.add(-f)
    for r in sorted(cands):
        if p(r) == 0:
            roots.append(r)
            p = p / Polynomial((-r, 1))
    return sorted(roots), p


def roots_in_quadratic_closure(p):
    """All roots of p lying in Q or a quadratic field, repeated by multiplicity.

    Roots are sorted by (rational part, sqrt part).  A coefficient whose sqrt
    part is zero counts as rational.  Over Q, a squarefree factor gives its
    rational roots, and the rest is split into quadratics; an irreducible
    factor of degree >= 3 raises UnresolvedFactor.

    Over Q(sqrt d) the candidates are the roots of the norm
    N(p) = p * conj(p), which lies in Q[t] (Trager, "Algebraic factoring and
    rational function integration", SYMSAC 1976), and the multiplicity of
    each in p is found by repeated exact division.  A root of N(p) in another
    field Q(sqrt e) is fixed by the conjugation of Q(sqrt d, sqrt e) over
    Q(sqrt e), so it is a root of p as well; it has no representation over
    Q(sqrt d), and its rational quadratic factor raises UnresolvedFactor.
    """
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has every point as a root")
    d = next((c.d for c in p.coeffs if isinstance(c, QuadraticNumber) and c.b), None)
    if d is None:
        return _rational_roots(p)
    roots = []
    for r in sorted(set(_rational_roots(p * p.map_coeffs(conjugate_scalar))), key=scalar_sort_key):
        if isinstance(r, QuadraticNumber) and r.d != d:
            raise UnresolvedFactor(Polynomial((r.norm(), -2 * r.a, 1)))
        q, rem = divmod(p, Polynomial((-r, 1)))
        while rem.is_zero:
            roots.append(r)
            p = q
            q, rem = divmod(p, Polynomial((-r, 1)))
    return roots


def _rational_roots(p):
    """roots_in_quadratic_closure for a polynomial with rational coefficients."""
    roots = []
    for f, mult in squarefree_factor(p):
        found, rest = rational_roots_squarefree(f)
        roots.extend(found * mult)
        # rest has no rational root, so each q is a quadratic or a constant
        for q in _split_quadratics(rest):
            if q.degree == 2:
                A, B, C = q[2], q[1], q[0]
                half = quadratic_sqrt(Fraction(B * B - 4 * A * C))
                roots.extend([collapse((-B + half) / (2 * A)), collapse((-B - half) / (2 * A))] * mult)
    return sorted(roots, key=scalar_sort_key)


def _signed_divisors(n):
    return [s * v for v in divisors(n) for s in (1, -1)]


def _split_quadratics(f):
    """[f] when deg f <= 2, else f as a product of quadratics over Q.

    f is squarefree with rational coefficients and no rational root.  A
    factor of degree >= 3 that has no quadratic factor raises
    UnresolvedFactor.
    """
    out = []
    while f.degree >= 3:
        q = _integer_quadratic_factor(f)
        if q is None:
            raise UnresolvedFactor(f)
        out.append(q)
        f = f / q
    return out + [f]


def _integer_quadratic_factor(f):
    """A quadratic factor a x^2 + b x + c of f over Q, with integer a > 0, b, c; or None.

    f has no rational root, so f(0), f(1) and f(-1) are nonzero.  By Gauss's
    lemma a factor of the primitive integer multiple F of f can be taken
    integral, and then a | lead(F), c | F(0), a + b + c | F(1) and
    a - b + c | F(-1): finitely many candidates (Kronecker's method).
    """
    F, _ = f.primitive_integer()
    cs = [int(c) for c in F.coeffs]
    at_one, at_minus_one = sum(cs), sum(c if k % 2 == 0 else -c for k, c in enumerate(cs))
    for a in divisors(cs[-1]):
        for c in _signed_divisors(cs[0]):
            for v in _signed_divisors(at_one):
                b = v - a - c
                w = a - b + c
                if w and at_minus_one % w == 0 and (F % Polynomial((c, b, a))).is_zero:
                    return Polynomial((c, b, a))
    return None


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction(Immutable):
    """num/den with monic denominator and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Polynomial) else Polynomial([num] if not isinstance(num, (list, tuple)) else num)
        if den is None:
            den = Polynomial((1,))
        den = den if isinstance(den, Polynomial) else Polynomial([den] if not isinstance(den, (list, tuple)) else den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Polynomial(()), Polynomial((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num / g, den / g
            lead = den.lead
            if lead != 1:
                num, den = num * (1 / as_scalar(lead)), den * (1 / as_scalar(lead))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        return self.den.degree == 0

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Polynomial, int, Fraction, QuadraticNumber)):
            return self == RationalFunction(other if isinstance(other, Polynomial) else Polynomial((other,)))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return RationalFunction(Polynomial((other,)))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o / self

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, v):
        d = self.den(v)
        if not d:
            raise ZeroDivisionError("pole at %s" % (v,))
        return self.num(v) / d

    def __repr__(self):
        if self.is_polynomial():
            return "(%s)" % format_polynomial(self.num, "t")
        return "(%s)/(%s)" % (format_polynomial(self.num, "t"), format_polynomial(self.den, "t"))


# ---------------------------------------------------------------------------
# truncated power series


class PowerSeries(Immutable):
    """Coefficients of t^0 .. t^N; the series is known modulo t^(N+1)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        cs = [as_scalar(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise TruncationTooLow("a power series needs a truncation order >= 0, got %d" % order)
        cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    @classmethod
    def one(cls, order):
        return cls([1], order)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            other = PowerSeries([other], self.order)
        n = min(self.order, other.order)
        return PowerSeries([self[i] + other[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            other = PowerSeries([other], self.order)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return PowerSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [as_scalar(0)] * (n + 1)
        for i in range(n + 1):
            a = self[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def __repr__(self):
        head = format_polynomial(Polynomial(self.coeffs[: min(5, self.order + 1)]), "t") or "0"
        return "PowerSeries(%s + O(t^%d))" % (head, self.order + 1)


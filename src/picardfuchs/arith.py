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
    InvalidTruncation,
    MixedFields,
    NonPositiveInteger,
    NonrationalScalar,
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
    if isinstance(e, bool) or not isinstance(e, int) or e < 0:
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


def _is_squarefree(n):
    """Whether n != 0 has no square factor, or None when trial division up to 10^5 cannot tell.

    Once no prime below p divides n and p^3 > n, n has at most two prime
    factors, so it has a square factor exactly when it is a square.
    """
    n, p = abs(n), 2
    while p * p * p <= n:
        if p > 100_000:
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


def _exact_int(x, error, what):
    """x when it is an int, else `error` naming `what`: int() would read 2.5 as 2 and True as 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise error("%s must be an integer, got %r" % (what, x))
    return x


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

    Stored parts: ints x, y, m and the tag d with a + b*sqrt(d) =
    (x + y*sqrt(d)) / m, normalised so that gcd(x, y, m) = 1 and m > 0; so
    each value has one stored form, and m is the lcm of the denominators of
    a and b.  The constructor checks its input: the parts must be exact (no
    float, no bool) and the tag a squarefree int.  The arithmetic runs on
    the ints: each operation writes its operands as (x, y, m) and makes the
    result through `_quadratic`, the one internal constructor, which
    normalises by one gcd and a sign and skips the checks its inputs have
    already passed.  An int or a Fraction operand, on either side, is the
    field element with zero sqrt part; a QuadraticNumber with another tag
    raises MixedFields.  `a` and `b` are read-only properties that build
    their Fraction when read; the package's own readers (equality, hash,
    truth, collapse, integer_rows) use x, y and m.

    Type rule: arithmetic with a QuadraticNumber operand returns a
    QuadraticNumber, also when its sqrt part is zero (`collapse` turns such
    a value into a Fraction).  ROADMAP item 4 will change the rule, so that
    a zero sqrt part always gives a Fraction: a change to `_quadratic` alone.
    """

    __slots__ = ("x", "y", "m", "d")

    def __new__(cls, a, b, d):
        d = _field_tag(_exact_int(d, InexactScalar, "a quadratic field tag"))
        a, b = _exact_fraction(a), _exact_fraction(b)
        return _quadratic(a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator, d)

    @property
    def a(self):
        return Fraction(self.x, self.m)

    @property
    def b(self):
        return Fraction(self.y, self.m)

    def _operand(self, other):
        """other as (x, y, m) in the field of self; None for a type outside it."""
        if type(other) is QuadraticNumber:
            if other.d != self.d:
                raise MixedFields("mixed discriminants %d and %d" % (self.d, other.d))
            return other.x, other.y, other.m
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        m1 = self.m
        return _quadratic(self.x * m2 + x2 * m1, self.y * m2 + y2 * m1, m1 * m2, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quadratic(-self.x, -self.y, self.m, self.d)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        m1 = self.m
        return _quadratic(self.x * m2 - x2 * m1, self.y * m2 - y2 * m1, m1 * m2, self.d)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        m1 = self.m
        return _quadratic(x2 * m1 - self.x * m2, y2 * m1 - self.y * m2, m1 * m2, self.d)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        x2, y2, m2 = o
        x1, y1 = self.x, self.y
        return _quadratic(x1 * x2 + self.d * y1 * y2, x1 * y2 + y1 * x2, self.m * m2, self.d)

    __rmul__ = __mul__

    def inverse(self):
        return self._divide(1, 0, 1, self.x, self.y, self.m)

    def _divide(self, x1, y1, m1, x2, y2, m2):
        """(x1 + y1 sqrt d)/m1 over (x2 + y2 sqrt d)/m2 = m2 (x1 + y1 sqrt d)(x2 - y2 sqrt d) / (m1 N), N the norm x2^2 - d y2^2."""
        d = self.d
        n = x2 * x2 - d * y2 * y2
        if n == 0:
            raise ZeroDivisionError("zero quadratic number")
        return _quadratic(m2 * (x1 * x2 - d * y1 * y2), m2 * (y1 * x2 - x1 * y2), m1 * n, d)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._divide(self.x, self.y, self.m, *o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self._divide(*o, self.x, self.y, self.m)

    def __pow__(self, e):
        _check_power(e)
        x, y, d = self.x, self.y, self.d
        den = self.m**e
        px, py = 1, 0
        while e:
            if e & 1:
                px, py = px * x + d * py * y, px * y + py * x
            e >>= 1
            if e:
                x, y = x * x + d * y * y, 2 * x * y
        return _quadratic(px, py, den, d)

    def conjugate(self):
        return _quadratic(self.x, -self.y, self.m, self.d)

    def norm(self):
        """a^2 - d*b^2, always a Fraction."""
        x, y = self.x, self.y
        return Fraction(x * x - self.d * y * y, self.m * self.m)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            same = self.x == other.x and self.y == other.y and self.m == other.m
            return same and (other.d == self.d or not self.y)
        if isinstance(other, (int, Fraction)):
            return not self.y and self.x == other.numerator and self.m == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self.y:
            return hash(self.a)
        return hash((self.x, self.y, self.m, self.d))

    def __bool__(self):
        return bool(self.x or self.y)

    def __repr__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        root = "sqrt(%d)" % self.d
        bp = "" if abs(b) == 1 else "%s*" % abs(b)
        s = "-" if b < 0 else ("+" if a != 0 else "")
        head = str(a) if a != 0 else ""
        return "%s%s%s%s" % (head, s, bp, root)


_set_x, _set_y, _set_m, _set_d = (QuadraticNumber.__dict__[k].__set__ for k in QuadraticNumber.__slots__)


def _quadratic(x, y, m, d):
    """The QuadraticNumber (x + y*sqrt(d))/m from ints, m != 0, and a checked tag: the one constructor, without the public checks."""
    g = math.gcd(x, y, m)
    if m < 0:
        g = -g
    if g != 1:
        x, y, m = x // g, y // g, m // g
    q = object.__new__(QuadraticNumber)
    _set_x(q, x)
    _set_y(q, y)
    _set_m(q, m)
    _set_d(q, d)
    return q


def as_scalar(x):
    """An int as a Fraction, a Fraction or QuadraticNumber as it is; a float or a bool raises InexactScalar."""
    if isinstance(x, (Fraction, QuadraticNumber)):
        return x
    if isinstance(x, (int, float)):
        return _exact_fraction(x)
    raise TypeError("unsupported scalar %r" % (x,))


def _exact_rational(x, what):
    """x as a Fraction when it is rational: the reader of every scalar that must be rational.

    Ints, Fractions and QuadraticNumbers with zero sqrt part are rational; a
    float or a bool raises InexactScalar (as_scalar) and a quadratic
    irrational NonrationalScalar naming `what`.
    """
    x = collapse(as_scalar(x))
    if type(x) is QuadraticNumber:
        raise NonrationalScalar("%s must be rational, got %s" % (what, x))
    return x


def collapse(x):
    """Collapse a QuadraticNumber with vanishing sqrt part to a Fraction."""
    if isinstance(x, QuadraticNumber) and not x.y:
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
    u, v, _m = _scalar_parts(x)
    v = u or v
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
        return Polynomial(zadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((other,)) * -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return Polynomial(zscale(self.coeffs, other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(zmul(self.coeffs, other.coeffs))

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
        return Polynomial(zderiv(self.coeffs))

    def __call__(self, v):
        """The value at v; a float or a bool raises InexactScalar (as_scalar)."""
        v = as_scalar(v)
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
        """Taylor shift p(t) -> p(t + a), with no scalar arithmetic.

        For a = (u + v sqrt d)/q and P(x) = E p(x/q) with integer (pair)
        coefficients (integer_polys), p(t + a) = P(qt + u + v sqrt d) / E
        (integer_shift), read out by tagged_scalar over Q(sqrt d).  Two
        field tags among the coefficients and a raise MixedFields, and a float
        or a bool shift raises InexactScalar, at every degree.
        """
        d = scalar_field(self.coeffs + (a,))
        q, u, v, tagged = exponent_parts(as_scalar(a))
        if not self.coeffs:
            return self
        (P,), E = integer_polys([self], q, d)
        A, B, tags = integer_shift(P, u, q, d, v, tagged)
        if d is None:
            return Polynomial([Fraction(x, E) for x in A])
        return Polynomial([tagged_scalar(x, y, E, t, d) for x, y, t in zip(A, B, tags)])

    def monic(self):
        if self.is_zero:
            return self
        return self * (1 / self.lead)

    def map_coeffs(self, f):
        return Polynomial([f(c) for c in self.coeffs])

    def __repr__(self):
        return "Polynomial(%s)" % (format_polynomial(self, "t"),)


# ---------------------------------------------------------------------------
# Taylor shifts on integers: over Z and on pairs over Z[sqrt d], and the
# integer forms of field scalars and polynomials they run on


def taylor_shift(coeffs, a):
    """p(t + a) for an integer list p and an integer a, trailing zeros dropped.

    Horner's rule in place (von zur Gathen & Gerhard, ISSAC 1997): pass i
    adds a times each coefficient to the one below it, from the top down to
    i, and deg p passes leave the coefficients of p(t + a).
    """
    c = ztrim(list(coeffs))
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def quadratic_taylor_shift(A, B, tags, u, v, tagged, d):
    """p(t + a) over Z[sqrt d] on integer pairs, with the scalar types: the one place of the shift's type rule.

    p = sum (A[k] + B[k] sqrt d) t^k and a = u + v sqrt d.  tags[k] (and
    `tagged`, for a) say whether the scalar a pair stands for is a
    QuadraticNumber.  Horner's rule, out <- out * (t + a) + c, runs with zero
    tests: a zero takes no part in a product or a sum, a result is tagged
    when a tagged operand took part in it, and a result no operand reached
    is an untagged 0.  So a tag is set exactly where Horner's rule on the
    Fraction and QuadraticNumber scalars gives a QuadraticNumber, since a
    QuadraticNumber zero and Fraction(0) serialize differently.  Returns
    (A', B', tags'), trailing zeros dropped.
    """
    n = len(A)
    while n and not (A[n - 1] or B[n - 1]):
        n -= 1
    oa, ob, ot = [], [], []
    dv = d * v
    for k in range(n - 1, -1, -1):
        # out <- out * (t + a) + c, from the top index down so out[p - 1] is still old
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


def tagged_scalar(x, y, den, tag, d):
    """(x + y sqrt d)/den as a scalar, a QuadraticNumber exactly when `tag` is set: the one read-out of tagged integers."""
    return _quadratic(x, y, den, d) if tag else Fraction(x, den)


def integer_shift(poly, x, q, d=None, v=0, tagged=False):
    """C(qt + x + v sqrt d) for C = poly, an (A, B, tags) of integer_polys: its Taylor shift, coefficient j times q^j.

    Over Z (d None) the shift is taylor_shift and B, tags are None; over
    Z[sqrt d] it is quadratic_taylor_shift.
    """
    A, B, tags = (taylor_shift(poly[0], x), None, None) if d is None else quadratic_taylor_shift(*poly, x, v, tagged, d)
    qj = [q**j for j in range(len(A))]
    return [c * s for c, s in zip(A, qj)], None if B is None else [c * s for c, s in zip(B, qj)], tags


def scalar_field(scalars):
    """The tag d of the QuadraticNumbers among `scalars`, or None when there are none.

    This picks the ring of the fraction-free paths (Polynomial.shift,
    optheta.residual_order, the Frobenius recurrence): Z for None, Z[sqrt d]
    otherwise.  A QuadraticNumber with zero sqrt part counts, because results
    computed from it keep its type.  Two different tags raise MixedFields, as
    their arithmetic would.
    """
    d = None
    for x in scalars:
        if type(x) is QuadraticNumber and x.d != d:
            if d is not None:
                raise MixedFields("mixed discriminants %d and %d" % (d, x.d))
            d = x.d
    return d


def _scalar_parts(x):
    """(x, y, m) with x = (x + y sqrt(d))/m in lowest terms, m > 0: y is 0 for an int or a Fraction."""
    if type(x) is QuadraticNumber:
        return x.x, x.y, x.m
    return x.numerator, 0, x.denominator


def exponent_parts(alpha):
    """(q, u, v, tagged): alpha = (u + v sqrt d)/q with q >= 1, and whether alpha is a QuadraticNumber."""
    u, v, q = _scalar_parts(alpha)
    return q, u, v, type(alpha) is QuadraticNumber


def integer_polys(polys, q, d=None):
    """(Q, E): Q_i(x) = E * P_i(x / q) as integer polynomials (A, B, tags), for one common E > 0.

    The rows of integer_rows, coefficient k times q^(n - k) with n the
    largest degree, so E = den * q^n: the one place of that scaling.  Over Q
    (d None) A is a tuple and B, tags are None.  Then E * P_i(t + w/q) is
    integer_shift(Q_i, w, q), and the jets E * P_i(x/q + eps) of
    optheta.jet_tables are its values at t = x/q; the jet callers drop E,
    as a common scale cancels in the sums they test or divide.
    """
    rows, den = integer_rows(polys, d)
    n = max([1] + [len(r if d is None else r[0]) for r in rows]) - 1
    qs = [q ** (n - k) for k in range(n + 1)]
    if d is None:
        return [(tuple(c * s for c, s in zip(row, qs)), None, None) for row in rows], den * qs[0]
    return [([c * s for c, s in zip(A, qs)], [c * s for c, s in zip(B, qs)], tags) for A, B, tags in rows], den * qs[0]


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
        if isinstance(c, QuadraticNumber) and c.y:
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
# coefficient lists: ascending degree, [] for zero, no trailing zeros.  The
# z* kernel runs on ints over Q, where the root finder (zsquarefree, zquo)
# works on Z[t] lists alone, and, as the body of Polynomial arithmetic and
# of the Q(sqrt d) transforms, on Fractions and QuadraticNumbers


def integer_rows(polys, d=None):
    """(rows, den): rows[i] = den * polys[i] on integers, den the lcm of every denominator.

    The one place where denominators are cleared.  Each of `polys` is a
    Polynomial or a list of scalars.  Over Q (d None) a row is a list of
    ints.  Over Q(sqrt d) it is (A, B, tags): den times coefficient k is
    A[k] + B[k] sqrt d, and tags[k] says whether the coefficient is a
    QuadraticNumber.  No field tag is read or checked here (scalar_field
    does that).
    """
    if d is None:
        den = math.lcm(*[c.denominator for p in polys for c in p])
        return [[c.numerator * (den // c.denominator) for c in p] for p in polys], den
    # m is the lcm of the denominators of a and b, so den is the same lcm as over Q
    parts = [[_scalar_parts(c) for c in p] for p in polys]
    den = math.lcm(*[m for cs in parts for _x, _y, m in cs])
    A, B = ([[xym[i] * (den // xym[2]) for xym in cs] for cs in parts] for i in (0, 1))
    return [(a, b, [type(c) is QuadraticNumber for c in p]) for a, b, p in zip(A, B, polys)], den


def ztrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def zadd(a, b):
    """a + b, trimmed, with the types of Polynomial addition: a missing entry adds 0, which keeps the other's type.

    A sum that cancels at the top is dropped, so a later sum there is not made
    a QuadraticNumber by the zero: one zadd per Polynomial sum.
    """
    return ztrim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def zscale(a, c):
    """c times each entry of a, trimmed like Polynomial * c: a zero c gives []."""
    return ztrim([x * c for x in a])


def zmul(a, b):
    """a * b; a zero of the left factor takes no part, a QuadraticNumber zero of b types its products, as in Polynomial."""
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


def zsquarefree(a):
    """Yun's decomposition of a primitive integer list a of positive lead (Yun, SYMSAC 1976).

    Returns [(factor, multiplicity), ...] with pairwise-coprime squarefree
    primitive factors of positive lead whose weighted product is a; a
    constant gives [].  By Gauss's lemma every quotient is integral.
    """
    out = []
    g = zgcd(a, zderiv(a))
    w = zquo(a, g)
    m = 1
    while len(w) > 1:
        y = zgcd(w, g)
        f = zquo(w, y)
        if len(f) > 1:
            out.append((f, m))
        w, g = y, zquo(g, y)
        m += 1
    return out


def roots_in_quadratic_closure(p):
    """All roots of p lying in Q or a quadratic field, repeated by multiplicity.

    Roots are sorted by (rational part, sqrt part).  A coefficient whose sqrt
    part is zero counts as rational.  Over Q the search runs on Z[t] lists:
    each squarefree factor (zsquarefree) of the primitive integer row of p
    gives its rational roots, divided out with zquo, and the rest is split
    into integer quadratics; an irreducible primitive integer factor of
    degree >= 3 raises UnresolvedFactor.

    Over Q(sqrt d) the candidates are the roots of the norm
    N(p) = p * conj(p), which lies in Q[t] (Trager, "Algebraic factoring and
    rational function integration", SYMSAC 1976), and the multiplicity of
    each candidate r in p is the number of leading zero coefficients of
    p(t + r).  A root of N(p) in another field Q(sqrt e) is fixed by the
    conjugation of Q(sqrt d, sqrt e) over Q(sqrt e), so it is a root of p as
    well; it has no representation over Q(sqrt d), and its rational
    quadratic factor raises UnresolvedFactor.
    """
    if p.is_zero:
        raise ZeroPolynomial("zero polynomial has every point as a root")
    d = next((c.d for c in p.coeffs if isinstance(c, QuadraticNumber) and c.y), None)
    if d is None:
        return _rational_roots(p)
    roots = []
    for r in sorted(set(_rational_roots(p * p.map_coeffs(conjugate_scalar))), key=scalar_sort_key):
        if isinstance(r, QuadraticNumber) and r.d != d:
            raise UnresolvedFactor(Polynomial((r.norm(), -2 * r.a, 1)))
        shifted = p.shift(r).coeffs
        roots.extend([r] * next(k for k, c in enumerate(shifted) if c))
    return roots


def _rational_roots(p):
    """roots_in_quadratic_closure for a polynomial with rational coefficients, on its primitive integer row."""
    (row,), _ = integer_rows([p.map_coeffs(collapse)])
    roots = []
    for f, mult in zsquarefree(zprimitive(row)):
        found, rest = _rational_roots_squarefree(f)
        roots.extend(found * mult)
        # rest has no rational root: it is [1] or a product of integer quadratics
        while len(rest) > 1:
            (C, B, A), rest = _integer_quadratic_factor(rest) if len(rest) > 3 else (rest, [1])
            half = quadratic_sqrt(Fraction(B * B - 4 * A * C))
            roots.extend([collapse((-B + half) / (2 * A)), collapse((-B - half) / (2 * A))] * mult)
    return sorted(roots, key=scalar_sort_key)


def _rational_roots_squarefree(f):
    """(roots, rest): the rational roots of a squarefree primitive integer list f, ascending, and f over their factors.

    A candidate n/d (n | f(0), d | lead f) is a root when the homogeneous
    sum_k f_k n^k d^(deg f - k) vanishes; its factor d t - n is primitive.
    """
    roots = []
    if not f[0]:
        roots.append(Fraction(0))
        f = f[1:]
    for r in sorted({Fraction(n, d) for n in _signed_divisors(f[0]) for d in divisors(f[-1])}):
        n, d = r.numerator, r.denominator
        value, dk = 0, 1
        for c in reversed(f):
            value, dk = value * n + c * dk, dk * d
        if not value:
            roots.append(r)
            f = zquo(f, [-n, d])
    return sorted(roots), f


def _signed_divisors(n):
    return [s * v for v in divisors(n) for s in (1, -1)]


def _integer_quadratic_factor(f):
    """(q, f / q) for a quadratic factor q = [c, b, a], a > 0, of a squarefree primitive integer list f.

    f has no rational root, so f(0), f(1) and f(-1) are nonzero.  By Gauss's
    lemma q can be taken integral, and then a | lead(f), c | f(0),
    a + b + c | f(1) and a - b + c | f(-1): finitely many candidates
    (Kronecker's method), each tried by zquo.  Without one, f has an
    irreducible factor of degree >= 3 and raises UnresolvedFactor.
    """
    at_one, at_minus_one = sum(f), sum(c if k % 2 == 0 else -c for k, c in enumerate(f))
    for a in divisors(f[-1]):
        for c in _signed_divisors(f[0]):
            for v in _signed_divisors(at_one):
                b = v - a - c
                w = a - b + c
                if w and at_minus_one % w == 0:
                    try:
                        return [c, b, a], zquo(f, [c, b, a])
                    except InexactDivision:
                        pass
    raise UnresolvedFactor(Polynomial(f))


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
        order = len(cs) - 1 if order is None else _exact_int(order, InvalidTruncation, "the truncation order")
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


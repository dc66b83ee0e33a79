"""Coordinate and gauge transformations of Fuchsian operators.

Pulling back along t = phi(s) rewrites d/dt as (1/phi')*d/ds; conjugating by
prod (t - a_i)^(eps_i) rewrites it as d/dt - sum eps_i/(t - a_i), shifting the
exponents (infinity absorbs -sum(eps_i)).  Both expand sum_k c_k * X^k,
X = (alpha*D + gamma)/beta, over one common denominator without a gcd
(_expand, on coefficient lists), and hand the derivative form to the strong
canonical form.  Translating a point to the origin Taylor-shifts the
derivative form instead (optheta.shifted_d_rows, the body of
optheta.translate) and hands it to the same form.

That form clears every scalar, so over Q the operator and the map or the
shift are scaled to integer lists by one common factor (integer_rows), which
leaves X as it is, and the form is taken on ints (canonical_from_rows).  An
operator, map or shift holding a QuadraticNumber keeps its scalars in the
lists, with beta monic, and the form is taken by canonical_from_d, whose
Euclid gcd and content clearing fix which coefficients with zero sqrt part
are QuadraticNumbers.  Each transform decides its field once (over_q); the
fork is that input scaling and that tail, and the expansion and the shift
are one body each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain

from .arith import (
    Immutable,
    Polynomial,
    QuadraticNumber,
    RationalFunction,
    _exact_int,
    as_scalar,
    collapse,
    format_polynomial,
    integer_rows,
    poly_gcd,
    roots_in_quadratic_closure,
    scalar_sort_key,
    scalar_to_json,
    zadd,
    zderiv,
    zmul,
    zscale,
)
from .errors import (
    DegenerateTransform,
    InvalidPower,
    NoCoupling,
    NonrationalYukawa,
    NotEven,
    UnresolvedFactor,
    ZeroOperator,
)
from .optheta import (
    INFINITY,
    SingularPoint,
    ThetaOperator,
    as_point,
    canonical_from_d,
    canonical_from_rows,
    d_from_theta,
    d_from_theta_rows,
    over_q,
    shifted_d_rows,
)

# ---------------------------------------------------------------------------
# coordinate maps


class MobiusMap(Immutable):
    """Invertible coordinate change t = (a*s + b)/(c*s + d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (collapse(as_scalar(x)) for x in (a, b, c, d))
        if not a * d - b * c:
            raise DegenerateTransform("coefficient matrix is singular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, h):
        """t = s + h."""
        return cls(1, h, 0, 1)

    @classmethod
    def scaling(cls, c):
        """t = c*s."""
        return cls(c, 0, 0, 1)

    @classmethod
    def inversion(cls):
        """t = 1/s."""
        return cls(0, 1, 1, 0)

    def inverse(self):
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        """The map s -> self(other(s))."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def as_rational_function(self):
        return RationalFunction(Polynomial((self.b, self.a)), Polynomial((self.d, self.c)))

    def __call__(self, point):
        """Image of a point of the projective line."""
        point = as_point(point)
        if point.is_infinite:
            if not self.c:
                return INFINITY
            return SingularPoint(self.a / self.c)
        den = self.c * point.value + self.d
        if not den:
            return INFINITY
        return SingularPoint((self.a * point.value + self.b) / den)

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        # equal as projective maps
        return (
            self.a * other.b == self.b * other.a
            and self.a * other.c == self.c * other.a
            and self.a * other.d == self.d * other.a
            and self.b * other.c == self.c * other.b
            and self.b * other.d == self.d * other.b
            and self.c * other.d == self.d * other.c
        )

    def __hash__(self):
        raise TypeError("unhashable type: MobiusMap")

    def __repr__(self):
        num = format_polynomial(Polynomial((self.b, self.a)), "s")
        if not self.c:
            if self.d == 1:
                return num
            return "(%s)/%s" % (num, self.d)
        return "(%s)/(%s)" % (num, format_polynomial(Polynomial((self.d, self.c)), "s"))


class ShiftAssignment(Immutable):
    """Finite-point exponent shifts a -> eps; infinity absorbs -sum(eps)."""

    __slots__ = ("items",)

    def __init__(self, items):
        pairs = items.items() if isinstance(items, dict) else items
        norm = []
        for a, eps in pairs:
            if isinstance(a, SingularPoint):
                if a.is_infinite:
                    raise DegenerateTransform("the shift at infinity is implied")
                a = a.value
            norm.append((collapse(as_scalar(a)), as_scalar(eps)))
        object.__setattr__(self, "items", tuple(norm))

    def __repr__(self):
        return "ShiftAssignment(%s)" % (", ".join("%s: %s" % it for it in self.items),)


# ---------------------------------------------------------------------------
# pullback engine


def _expand(coeffs, alpha, beta, gamma):
    """Derivative-form rows of sum_k coeffs[k] * X^k, X = (alpha*D + gamma)/beta, times beta^(2n).

    X^k = sum_j N[k][j]/beta^(2k) * D^j with polynomial rows, since X applied
    to N/beta^e * D^j is (alpha*(N'*beta - e*N*beta') + gamma*N*beta)/beta^(e+2)
    * D^j + alpha*N*beta/beta^(e+2) * D^(j+1).  The cleared coefficients
    sum_k coeffs[k]*N[k][j]*beta^(2(n-k)) accumulate by Horner's rule in beta^2.
    On lists of ints or field scalars: one step per Polynomial step, in order.
    """
    if not coeffs:
        raise ZeroOperator("transform produced the zero operator")
    dbeta, beta2, gamma_beta = zderiv(beta), zmul(beta, beta), zmul(gamma, beta)
    row = [[1]]
    acc = [coeffs[0]]
    for k in range(1, len(coeffs)):
        e = 2 * (k - 1)
        # pairs (N[k-1][j-1], N[k-1][j]) for j = 0..k, zero outside the row
        pad = [[]] + row + [[]]
        row = [
            zadd(zmul(alpha, zadd(zadd(zmul(zderiv(n), beta), zscale(zmul(n, dbeta), -e)), zmul(m, beta))), zmul(gamma_beta, n))
            for m, n in zip(pad, pad[1:])
        ]
        acc = [zadd(zmul(a, beta2), zmul(coeffs[k], r)) for a, r in zip(acc + [[]], row)]
    return acc


def pullback_rational(op, phi):
    """Operator annihilating y(phi(s)) for every solution y(t) of op.

    With phi = P/Q: D_t = Q^2/W * D_s for W = P'Q - PQ', and each c(P/Q) is
    Q^-deg times the homogenised sum_i c_i P^i Q^(deg - i).  Over Q, P, Q and
    the operator are scaled to integers by one common factor, which leaves
    P/Q, Q^2/W and the canonical form as they are; over Q(sqrt d) W is made monic.
    """
    if isinstance(phi, MobiusMap):
        phi = phi.as_rational_function()
    if isinstance(phi, Polynomial):
        phi = RationalFunction(phi)
    polys = (phi.num, phi.den, *op.theta_coeffs)
    rational = over_q(op, chain(phi.num, phi.den))
    p, q, *rows = integer_rows(polys)[0] if rational else [c.coeffs for c in polys]
    w = zadd(zmul(zderiv(p), q), zscale(zmul(p, zderiv(q)), -1))
    if not w:
        raise DegenerateTransform("constant substitution")
    dcoeffs = d_from_theta_rows(rows)
    top = max(map(len, dcoeffs), default=1) - 1
    ppow, qpow = [[1]], [[1]]
    for _ in range(top):
        ppow.append(zmul(ppow[-1], p))
        qpow.append(zmul(qpow[-1], q))
    homog = [zmul(ppow[i], qpow[top - i]) for i in range(top + 1)]
    coeffs = [reduce(zadd, (zscale(h, ci) for h, ci in zip(homog, c) if ci), []) for c in dcoeffs]
    if rational:
        return canonical_from_rows(_expand(coeffs, zmul(q, q), w, []))
    inv = 1 / w[-1]
    return canonical_from_d(list(map(Polynomial, _expand(coeffs, zscale(zmul(q, q), inv), zscale(w, inv), []))))


def mobius(op, m):
    """Pull back along the coordinate change t = m(s)."""
    if not isinstance(m, MobiusMap):
        m = MobiusMap(*m)
    return pullback_rational(op, m)


def translate_to_origin(op, a):
    """Substitute t = s + a, moving the point a to 0, in strong canonical form: the Taylor shift of optheta.translate."""
    rows, rational = shifted_d_rows(op, collapse(as_scalar(a)))
    return canonical_from_rows(rows) if rational else canonical_from_d(rows)


def negate_variable(op):
    """Substitute t -> -t; theta is invariant, t^i picks up (-1)^i."""
    return ThetaOperator([-p if i % 2 else p for i, p in enumerate(op.theta_coeffs)])


def pullback_power(op, n):
    """Operator annihilating y(s^n): substitute t = s^n, so theta_t = theta_s/n."""
    if _exact_int(n, InvalidPower, "the power") < 1:
        raise DegenerateTransform("power must be at least 1, got %r" % (n,))
    scale = Polynomial((0, Fraction(1, n)))
    polys = []
    for i, p in enumerate(op.theta_coeffs):
        while len(polys) < n * i:
            polys.append(Polynomial(()))
        polys.append(p.compose(scale))
    return ThetaOperator.from_theta_polys(polys)


def descend_power(op, n):
    """Inverse of pullback_power on operators with all t-powers divisible by n."""
    if _exact_int(n, InvalidPower, "the power") < 1:
        raise DegenerateTransform("power must be at least 1, got %r" % (n,))
    base = op.normalized()
    stretch = Polynomial((0, n))
    polys = []
    for i, p in enumerate(base.theta_coeffs):
        if i % n:
            if not p.is_zero:
                raise NotEven("t-power %d is not a multiple of %d" % (i, n))
            continue
        polys.append(p.compose(stretch))
    return ThetaOperator.from_theta_polys(polys)


def descend_quadratic(op):
    """Write an even operator as an operator in u = t^2."""
    return descend_power(op, 2)


def shift_exponents(op, shifts):
    """Conjugate by prod (t - a)^eps, shifting the local exponents at each a by eps.

    D becomes D - sum eps/(t - a) = (L*D + G)/L with L = prod (t - a) and
    G = -sum eps * L/(t - a).  Over Q, L, G and the operator are scaled to
    integers by one common factor (integer_rows), which leaves X = (L*D + G)/L
    and the canonical form as they are.
    """
    if not isinstance(shifts, ShiftAssignment):
        shifts = ShiftAssignment(shifts)
    lines = [[-a, Fraction(1)] for a, _eps in shifts.items]
    ell = reduce(zmul, lines, [Fraction(1)])
    gauge = []
    for i, (_a, eps) in enumerate(shifts.items):
        gauge = zadd(gauge, zscale(reduce(zmul, lines[:i] + lines[i + 1:], [Fraction(1)]), -eps))
    polys = (ell, gauge, *(p.coeffs for p in op.theta_coeffs))
    rational = over_q(op, chain(*shifts.items))
    ell, gauge, *rows = integer_rows(polys)[0] if rational else polys
    rows = _expand(d_from_theta_rows(rows), ell, ell, gauge)
    return canonical_from_rows(rows) if rational else canonical_from_d(list(map(Polynomial, rows)))


# ---------------------------------------------------------------------------
# coupling normal form


class YukawaData(Immutable):
    """Multiplicative normal form prod (t - a)^e read off the subleading ratio."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def zeros(self):
        """Finite points with positive exponent; candidate apparent singularities."""
        return [a for a, e in self.factors if e > 0]

    def exponent(self, a):
        a = collapse(as_scalar(a))
        for b, e in self.factors:
            if b == a:
                return e
        return Fraction(0)

    def to_json(self):
        return [
            {"point": scalar_to_json(a), "exponent": scalar_to_json(e)}
            for a, e in self.factors
        ]

    def __eq__(self, other):
        if not isinstance(other, YukawaData):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "1"
        parts = []
        for a, e in self.factors:
            sign = "-" if scalar_sort_key(a) >= (0, 0) else "+"
            mag = a if scalar_sort_key(a) >= (0, 0) else -a
            parts.append("(t %s %s)^(%s)" % (sign, mag, e))
        return " * ".join(parts)


def yukawa(op):
    """Factor the coupling as prod (t - a)^(-res_a/2) from c_(n-1)/c_n."""
    dop = d_from_theta(op.t_stripped())
    n = dop.order
    if n < 1:
        raise NoCoupling("order-zero operator has no coupling")
    ratio = RationalFunction(dop.d_coeffs[n - 1], dop.d_coeffs[n])
    if ratio.is_zero:
        return YukawaData(())
    if ratio.num.degree >= ratio.den.degree:
        raise NonrationalYukawa("subleading ratio does not vanish at infinity")
    den = ratio.den
    dden = den.derivative()
    if poly_gcd(den, dden).degree > 0:
        raise NonrationalYukawa("higher-order pole in the subleading ratio")
    try:
        poles = roots_in_quadratic_closure(den)
    except UnresolvedFactor as exc:
        raise NonrationalYukawa("pole location outside the supported fields") from exc
    factors = []
    for a in poles:
        res = collapse(ratio.num(a) / dden(a))
        if isinstance(res, QuadraticNumber):
            raise NonrationalYukawa("irrational residue at %s" % (a,))
        e = -res / 2
        if e:
            factors.append((a, e))
    factors.sort(key=lambda ae: scalar_sort_key(ae[0]))
    return YukawaData(tuple(factors))

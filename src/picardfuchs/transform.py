"""Coordinate and gauge transformations of Fuchsian operators.

Pulling back along t = phi(s) rewrites d/dt as (1/phi')*d/ds and substitutes
phi into the coefficients; denominators are then cleared and the result is
returned in strong canonical form, since an annihilating operator is only
defined up to left multiplication by a rational function.  Exponent shifts
conjugate by f = prod (t - a_i)^(eps_i), which replaces d/dt by
d/dt - sum eps_i/(t - a_i); the point at infinity absorbs -sum(eps_i).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (
    Polynomial,
    QuadraticNumber,
    RationalFunction,
    as_scalar,
    collapse,
    format_polynomial,
    poly_compose_rational,
    poly_gcd,
    roots_in_quadratic_closure,
    scalar_sort_key,
    scalar_to_json,
)
from .errors import NonrationalYukawa, NotEven, UnresolvedFactor
from .optheta import (
    INFINITY,
    DOperator,
    SingularPoint,
    ThetaOperator,
    d_from_theta,
    theta_from_d,
    translate,
)

_ONE = RationalFunction(Polynomial((1,)))


# ---------------------------------------------------------------------------
# coordinate maps


class MobiusMap:
    """Invertible coordinate change t = (a*s + b)/(c*s + d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (collapse(as_scalar(x)) for x in (a, b, c, d))
        if not a * d - b * c:
            raise ValueError("coefficient matrix is singular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("MobiusMap is immutable")

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
    def negation(cls):
        """t = -s."""
        return cls(-1, 0, 0, 1)

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
        if not isinstance(point, SingularPoint):
            point = SingularPoint(point)
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


class ShiftAssignment:
    """Finite-point exponent shifts a -> eps; infinity absorbs -sum(eps)."""

    __slots__ = ("items",)

    def __init__(self, items):
        pairs = items.items() if isinstance(items, dict) else items
        norm = []
        for a, eps in pairs:
            if isinstance(a, SingularPoint):
                assert not a.is_infinite, "the shift at infinity is implied"
                a = a.value
            norm.append((collapse(as_scalar(a)), as_scalar(eps)))
        object.__setattr__(self, "items", tuple(norm))

    def __setattr__(self, *args):
        raise AttributeError("ShiftAssignment is immutable")

    def total(self):
        return sum((eps for _a, eps in self.items), Fraction(0))

    def gauge_term(self):
        """-sum eps/(t - a), the correction to d/dt under conjugation."""
        g = RationalFunction(Polynomial(()))
        for a, eps in self.items:
            g = g - RationalFunction(Polynomial((eps,)), Polynomial((-a, 1)))
        return g

    def __repr__(self):
        return "ShiftAssignment(%s)" % (", ".join("%s: %s" % it for it in self.items),)


# ---------------------------------------------------------------------------
# pullback engine


def _clear_to_theta(coeffs):
    """Canonical theta-form operator from rational-function d-coefficients."""
    coeffs = {j: r for j, r in coeffs.items() if isinstance(r, RationalFunction) and not r.is_zero}
    assert coeffs, "transform produced the zero operator"
    lcm = Polynomial((1,))
    for r in coeffs.values():
        g = poly_gcd(lcm, r.den)
        lcm = lcm * (r.den / g)
    out = [Polynomial(())] * (max(coeffs) + 1)
    for j, r in coeffs.items():
        out[j] = r.num * (lcm / r.den)
    return theta_from_d(DOperator(out)).normalized()


def pullback_rational(op, phi):
    """Operator annihilating y(phi(s)) for every solution y(t) of op."""
    if isinstance(phi, MobiusMap):
        phi = phi.as_rational_function()
    if isinstance(phi, Polynomial):
        phi = RationalFunction(phi)
    dphi = phi.derivative()
    assert not dphi.is_zero, "constant substitution"
    inv = _ONE / dphi
    dop = d_from_theta(op)
    # D_t^k = sum_j rows[k][j](s) D_s^j, from D_t = (1/phi') D_s
    rows = [{0: _ONE}]
    for _k in range(dop.order):
        nxt = {}
        for j, r in rows[-1].items():
            nxt[j] = nxt.get(j, 0) + r.derivative()
            nxt[j + 1] = nxt.get(j + 1, 0) + r
        rows.append({j: inv * r for j, r in nxt.items()})
    coeffs = {}
    for k, c in enumerate(dop.d_coeffs):
        if c.is_zero:
            continue
        sub = poly_compose_rational(c, phi)
        for j, r in rows[k].items():
            coeffs[j] = coeffs.get(j, 0) + sub * r
    return _clear_to_theta(coeffs)


def mobius(op, m):
    """Pull back along the coordinate change t = m(s)."""
    if not isinstance(m, MobiusMap):
        m = MobiusMap(*m)
    return pullback_rational(op, m.as_rational_function())


def translate_to_origin(op, a):
    """Substitute t = s + a, moving the point a to 0, in strong canonical form."""
    return translate(op, collapse(a)).normalized()


def negate_variable(op):
    """Substitute t -> -t; theta is invariant, t^i picks up (-1)^i."""
    return ThetaOperator([-p if i % 2 else p for i, p in enumerate(op.theta_coeffs)])


def is_even(op):
    """True when the operator is invariant under t -> -t up to canonical form."""
    return negate_variable(op).normalized() == op.normalized()


def pullback_power(op, n):
    """Operator annihilating y(s^n): substitute t = s^n, so theta_t = theta_s/n."""
    assert n >= 1
    scale = Polynomial((0, Fraction(1, n)))
    polys = []
    for i, p in enumerate(op.theta_coeffs):
        while len(polys) < n * i:
            polys.append(Polynomial(()))
        polys.append(p.compose(scale))
    return ThetaOperator.from_theta_polys(polys)


def descend_power(op, n):
    """Inverse of pullback_power on operators with all t-powers divisible by n."""
    assert n >= 1
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
    """Conjugate by prod (t - a)^eps, shifting the local exponents at each a by eps."""
    if not isinstance(shifts, ShiftAssignment):
        shifts = ShiftAssignment(shifts)
    g = shifts.gauge_term()
    dop = d_from_theta(op)
    # (D + g)^k = sum_j rows[k][j](t) D^j
    rows = [{0: _ONE}]
    for _k in range(dop.order):
        nxt = {}
        for j, r in rows[-1].items():
            nxt[j] = nxt.get(j, 0) + r.derivative() + g * r
            nxt[j + 1] = nxt.get(j + 1, 0) + r
        rows.append(nxt)
    coeffs = {}
    for k, c in enumerate(dop.d_coeffs):
        if c.is_zero:
            continue
        lifted = RationalFunction.from_poly(c)
        for j, r in rows[k].items():
            coeffs[j] = coeffs.get(j, 0) + lifted * r
    return _clear_to_theta(coeffs)


# ---------------------------------------------------------------------------
# coupling normal form


class YukawaData:
    """Multiplicative normal form prod (t - a)^e read off the subleading ratio."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def __setattr__(self, *args):
        raise AttributeError("YukawaData is immutable")

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
    assert n >= 1, "order-zero operator has no coupling"
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
        res = ratio.num(a) / dden(a)
        if isinstance(res, QuadraticNumber):
            res = collapse(res)
        if isinstance(res, QuadraticNumber):
            raise NonrationalYukawa("irrational residue at %s" % (a,))
        e = -res / 2
        if e:
            factors.append((a, e))
    factors.sort(key=lambda ae: scalar_sort_key(ae[0]))
    return YukawaData(tuple(factors))

"""Exact period expansion over a vanishing tetrahedron.

The affine model is u^2 = x y z (t - x - y - z) P(x, y, z, t) with
P(0,0,0,0) != 0.  Substituting (x, y, z) -> (t x, t y, t z) collapses the
tetrahedron and the period becomes pi^2 t (A_0 + A_1 t + ...), where the A_i
come from expanding [P(tx, ty, tz, t)/P(0,0,0,0)]^(-1/2) in powers of t and
integrating each trivariate monomial against the square-root weight over the
unit simplex.  Everything is exact; when P(0,0,0,0) is not a rational square
the leftover 1/sqrt factor rides along as a global quadratic unit and the
condition is recorded on the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import (
    PowerSeries,
    QuadraticNumber,
    as_scalar,
    collapse,
    quadratic_sqrt,
    scalar_to_json,
)
from .errors import InvalidTetraForm, VanishingConstantTerm
from .optheta import apply_to_series


@lru_cache(maxsize=None)
def simplex_monomial_integral(a, b, c):
    """(1/pi^2) * integral over the unit simplex of x^(a-1/2) y^(b-1/2) z^(c-1/2) (1-x-y-z)^(-1/2)."""
    assert a >= 0 and b >= 0 and c >= 0
    num = math.factorial(2 * a) * math.factorial(2 * b) * math.factorial(2 * c)
    den = (
        4 ** (a + b + c)
        * math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        * math.factorial(a + b + c + 1)
    )
    return Fraction(num, den)


class TetraForm:
    """Residual factor P of u^2 = xyz(t-x-y-z) P(x,y,z,t), with a truncation order.

    Terms map exponent keys (ex, ey, ez, et) to rational coefficients.
    """

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation=40):
        pairs = terms.items() if isinstance(terms, dict) else terms
        tidy = {}
        for key, cval in pairs:
            key = tuple(int(e) for e in key)
            if len(key) != 4 or min(key) < 0:
                raise InvalidTetraForm("term %s needs four nonnegative exponents (x, y, z, t)" % (key,))
            cval = Fraction(collapse(as_scalar(cval)))
            tidy[key] = tidy.get(key, Fraction(0)) + cval
        if truncation < 0:
            raise InvalidTetraForm("truncation must be nonnegative, got %d" % truncation)
        object.__setattr__(self, "terms", {k: v for k, v in tidy.items() if v})
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, *args):
        raise AttributeError("TetraForm is immutable")

    def constant_term(self):
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def evaluate(self, x, y, z, t):
        vals = (Fraction(x), Fraction(y), Fraction(z), Fraction(t))
        total = Fraction(0)
        for key, cval in self.terms.items():
            term = cval
            for v, e in zip(vals, key):
                term *= v**e
            total += term
        return total

    def scaled(self, c):
        c = Fraction(c)
        return TetraForm({k: v * c for k, v in self.terms.items()}, self.truncation)

    def with_truncation(self, n):
        return TetraForm(dict(self.terms), n)

    @classmethod
    def one(cls, truncation=40):
        return cls({(0, 0, 0, 0): 1}, truncation)

    @classmethod
    def from_planes(cls, planes, scale=1, truncation=40):
        """Product of affine-linear factors (c1, cx, cy, cz, ct) times a constant."""
        prod = {(0, 0, 0, 0): Fraction(scale)}
        basis = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for plane in planes:
            if len(plane) != 5:
                raise InvalidTetraForm("plane %s needs five coefficients (c1, cx, cy, cz, ct)" % (plane,))
            nxt = {}
            for key, cval in prod.items():
                for shift, pc in zip(basis, plane):
                    pc = Fraction(pc)
                    if not pc:
                        continue
                    nk = tuple(k + s for k, s in zip(key, shift))
                    nxt[nk] = nxt.get(nk, Fraction(0)) + cval * pc
            prod = nxt
        return cls(prod, truncation)

    def to_json(self):
        return {
            "P": {",".join(str(e) for e in k): str(v) for k, v in sorted(self.terms.items())},
            "truncation": self.truncation,
        }

    @classmethod
    def from_json(cls, data):
        terms = {}
        for key, val in data["P"].items():
            exps = tuple(int(p) for p in key.split(","))
            terms[exps] = Fraction(val)
        return cls(terms, int(data.get("truncation", 40)))

    def __repr__(self):
        return "TetraForm(%d terms, truncation=%d)" % (len(self.terms), self.truncation)


class PeriodSeries:
    """Coefficients A_0 .. A_N of Phi = pi^2 t unit (A_0 + A_1 t + ...).

    unit is 1 unless the leading value P(0,0,0,0) was not a rational square;
    then unit is the explicit quadratic 1/sqrt factor and the condition
    "NonSquareLeadingValue" is recorded.  Annihilation is blind to the unit,
    which is a global constant.
    """

    __slots__ = ("coeffs", "unit", "conditions")

    def __init__(self, coeffs, unit=Fraction(1), conditions=()):
        object.__setattr__(
            self, "coeffs", tuple(Fraction(collapse(as_scalar(c))) for c in coeffs)
        )
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "conditions", tuple(conditions))

    def __setattr__(self, *args):
        raise AttributeError("PeriodSeries is immutable")

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def scaled_coefficient(self, i):
        """The literal series coefficient unit * A_i."""
        return collapse(as_scalar(self.unit * self.coeffs[i]))

    def as_power_series(self):
        return PowerSeries(self.coeffs, self.truncation)

    def to_json(self):
        out = {"A": [str(c) for c in self.coeffs]}
        if self.unit != 1:
            out["unit"] = scalar_to_json(self.unit)
        if self.conditions:
            out["conditions"] = list(self.conditions)
        return out

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return "PeriodSeries([%s, ...], N=%d)" % (head, self.truncation)


def conifold_expand(f):
    """PeriodSeries of the tetra form f, exact through its truncation order."""
    lead = f.constant_term()
    if not lead:
        raise VanishingConstantTerm("P(0,0,0,0) = 0; the expansion point is not admissible")
    N = f.truncation
    # t-graded pieces of P(tx,ty,tz,t)/P0 - 1; grade = total degree
    pieces = {}
    for (ex, ey, ez, et), cval in f.terms.items():
        j = ex + ey + ez + et
        if j == 0 or j > N:
            continue
        d = pieces.setdefault(j, {})
        key = (ex, ey, ez)
        d[key] = d.get(key, Fraction(0)) + cval / lead
    grades = sorted(pieces)
    # r = (1 + u)^e, e = -1/2, degree by degree: r' (1 + u) = e u' r gives
    # m r_m = sum_j ((e + 1) j - m) u_j r_(m-j), with trivariate polynomials as coefficients
    e = Fraction(-1, 2)
    r = [{(0, 0, 0): Fraction(1)}]
    for m in range(1, N + 1):
        acc = {}
        for j in grades:
            if j > m:
                break
            w = (e + 1) * j - m
            if not w:
                continue
            prev = r[m - j]
            for (ax, ay, az), ucoef in pieces[j].items():
                scaled = w * ucoef
                for (bx, by, bz), rcoef in prev.items():
                    key = (ax + bx, ay + by, az + bz)
                    acc[key] = acc.get(key, Fraction(0)) + scaled * rcoef
        r.append({k: v / m for k, v in acc.items() if v})
    raw = []
    for m in range(N + 1):
        total = Fraction(0)
        for (a, b, c), coef in r[m].items():
            total += coef * simplex_monomial_integral(a, b, c)
        raw.append(total)
    root = quadratic_sqrt(lead)
    if isinstance(root, QuadraticNumber):
        return PeriodSeries(raw, unit=1 / root, conditions=("NonSquareLeadingValue",))
    return PeriodSeries([v / root for v in raw])


def verify_annihilation(op, ps):
    """The t-order through which op annihilates pi^2 t sum A_i t^i.

    The prefactor pi^2 and the global unit are constants and drop out.  Full
    success is a return value of ps.truncation + 1 - op.r (every computable
    coefficient of the image vanishes).
    """
    y = PowerSeries((Fraction(0),) + ps.coeffs, ps.truncation + 1)
    image = apply_to_series(op.t_stripped(), y)
    for k, cval in enumerate(image.coeffs):
        if cval:
            return k - 1
    return image.order

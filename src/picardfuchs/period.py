"""Exact period expansion over a vanishing tetrahedron.

The affine model is u^2 = x y z (t - x - y - z) P(x, y, z, t) with
P(0,0,0,0) != 0.  Substituting (x, y, z) -> (t x, t y, t z) collapses the
tetrahedron and the period becomes pi^2 t (A_0 + A_1 t + ...), where the A_i
come from expanding [P(tx, ty, tz, t)/P(0,0,0,0)]^(-1/2) in powers of t and
integrating each trivariate monomial against the square-root weight over the
unit simplex.  Everything is exact; when P(0,0,0,0) is not a rational square
the leftover 1/sqrt factor rides along as an overall quadratic unit and the
condition is recorded on the result.

The expansion runs on integers.  Write P(tx,ty,tz,t)/P(0,0,0,0) = 1 + u with
u = sum_j u_j t^j, and let L be the lcm of the denominators of the u_j, so
U_j = L u_j is integral.  r = (1+u)^(-1/2) = sum_k (-1)^k binom(2k,k) u^k / 4^k,
and the t^m part of u^k has denominator dividing L^k with k <= m, so
R_m = (4L)^m r_m has integer coefficients.  The recurrence r' (1+u) = -u' r / 2
becomes

    m R_m = sum_j w_j U_j R_(m-j),  w_j = (j - 2m) 2^(2j-1) L^(j-1),

whose division by m is exact; a remainder raises InexactDivision.

R_m is kept as lines, one per (a, s) with s = a+b+c <= m, holding the
coefficients v_b of x^a y^b z^(s-a-b) packed into one int sum_b v_b 2^(K b)
(Kronecker substitution).  A term w_j U x^a' y^b' z^c' adds a line of R_(m-j)
times w_j U, shifted by b' slots, to the line (a + a', s + s') of m R_m: one
multiply, shift and add per line, not per coefficient.  A slot of m R_m is a
sum of such products, so |v| <= M = sum_j |w_j| (sum |U_j|) max |R_(m-j)|, and
with K >= bits(M) + 1 every slot is a balanced digit in [-2^(K-1), 2^(K-1)).
Balanced digits are unique, so adding 2^(K-1) to each slot and reading K-bit
digits recovers every coefficient exactly; a carry left past a line's last
slot breaks that bound and raises SlotOverflow.  R_m's lines are m R_m's over
m, kept for the last max(j) m and repacked only when bits(M) + 1 passes K.
The simplex integral of x^a y^b z^c is h(a) h(b) h(c) / (4^s (s+1)!) with
h(a) = (2a)!/a!, so A_m is one integer sum over the denominator
4^m (m+1)! (4L)^m, to which a line adds h(a) 4^(m-s) (m+1)!/(s+1)! times
sum_b v_b h(b) h(s-a-b): A_m is the only Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from operator import lshift, mul

from .arith import (
    Immutable,
    PowerSeries,
    QuadraticNumber,
    _exact_fraction,
    _exact_int,
    _exact_rational,
    as_scalar,
    integer_rows,
    quadratic_sqrt,
    scalar_to_json,
)
from .errors import InexactDivision, InexactScalar, InvalidPeriodSeries, InvalidTetraForm, NegativeExponent, SlotOverflow, VanishingConstantTerm
from .optheta import apply_to_series


def _half_factorials(n):
    """h(a) = (2a)!/a! for a = 0..n, by h(a) = 2 (2a - 1) h(a - 1)."""
    h = [1]
    for a in range(1, n + 1):
        h.append(h[-1] * (4 * a - 2))
    return h


@lru_cache(maxsize=None)
def simplex_monomial_integral(a, b, c):
    """(1/pi^2) * integral over the unit simplex of x^(a-1/2) y^(b-1/2) z^(c-1/2) (1-x-y-z)^(-1/2)."""
    if min(a, b, c) < 0:
        raise NegativeExponent("simplex integral needs nonnegative exponents, got %s" % ((a, b, c),))
    h = _half_factorials(max(a, b, c))
    s = a + b + c
    return Fraction(h[a] * h[b] * h[c], 4**s * math.factorial(s + 1))


def _tetra_rational(x, what):
    """_exact_rational for a tetra form: a string or another non-number raises InvalidTetraForm."""
    try:
        return _exact_rational(x, what)
    except TypeError:
        raise InvalidTetraForm("%s must be an exact scalar, got %r" % (what, x)) from None


class TetraForm(Immutable):
    """Residual factor P of u^2 = xyz(t-x-y-z) P(x,y,z,t), with a truncation order.

    Terms map exponent keys (ex, ey, ez, et) to rational coefficients.
    """

    __slots__ = ("terms", "truncation")

    def __init__(self, terms, truncation=40):
        pairs = terms.items() if isinstance(terms, dict) else terms
        tidy = {}
        for pair in pairs:
            try:
                key, cval = pair
                key = tuple(key)
            except (TypeError, ValueError):
                raise InvalidTetraForm("a term must pair a sequence of exponents with a coefficient, got %r" % (pair,)) from None
            key = tuple(_exact_int(e, InvalidTetraForm, "an exponent") for e in key)
            if len(key) != 4 or min(key) < 0:
                raise InvalidTetraForm("term %s needs four nonnegative exponents (x, y, z, t)" % (key,))
            tidy[key] = tidy.get(key, Fraction(0)) + _tetra_rational(cval, "a tetra-form coefficient")
        if _exact_int(truncation, InvalidTetraForm, "truncation") < 0:
            raise InvalidTetraForm("truncation must be nonnegative, got %d" % truncation)
        object.__setattr__(self, "terms", {k: v for k, v in tidy.items() if v})
        object.__setattr__(self, "truncation", truncation)

    def constant_term(self):
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def scaled(self, c):
        c = _tetra_rational(c, "a tetra-form scale")
        return TetraForm({k: v * c for k, v in self.terms.items()}, self.truncation)

    def with_truncation(self, n):
        return TetraForm(dict(self.terms), n)

    @classmethod
    def one(cls, truncation=40):
        return cls({(0, 0, 0, 0): 1}, truncation)

    @classmethod
    def from_planes(cls, planes, scale=1, truncation=40):
        """Product of affine-linear factors (c1, cx, cy, cz, ct) times a constant."""
        prod = {(0, 0, 0, 0): _tetra_rational(scale, "a tetra-form scale")}
        basis = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for plane in planes:
            if len(plane) != 5:
                raise InvalidTetraForm("plane %s needs five coefficients (c1, cx, cy, cz, ct)" % (plane,))
            plane = [_tetra_rational(pc, "a plane coefficient") for pc in plane]
            nxt = {}
            for key, cval in prod.items():
                for shift, pc in zip(basis, plane):
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
        P = data.get("P") if isinstance(data, dict) else None
        if not isinstance(P, dict):
            raise InvalidTetraForm("P must map exponent keys 'a,b,c,d' to coefficients, not a %s" % type(P).__name__)
        terms = {}
        for key, val in P.items():
            try:
                exps = tuple(int(p) for p in key.split(","))
            except ValueError:
                raise InvalidTetraForm("an exponent key must hold integers a,b,c,d, got %r" % key) from None
            if not isinstance(val, (str, int, float)):
                raise InvalidTetraForm("a coefficient must be a string or a number, got %r" % (val,))
            try:
                terms[exps] = _exact_fraction(val)
            except (ValueError, ZeroDivisionError) as exc:
                # a float raises InexactScalar; a string that reads as no fraction, a bare error
                bad = InvalidTetraForm("a coefficient string must be a rational number, got %r" % val)
                raise (exc if isinstance(exc, InexactScalar) else bad) from None
        return cls(terms, data.get("truncation", 40))

    def __repr__(self):
        return "TetraForm(%d terms, truncation=%d)" % (len(self.terms), self.truncation)


class PeriodSeries(Immutable):
    """Coefficients A_0 .. A_N of Phi = pi^2 t unit (A_0 + A_1 t + ...).

    unit is 1 unless the leading value P(0,0,0,0) was not a rational square;
    then unit is the explicit quadratic 1/sqrt factor and the condition
    "NonSquareLeadingValue" is recorded.  Annihilation is blind to the unit,
    which is an overall constant.
    """

    __slots__ = ("coeffs", "unit", "conditions")

    def __init__(self, coeffs, unit=Fraction(1), conditions=()):
        object.__setattr__(
            self, "coeffs", tuple(_exact_rational(c, "a period coefficient") for c in coeffs)
        )
        object.__setattr__(self, "unit", as_scalar(unit))
        object.__setattr__(self, "conditions", tuple(conditions))

    @property
    def truncation(self):
        return len(self.coeffs) - 1

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


def _slot_width(bound):
    """Bits per slot of a packed line whose coefficients lie in [-bound, bound]: bound's bits and a sign bit."""
    return bound.bit_length() + 1


# the rows share one packing width K, which jumps to _SLACK bits past the
# exact _slot_width only when that passes K: the rows still read are repacked
# every few steps, not at every step
_SLACK = 32


def conifold_expand(f):
    """PeriodSeries of the tetra form f, exact through its truncation order."""
    lead = f.constant_term()
    if not lead:
        raise VanishingConstantTerm("P(0,0,0,0) = 0; the expansion point is not admissible")
    N = f.truncation
    # line (a, s) of R_m sits at index a B + s, so the monomial x^a' y^b' z^c'
    # moves a line by a' B + s', s' = a' + b' + c', and its slots by b'
    B = N + 1
    pieces = {}
    for (ex, ey, ez, et), cval in f.terms.items():
        j = ex + ey + ez + et
        if 0 < j <= N:
            pieces.setdefault(j, []).append((ex * B + ex + ey + ez, ey, cval / lead))
    grades = sorted(pieces)
    rows, L = integer_rows([[u for _move, _b, u in pieces[j]] for j in grades])
    terms = {j: [(move, b, U) for (move, b, _u), U in zip(pieces[j], row)] for j, row in zip(grades, rows)}
    scale = {j: 2 ** (2 * j - 1) * L ** (j - 1) for j in grades}
    size = {j: scale[j] * sum(abs(U) for _move, _b, U in terms[j]) for j in grades}
    h = _half_factorials(N)
    pairs = [[h[b] * h[n - b] for b in range(n + 1)] for n in range(N + 1)]
    # R[m] lists (index, coefficients along b, the line packed at width K) of
    # the nonzero lines of R_m, for the last max(grades) m; top[m] is the
    # largest |coefficient| in R_m
    R, top, raw, K = {0: [(0, [1], 1)]}, [1], [Fraction(1)], 0
    for m in range(1, N + 1):
        used = [j for j in grades if j <= m]
        k = _slot_width(sum((2 * m - j) * size[j] * top[m - j] for j in used))
        if k > K:
            K = k + _SLACK
            R = {i: [(p, coeffs, sum(map(lshift, coeffs, range(0, K * len(coeffs), K)))) for p, coeffs, _x in kept] for i, kept in R.items()}
            # bias[n] adds 2^(K-1) to each of n slots, so that the slots of a
            # line plus its bias are its balanced digits plus 2^(K-1), each in [0, 2^K)
            mask, half = (1 << K) - 1, 1 << (K - 1)
            bias = list(accumulate((half << K * b for b in range(B)), initial=0))
        acc = [0] * (m * B + m + 1)
        for j in used:
            w = (j - 2 * m) * scale[j]
            for move, b, U in terms[j]:
                wu, off = w * U, b * K
                for p, _coeffs, x in R[m - j]:
                    acc[p + move] += wu * x << off
        # weight[s] = 4^(m-s) (m+1)!/(s+1)! puts every monomial over 4^m (m+1)!
        weight = [1] * (m + 1)
        for s in range(m - 1, -1, -1):
            weight[s] = weight[s + 1] * 4 * (s + 2)
        row, biggest, total = [], 0, 0
        for p in compress(range(len(acc)), acc):
            a, s = p // B, p % B
            x = acc[p] + bias[s - a + 1]
            coeffs = []
            for _b in range(s - a + 1):
                q, rem = divmod((x & mask) - half, m)
                if rem:
                    raise InexactDivision("the period recurrence left a remainder at t^%d" % m)
                coeffs.append(q)
                x >>= K
            if x:
                raise SlotOverflow("a packed line of the period recurrence carried past its last slot at t^%d" % m)
            # every slot divides by m, so the packed line does, slot by slot
            row.append((p, coeffs, acc[p] // m))
            biggest = max(biggest, max(coeffs), -min(coeffs))
            total += h[a] * weight[s] * sum(map(mul, coeffs, pairs[s - a]))
        R[m] = row
        R.pop(m - max(grades, default=0), None)
        top.append(biggest)
        raw.append(Fraction(total, 4**m * math.factorial(m + 1) * (4 * L) ** m))
    root = quadratic_sqrt(lead)
    if isinstance(root, QuadraticNumber):
        return PeriodSeries(raw, unit=1 / root, conditions=("NonSquareLeadingValue",))
    return PeriodSeries([v / root for v in raw])


def verify_annihilation(op, ps):
    """The t-order through which op annihilates pi^2 t sum A_i t^i.

    The prefactor pi^2 and the overall unit are constants and drop out.  Full
    success is a return value of ps.truncation + 1 - op.r (every computable
    coefficient of the image vanishes).
    """
    if not isinstance(ps, PeriodSeries):
        raise InvalidPeriodSeries("the annihilation check needs a PeriodSeries, got a %s" % type(ps).__name__)
    y = PowerSeries((Fraction(0),) + ps.coeffs, ps.truncation + 1)
    return apply_to_series(op.t_stripped(), y)

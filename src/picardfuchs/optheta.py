"""Fuchsian operator algebra in theta form and derivative form.

An operator is stored as the list of polynomials P_0 .. P_r with
P = sum_i t^i P_i(theta), theta = t*d/dt.  The derivative form
sum_j c_j(t) (d/dt)^j is derived on demand; both directions use
theta^k = sum_j S(k,j) t^j d^j (Stirling numbers of the second kind) and
t^j d^j = theta(theta-1)...(theta-j+1).

Exponents at 0 are the roots of P_0, exponents at infinity the roots of
P_r(-theta); a finite nonzero point is handled by a Taylor shift of the
derivative form.  Candidate singular points are 0, infinity, and the roots
of the top-degree profile l(t) = sum_i [theta^n] P_i t^i, which is the
derivative-form leading coefficient with its forced t^n factor removed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, repeat

from .arith import (
    Immutable,
    Polynomial,
    QuadraticNumber,
    _exact_flag,
    as_scalar,
    collapse,
    conjugate_scalar,
    format_polynomial,
    integer_polys,
    integer_rows,
    integer_shift,
    poly_gcd,
    roots_in_quadratic_closure,
    scalar_field,
    scalar_from_json,
    scalar_sign,
    scalar_sort_key,
    scalar_to_json,
    zgcd,
    zmul,
    zquo,
    ztrim,
)
from .errors import (
    IrrationalExponent,
    InvalidPoint,
    IrregularSingularity,
    NotASingularCandidate,
    OrderZeroOperator,
    TruncationTooLow,
    UnknownOperatorForm,
    UnresolvedFactor,
    ZeroPolynomial,
)

# ---------------------------------------------------------------------------
# points


class SingularPoint(Immutable):
    """A finite point (rational or quadratic irrational) or the point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        # value None encodes infinity; a float or a bool raises InexactScalar, a non-scalar InvalidPoint
        if value is not None:
            try:
                value = collapse(as_scalar(value))
            except TypeError:
                raise InvalidPoint("a point must be a SingularPoint or an exact scalar, got %r" % (value,)) from None
        object.__setattr__(self, "value", value)

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.value is None

    def conjugate(self):
        if self.is_infinite:
            return self
        return SingularPoint(conjugate_scalar(self.value))

    def sort_key(self):
        if self.is_infinite:
            return (1, Fraction(0), Fraction(0))
        return (0,) + scalar_sort_key(self.value)

    def __eq__(self, other):
        if not isinstance(other, SingularPoint):
            return NotImplemented
        return self.value == other.value or (self.is_infinite and other.is_infinite)

    def __hash__(self):
        return hash(("oo",)) if self.is_infinite else hash(self.value)

    def __repr__(self):
        return "oo" if self.is_infinite else str(self.value)

    def to_json(self):
        return "oo" if self.is_infinite else scalar_to_json(self.value)

    @classmethod
    def from_json(cls, v):
        if v == "oo":
            return cls.infinity()
        return cls(scalar_from_json(v))


INFINITY = SingularPoint.infinity()


def as_point(point):
    """point as a SingularPoint: anything else is read as SingularPoint(point), which types the errors."""
    return point if isinstance(point, SingularPoint) else SingularPoint(point)


# ---------------------------------------------------------------------------
# conversion tables


@lru_cache(maxsize=None)
def stirling2(k, j):
    if k == j:
        return 1
    if j <= 0 or j > k:
        return 0
    return stirling2(k - 1, j - 1) + j * stirling2(k - 1, j)


@lru_cache(maxsize=None)
def falling_factorial(j):
    """Integer coefficients of theta(theta-1)...(theta-j+1)."""
    out = [1]
    for i in range(j):
        out = zmul(out, [-i, 1])
    return tuple(out)


def _clear_content(polys):
    """Scale a list of polynomials to integer content 1 with positive leading data."""
    # any field tag found asks integer_rows for parts; none is checked here,
    # so MixedFields is raised where the fields meet, not on loading
    d = next((c.d for p in polys for c in p if type(c) is QuadraticNumber), None)
    rows, den = integer_rows(polys, d)
    parts = rows if d is None else [part for A, B, _tags in rows for part in (A, B)]
    g = math.gcd(*chain.from_iterable(parts))
    if not g:
        return list(polys)
    scale = Fraction(den, g)
    if scalar_sign(next(p.lead for p in polys if not p.is_zero)) < 0:
        scale = -scale
    return [p * scale for p in polys]


# ---------------------------------------------------------------------------
# operators


class ThetaOperator(Immutable):
    """P = sum_i t^i P_i(theta), dense in the t-power i."""

    __slots__ = ("theta_coeffs",)

    def __init__(self, theta_coeffs):
        polys = [p if isinstance(p, Polynomial) else Polynomial(p) for p in theta_coeffs]
        while len(polys) > 1 and polys[-1].is_zero:
            polys.pop()
        if not polys:
            polys = [Polynomial(())]
        object.__setattr__(self, "theta_coeffs", tuple(polys))

    @classmethod
    def from_theta_polys(cls, polys):
        """Public constructor: content-cleared, sign-normalized."""
        return cls(_clear_content([p if isinstance(p, Polynomial) else Polynomial(p) for p in polys]))

    @property
    def r(self):
        """t-degree."""
        return len(self.theta_coeffs) - 1

    @property
    def order(self):
        return max(p.degree for p in self.theta_coeffs)

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.theta_coeffs)

    def __eq__(self, other):
        if not isinstance(other, ThetaOperator):
            return NotImplemented
        return self.theta_coeffs == other.theta_coeffs

    def __hash__(self):
        return hash(self.theta_coeffs)

    def __add__(self, other):
        n = max(len(self.theta_coeffs), len(other.theta_coeffs))
        return ThetaOperator([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.theta_coeffs), len(other.theta_coeffs))
        return ThetaOperator([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return ThetaOperator([-p for p in self.theta_coeffs])

    def coeff(self, i):
        if 0 <= i < len(self.theta_coeffs):
            return self.theta_coeffs[i]
        return Polynomial(())

    def scale(self, c):
        return ThetaOperator([p * c for p in self.theta_coeffs])

    def cleared(self):
        return ThetaOperator(_clear_content(list(self.theta_coeffs)))

    def t_stripped(self):
        """Remove a common left factor t^k (zero leading theta polynomials)."""
        k = 0
        while k < len(self.theta_coeffs) - 1 and self.theta_coeffs[k].is_zero:
            k += 1
        return ThetaOperator(self.theta_coeffs[k:]) if k else self

    def map_coeffs(self, f):
        return ThetaOperator([p.map_coeffs(f) for p in self.theta_coeffs])

    def normalized(self):
        """Strong canonical form (see canonical_from_d), reusing the theta form when the gcd is trivial."""
        op = self.t_stripped()
        if over_q(op):
            rows = integer_rows(op.theta_coeffs)[0]
            return canonical_from_rows(d_from_theta_rows(rows), rows)
        return canonical_from_d(d_from_theta(op).d_coeffs, op)

    def to_json(self):
        return {
            "form": "theta",
            "coeffs": [[scalar_to_json(c) for c in p.coeffs] for p in self.theta_coeffs],
        }

    @classmethod
    def from_json(cls, data):
        coeffs = [Polynomial([scalar_from_json(c) for c in row]) for row in data["coeffs"]]
        form = data.get("form", "theta")
        if form == "theta":
            return cls.from_theta_polys(coeffs)
        if form == "d":
            return theta_from_d(DOperator(coeffs))
        raise UnknownOperatorForm("unknown operator form %r" % (form,))

    def __repr__(self):
        parts = []
        for i, p in enumerate(self.theta_coeffs):
            if p.is_zero:
                continue
            body = format_polynomial(p, "T")
            if i == 0:
                parts.append(body)
            else:
                ti = "t" if i == 1 else "t^%d" % i
                parts.append("%s*(%s)" % (ti, body))
        return " + ".join(parts) if parts else "0"


class DOperator(Immutable):
    """sum_j c_j(t) (d/dt)^j with polynomial coefficients."""

    __slots__ = ("d_coeffs",)

    def __init__(self, d_coeffs):
        polys = [p if isinstance(p, Polynomial) else Polynomial(p) for p in d_coeffs]
        while len(polys) > 1 and polys[-1].is_zero:
            polys.pop()
        object.__setattr__(self, "d_coeffs", tuple(polys))

    @property
    def order(self):
        return len(self.d_coeffs) - 1

    def to_json(self):
        return {
            "form": "d",
            "coeffs": [[scalar_to_json(c) for c in p.coeffs] for p in self.d_coeffs],
        }

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.d_coeffs):
            if c.is_zero:
                continue
            dj = "" if j == 0 else ("*D" if j == 1 else "*D^%d" % j)
            parts.append("(%s)%s" % (format_polynomial(c, "t"), dj))
        return " + ".join(parts) if parts else "0"


def operator_scalars(op):
    return (c for p in op.theta_coeffs for c in p.coeffs)


def over_q(op, scalars=()):
    """True when neither the operator nor `scalars` holds a QuadraticNumber: then the inputs are scaled to ints."""
    # Over Q(sqrt d) the coefficient lists keep their scalars, and the
    # canonical form keeps its Euclid gcd and content clearing on Polynomial
    # (canonical_from_d): those decide which coefficients with zero sqrt part
    # come out as QuadraticNumbers (4 of the 30 of the Q(sqrt -3) Mobius step
    # of the 266 chain), and the chain's recorded outputs fix those types.
    return scalar_field(chain(operator_scalars(op), scalars)) is None


def d_from_theta(op):
    """Derivative form of a theta-form operator (no normalization)."""
    return DOperator(d_from_theta_rows([p.coeffs for p in op.theta_coeffs]))


def theta_from_d(dop):
    """Theta form: multiply by t^n on the left, expand t^j d^j, strip common t-powers."""
    return ThetaOperator(list(map(Polynomial, theta_from_d_rows([c.coeffs for c in dop.d_coeffs])))).t_stripped().cleared()


def canonical_from_d(d_coeffs, theta=None):
    """Strong canonical form of the operator sum_j d_coeffs[j] (d/dt)^j: the entry for Q(sqrt d).

    The derivative-form coefficients are divided by their polynomial gcd,
    the quotient is converted to theta form once, a common left factor t^k
    is stripped, and the content is cleared: integer coefficients (both
    parts of a quadratic one) of content 1, and a positive leading
    coefficient in the first nonzero theta polynomial.  Operators that differ
    by a left factor f(t), any nonzero rational function, get the same form,
    so two canonical operators are compared with ==.  The catalog operators
    are canonical; mobius, pullback_rational, shift_exponents (which expand),
    translate_to_origin (which Taylor-shifts) and descend_power return this
    form, and negate_variable and pullback_power keep it.

    The form is thus free of scale: a transform may clear its denominators
    by any polynomial and skip every intermediate gcd, and the values equal
    those from reducing every intermediate rational function.  Over Q that
    makes the integer path exact, and every caller takes it (over_q decides):
    canonical_from_rows gets the coefficients with one common denominator
    dropped, divides them by their primitive gcd (arith.zgcd, a primitive
    remainder sequence), converts with integer falling factorials and clears on
    ints; Fractions are built only for the result.  Over Q(sqrt d) the
    transforms expand (or Taylor-shift) and convert holding the scalars
    themselves; this body is what is left of the fork: the gcd (Euclid over
    the field), the division by it and the content clearing, on Polynomial.
    Whether a coefficient with zero sqrt part is a Fraction or a
    QuadraticNumber follows the arithmetic that produced it; the form does
    not fix it.  Over Q the body gives the same values as
    canonical_from_rows, at Fraction cost.

    `theta`, when given, is the t-stripped theta form of the same operator;
    it is returned cleared when the gcd is trivial, so no conversion is made.
    """
    g = Polynomial(())
    for c in d_coeffs:
        g = poly_gcd(g, c)
    if g.degree > 0:
        d_coeffs = [c / g for c in d_coeffs]
    elif theta is not None:
        return theta.cleared()
    return theta_from_d(DOperator(d_coeffs))


def canonical_from_rows(d_rows, theta_rows=None):
    """canonical_from_d on integer rows: the coefficients times one common nonzero factor, likewise theta_rows."""
    g = []
    for c in d_rows:
        g = zgcd(g, c)
        if len(g) == 1:
            break
    if len(g) > 1:
        d_rows = [zquo(c, g) for c in d_rows]
    elif theta_rows is not None:
        return theta_from_rows(theta_rows)
    return theta_from_rows(theta_from_d_rows(d_rows))


def d_from_theta_rows(rows):
    """Derivative-form rows of theta rows (ints, or field scalars), by t^i theta^k = sum_j S(k, j) t^(i+j) (d/dt)^j.

    One Polynomial sum per nonzero term (_untrail), none for S(k, 0) = 0 when
    k > 0: the types of the term-by-term sum of Polynomials.
    """
    n = max(map(len, rows), default=0)
    out = [[0] * (len(rows) + n) for _ in range(n)]
    for i, p in enumerate(rows):
        for k, pk in enumerate(p):
            if pk:
                for j in range(min(k, 1), k + 1):
                    row = out[j]
                    row[i + j] += pk * stirling2(k, j)
                    if not row[i + j]:
                        _untrail(row)
    return [ztrim(row) for row in out]


def theta_from_d_rows(d_rows):
    """Theta rows of t^n * sum_j d_rows[j] (d/dt)^j, by t^j (d/dt)^j = theta(theta-1)...(theta-j+1).

    A nonzero coefficient adds its falling-factorial multiple, zero entries
    included; as j ascends each sum sets a new top, so none cancels there.
    """
    n = len(d_rows) - 1
    out = [[0] * (n + 1) for _ in range(max((len(c) + n - j for j, c in enumerate(d_rows)), default=0))]
    for j, c in enumerate(d_rows):
        ff = falling_factorial(j)
        for m, gamma in enumerate(c, n - j):
            if gamma:
                row = out[m]
                for k, f in enumerate(ff):
                    row[k] += f * gamma
    return [ztrim(row) for row in out]


def _untrail(row):
    """Reset a preallocated row's trailing zeros to int 0 after a sum cancelled, as Polynomial trims them (arith.zadd)."""
    k = len(row) - 1
    while k >= 0 and not row[k]:
        row[k] = 0
        k -= 1


def theta_from_rows(rows):
    """The ThetaOperator of integer theta rows, t-stripped, of content 1 and positive leading sign."""
    rows = rows[next((i for i, p in enumerate(rows) if p), len(rows)) :]
    g = math.gcd(*(c for p in rows for c in p))
    if g:
        rows = [[c // g for c in p] for p in rows] if rows[0][-1] > 0 else [[-c // g for c in p] for p in rows]
    return ThetaOperator([Polynomial([Fraction(c) for c in p]) for p in rows])


def jet_tables(Q, a, K):
    """Per Q_i, the jets E * P_i(a + k + eps) for k = 0 .. K, each in full as (A, B, tags).

    `Q` comes from integer_polys at a, and its ring is the table's: over Z
    (B None) B and tags are None; over Z[sqrt d] integer_shift fills every
    entry, at a + k, with the type tags of quadratic_taylor_shift.  Over Z
    entry 0 is integer_shift at a = u/q and entry k of C = Q_i is G(k + eps)
    for G(y) = C(u + qy), so entry k + 1 is entry k shifted by 1, with
    additions only (von zur Gathen & Gerhard, ISSAC 1997).
    """
    tables = []
    for poly in Q:
        table = [integer_shift(poly, a)]
        if poly[1] is None:
            _extend_by_shifts(table, K + 1)
        else:
            table += [integer_shift(poly, a + k) for k in range(1, K + 1)]
        tables.append(table)
    return tables


def _extend_by_shifts(table, length):
    """Extend an integer table to `length`, each new entry the last shifted by 1: Horner's loop at a = 1."""
    n = len(table[0][0]) - 1
    steps = [j for i in range(n) for j in range(n - 1, i - 1, -1)]
    while len(table) < length:
        c = list(table[-1][0])
        for j in steps:
            c[j] += c[j + 1]
        table.append((c, None, None))


def zero_jet(T, d):
    """The zero jet of length T, all untagged."""
    return ([0] * T, None, None) if d is None else ([0] * T, [0] * T, [False] * T)


def jet_sum(products, lcm, T, d):
    """sum x * c mod eps^T over the pairs (x, c) of an integer jet x and a jet c = (A, B, tags, den), times lcm.

    This is the one jet product: the Frobenius recurrence, its jet quotient
    over Z[sqrt d] and residual_rows call it.  x is read up to T, c has
    length T, lcm is a multiple of every den (1 for residual_order, whose
    table is cleared once), and the loop runs over the nonzero entries of
    c, the sparser factor.  A product position is tagged when one of its
    nonzero factors is: the scalar loop adds every product of two nonzero
    coefficients.
    """
    out = zero_jet(T, d)
    na, nb, nt = out
    for (xa, xb, xt), (ya, yb, yt, den) in products:
        f = lcm // den
        if d is None:
            for b, yv in enumerate(ya):
                if yv:
                    yv *= f
                    k = b
                    for xv in xa[: T - b]:
                        if xv:
                            na[k] += xv * yv
                        k += 1
            continue
        for b, qa, qb, qt in zip(range(T), ya, yb, yt):
            if not (qa or qb):
                continue
            qa *= f
            qb *= f
            dqb = d * qb
            k = b
            for pa, pb, pt in zip(xa[: T - b], xb, xt):
                if pa or pb:
                    na[k] += pa * qa + pb * dqb
                    nb[k] += pa * qb + pb * qa
                    if pt or qt:
                        nt[k] = True
                k += 1
    return out


def residual_order(op, alpha, table, upto):
    """The largest m <= upto through which a theta-form operator kills t^alpha * sum A[m][l] t^m log^l.

    Returns -1 when residual row 0 is nonzero, and raises TruncationTooLow
    for upto < 0, a truncation below the operator's t-degree.  As P(theta)
    t^(alpha+eps) = P(alpha+eps) t^(alpha+eps) and t^eps = sum_l eps^l
    log^l / l!, a row sum_l c_l log^l is the eps^(T-1) coefficient of
    x(eps) t^eps for the jet x with x[T-1-l] = c_l * l!, T the table width.
    Residual row m is then the eps^(T-1) coefficient of R_m(eps) t^eps, so
    it vanishes exactly when R_m does (residual_rows).  The table is cleared
    once, by one integer_rows call: every row is multiplied by the same den
    > 0, which scales each R_m alike, so the sums run at scale 1 over Z or
    Z[sqrt d] (see scalar_field).  This is the path of any series; the
    solutions of a basis are checked on their root's jets instead
    (frobenius.annihilation_order).
    """
    if upto < 0:
        raise TruncationTooLow("truncation %d below the operator's t-degree %d" % (upto + op.r, op.r))
    T = max((len(row) for row in table), default=1)
    d = scalar_field(chain([alpha], operator_scalars(op), (c for row in table for c in row)))
    Q = integer_polys(op.theta_coeffs, alpha, d)[0]
    P = jet_tables(Q, alpha, upto)
    jets = []
    for row in integer_rows(table, d)[0]:
        jet = zero_jet(T, d)
        for part, out in zip([row] if d is None else row[:2], jet):
            for l, c in enumerate(part):
                out[T - 1 - l] = c * math.factorial(l)
        jets.append(jet + (1,) if any(jet[0]) or (d is not None and any(jet[1])) else None)
    return next((m - 1 for m, v in enumerate(residual_rows(Q, P, jets, upto, T, d, repeat(1))) if v < T), upto)


def residual_rows(Q, P, jets, upto, T, d, scales):
    """Yield for m = 0 .. upto the eps-valuation of R_m = sum_i P_i(alpha+m-i+eps) x_(m-i) mod eps^T, T for zero.

    The one residual loop: P holds the jet_tables of Q at alpha, `jets` the
    x_m as (A, B, tags, den) of length T or None for zero, and each R_m is a
    jet_sum at the next of `scales`, a multiple of the dens of its terms.
    """
    live = [i for i in range(len(Q)) if Q[i][0]]
    for m, scale in zip(range(upto + 1), scales):
        terms = [(P[i][m - i], jets[m - i]) for i in live if 0 <= m - i < len(jets) and jets[m - i]]
        A, B, _tags = jet_sum(terms, scale, T, d)
        nonzero = A if B is None else [a or b for a, b in zip(A, B)]
        yield next(k for k, a in enumerate(nonzero) if a) if any(nonzero) else T


def apply_to_series(op, y):
    """residual_order on a power series: the largest m through which sum_i P_i(m - i) y_(m-i) vanishes.

    Full success is y.order - r, the truncation order of the image.
    """
    return residual_order(op, 0, [[c] for c in y.coeffs], y.order - op.r)


# ---------------------------------------------------------------------------
# variable changes needed for indicial analysis


def shifted_d_rows(op, a):
    """(rows, rational): op's derivative form at t + a, over Q integer rows times one common factor (integer_shift).

    Over Q(sqrt d) the rows are the Polynomials of the Taylor shift (Polynomial.shift) and rational is False.
    """
    if over_q(op, [a]):
        rows = d_from_theta_rows(integer_rows(op.theta_coeffs)[0])
        return [integer_shift(C, a)[0] for C in integer_polys(rows, a)[0]], True
    return [c.shift(a) for c in d_from_theta(op).d_coeffs], False


def translate(op, a):
    """Substitute t -> t + a, moving the point a to 0: the theta form of shifted_d_rows, unreduced."""
    rows, rational = shifted_d_rows(op, a)
    return theta_from_rows(theta_from_d_rows(rows)) if rational else theta_from_d(DOperator(rows))


def invert_variable(op):
    """Substitute t -> 1/s, swapping 0 and infinity: P'_j(theta) = P_{r-j}(-theta)."""
    neg = Polynomial((0, -1))
    polys = [p.compose(neg) for p in reversed(op.theta_coeffs)]
    return ThetaOperator(polys).t_stripped().cleared()


def local_operator(op, point):
    """The operator translated so that `point` sits at the origin."""
    point = as_point(point)
    loc = op.t_stripped()
    if point.is_infinite:
        return invert_variable(loc)
    if point.value != 0:
        return translate(loc, point.value)
    return loc


# ---------------------------------------------------------------------------
# singular points, indicial polynomials, Riemann symbols


def top_profile(op):
    """l(t) = sum_i [theta^n] P_i t^i; derivative-form leading coefficient is t^n l(t)."""
    op = op.t_stripped()
    n = op.order
    return Polynomial([p[n] for p in op.theta_coeffs])


def singular_points(op):
    """Candidate singular points: 0, infinity, and all roots of the top profile."""
    ell = top_profile(op)
    if ell.is_zero:
        raise ZeroPolynomial("operator without leading coefficient")
    pts = [SingularPoint(0), INFINITY]
    if ell.degree >= 1:
        for root in roots_in_quadratic_closure(ell):
            pt = SingularPoint(root)
            if pt not in pts:
                pts.append(pt)
    return sorted(pts, key=SingularPoint.sort_key)


def is_candidate(op, point):
    if point.is_infinite or point.value == 0:
        return True
    ell = top_profile(op)
    return ell(point.value) == 0


def indicial_polynomial(op, point):
    """The polynomial whose roots (with multiplicity) are the exponents at `point`."""
    point = as_point(point)
    if not is_candidate(op, point):
        raise NotASingularCandidate("%s is not 0, infinity, or a leading-coefficient root" % (point,))
    return local_indicial(local_operator(op, point), point)


def local_indicial(loc, point):
    """The indicial polynomial P_0 of a local operator, of degree its order.

    Below the order the point is an irregular singularity, where the
    Frobenius method finds fewer solutions than the order; an operator of
    order 0 has no nonzero solution at all.
    """
    if loc.order < 1:
        raise OrderZeroOperator("an operator of order 0 has no exponents and no local solutions")
    ind = loc.theta_coeffs[0]
    if ind.degree < loc.order:
        raise IrregularSingularity(
            "irregular singular point %s: indicial polynomial of degree %d below the order %d"
            % (point, ind.degree, loc.order)
        )
    return ind


def indicial_roots(ind):
    """Roots of an indicial polynomial over Q or Q(sqrt d) as [(root, multiplicity)], sorted ascending."""
    try:
        flat = roots_in_quadratic_closure(ind)
    except UnresolvedFactor as exc:
        raise IrrationalExponent(exc.factor) from exc
    if len(flat) != ind.degree:
        raise IrrationalExponent(ind)
    return [(root, len(list(run))) for root, run in groupby(flat)]


def exponents_at(op, point):
    """Sorted exponents at a candidate point, counted with multiplicity."""
    roots = indicial_roots(indicial_polynomial(op, point))
    return tuple(root for root, mult in roots for _ in range(mult))


class RiemannSymbol(Immutable):
    """Table of candidate points and their exponents.

    Entries are (SingularPoint, tuple of exponents sorted ascending, is_genuine).
    A point is non-genuine when its exponents are 0..n-1 and its local solutions
    carry no logarithm; such points are retained but suppressed by default.
    """

    __slots__ = ("entries", "order")

    def __init__(self, entries, order):
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "order", order)

    def genuine(self):
        return [e for e in self.entries if e[2]]

    def points(self, genuine_only=True):
        return [e[0] for e in (self.genuine() if genuine_only else self.entries)]

    def exponents(self, point):
        for p, exps, _g in self.entries:
            if p == point:
                return exps
        raise KeyError("no entry for point %s" % (point,))

    def table(self, genuine_only=True):
        """Content view: {point: exponent tuple}."""
        return {e[0]: e[1] for e in (self.genuine() if genuine_only else self.entries)}

    def mismatches(self, printed):
        """(wrong, extra) against a {point: exponents} mapping: its points whose column differs up to order, and genuine points it lacks."""
        mine = self.table()
        wrong = [p for p, x in printed.items() if mine.get(p) != tuple(sorted(x, key=scalar_sort_key))]
        return wrong, [p for p in mine if p not in printed]

    def same_table(self, other_table):
        """Compare genuine content with a {point: exponents} mapping, order-free."""
        return self.mismatches(other_table) == ([], [])

    def format(self, genuine_only=True):
        entries = self.genuine() if genuine_only else list(self.entries)
        if not entries:
            return "(no genuine singular points)"
        cols = []
        for p, exps, _g in entries:
            cols.append([str(p)] + [str(e) for e in exps])
        widths = [max(len(s) for s in col) for col in cols]
        lines = []
        for row in range(self.order + 1):
            cells = [col[row].rjust(w) for col, w in zip(cols, widths)]
            lines.append("  ".join(cells))
        sep = "-" * len(lines[0]) if lines else ""
        return "\n".join([lines[0], sep] + lines[1:])

    def to_json(self, genuine_only=True):
        entries = self.genuine() if genuine_only else list(self.entries)
        return [
            {"point": p.to_json(), "exponents": [scalar_to_json(e) for e in exps], "genuine": g}
            for p, exps, g in entries
        ]

    def fuchs_defect(self):
        """sum over candidate points of (sum of exponents - n(n-1)/2), exactly.

        Equals -n(n-1) for a Fuchsian operator; the check runs over every
        candidate point including regular-looking ones.  Over Q(sqrt d) a
        sqrt part left in the sum is kept, so it shows as a defect; fields are
        summed apart, and MixedFields means two fields each keep a sqrt part.
        """
        sums = {}  # field tag, None over Q -> sum of the exponents in that field
        for e in chain.from_iterable(exps for _p, exps, _g in self.entries):
            d = e.d if type(e) is QuadraticNumber else None
            sums[d] = sums.get(d, 0) + e
        half = Fraction(self.order * (self.order - 1), 2)
        return collapse(sum(map(collapse, sums.values()), -half * len(self.entries)))


def riemann_symbol(op, with_log_check=True):
    """Riemann symbol over all candidate points.

    The genuineness of a point whose exponents are exactly 0..n-1 depends on
    an exact logarithm check (Frobenius obstruction constants); pass
    with_log_check=False to skip it and flag such points non-genuine.
    """
    with_log_check = _exact_flag(with_log_check, "with_log_check")
    op = op.t_stripped()
    n = op.order
    trivial = tuple(Fraction(k) for k in range(n))
    entries = []
    for point in singular_points(op):
        exps = exponents_at(op, point)
        genuine = exps != trivial
        if not genuine and with_log_check:
            from .frobenius import local_basis

            genuine = local_basis(op, point).has_logarithms()
        entries.append((point, exps, genuine))
    return RiemannSymbol(entries, n)


def fuchs_defect(op):
    """RiemannSymbol.fuchs_defect of the operator's symbol."""
    return riemann_symbol(op, with_log_check=False).fuchs_defect()

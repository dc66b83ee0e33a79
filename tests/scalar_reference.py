"""Scalar arithmetic as the package once did it, kept as test-only references.

The package computes local bases and annihilation orders fraction-free over
Z and Z[sqrt d].  These are the loops it replaced, on Fraction and
QuadraticNumber scalars as they are: the same recurrence, whose output types
the integer engine must reproduce exactly, and the residual table of an
operator applied to a series, whose first nonzero row residual_order finds.

QuadraticNumber arithmetic runs on an integer kernel.  `quadratic_op` keeps
the Fraction-pair formulas it replaced, with the same coercion, type rule
and errors.  Polynomial.shift runs on integer rows and pairs; `taylor_shift`
keeps the Horner loop on scalars whose types those pairs' tags stand for.
"""

import math
from fractions import Fraction

from picardfuchs.arith import QuadraticNumber, _check_power, as_scalar, scalar_sort_key
from picardfuchs.errors import FrobeniusInvariant, MixedFields, TruncationTooLow
from picardfuchs.frobenius import (
    GeneralizedSeries,
    LocalBasis,
    _integer_difference,
    _partition_classes,
    default_truncation,
)
from picardfuchs.optheta import indicial_roots, local_indicial, local_operator

# ---------------------------------------------------------------------------
# QuadraticNumber arithmetic on Fraction pairs (a, b), a + b sqrt(d)


def _pair(x, d):
    if isinstance(x, QuadraticNumber):
        if x.d != d:
            raise MixedFields("mixed discriminants %d and %d" % (d, x.d))
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _pair_mul(x, y, d):
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pair_inverse(x, d):
    n = x[0] * x[0] - d * x[1] * x[1]
    if n == 0:
        raise ZeroDivisionError("zero quadratic number")
    return x[0] / n, -x[1] / n


def quadratic_op(op, x, y=None):
    """x op y for op in add, sub, mul, truediv, pow (y an exponent), neg, inverse (y unused).

    x or y is a QuadraticNumber; an int or a Fraction stands for a + 0 sqrt(d).
    The result is always a QuadraticNumber.
    """
    d = x.d if isinstance(x, QuadraticNumber) else y.d
    px = _pair(x, d)
    if op == "neg":
        r = -px[0], -px[1]
    elif op == "inverse":
        r = _pair_inverse(px, d)
    elif op == "pow":
        _check_power(y)
        r, e = (Fraction(1), Fraction(0)), y
        while e:
            if e & 1:
                r = _pair_mul(r, px, d)
            px = _pair_mul(px, px, d)
            e >>= 1
    else:
        py = _pair(y, d)
        if op == "add":
            r = px[0] + py[0], px[1] + py[1]
        elif op == "sub":
            r = px[0] - py[0], px[1] - py[1]
        elif op == "mul":
            r = _pair_mul(px, py, d)
        else:
            r = _pair_mul(px, _pair_inverse(py, d), d)
    return QuadraticNumber(r[0], r[1], d)


# ---------------------------------------------------------------------------
# Taylor shift on scalars


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
    zero 0.
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


# ---------------------------------------------------------------------------
# jet arithmetic in K[eps]/(eps^T): plain lists of scalars, fixed length T


def jet_mul(a, b):
    T = len(a)
    out = [as_scalar(0)] * T
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(T - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def jet_add(a, b):
    return [x + y for x, y in zip(a, b)]


def jet_scale(a, c):
    return [x * c for x in a]


def jet_eval_poly(p, x, T):
    """p(x + eps) as a jet of length T, padded with Fraction(0) when deg p < T - 1."""
    cs = taylor_shift(p.coeffs, x, T)
    return cs + [as_scalar(0)] * (T - len(cs))


def _jet_valuation(a):
    for i, c in enumerate(a):
        if c:
            return i
    return len(a)


def jet_div(a, b):
    """a / b for a unit jet b, by one triangular solve.

    A zero quotient coefficient is stored as Fraction(0).  The solve can reach
    a QuadraticNumber zero where a times the inverse jet of b has no term at
    all, and the two zeros serialize differently.
    """
    if not b[0]:
        raise FrobeniusInvariant("jet division by a non-unit")
    inv0 = 1 / b[0]
    out = []
    for m, acc in enumerate(a):
        for j in range(1, m + 1):
            if b[j] and out[m - j]:
                acc = acc - b[j] * out[m - j]
        out.append(acc * inv0 if acc else as_scalar(0))
    return out


def _cancel_resonance(numer, den, m):
    T = len(den)
    mu = _jet_valuation(den)
    if mu >= T:
        raise FrobeniusInvariant("indicial polynomial vanishes identically at offset %d" % m)
    if mu:
        if any(numer[k] for k in range(mu)):
            raise FrobeniusInvariant("resonance obstruction failed at offset %d" % m)
        numer = numer[mu:] + [as_scalar(0)] * mu
        den = den[mu:] + [as_scalar(0)] * mu
    return numer, den, mu


# ---------------------------------------------------------------------------
# the recurrence and the basis built from it


def scalar_recurrence(loc, lam, T, N, above):
    """Jets c_0 .. c_N as lists of scalars, and the precision lost at resonances."""
    r = loc.r
    p0 = loc.theta_coeffs[0]
    seed = [as_scalar(0)] * T
    seed[above] = as_scalar(1)
    jets = [seed]
    lost = 0
    for m in range(1, N + 1):
        numer = [as_scalar(0)] * T
        for i in range(1, min(r, m) + 1):
            pi = loc.theta_coeffs[i]
            if pi.is_zero:
                continue
            pj = jet_eval_poly(pi, lam + (m - i), T)
            numer = jet_add(numer, jet_mul(pj, jets[m - i]))
        numer = jet_scale(numer, -1)
        den = jet_eval_poly(p0, lam + m, T)
        numer, den, mu = _cancel_resonance(numer, den, m)
        lost += mu
        jets.append(jet_div(numer, den))
    return jets, lost


def class_solutions(loc, cls, N, point):
    """All solutions for one exponent class, from the scalar recurrence."""
    M = sum(m for _r, m in cls)
    T = 2 * M
    gap = _integer_difference(cls[-1][0], cls[0][0])
    if N < gap + loc.r + 1:
        raise TruncationTooLow("truncation %d below the resonance horizon %d" % (N, gap + loc.r + 1))
    out = []
    for j, (lam, mult) in enumerate(cls):
        above = sum(m for _r, m in cls[j + 1 :])
        jets, lost = scalar_recurrence(loc, lam, T, N, above)
        if above + mult > T - lost:
            raise FrobeniusInvariant("jet precision exhausted at exponent %s" % (lam,))
        for k in range(above, above + mult):
            scale = math.factorial(k - above)
            logs = range(min(k, T - 1) + 1)
            table = [[jet[k - l] * Fraction(scale, math.factorial(l)) for l in logs] for jet in jets]
            out.append(GeneralizedSeries(point, lam, table, N))
    return out


def local_basis(op, point, N=None):
    """frobenius.local_basis with every class solved by the scalar recurrence."""
    loc = local_operator(op, point)
    if N is None:
        N = default_truncation(loc)
    if N < loc.r + loc.order:
        raise TruncationTooLow("truncation %d below r + order = %d" % (N, loc.r + loc.order))
    solutions = []
    for cls in _partition_classes(indicial_roots(local_indicial(loc, point))):
        solutions.extend(class_solutions(loc, cls, N, point))
    solutions.sort(key=lambda s: (scalar_sort_key(s.alpha), s.leading[1]))
    return LocalBasis(point, solutions, loc)


# ---------------------------------------------------------------------------
# operator application


def apply_local(op, alpha, table, upto):
    """Rows 0..upto of the residual table of P(theta) on t^alpha * sum A[m][l] t^m log^l, by the scalar loop.

    Uses P(theta) t^a log^l = t^a sum_k P^(k)(a) * binom(l, k) * log^(l-k)
    on Fraction and QuadraticNumber scalars as they are.
    """
    width = max((len(row) for row in table), default=1)
    r = op.r
    derivs = []
    for p in op.theta_coeffs:
        ds = [p]
        for _ in range(width - 1):
            ds.append(ds[-1].derivative())
        derivs.append(ds)
    out = []
    for m in range(upto + 1):
        row = [as_scalar(0)] * width
        for i in range(min(r, m) + 1):
            src = table[m - i] if m - i < len(table) else ()
            top = max((l for l, c in enumerate(src) if c), default=-1)
            if top < 0:
                continue
            a = alpha + (m - i)
            values = [derivs[i][k](a) for k in range(top + 1)]
            for l, c in enumerate(src):
                if not c:
                    continue
                for k in range(l + 1):
                    row[l - k] = row[l - k] + c * values[k] * math.comb(l, k)
        out.append(row)
    return out


def order_of(rows):
    """The largest m with rows 0..m zero, -1 when row 0 is not: optheta.residual_order of a residual table."""
    return next((m for m, row in enumerate(rows) if any(row)), len(rows)) - 1

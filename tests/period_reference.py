"""The Fraction period expansion and the per-point count, kept as a test-only reference.

The package expands the conifold period on integers, R_m = (4L)^m r_m, and
counts points of a double octic with bit masks along lines.  These are the
loops they replaced: the (1+u)^(-1/2) recurrence on Fraction coefficients with
the simplex integral from factorials, and the count that lists every point of
P^3(F_p) and evaluates the octic at each.
"""

import math
from fractions import Fraction

from picardfuchs.arith import QuadraticNumber, _is_probable_prime, quadratic_sqrt
from picardfuchs.errors import EvenPrime, NotPrime, VanishingConstantTerm
from picardfuchs.period import PeriodSeries
from picardfuchs.qexp import _octic_terms


def simplex_integral(a, b, c):
    num = math.factorial(2 * a) * math.factorial(2 * b) * math.factorial(2 * c)
    den = (
        4 ** (a + b + c)
        * math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        * math.factorial(a + b + c + 1)
    )
    return Fraction(num, den)


def conifold_expand(f):
    lead = f.constant_term()
    if not lead:
        raise VanishingConstantTerm("P(0,0,0,0) = 0; the expansion point is not admissible")
    N = f.truncation
    pieces = {}
    for (ex, ey, ez, et), cval in f.terms.items():
        j = ex + ey + ez + et
        if j == 0 or j > N:
            continue
        d = pieces.setdefault(j, {})
        key = (ex, ey, ez)
        d[key] = d.get(key, Fraction(0)) + cval / lead
    grades = sorted(pieces)
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
            total += coef * simplex_integral(a, b, c)
        raw.append(total)
    root = quadratic_sqrt(lead)
    if isinstance(root, QuadraticNumber):
        return PeriodSeries(raw, unit=1 / root, conditions=("NonSquareLeadingValue",))
    return PeriodSeries([v / root for v in raw])


def count_double_octic(f8, p):
    p = int(p)
    if p == 2:
        raise EvenPrime("the double-cover count needs an odd prime")
    if not _is_probable_prime(p):
        raise NotPrime("the double-cover count needs a prime, got %d" % p)
    chi = [0] * p
    for a in range(1, p):
        chi[a] = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
    terms, forms = _octic_terms(f8, p)

    def value(pt):
        if forms is not None:
            acc = 1
            for f in forms:
                v = (f[0] * pt[0] + f[1] * pt[1] + f[2] * pt[2] + f[3] * pt[3]) % p
                if v == 0:
                    return 0
                acc = acc * v % p
            return acc
        acc = 0
        for c, (ex, ey, ez, ev) in terms:
            acc += c * pow(pt[0], ex, p) * pow(pt[1], ey, p) * pow(pt[2], ez, p) * pow(pt[3], ev, p)
        return acc % p

    reps = []
    rng = range(p)
    for y in rng:
        for z in rng:
            for v in rng:
                reps.append((1, y, z, v))
    for z in rng:
        for v in rng:
            reps.append((0, 1, z, v))
    for v in rng:
        reps.append((0, 0, 1, v))
    reps.append((0, 0, 0, 1))
    return sum(1 + chi[value(pt)] for pt in reps)

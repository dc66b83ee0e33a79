"""Local solution bases at (candidate) singular points, with exact logarithms.

The Frobenius construction runs once per distinct indicial root lambda: the
deformed seed c_0 = eps^R (R = total multiplicity of the class roots above
lambda) is propagated through the coefficient recurrence in the eps-jet
ring.  At a resonance the indicial value has positive eps-valuation; the
numerator's matching low jet coefficients must vanish exactly (this is the
exact obstruction constant), and the division shifts the jet down.

The jets live in windows of width W = R + mult(lambda).  The resonances of
lambda are the class roots lambda + m above it, and P_0(lambda + m + eps) has
eps-valuation mu, the multiplicity of the root it hits, so the divisions
lose R positions in all.  With `lost` of them spent, c_m lies in
eps^v K[[eps]] for v = R - lost, as a product keeps the valuation and a
division by eps^mu lowers it by mu.  The positions from v + W on are never
read: the v losses to come leave them at W and above, past R + mult - 1, and
as a truncation carries errors only upward, no lower position depends on
them (a longer jet holds them inexact).  So c_m is kept as its W exact
coefficients at eps^v .. eps^(v+W-1), and a resonance lowers v by mu in place
of shifting the numerator; the earlier jets move down with it (zeros below,
their top mu cut), so at the end every jet sits at offset 0.  A mu above v,
from a class cut short of a root above lambda, would need positions below 0
and raises FrobeniusInvariant at that step.

Solution k (R <= k < R + multiplicity(lambda)) is the eps^k-coefficient of
t^(lambda+eps) * sum c_m(eps) t^m; expanding t^eps = sum eps^l log(t)^l / l!
gives a solution with leading term t^lambda log(t)^(k-R)/(k-R)!, normalized
here to leading coefficient 1.  The basis is echelon by construction: leading
(exponent, log degree) pairs are pairwise distinct.

The recurrence runs fraction-free, over Z at rational points and infinity
and over Z[sqrt d] at a quadratic point or for quadratic exponents: the ring
is Z[sqrt d] when a QuadraticNumber tagged d is among the local operator's
coefficients or the class roots (arith.scalar_field).  A jet window is
(A, B, tags, den): coefficient k is (A[k] + B[k] sqrt d)/den with one
positive integer den, in lowest terms.  Over Q, B and tags are None
and the loops are plain integer loops.  Each P_i is cleared once per class
to an integer polynomial, its values at the lowest root plus k are read by
index from one table of Taylor shifts per class (arith.integer_polys and
optheta.jet_tables, both at the root itself), products are integer
convolutions, and the division is a fraction-free triangular solve over Z
followed by one gcd.
Over Z[sqrt d] the quotient is first multiplied through by the conjugate of
the denominator jet, whose norm jet has integer coefficients, so the same
solve runs on each part.  Scalars are built only for the output tables, one
shared Fraction(0) for every zero entry over Q.

Checks.  The solutions of lambda are the eps^k coefficients of one series,
so one residual R_m(eps) = sum_i P_i(lambda+m-i+eps) c_(m-i)(eps) decides
them all: solution k is killed through row m exactly when R_0 .. R_m vanish
at eps-positions 0 .. k.  annihilation_order reads them from one
optheta.residual_rows pass per root over its integer jets of width
R + mult(lambda), each row at the lcm the recurrence took for it and the
row's own den: no table is cleared and no ring looked up.  The tables stay
eager, as lazy ones would only move their read-out out of local_basis.

Type rule.  The output must carry the scalar types that the same recurrence
gives on Fraction and QuadraticNumber scalars, since a QuadraticNumber with
zero sqrt part and a Fraction serialize differently.  So over Z[sqrt d]
tags[k] is True when that loop would hold a QuadraticNumber at coefficient k:
a QuadraticNumber took part in computing it, where a coefficient that a zero
test skips takes no part.  The Taylor shift's tags come from
arith.quadratic_taylor_shift, which writes that rule for Horner's loop, a
product position is tagged by the nonzero factors it adds, and a quotient
coefficient is untagged when zero.  An output entry is read out by
arith.tagged_scalar, a QuadraticNumber exactly when its tag is set; row 0
and every zero is a Fraction.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .arith import (
    Immutable,
    QuadraticNumber,
    _exact_int,
    as_scalar,
    collapse,
    integer_polys,
    scalar_field,
    scalar_sort_key,
    tagged_scalar,
)
from .errors import FrobeniusInvariant, InvalidTruncation, PointMismatch, TruncationTooLow, UnclassifiedPattern, ZeroSeries
from .optheta import (
    as_point,
    indicial_roots,
    jet_sum,
    jet_tables,
    local_indicial,
    local_operator,
    residual_order,
    residual_rows,
    zero_jet,
)


# ---------------------------------------------------------------------------
# integer jet windows: (A, B, tags) with B and tags None over Q


def _jet_valuation(jet):
    A, B, _tags = jet
    for k, a in enumerate(A):
        if a or (B is not None and B[k]):
            return k
    return len(A)


def _lowered(jet, s):
    """A jet window (A, B, tags, den) moved to an offset s lower: s zero (untagged) positions below, its top s cut."""
    A, B, tags, den = jet
    n, pad = len(A), [0] * s
    return (pad + A)[:n], B and (pad + B)[:n], tags and (pad + tags)[:n], den


def _int_jet_div(numer, den, scale, d=None):
    """(numer / scale) / den for integer jets with den[0] != 0, as (A, B, tags, D) in lowest terms.

    numer has length T, den any length, with zeros beyond its end.

    Fraction-free triangular solve: o_k = a_k h0^k - sum_j h_j o_(k-j) h0^(j-1)
    with h = den is h0^(k+1) times the k-th quotient coefficient, so the
    quotient is o_k h0^(T-1-k) over scale * h0^T.  Over Z[sqrt d] numerator
    and denominator are first multiplied by the conjugate jet sigma(den), a
    unit mod eps^T.  The new denominator is the norm jet, with integer
    coefficients and h0 = N(den[0]) (the norm of
    arith.roots_in_quadratic_closure), and the solve runs on the A and B
    parts.  scale * h0^T is negative for a negative scale, or for an odd T
    and h0 < 0; one gcd, taken with its sign, reduces the result to the
    unique positive denominator D.  A zero quotient coefficient is untagged,
    and a nonzero one is tagged when a tagged coefficient took part in its
    solve by den, including den[0].
    """
    T = len(numer[0])
    if d is not None:
        b, bb, bt = den = tuple((part + [0] * T)[:T] for part in den)
        conj = (b, [-x for x in bb], bt)
        parts = jet_sum([(conj, numer + (1,))], 1, T, d)[:2]
        h = jet_sum([(conj, den + (1,))], 1, T, d)[0]
    else:
        parts, h = numer[:1], den[0] + [0] * (T - len(den[0]))
    h0 = h[0]
    if not h0:
        raise FrobeniusInvariant("jet division by a non-unit")
    hp = [1]
    for _ in range(T):
        hp.append(hp[-1] * h0)
    solved = []
    for a in parts:
        o = []
        for k in range(T):
            acc = a[k] * hp[k]
            for j in range(1, k + 1):
                if h[j] and o[k - j]:
                    acc -= h[j] * o[k - j] * hp[j - 1]
            o.append(acc)
        solved.append([ok * hp[T - 1 - k] for k, ok in enumerate(o)])
    D = scale * hp[T]
    if d is None:
        nums = solved[0]
        g = math.gcd(D, *nums) if D > 0 else -math.gcd(D, *nums)
        return [x // g for x in nums], None, None, D // g
    na, nb = solved
    g = math.gcd(D, *na, *nb) if D > 0 else -math.gcd(D, *na, *nb)
    at = numer[2]
    ot = []
    for k in range(T):
        took_part = (bt[j] or ot[k - j] for j in range(1, k + 1) if (b[j] or bb[j]) and (na[k - j] or nb[k - j]))
        ot.append(bool(na[k] or nb[k]) and (at[k] or bt[0] or any(took_part)))
    return [x // g for x in na], [x // g for x in nb], ot, D // g


_ZERO = Fraction(0)


def _cancel_resonance(numer, den, m, v, lam, p0_zero):
    """(den / eps^mu, mu) for the P_0 jet den at a resonance m, mu >= 1 its eps-valuation.

    numer is the numerator's window at offset v.  Its coefficients below mu
    must vanish exactly (the obstruction constant); they are zero below v,
    and the window holds the first mu - v of the rest.  The quotient's window
    starts at v - mu, so a mu above v, which needs positions below 0, raises
    FrobeniusInvariant: for a failed obstruction when one of those the window
    holds is nonzero, else for exhausted precision, or for a vanishing
    indicial polynomial when P_0 is the zero polynomial (p0_zero).
    """
    if p0_zero:
        raise FrobeniusInvariant("indicial polynomial vanishes identically at offset %d" % m)
    mu = _jet_valuation(den)
    if mu > v:
        if _jet_valuation(numer) < min(mu - v, len(numer[0])):
            raise FrobeniusInvariant("resonance obstruction failed at offset %d" % m)
        raise FrobeniusInvariant("jet precision exhausted at exponent %s" % (lam,))
    return tuple(None if part is None else part[mu:] for part in den), mu


# ---------------------------------------------------------------------------
# generalized series and bases


class GeneralizedSeries(Immutable):
    """t^alpha * sum_{m,l} A[m][l] t^m log(t)^l around a point moved to 0; `root` is (_RootJets, k) or None."""

    __slots__ = ("base_point", "alpha", "table", "truncation", "root")

    def __init__(self, base_point, alpha, table, truncation, root=None):
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "root", root)

    def coeff(self, m, l):
        if 0 <= m < len(self.table) and 0 <= l < len(self.table[m]):
            return self.table[m][l]
        return Fraction(0)

    @property
    def log_degree(self):
        deg = 0
        for row in self.table:
            for l, c in enumerate(row):
                if c and l > deg:
                    deg = l
        return deg

    @property
    def leading(self):
        """(exponent offset m, log profile at m) of the first nonzero row."""
        for m, row in enumerate(self.table):
            if any(row):
                top = max(l for l, c in enumerate(row) if c)
                return m, top
        raise ZeroSeries("zero generalized series")

    def is_log_free(self):
        return self.log_degree == 0

    def power_coeffs(self):
        """The log-free coefficient stream A[m][0]."""
        return [self.coeff(m, 0) for m in range(self.truncation + 1)]

    def __repr__(self):
        bits = []
        for m in range(min(3, self.truncation + 1)):
            for l, c in enumerate(self.table[m]):
                if c:
                    mono = "t^(%s+%d)" % (self.alpha, m)
                    if l:
                        mono += "*log^%d" % l
                    bits.append("%s*%s" % (c, mono))
        return "GeneralizedSeries(%s + ...)" % " + ".join(bits[:4])


# what the solutions k of one root of local_basis share: c_0 .. c_N as the
# recurrence returns them, of `width` above + mult at offset 0, the cleared
# operator Q, jet tables P and per-row lcms of the recurrence over Z[sqrt d]
# on `loc`, the local operator of `op`, and the residual valuations `rows`
_RootJets = namedtuple("_RootJets", "op loc d Q P jets lcms width above rows")


class LocalBasis(Immutable):
    """Echelonized solutions of one operator at one point."""

    __slots__ = ("point", "solutions", "local_op")

    def __init__(self, point, solutions, local_op):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "solutions", tuple(solutions))
        object.__setattr__(self, "local_op", local_op)

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def exponents(self):
        return sorted((s.alpha for s in self.solutions), key=scalar_sort_key)

    def has_logarithms(self):
        return any(not s.is_log_free() for s in self.solutions)


class LocalMonodromyData(Immutable):
    """Exponent classes mod 1 with the Jordan block sizes of the log map."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        object.__setattr__(self, "classes", tuple(classes))

    def all_blocks(self):
        out = []
        for _exps, blocks in self.classes:
            out.extend(blocks)
        return sorted(out, reverse=True)

    def __repr__(self):
        return "LocalMonodromyData(%s)" % (list(self.classes),)


class PointType(enum.Enum):
    MUM = "MUM"
    K = "K"
    C = "C"
    F = "F"
    A = "A"
    APPARENT = "Apparent"
    REGULAR = "Regular"

    def __str__(self):
        return self.value


# ---------------------------------------------------------------------------
# indicial roots and class partitioning


def _integer_difference(x, y):
    d = collapse(x - y)
    if isinstance(d, QuadraticNumber) or Fraction(d).denominator != 1:
        return None
    return int(d)


def _partition_classes(roots):
    """Group pairs (root, x) into classes with pairwise integer differences; only the root is read."""
    classes = []
    for root, x in roots:
        for cls in classes:
            if _integer_difference(root, cls[0][0]) is not None:
                cls.append((root, x))
                break
        else:
            classes.append([(root, x)])
    return classes


# ---------------------------------------------------------------------------
# the Frobenius construction


def default_truncation(op):
    return 2 * (op.r + op.order) + 20


def local_basis(op, point, N=None):
    """Echelonized basis of n generalized-series solutions at `point`."""
    point = as_point(point)
    loc = local_operator(op, point)
    N = default_truncation(loc) if N is None else _exact_int(N, InvalidTruncation, "the truncation")
    if N < loc.r + loc.order:
        raise TruncationTooLow("truncation %d below r + order = %d" % (N, loc.r + loc.order))
    solutions = []
    for cls in _partition_classes(indicial_roots(local_indicial(loc, point))):
        solutions.extend(_class_solutions(op, loc, cls, N, point))
    solutions.sort(key=lambda s: (scalar_sort_key(s.alpha), s.leading[1]))
    return LocalBasis(point, solutions, loc)


def _class_solutions(op, loc, cls, N, point):
    """All solutions for one exponent class of the local operator `loc` of op.

    The class roots differ by integers, so they share the denominator q and
    one set of jet tables, from the lowest root up to N + gap; a root g above
    it reads entries g .. g + N.
    """
    r = loc.r
    low = cls[0][0]
    gap = _integer_difference(cls[-1][0], low)
    if N < gap + r + 1:
        raise TruncationTooLow("truncation %d below the resonance horizon %d" % (N, gap + r + 1))
    d = scalar_field(chain((lam for lam, _m in cls), (c for p in loc.theta_coeffs for c in p.coeffs)))
    Q = integer_polys(loc.theta_coeffs, low, d)[0]
    tables = jet_tables(Q, low, N + gap)
    out = []
    for j, (lam, mult) in enumerate(cls):
        above = sum(m for _r, m in cls[j + 1 :])
        g = _integer_difference(lam, low)
        P = [t[g : g + N + 1] for t in tables]
        jets, lcms = _integer_recurrence(Q, P, lam, above + mult, N, above, d)
        root = _RootJets(op, loc, d, Q, P, jets, lcms, above + mult, above, [])
        for k in range(above, above + mult):
            s = k - above
            scale = math.factorial(s)  # leading coefficient 1 instead of 1/s!
            logs = range(k + 1)
            if d is None:
                table = [
                    [Fraction(A[k - l] * scale, den * math.factorial(l)) if A[k - l] else _ZERO for l in logs]
                    for A, _B, _t, den in jets
                ]
            else:
                table = [
                    [tagged_scalar(A[k - l] * scale, B[k - l] * scale, den * math.factorial(l), tags[k - l], d) for l in logs]
                    for A, B, tags, den in jets
                ]
            out.append(GeneralizedSeries(point, lam, table, N, (root, k)))
    return out


def _integer_recurrence(Q, P, lam, W, N, above, d=None):
    """Jets c_0 .. c_N as (A, B, tags, den) windows of width W, and the lcm taken for each.

    Q comes from integer_polys at lam, over Z[sqrt d] when d is given, and
    P holds its jet_tables at lam for k = 0 .. N.  The seed is eps^above, at
    offset `above`; the jets come back at offset 0 when the resonances lose
    all of it, as they do for a class of roots of P_0 (module docstring).
    The common scale E of the Q_i cancels in the quotient, and the terms of
    the numerator of c_m are brought to the lcm of their jets' denominators,
    lcms[m] (lcms[0] = 1).  A P_0 jet with a unit constant term is divided
    by as it stands; only a resonance strips its valuation.
    """
    seed = zero_jet(W, d)
    seed[0][0] = 1
    jets, lcms, v = [seed + (1,)], [1], above
    p0_zero = not any(Q[0][0]) and not any(Q[0][1] or ())
    live = [i for i in range(1, len(Q)) if Q[i][0]]
    for m in range(1, N + 1):
        terms = [i for i in live if i <= m]
        lcm = math.lcm(*(jets[m - i][3] for i in terms))
        lcms.append(lcm)
        numer = jet_sum([(P[i][m - i], jets[m - i]) for i in terms], lcm, W, d)
        den = P[0][m]
        if not (den[0] and (den[0][0] or (d is not None and den[1][0]))):
            den, mu = _cancel_resonance(numer, den, m, v, lam, p0_zero)
            jets, v = [_lowered(c, mu) for c in jets], v - mu
        # P_0 c_m = -sum_(i>=1) P_i c_(m-i): the sign goes into the scale
        jets.append(_int_jet_div(numer, den, -lcm, d))
    return jets, lcms


def annihilation_order(op, point, sol):
    """Largest row index through which the operator kills the solution.

    A solution of local_basis on this operator object is read from its
    root's residual valuations (module docstring, Checks); any other series
    or operator goes to residual_order.  A series around another point
    raises PointMismatch.
    """
    if sol.base_point != point:
        raise PointMismatch("a series around %s checked at %s" % (sol.base_point, point))
    if sol.root is None or sol.root[0].op is not op:
        loc = local_operator(op, point)
        return residual_order(loc, sol.alpha, sol.table, sol.truncation - loc.r)
    root, k = sol.root
    upto = sol.truncation - root.loc.r
    if not root.rows:
        scales = map(math.lcm, (c[3] for c in root.jets), root.lcms)
        for v in residual_rows(root.Q, root.P, root.jets, upto, root.width, root.d, scales):
            root.rows.append(v)
            if v <= root.above:  # fails every solution of the root
                break
    return next((m - 1 for m, v in enumerate(root.rows) if v <= k), upto)


# ---------------------------------------------------------------------------
# Jordan structure of the local log map


def jordan_structure(basis):
    """Jordan block sizes of N = d/d(log t) acting on each exponent class.

    The ranks of the powers of N come from one elimination over the solution
    rows of each class (_class_blocks), which also checks that N maps the
    span of the class to itself and that its solutions are independent.
    """
    classes = []
    for cls in _partition_classes((s.alpha, s) for s in basis.solutions):
        sols = [s for _alpha, s in cls]
        exps = tuple(sorted((s.alpha for s in sols), key=scalar_sort_key))
        classes.append((exps, tuple(_class_blocks(sols))))
    return LocalMonodromyData(classes)


def _class_blocks(sols):
    """Jordan block sizes of N on the span of one exponent class, largest first.

    N lowers the log power of each term by one, so N^k y = 0 exactly when y
    has no log^l term with l >= k: rank N^k is the rank of the solution rows
    restricted to the columns with l >= k.  The tables are aligned at the
    smallest exponent of the class and cut at the smallest truncation.  One
    echelon pass over sparse rows, with the columns taken in descending l,
    makes rank N^k the number of pivots with l >= k, and ranks[k-1] -
    2 ranks[k] + ranks[k+1] blocks have size k.  A row that reduces to zero
    means the solutions are dependent, and the log derivative of every
    solution must reduce to zero, or N leaves the span; either failure
    raises FrobeniusInvariant.
    """
    base = min((s.alpha for s in sols), key=scalar_sort_key)
    N = min(s.truncation for s in sols)
    pivots = {}

    def remainder(row):
        """The remainder of a row {(l, -m): c} after subtracting pivot rows."""
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                return row
            f = row[col] / piv[col]
            for key, c in piv.items():
                v = row.get(key, 0) - f * c
                if v:
                    row[key] = v
                else:
                    row.pop(key, None)
        return row

    rows = []
    for s in sols:
        off = _integer_difference(s.alpha, base)
        rows.append(
            {(l, -off - m): as_scalar(c) for m, r in enumerate(s.table) if off + m <= N for l, c in enumerate(r) if c}
        )
    for row in rows:
        rest = remainder(dict(row))
        if not rest:
            raise FrobeniusInvariant("solutions of one class are linearly dependent")
        pivots[max(rest)] = rest
    for row in rows:
        image = remainder({(l - 1, m): l * c for (l, m), c in row.items() if l})
        if image:
            l, m = max(image)
            raise FrobeniusInvariant("log-map image escapes the solution span at %s" % ((-m, l),))
    top = max(pivots)[0] + 1  # the largest block size
    ranks = [sum(1 for l, _m in pivots if l >= k) for k in range(top + 2)]
    return [k for k in range(top, 0, -1) for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1])]


# ---------------------------------------------------------------------------
# classification


def _is_arithmetic_progression(exps):
    if len(exps) <= 2:
        return True
    d = exps[1] - exps[0]
    return all(exps[i + 1] - exps[i] == d for i in range(len(exps) - 1))


def classify_point(op, point, N=None):
    """Degeneration label from the exponent pattern and Jordan block sizes."""
    return classify_basis(local_basis(op, point, N))


def classify_basis(basis, blocks=None):
    """classify_point for a basis already built; `blocks` defaults to its Jordan block sizes."""
    exps = basis.exponents()
    if blocks is None:
        blocks = jordan_structure(basis).all_blocks()
    n = len(exps)
    has_logs = any(b >= 2 for b in blocks)
    if not has_logs:
        if exps == [Fraction(k) for k in range(n)]:
            return PointType.REGULAR
        if all(_integer_difference(e, 0) is not None for e in exps) and len(set(exps)) == n:
            return PointType.APPARENT
        ordered = sorted(exps, key=scalar_sort_key)
        if not _is_arithmetic_progression(ordered):
            return PointType.A
        return PointType.F
    if n == 4:
        e1, e2, e3, e4 = exps
        if e1 == e2 == e3 == e4 and blocks == [4]:
            return PointType.MUM
        if e1 == e2 and e3 == e4 and e2 != e3 and blocks == [2, 2]:
            return PointType.K
        if e2 == e3 and e1 != e2 and e4 != e3 and e2 - e1 == e4 - e3 and blocks == [2, 1, 1]:
            return PointType.C
        raise UnclassifiedPattern(exps, blocks)
    if n == 2:
        if exps[0] == exps[1] and blocks == [2]:
            return PointType.K
        if exps[0] != exps[1] and blocks == [2]:
            return PointType.C
        raise UnclassifiedPattern(exps, blocks)
    raise UnclassifiedPattern(exps, blocks)

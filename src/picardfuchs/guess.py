"""Reconstruction of annihilating operators from series coefficients.

Unknowns are the theta-polynomial coefficients of P = sum_i t^i P_i(theta);
reading off the coefficient of t^m in P y gives the linear condition
sum_i P_i(m - i) A_{m-i} = 0.  Candidate shapes (order, t-degree) are
searched in lexicographic order and the first nullspace vector whose
operator annihilates the full input series is returned.

The series is cleared once: with D the lcm of the denominators and
N_k = D A_k, one table holds N_k k^j for every index k and every j up to the
largest order, and the rows of each shape are slices of it.  With M terms
and g_j = sum_k N_k k^j t^k, a nullspace vector of shape (n, r) is a
Hermite-Pade approximant: p_0..p_n of degree <= r, not all zero, with
sum_j p_j g_j = 0 mod t^M.  Each order n is first screened modulo the prime
p = 2^61 - 1 by an order basis of these approximants (Beckermann and Labahn,
SIAM J. Matrix Anal. Appl. 15, 1994).  A reduced basis gives sum_i q_i b_i
the degree max(deg q_i + deg b_i), so its least degree is the least r at
which (n, r) has dependent columns mod p; rank mod p never exceeds rank over
Q, so every shape below it has an empty nullspace.  Each shape from it on is
eliminated exactly, fraction-free, on a leading block of primitive rows
grown until every later row vanishes on the block's basis: then all rows lie
in the block's row space (over Q the orthogonal complement of its nullspace),
so pivot columns and basis are those of every row.  Each candidate is then
checked against the complete series.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import Immutable, Polynomial, PowerSeries, _exact_int, _exact_rational, as_scalar, integer_rows, zprimitive
from .errors import InconsistentRecurrence, InsufficientTerms, InvalidGuessBox, InvalidTruncation, RecurrenceObstruction, TruncationTooLow, ZeroSeries
from .optheta import ThetaOperator, apply_to_series


class GuessConfig(Immutable):
    """Search box and safety margin for operator reconstruction."""

    __slots__ = ("max_order", "max_degree", "margin")

    def __init__(self, max_order, max_degree, margin=10):
        for name, value in (("max_order", max_order), ("max_degree", max_degree), ("margin", margin)):
            _exact_int(value, InvalidGuessBox, name)
        if max_order < 1:
            raise InvalidGuessBox("max_order must be at least 1, got %s" % (max_order,))
        if max_degree < 0:
            raise InvalidGuessBox("max_degree must be at least 0, got %s" % (max_degree,))
        if margin < 1:
            raise InvalidGuessBox("margin must be at least 1 (one surplus equation), got %s" % (margin,))
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "margin", margin)

    def required_terms(self):
        return (self.max_order + 1) * (self.max_degree + 1) + self.margin

    def __repr__(self):
        return "GuessConfig(max_order=%d, max_degree=%d, margin=%d)" % (
            self.max_order,
            self.max_degree,
            self.margin,
        )


# the screening prime; any prime is sound, a large one is rarely unlucky
_PRIME = (1 << 61) - 1


def _first_dependent_degree(residues, n, max_degree):
    """Least r <= max_degree whose shape (n, r) has dependent columns modulo _PRIME, or None.

    `residues[k][j]` is N_k k^j mod _PRIME.  An order-basis row keeps only its
    residual from t^k on and its degree.  At t^k, of the rows not vanishing
    there, the one of least degree (lowest index on ties) clears the others
    and is multiplied by t.  The basis stays reduced, so its least degree is
    the least degree of any approximant: the first dependent shape.
    """
    p = _PRIME
    rows = [[block[j] for block in residues] for j in range(n + 1)]  # residuals, from t^k on
    degrees = [0] * (n + 1)
    for _k in range(len(residues)):
        # entries are reduced only when read: a row between two pivot turns stays below p + k p^2
        heads = [row[0] % p for row in rows]
        live = [j for j, x in enumerate(heads) if x]
        if live:
            piv = min(live, key=degrees.__getitem__)
            head = [x % p for x in rows[piv]]
            inv = pow(heads[piv], -1, p)
            for j in live:
                if j != piv:
                    c = heads[j] * inv % p
                    rows[j] = [a - c * b for a, b in zip(rows[j], head)]
            rows[piv] = [0] + head[:-1]  # times t
            degrees[piv] += 1
            # a row above max_degree only ever clears rows above it: drop it
            if degrees[piv] > max_degree:
                del rows[piv], degrees[piv]
                if not rows:
                    return None
        rows = [row[1:] for row in rows]
    return min(degrees)


def _eliminate(mat, ncols):
    """Nullspace basis of the integer rows `mat`, one vector per free column, first free column first."""
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == len(mat):
            break
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        pc = mat[r][c]
        for i in range(r + 1, len(mat)):
            mic = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            for j in range(c, ncols):
                # Bareiss step: the division by the previous pivot is exact
                row_i[j] = (pc * row_i[j] - mic * row_r[j]) // prev
        prev = pc
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _ri, c in pivots}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for ri, c in reversed(pivots):
            s = sum((Fraction(mat[ri][j]) * x[j] for j in range(c + 1, ncols)), Fraction(0))
            x[c] = -s / mat[ri][c]
        basis.append(x)
    return basis


def _nullspace(rows, ncols):
    """Rational nullspace basis of the integer rows, one vector per free column, first free column first.

    Elimination runs on the leading rows, ncols at first, and their basis is
    checked on every later row.  Once all vanish, the rows share the leading
    rows' row space, hence their echelon form and basis vectors.
    """
    size = ncols
    while True:
        basis = _eliminate([zprimitive(row) for row in rows[:size] if any(row)], ncols)
        cleared = integer_rows(basis)[0]
        # the growth at least doubles the prefix, so a few eliminations reach every row
        bad = next((i for i in range(size, len(rows)) for vec in cleared if sum(a * b for a, b in zip(rows[i], vec))), None)
        if bad is None:
            return basis
        size = max(bad + 1, 2 * size)


def guess_operator(coeffs, config):
    """Smallest theta-form operator annihilating the series, or None.

    `coeffs` lists A_0, A_1, ... of y = sum A_m t^m and `config` is the
    GuessConfig search box.  The search tries theta-degree 1..max_order and
    t-degree 0..max_degree in that order and verifies every candidate against
    the complete input before returning it.
    """
    series = [_exact_rational(c, "a series coefficient") for c in coeffs]
    if len(series) < config.required_terms():
        raise InsufficientTerms(
            "%d terms given, %d required for a (%d, %d) box with margin %d"
            % (len(series), config.required_terms(), config.max_order, config.max_degree, config.margin)
        )
    if not any(series):
        raise ZeroSeries("the zero series is annihilated by every operator")
    y = PowerSeries(series, len(series) - 1)
    # cleared table: blocks[k] = [N_k k^j for j = 0..max_order], N_k = D A_k
    (cleared,), _D = integer_rows([series])
    blocks = [[nk * k**j for j in range(config.max_order + 1)] for k, nk in enumerate(cleared)]
    residues = [[x % _PRIME for x in block] for block in blocks]
    for n in range(1, config.max_order + 1):
        first = _first_dependent_degree(residues, n, config.max_degree)
        if first is None:
            continue
        zero = [0] * (n + 1)
        for r in range(first, config.max_degree + 1):
            ncols = (n + 1) * (r + 1)
            rows = [
                [x for i in range(r + 1) for x in (blocks[m - i][: n + 1] if m >= i else zero)]
                for m in range(len(series))
            ]
            for vec in _nullspace(rows, ncols):
                polys = [Polynomial(vec[i * (n + 1):(i + 1) * (n + 1)]) for i in range(r + 1)]
                if all(p.is_zero for p in polys):
                    continue
                cand = ThetaOperator.from_theta_polys(polys)
                if apply_to_series(cand, y) == y.order - cand.r:
                    return cand
    return None


class Recurrence(Immutable):
    """Forward recurrence sum_i P_i(m - i) A_{m-i} = 0 attached to an operator."""

    __slots__ = ("op",)

    def __init__(self, op):
        object.__setattr__(self, "op", op.t_stripped())

    def coefficients(self, m):
        """(P_0(m), P_1(m-1), ..., P_r(m-r)); a float or a bool index raises InexactScalar."""
        m = as_scalar(m)
        return tuple(p(m - i) for i, p in enumerate(self.op.theta_coeffs))

    def extend(self, initial, upto):
        """A_0 ... A_upto; every given term, also past upto, must obey the recurrence.

        At an obstruction index, a root of P_0 where the right-hand side vanishes,
        a given term is free and a missing one raises RecurrenceObstruction;
        every other term follows from the terms below it.
        """
        upto = _exact_int(upto, InvalidTruncation, "the last index")
        if upto < 0:
            raise TruncationTooLow("the last index must be at least 0, got %d" % upto)
        given = [_exact_rational(c, "a series coefficient") for c in initial]
        vals = []
        for m in range(max(upto, len(given) - 1) + 1):
            lead, *rest = self.coefficients(m)
            rhs = -sum(c * vals[m - i] for i, c in enumerate(rest[:m], 1))
            if not lead and rhs:
                raise InconsistentRecurrence("inconsistent recurrence at index %d" % m)
            if not lead and m >= len(given):
                raise RecurrenceObstruction("index %d is an obstruction; the value is free" % m)
            vals.append(rhs / lead if lead else given[m])
            if m < len(given) and vals[m] != given[m]:
                raise InconsistentRecurrence("the given term at index %d is not the one of the recurrence" % m)
        return vals[: upto + 1]


def recurrence_from_operator(op):
    return Recurrence(op)

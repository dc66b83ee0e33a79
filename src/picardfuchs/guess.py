"""Reconstruction of annihilating operators from series coefficients.

Unknowns are the theta-polynomial coefficients of P = sum_i t^i P_i(theta);
reading off the coefficient of t^m in P y gives the linear condition
sum_i P_i(m - i) A_{m-i} = 0.  Candidate shapes (order, t-degree) are
searched in lexicographic order and the first nullspace vector whose
operator annihilates the full input series is returned.

The series is cleared once: with D the lcm of the denominators and
N_k = D A_k, one table holds N_k k^j for every index k and every j up to the
largest order, and the rows of each shape are slices of it.  Before any exact
work each order n is screened modulo the prime p = 2^61 - 1 by one
elimination over the columns of the table.  The columns of shape (n, r) are
those of (n, r - 1) and one block more, so a dependence among the columns
of (n, r) is one of (n, r + 1) too: the shapes with dependent columns mod p
are exactly those from a first degree r on, and one column-incremental pass
over r = 0, 1, ... finds that degree.  The screen is exact, because rank
mod p never exceeds the rank over Q, so a shape below the first degree has
an empty nullspace.  Every shape from it on, including one that is
dependent only because p is unlucky, goes through the same exact path as
without the screen: fraction-free elimination on primitive integer rows,
then a check of each nullspace candidate against the complete series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import Immutable, Polynomial, PowerSeries, _exact_int, _exact_rational, as_scalar, integer_rows
from .errors import InconsistentRecurrence, InsufficientTerms, InvalidGuessBox, InvalidTruncation, RecurrenceObstruction, ZeroSeries
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

    `residues[k][j]` is N_k k^j mod _PRIME.  The columns of (n, r) are those
    of (n, r - 1) and one block, m -> N_(m-r) (m-r)^j for j = 0..n, so one
    column elimination over the blocks r = 0, 1, ... meets the first
    dependent shape, and every later r is dependent too.  A shape below the
    returned degree has full column rank mod p, hence over Q, hence an empty
    nullspace; a dependent shape proves nothing.
    """
    p = _PRIME
    height = len(residues)
    echelon = []  # (pivot, tail): the reduced column from its pivot row on, 1 at the pivot
    for r in range(max_degree + 1):
        for j in range(n + 1):
            v = [0] * r + [block[j] for block in residues[: height - r]]
            # entries are reduced only when read: k updates keep them below p + k p^2
            for piv, tail in echelon:
                x = v[piv] % p
                if x:
                    v[piv:] = [a - x * b for a, b in zip(v[piv:], tail)]
            v = [a % p for a in v]
            piv = next((i for i, x in enumerate(v) if x), None)
            if piv is None:
                return r
            inv = pow(v[piv], -1, p)
            echelon.append((piv, [x * inv % p for x in v[piv:]]))
    return None


def _primitive(row):
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _nullspace(rows, ncols):
    """Rational nullspace basis, one vector per free column, first free column first."""
    mat = [list(r) for r in rows if any(r)]
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
            s = sum(Fraction(mat[ri][j]) * x[j] for j in range(c + 1, ncols))
            x[c] = -s / mat[ri][c]
        basis.append(x)
    return basis


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
            for vec in _nullspace([_primitive(row) for row in rows], ncols):
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
        """Continue the series to index `upto` from enough initial terms."""
        upto = _exact_int(upto, InvalidTruncation, "the last index")
        vals = [_exact_rational(c, "a series coefficient") for c in initial]
        r = self.op.r
        if len(vals) <= r:
            raise InsufficientTerms("%d initial terms given, more than the t-degree %d required" % (len(vals), r))
        p0 = self.op.theta_coeffs[0]
        for m in range(len(vals), upto + 1):
            lead = p0(m)
            rhs = -sum(
                self.op.theta_coeffs[i](m - i) * vals[m - i]
                for i in range(1, min(r, m) + 1)
            )
            if not lead:
                if rhs:
                    raise InconsistentRecurrence("inconsistent recurrence at index %d" % m)
                raise RecurrenceObstruction("index %d is an obstruction; the value is free" % m)
            vals.append(rhs / lead)
        return vals


def recurrence_from_operator(op):
    return Recurrence(op)

"""Reconstruction of annihilating operators from series coefficients.

Unknowns are the theta-polynomial coefficients of P = sum_i t^i P_i(theta);
reading off the coefficient of t^m in P y gives the linear condition
sum_i P_i(m - i) A_{m-i} = 0.  Candidate shapes (order, t-degree) are
searched in lexicographic order and the first nullspace vector whose
operator annihilates the full input series is returned.  Elimination is
fraction-free on integer rows, so coefficient growth stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import Polynomial, PowerSeries, as_scalar, collapse
from .errors import InsufficientTerms
from .optheta import ThetaOperator, apply_to_series


class GuessConfig:
    """Search box and safety margin for operator reconstruction."""

    __slots__ = ("max_order", "max_degree", "margin")

    def __init__(self, max_order, max_degree, margin=10):
        assert max_order >= 1 and max_degree >= 0
        assert margin >= 1, "at least one surplus equation is required"
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "margin", margin)

    def __setattr__(self, *args):
        raise AttributeError("GuessConfig is immutable")

    def required_terms(self):
        return (self.max_order + 1) * (self.max_degree + 1) + self.margin

    def __repr__(self):
        return "GuessConfig(max_order=%d, max_degree=%d, margin=%d)" % (
            self.max_order,
            self.max_degree,
            self.margin,
        )


def _integer_row(row):
    dens = [c.denominator for c in row]
    scale = math.lcm(*dens)
    ints = [int(c * scale) for c in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


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


def guess_operator(coeffs, config=None, *, max_order=None, max_degree=None, margin=None):
    """Smallest theta-form operator annihilating the series, or None.

    `coeffs` lists A_0, A_1, ... of y = sum A_m t^m.  The search tries
    theta-degree 1..max_order and t-degree 0..max_degree in that order and
    verifies every candidate against the complete input before returning it.
    """
    if config is None:
        config = GuessConfig(
            max_order if max_order is not None else 4,
            max_degree if max_degree is not None else 6,
            margin if margin is not None else 10,
        )
    series = [Fraction(collapse(as_scalar(c))) for c in coeffs]
    if len(series) < config.required_terms():
        raise InsufficientTerms(
            "%d terms given, %d required for a (%d, %d) box with margin %d"
            % (len(series), config.required_terms(), config.max_order, config.max_degree, config.margin)
        )
    assert any(series), "zero series admits every operator"
    y = PowerSeries(series, len(series) - 1)
    top = len(series) - 1
    for n in range(1, config.max_order + 1):
        for r in range(config.max_degree + 1):
            ncols = (n + 1) * (r + 1)
            rows = []
            for m in range(top + 1):
                row = []
                for i in range(r + 1):
                    a = series[m - i] if m - i >= 0 else Fraction(0)
                    if not a:
                        row.extend([Fraction(0)] * (n + 1))
                        continue
                    row.extend(a * (m - i) ** j for j in range(n + 1))
                rows.append(row)
            int_rows = [_integer_row(row) for row in rows]
            for vec in _nullspace(int_rows, ncols):
                polys = [Polynomial(vec[i * (n + 1):(i + 1) * (n + 1)]) for i in range(r + 1)]
                if all(p.is_zero for p in polys):
                    continue
                cand = ThetaOperator.from_theta_polys(polys)
                residual = apply_to_series(cand, y)
                if all(c == 0 for c in residual.coeffs):
                    return cand
    return None


class Recurrence:
    """Forward recurrence sum_i P_i(m - i) A_{m-i} = 0 attached to an operator."""

    __slots__ = ("op",)

    def __init__(self, op):
        object.__setattr__(self, "op", op.t_stripped())

    def __setattr__(self, *args):
        raise AttributeError("Recurrence is immutable")

    def coefficients(self, m):
        """(P_0(m), P_1(m-1), ..., P_r(m-r))."""
        return tuple(p(m - i) for i, p in enumerate(self.op.theta_coeffs))

    def obstructions(self):
        """Nonnegative integers m with P_0(m) = 0, where forward solving stalls."""
        p0 = self.op.theta_coeffs[0]
        out = []
        m = 0
        # integer roots are bounded by the largest root; scan via exact evaluation
        bound = _integer_root_bound(p0)
        while m <= bound:
            if not p0(m):
                out.append(m)
            m += 1
        return out

    def extend(self, initial, upto):
        """Continue the series to index `upto` from enough initial terms."""
        vals = [Fraction(collapse(as_scalar(c))) for c in initial]
        r = self.op.r
        assert len(vals) > r, "need more initial terms than the t-degree"
        p0 = self.op.theta_coeffs[0]
        for m in range(len(vals), upto + 1):
            lead = p0(m)
            rhs = -sum(
                self.op.theta_coeffs[i](m - i) * vals[m - i]
                for i in range(1, min(r, m) + 1)
            )
            if not lead:
                if rhs:
                    raise ValueError("inconsistent recurrence at index %d" % m)
                raise ValueError("index %d is an obstruction; the value is free" % m)
            vals.append(rhs / lead)
        return vals


def _abs_bound(x):
    x = collapse(x)
    if isinstance(x, Fraction):
        return abs(x)
    # crude but safe: |a + b sqrt(d)| <= |a| + |b| (1 + |d|)
    return abs(x.a) + abs(x.b) * (1 + abs(x.d))


def _integer_root_bound(p):
    """Upper bound for integer roots via the Cauchy bound on the monic form."""
    if p.degree <= 0:
        return -1
    lead = p.lead
    b = max(_abs_bound(c / lead) for c in p.coeffs[:-1])
    return math.ceil(1 + b)


def recurrence_from_operator(op):
    return Recurrence(op)

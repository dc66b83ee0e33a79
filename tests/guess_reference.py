"""The operator-guessing loop without the modular screen, kept as a test-only reference.

The package clears the series once and screens each shape modulo a prime
before exact elimination.  This is the loop it replaced: a Fraction matrix
per shape, cleared row by row, and exact elimination on every shape tried.
"""

import math
from fractions import Fraction

from picardfuchs.arith import Polynomial, PowerSeries, as_scalar, collapse
from picardfuchs.guess import _nullspace
from picardfuchs.optheta import ThetaOperator, apply_to_series


def _integer_row(row):
    dens = [c.denominator for c in row]
    scale = math.lcm(*dens)
    ints = [int(c * scale) for c in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def reference_guess(coeffs, config):
    """guess_operator for a valid box and a nonzero series with enough terms."""
    series = [Fraction(collapse(as_scalar(c))) for c in coeffs]
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
                if apply_to_series(cand, y) == y.order - cand.r:
                    return cand
    return None

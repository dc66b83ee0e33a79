"""Earlier operator-guessing loops, kept as test-only references.

The package clears the series once, screens each order modulo a prime with
an order basis, and solves a certified prefix of the rows modulo word primes,
read back by rational reconstruction and checked exactly on every row of it.
`reference_guess` is the loop without any screen: a Fraction matrix per
shape, cleared row by row, and exact elimination on every shape tried.
`screened_guess` is the loop with the screen it had before, which reduced
the rows of every shape modulo the prime from scratch.  Both eliminate with
`full_nullspace`, fraction-free elimination on every row, so neither calls
the package's screen or elimination.
"""

import math
from fractions import Fraction

from picardfuchs.arith import Polynomial, PowerSeries, as_scalar, collapse
from picardfuchs.optheta import ThetaOperator, apply_to_series


def _integer_row(row):
    dens = [c.denominator for c in row]
    scale = math.lcm(*dens)
    ints = [int(c * scale) for c in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def full_nullspace(rows, ncols):
    """Rational nullspace basis, one vector per free column, first free column first: Bareiss on every nonzero row."""
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
            for j in range(c, ncols):
                mat[i][j] = (pc * mat[i][j] - mic * mat[r][j]) // prev
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
            for vec in full_nullspace(int_rows, ncols):
                polys = [Polynomial(vec[i * (n + 1):(i + 1) * (n + 1)]) for i in range(r + 1)]
                if all(p.is_zero for p in polys):
                    continue
                cand = ThetaOperator.from_theta_polys(polys)
                if apply_to_series(cand, y) == y.order - cand.r:
                    return cand
    return None


def cleared_table(series, max_order):
    """[N_k k^j for j = 0..max_order] for every index k, N_k = D A_k with D the lcm of the denominators."""
    D = math.lcm(*(Fraction(a).denominator for a in series))
    return [[int(Fraction(a) * D) * k**j for j in range(max_order + 1)] for k, a in enumerate(series)]


def shape_rows(table, n, r):
    """The integer rows of shape (n, r): row m holds N_(m-i) (m-i)^j for i = 0..r and j = 0..n."""
    zero = [0] * (n + 1)
    return [[x for i in range(r + 1) for x in (table[m - i][: n + 1] if m >= i else zero)] for m in range(len(table))]


def full_rank_mod_p(rows, ncols, p):
    """True when the integer rows reach rank ncols modulo the prime p: the earlier per-shape screen."""
    echelon = {}  # pivot column -> row that is 0 before that column and 1 at it
    for row in rows:
        v = [x % p for x in row]
        for c in range(ncols):
            x = v[c]
            if not x:
                continue
            piv = echelon.get(c)
            if piv is None:
                inv = pow(x, -1, p)
                echelon[c] = [y * inv % p for y in v]
                if len(echelon) == ncols:
                    return True
                break
            for j in range(c + 1, ncols):
                v[j] = (v[j] - x * piv[j]) % p
    return False


def screened_guess(coeffs, config, p):
    """(operator or None, number of exact eliminations) of the loop that screened shape by shape modulo p."""
    series = [Fraction(c) for c in coeffs]
    y = PowerSeries(series, len(series) - 1)
    table = cleared_table(series, config.max_order)
    exact = 0
    for n in range(1, config.max_order + 1):
        for r in range(config.max_degree + 1):
            ncols = (n + 1) * (r + 1)
            rows = shape_rows(table, n, r)
            if full_rank_mod_p(rows, ncols, p):
                continue
            exact += 1
            for vec in full_nullspace([_integer_row(row) for row in rows], ncols):
                polys = [Polynomial(vec[i * (n + 1):(i + 1) * (n + 1)]) for i in range(r + 1)]
                if all(q.is_zero for q in polys):
                    continue
                cand = ThetaOperator.from_theta_polys(polys)
                if apply_to_series(cand, y) == y.order - cand.r:
                    return cand, exact
    return None, exact

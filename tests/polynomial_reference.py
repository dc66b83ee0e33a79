"""Polynomial division, composition and products as Polynomial expressions, kept as test-only references.

Polynomial.__divmod__, Polynomial.compose and arith.zmul run on plain
coefficient lists and build a Polynomial only for what they return.  These
are the bodies they replaced: each step of the division adds and subtracts
padded monomials c*t^k, Horner's rule is `out * other + c` on Polynomials,
and zmul adds every product into the int 0.  The kernels must give the same
coefficients with the same scalar types, a zero-sqrt QuadraticNumber or a
Fraction, as these.
"""

from picardfuchs.arith import Polynomial


def reference_divmod(p, q):
    """(quotient, remainder) of Polynomials p and q, q nonzero, by Polynomial sums and products."""
    quo, rem = Polynomial(()), p
    inv = 1 / q.lead
    while not rem.is_zero and rem.degree >= q.degree:
        k = rem.degree - q.degree
        c = rem.lead * inv
        quo = quo + Polynomial([0] * k + [c])
        rem = rem - Polynomial([0] * k + [c]) * q
    return quo, rem


def reference_compose(p, other):
    """p(other) by Horner's rule on Polynomials."""
    out = Polynomial(())
    for c in reversed(p.coeffs):
        out = out * other + c
    return out


def reference_zmul(a, b):
    """The product of coefficient lists a and b, each product added into the int 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out

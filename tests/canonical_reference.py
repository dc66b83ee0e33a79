"""The theta -> d -> theta round trip that the strong canonical form once took, kept as a test-only reference.

The package takes the canonical form once on a derivative form: over Q on
integer lists (optheta.canonical_from_rows), over Q(sqrt d) with Polynomial
arithmetic (optheta.canonical_from_d).  This is the body
ThetaOperator.normalized() had before: strip t-powers, convert to the
derivative form, divide by the monic gcd of its coefficients, convert back
and clear the content.  Every step here is Polynomial arithmetic with
Euclid's gcd over the coefficient field, as the package had it before its
integer path, so the reference does not share that path.  The transforms
then normalized a theta form they had just built from a derivative form, so
their reference is reference_from_d below.
"""

from picardfuchs.arith import Polynomial
from picardfuchs.optheta import DOperator, ThetaOperator, stirling2


def euclid_gcd(p, q):
    """Monic gcd by Euclid's algorithm over the coefficient field."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def reference_d_from_theta(op):
    n = op.order
    out = [Polynomial(()) for _ in range(n + 1)]
    for i, p in enumerate(op.theta_coeffs):
        for k, pk in enumerate(p.coeffs):
            if not pk:
                continue
            for j in range(k + 1):
                s = stirling2(k, j)
                if s:
                    out[j] = out[j] + Polynomial([0] * (i + j) + [pk * s])
    return DOperator(out)


def reference_theta_from_d(dop):
    n = dop.order
    polys = []
    for j, c in enumerate(dop.d_coeffs):
        ff = Polynomial((1,))
        for i in range(j):
            ff = ff * Polynomial((-i, 1))
        shifted = Polynomial([0] * (n - j) + list(c.coeffs))
        for m, gamma in enumerate(shifted.coeffs):
            if not gamma:
                continue
            while len(polys) <= m:
                polys.append(Polynomial(()))
            polys[m] = polys[m] + ff * gamma
    return ThetaOperator(polys).t_stripped().cleared()


def reference_normalized(op):
    op = op.t_stripped()
    if op.is_zero:
        return op.cleared()
    dop = reference_d_from_theta(op)
    g = Polynomial(())
    for c in dop.d_coeffs:
        g = euclid_gcd(g, c)
    if g.degree > 0:
        dop = DOperator([c / g for c in dop.d_coeffs])
        op = reference_theta_from_d(dop)
    return op.cleared()


def reference_from_d(d_coeffs):
    """Canonical form of a derivative form by the round trip the transforms took."""
    return reference_normalized(reference_theta_from_d(DOperator(d_coeffs)))

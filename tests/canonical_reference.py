"""The theta -> d -> theta round trip that the strong canonical form once took, kept as a test-only reference.

The package takes the canonical form once on a derivative form
(optheta.canonical_from_d).  This is the body ThetaOperator.normalized() had
before: strip t-powers, convert to the derivative form, divide by the monic
gcd of its coefficients, convert back and clear the content.  The transforms
then normalized a theta form they had just built from a derivative form, so
their reference is reference_from_d below.
"""

from picardfuchs.arith import Polynomial, poly_gcd
from picardfuchs.optheta import DOperator, d_from_theta, theta_from_d


def reference_normalized(op):
    op = op.t_stripped()
    if op.is_zero:
        return op.cleared()
    dop = d_from_theta(op)
    g = Polynomial(())
    for c in dop.d_coeffs:
        g = poly_gcd(g, c)
    if g.degree > 0:
        dop = DOperator([c / g for c in dop.d_coeffs])
        op = theta_from_d(dop)
    return op.cleared()


def reference_from_d(d_coeffs):
    """Canonical form of a derivative form by the round trip the transforms took."""
    return reference_normalized(theta_from_d(DOperator(d_coeffs)))

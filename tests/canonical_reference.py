"""The theta -> d -> theta round trip that the strong canonical form once took, kept as a test-only reference.

The package takes the canonical form once on a derivative form: over Q on
integer lists (optheta.canonical_from_rows), over Q(sqrt d) with a Euclid gcd
and content clearing on Polynomial (optheta.canonical_from_d).  This is the body
ThetaOperator.normalized() had before: strip t-powers, convert to the
derivative form, divide by the monic gcd of its coefficients, convert back
and clear the content.  Every step here is Polynomial arithmetic with
Euclid's gcd over the coefficient field, as the package had it before its
integer path, so the reference does not share that path.  The transforms
then normalized a theta form they had just built from a derivative form, so
their reference is reference_from_d below.

The conversions, the expansion of the transforms and the canonical form of a
derivative form are kept here as Polynomial expressions too
(reference_d_from_theta, reference_theta_from_d, reference_expand,
reference_canonical_from_d), calling no package conversion or canonical form:
the package runs them on coefficient lists, over Q and over Q(sqrt d), and
must give the scalar types these give.
"""

from picardfuchs.arith import Polynomial
from picardfuchs.errors import ZeroOperator
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


def reference_canonical_from_d(d_coeffs):
    """optheta.canonical_from_d in Polynomial arithmetic: Euclid's gcd, division by it, reference_theta_from_d."""
    g = Polynomial(())
    for c in d_coeffs:
        g = euclid_gcd(g, c)
    if g.degree > 0:
        d_coeffs = [c / g for c in d_coeffs]
    return reference_theta_from_d(DOperator(d_coeffs))


def reference_expand(coeffs, alpha, beta, gamma):
    """reference_canonical_from_d of sum_k coeffs[k] * X^k, X = (alpha*D + gamma)/beta, in Polynomial arithmetic.

    The expression tree is the one transform._expand follows step by step;
    reference_expand_rows returns its derivative-form rows.
    """
    return reference_canonical_from_d(reference_expand_rows(coeffs, alpha, beta, gamma))


def reference_expand_rows(coeffs, alpha, beta, gamma):
    if not coeffs:
        raise ZeroOperator("transform produced the zero operator")
    zero = Polynomial(())
    dbeta, beta2, gamma_beta = beta.derivative(), beta * beta, gamma * beta
    row = [Polynomial((1,))]
    acc = [coeffs[0]]
    for k in range(1, len(coeffs)):
        e = 2 * (k - 1)
        pad = [zero] + row + [zero]
        row = [
            alpha * (n.derivative() * beta - n * dbeta * e + m * beta) + gamma_beta * n
            for m, n in zip(pad, pad[1:])
        ]
        acc = [a * beta2 + coeffs[k] * r for a, r in zip(acc + [zero], row)]
    return acc

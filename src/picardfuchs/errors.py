"""Exception types shared across the package."""


class ZeroPolynomial(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class UnresolvedFactor(ValueError):
    """A factor's roots lie outside the fields the root search returns.

    That is an irreducible rational factor of degree >= 3, or, for
    coefficients in Q(sqrt d), a rational quadratic factor with roots in
    another quadratic field.  The offending factor is kept in .factor so
    callers can report it.
    """

    def __init__(self, factor):
        self.factor = factor
        super().__init__("factor with roots outside the supported fields: %s" % (factor,))


class InvalidDiscriminant(ValueError):
    """A quadratic number was tagged with d = 0, d = 1 or a d with a square factor: not a squarefree field tag."""


class MixedFields(ValueError):
    """Arithmetic met numbers of two different quadratic fields Q(sqrt d) and Q(sqrt e)."""


class InexactScalar(ValueError):
    """A scalar was given as a float or a bool, or a quadratic field tag as anything but an int: it has no exact reading."""


class FactorizationFailed(ValueError):
    """An integer has a composite part that trial division below 10^7 does not split."""


class NonPositiveInteger(ValueError):
    """An integer factorization was asked of an integer below 1."""


class InvalidPower(ValueError):
    """A power was asked with an exponent that is not an integer >= 0."""


class ZeroRadicand(ValueError):
    """A quadratic square root or a squarefree part was asked of zero, which has no field tag."""


class NotASingularCandidate(ValueError):
    """Indicial data requested at a point that is not 0, infinity, or a leading-coefficient root."""


class IrrationalExponent(ValueError):
    """An indicial root lies outside the rationals and quadratic irrationals."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__("indicial factor with unsupported roots: %s" % (factor,))


class IrregularSingularity(ValueError):
    """The indicial polynomial at a point has degree below the order: the point is an irregular singularity."""


class OrderZeroOperator(ValueError):
    """An operator of order 0 has no exponents and no local solutions."""


class UnclassifiedPattern(ValueError):
    """Exponent/Jordan data outside the classification decision table."""

    def __init__(self, exponents, blocks):
        self.exponents = exponents
        self.blocks = blocks
        super().__init__("unclassified local pattern: exponents %s, blocks %s" % (exponents, blocks))


class TruncationTooLow(ValueError):
    """A series truncation N is too short for the operator or its resonances."""


class FrobeniusInvariant(ValueError):
    """An invariant of the Frobenius construction failed; no basis is returned."""


class NotEven(ValueError):
    """Operator is not invariant under the rotation required for descent."""


class ZeroOperator(ValueError):
    """A transformation was given the zero operator, so it produced the zero operator."""


class DegenerateTransform(ValueError):
    """A transformation's data is degenerate: a singular Mobius matrix, a constant substitution, a shift at infinity, a power below 1."""


class NoCoupling(ValueError):
    """An operator of order below 1 has no Yukawa coupling."""


class NonrationalYukawa(ValueError):
    """Yukawa data needs simple poles with supported-field residues."""


class VanishingConstantTerm(ValueError):
    """The five-plane factor vanishes at the origin; no conifold expansion."""


class NegativeExponent(ValueError):
    """A simplex monomial integral was asked with a negative exponent."""


class InexactDivision(ValueError):
    """An exact division met a remainder: in an integer kernel whose integrality argument rules one out, or a polynomial `/`."""


class InconsistentRecurrence(ValueError):
    """A recurrence step has a zero leading coefficient but a nonzero right-hand side."""


class RecurrenceObstruction(ValueError):
    """A recurrence step has a zero leading coefficient and a zero right-hand side, so its value is free."""


class InsufficientTerms(ValueError):
    """Too few series terms for the requested guessing box or recurrence."""


class InvalidGuessBox(ValueError):
    """A guessing box needs max_order >= 1, max_degree >= 0 and margin >= 1."""


class ZeroSeries(ValueError):
    """Guessing was asked for the zero series, which every operator annihilates."""


class NoEtaProduct(ValueError):
    """The named modular form has a coefficient table but no eta-product."""


class CoefficientOutOfRange(ValueError):
    """A q-series coefficient was asked below q^0 or beyond the truncation."""


class NonUnitConstantTerm(ValueError):
    """An integer series was inverted whose constant term is not +-1, so the inverse is not integral."""


class InvalidEtaProduct(ValueError):
    """An eta product needs a leading power >= 0 and factors (m, e) with m >= 1 and e != 0."""


class InvalidFormRecord(ValueError):
    """A form's prime table is misaligned with its primes, or the primes are not increasing."""


class EvenPrime(ValueError):
    """Point counting needs an odd prime."""


class NotPrime(ValueError):
    """Point counting needs a prime modulus."""


class BadReduction(ValueError):
    """An octic coefficient has a denominator divisible by the prime, so the octic has no reduction there."""


class InvalidOctic(ValueError):
    """An octic is neither homogeneous monomials of degree 8 in four variables nor eight linear forms."""


class InvalidTetraForm(ValueError):
    """A tetra-form term or plane has the wrong shape, or its truncation is negative."""


class ChainBroken(RuntimeError):
    """A scripted reduction chain diverged from its recorded expectation."""

    def __init__(self, step, detail=""):
        self.step = step
        msg = "reduction chain broken at step: %s" % (step,)
        if detail:
            msg += " (%s)" % (detail,)
        super().__init__(msg)

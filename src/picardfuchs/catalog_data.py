"""Golden tables: operators, exponent tables, decorations, Hodge data.

Every operator is entered below in the factored fractional shape of its
source table and canonicalized by ThetaOperator.from_theta_polys (common
denominator cleared, integer content removed, leading sign fixed).  The
factored constructors therefore double as the transcription record that maps
each printed form to the stored integer coefficients.

Exponent tables are stored in printed column order.  Decorations are form
names aligned to the same columns; arrangements whose decorated table was
never printed carry None.  Expected degeneration labels per column are stored
as plain strings matching frobenius.PointType values.

The octics live in qexp.OCTICS, with their transcription flags.

Transcription flags, kept in the notes fields and in this docstring:
  - 248: the printed Hodge label reads h12 where the h11 column pattern of
    its neighbours applies.
  - descent-153: the printed closed form has t^0 coefficient
    Theta(4Theta-1)(2Theta-1), one degree short of the operator order, and
    printed infinity exponents (1/4,3/4,3/4,5/4).  The squared factor
    (4Theta-1)^2 restores the printed exponents at 0 and the printed finite
    singular point, and the reduction chain reproduces that repaired
    operator; its recomputed infinity exponents are (1/4,1/2,1,5/4).
    Its DERIVED row lists (oo,) as its printed discrepancy points, the
    column before its notes, so verify_catalog reports that column as
    NOTED; the other derived rows list ().
  - descent-35-further, reduction-266: the printed closed forms are stated
    in a doubled variable (leading coefficients vanish at -1/16 and -1/72)
    while the printed exponent tables live at -1/8 and -1/36.  The printed
    pullback relation onto descent-35 only closes in the table normalization,
    so the stored coefficients follow the tables.
"""

from fractions import Fraction as Q

from .arith import Polynomial, QuadraticNumber
from .optheta import ThetaOperator

oo = None  # infinity marker in point columns; converted by catalog.py


def P(*coeffs):
    """Polynomial in Theta with ascending coefficients."""
    return Polynomial(tuple(Q(c) for c in coeffs))


def pr(*factors, scale=1):
    out = P(scale)
    for f in factors:
        out = out * f
    return out


TH = P(0, 1)


def op(*polys):
    return ThetaOperator.from_theta_polys(list(polys))


def half(*cs):
    return tuple(Q(c) for c in cs)


# quadratic singular points of 266/273: (-1 +- sqrt(-3))/4
Q_PLUS = QuadraticNumber(Q(-1, 4), Q(1, 4), -3)
Q_MINUS = QuadraticNumber(Q(-1, 4), Q(-1, 4), -3)


# ---------------------------------------------------------------------------
# operators, order 2

OPERATORS = {}

OPERATORS[4] = op(pr(TH, TH), pr(P(Q(1, 2), 1), P(Q(1, 2), 1), scale=-1))
OPERATORS[13] = op(pr(TH, TH), pr(P(Q(1, 2), 1), P(Q(1, 2), 1)))
OPERATORS[34] = op(pr(TH, TH), P(), pr(P(Q(1, 2), 1), P(Q(1, 2), 1), scale=-1))
OPERATORS[72] = op(pr(TH, TH), P(Q(-1, 2), -2, -3), pr(P(1, 1), P(1, 2)))
OPERATORS[261] = op(pr(TH, TH), P(), pr(P(1, 1), P(1, 1), scale=-1))
OPERATORS[264] = op(pr(TH, TH), P(), pr(P(1, 1), P(1, 1), scale=Q(-1, 4)))
OPERATORS[270] = op(pr(TH, TH), P(Q(1, 2), Q(3, 2), Q(3, 2)), pr(P(1, 1), P(1, 1), scale=Q(1, 2)))

# order 4

OPERATORS[33] = op(
    pr(TH, TH, P(-1, 1), P(-1, 1)),
    pr(TH, TH, P(3, 0, 20), scale=Q(-1, 8)),
    pr(P(3, 8, 8), P(1, 2), P(1, 2), scale=Q(1, 16)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(-1, 32)),
)
OPERATORS[70] = op(
    pr(TH, TH, P(-1, 1), P(-1, 1)),
    pr(TH, TH, P(3, 0, 20), scale=Q(1, 8)),
    pr(P(3, 8, 8), P(1, 2), P(1, 2), scale=Q(1, 16)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(1, 32)),
)
OPERATORS[35] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, TH, P(3, 0, 4), scale=Q(-1, 4)),
    pr(P(1, 1, 1), P(1, 2), P(1, 2), scale=Q(-1, 4)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 4)),
)
OPERATORS[71] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, TH, P(1, 0, 4)),
    pr(P(9, 20, 20), P(1, 2), P(1, 2), scale=Q(1, 16)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(1, 8)),
)
OPERATORS[97] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, TH, P(7, 0, 20), scale=Q(1, 8)),
    pr(P(7, 16, 16), P(1, 2), P(1, 2), scale=Q(1, 32)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(1, 32)),
)
OPERATORS[98] = op(
    pr(TH, TH, P(-1, 1), P(-1, 1)),
    pr(TH, TH, P(3, 0, 16), scale=Q(-1, 4)),
    pr(P(3, 5, 5), P(1, 2), P(1, 2), scale=Q(1, 4)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(-1, 2)),
)
OPERATORS[152] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, P(-1, 6, -8, 2), scale=Q(1, 2)),
    P(Q(-11, 16), Q(-17, 4), Q(-11, 4), -4, -2),
    P(Q(9, 8), Q(7, 2), Q(1, 4), 0, -2),
    pr(P(1, 2), P(25, 62, 44, 8), scale=Q(1, 16)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 4)),
)
OPERATORS[153] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, P(-2, 17, -16, 28), scale=Q(1, 8)),
    P(Q(19, 64), Q(13, 8), Q(39, 8), Q(7, 2), Q(19, 4)),
    P(Q(89, 128), Q(7, 2), Q(109, 16), 6, Q(25, 8)),
    pr(P(1, 2), P(29, 82, 80, 32), scale=Q(1, 64)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 32)),
)
OPERATORS[197] = op(
    pr(TH, TH, P(Q(-1, 2), 1), P(Q(1, 2), 1)),
    pr(P(1, 2), P(5, 18, 16, 32), scale=Q(1, 8)),
    P(Q(145, 16), 37, Q(121, 2), 52, 25),
    P(Q(307, 8), 133, 183, 124, 38),
    pr(P(1, 1), P(63, 133, 100, 28)),
    pr(P(2, 1), P(1, 1), P(3, 2), P(3, 2), scale=2),
)
OPERATORS[198] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, TH, P(5, 0, 24), scale=Q(1, 8)),
    P(Q(5, 16), Q(29, 16), Q(81, 16), Q(13, 2), Q(13, 4)),
    P(Q(25, 32), 4, 8, 6, Q(3, 2)),
    pr(P(5, 2), P(5, 2), P(1, 2), P(1, 2), scale=Q(1, 64)),
)
OPERATORS[243] = op(
    pr(TH, P(-2, 1), P(-1, 1), P(-1, 1)),
    pr(TH, P(-1, 1), P(9, -19, 19), scale=Q(-1, 6)),
    pr(TH, TH, P(4, 0, 11), scale=Q(1, 3)),
    pr(P(5, 11, 11), P(1, 2), P(1, 2), scale=Q(-1, 24)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(1, 48)),
)
OPERATORS[247] = op(
    pr(TH, TH, P(-1, 1), P(-1, 1)),
    pr(TH, TH, P(1, 0, 5)),
    pr(P(1, 2, 2), P(1, 2), P(1, 2)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1)),
)
OPERATORS[248] = op(
    pr(TH, P(-2, 1), P(-1, 1), P(-1, 1)),
    pr(TH, P(-1, 1), P(36, -61, 37), scale=Q(1, 6)),
    pr(TH, P(-36, 121, -124, 91), scale=Q(1, 6)),
    P(Q(1, 2), Q(2, 3), Q(107, 6), Q(-5, 3), Q(115, 6)),
    P(Q(3, 2), 8, Q(113, 6), 16, Q(79, 6)),
    pr(P(1, 2), P(9, 27, 29, 14), scale=Q(1, 6)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 6)),
)
OPERATORS[250] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, P(-12, 65, -96, 44), scale=Q(1, 8)),
    P(Q(-1, 4), Q(-47, 8), Q(131, 8), -23, Q(19, 2)),
    P(Q(-17, 32), Q(-23, 4), 0, -20, Q(5, 2)),
    pr(P(53, 100, 68), P(1, 2), P(1, 2), scale=Q(-1, 32)),
    pr(P(9, 14, 8), P(1, 2), P(1, 2), scale=Q(-1, 4)),
    pr(P(3, 2), P(3, 2), P(1, 2), P(1, 2), scale=Q(-1, 8)),
)
OPERATORS[252] = op(
    pr(TH, TH, P(-1, 1), P(-1, 1)),
    pr(TH, TH, P(1, 0, 5), scale=Q(1, 2)),
    pr(P(1, 2, 2), P(1, 2), P(1, 2), scale=Q(1, 4)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 8)),
)
OPERATORS[258] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, P(6, -21, 48, 20), scale=Q(1, 8)),
    P(Q(11, 8), Q(47, 8), Q(39, 2), 19, -1),
    P(Q(37, 8), Q(127, 8), Q(61, 2), -5, -5),
    P(Q(7, 8), Q(-9, 8), Q(-21, 2), -21, -1),
    pr(P(1, 2), P(-13, -27, -9, 10), scale=Q(1, 8)),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=Q(1, 4)),
)
OPERATORS[266] = op(
    pr(TH, P(-1, 1), P(Q(-1, 2), 1), P(Q(-1, 2), 1)),
    pr(TH, P(-6, 37, -48, 44), scale=Q(1, 4)),
    P(Q(3, 8), Q(-5, 2), 40, -56, 50),
    P(-21, -105, -75, -288, 120),
    P(Q(-303, 2), -720, -718, -1008, 112),
    P(-324, -1628, -1924, -2464, -224),
    P(-450, -2448, -4296, -4224, -960),
    P(-696, -3504, -6368, -4992, -1600),
    pr(P(1, 2), P(21, 59, 57, 22), scale=-32),
    pr(P(3, 2), P(1, 2), P(1, 1), P(1, 1), scale=-128),
)
OPERATORS[273] = OPERATORS[266]


# ---------------------------------------------------------------------------
# printed exponent tables, decorations, expected labels, Hodge numbers, notes
#
# Each entry: (columns, decorations or None, labels, h11, h12, notes).
# A column is (point, exponents); points are Fraction | QuadraticNumber | oo.

ARRANGEMENT_TABLES = {
    4: (
        ((1, (0, 0)), (0, (0, 0)), (oo, half(Q(1, 2), Q(1, 2)))),
        None, ("K", "K", "K"), None, None, "",
    ),
    13: (
        ((0, (0, 0)), (-1, (0, 0)), (oo, half(Q(1, 2), Q(1, 2)))),
        None, ("K", "K", "K"), None, None,
        "product of the rigid double sextic with an elliptic pencil",
    ),
    34: (
        ((1, half(0, Q(1, 2))), (0, (0, 0)), (-1, half(0, Q(1, 2))), (oo, half(Q(1, 2), Q(1, 2)))),
        None, ("F", "K", "F", "K"), None, None, "",
    ),
    72: (
        ((1, (0, 0)), (Q(1, 2), half(0, Q(1, 2))), (0, (0, 0)), (oo, half(Q(1, 2), 1))),
        None, ("K", "F", "K", "F"), None, None, "",
    ),
    261: (
        ((1, (0, 0)), (0, (0, 0)), (-1, (0, 0)), (oo, (1, 1))),
        None, ("K", "K", "K", "K"), None, None, "",
    ),
    264: (
        ((2, (0, 0)), (0, (0, 0)), (-2, (0, 0)), (oo, (1, 1))),
        None, ("K", "K", "K", "K"), None, None,
        "eighth octic factor printed as y+2-2z; stored with the constant homogenized to 2v",
    ),
    270: (
        ((0, (0, 0)), (-1, (0, 0)), (-2, (0, 0)), (oo, (1, 1))),
        None, ("K", "K", "K", "K"), None, None,
        "constant tensor factor carries the weight-3 form 8 instead of 16",
    ),
    33: (
        ((0, (0, 0, 1, 1)), (1, half(0, Q(1, 2), Q(1, 2), 1)), (2, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        ("8", "32/2", "8/1", "16"), ("K", "C", "C", "K"), 49, 1,
        "birational partner of 70 (parameter sign flip); parametrisation slightly "
        "adjusted relative to the source list",
    ),
    70: (
        ((0, (0, 0, 1, 1)), (-1, half(0, Q(1, 2), Q(1, 2), 1)), (-2, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        None, ("K", "C", "C", "K"), 49, 1, "birational partner of 33",
    ),
    35: (
        ((1, (0, 0, 1, 1)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("8", "8/1", "8/1", "8/1"), ("K", "C", "C", "C"), 49, 1,
        "reduces to the same three-point operator family as 247/252",
    ),
    71: (
        ((0, half(0, Q(1, 2), Q(1, 2), 1)), (Q(-1, 2), (0, 1, 1, 2)),
         (-1, half(0, Q(1, 2), Q(1, 2), 1)), (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        None, ("C", "C", "C", "K"), 49, 1, "operator equivalent to 35",
    ),
    97: (
        ((0, half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 0, 1, 1)), (-2, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        ("32/1", "8", "8/1", "8"), ("C", "K", "C", "K"), 45, 1, "birational partner of 98",
    ),
    98: (
        ((1, (0, 0, 1, 1)), (Q(1, 2), (0, 1, 1, 2)), (0, (0, 0, 1, 1)),
         (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        None, ("K", "C", "K", "C"), 45, 1,
        "symmetric about the finite conifold point; both degenerate fibres carry form 8",
    ),
    152: (
        ((1, half(0, Q(1, 2), Q(1, 2), 1)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 0, 2, 2)),
         (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("32/1", "8/1", "8", "8/1"), ("C", "C", "K", "C"), 41, 1,
        "one printed table swaps the columns at 1 and -1; stored exponents follow the "
        "appendix listing, which matches the weight pattern of the decorations",
    ),
    153: (
        ((0, half(0, Q(1, 2), Q(1, 2), 1)), (-1, half(0, Q(1, 2), Q(1, 2), 1)),
         (-2, half(0, Q(1, 2), Q(3, 2), 2)), (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("32/1", "32/2", "8/1", "32/2"), ("C", "C", "A", "C"), 41, 1,
        "order-two local monodromy at -2, no logarithms; the fibre there specialises "
        "to rigid configuration 93",
    ),
    197: (
        ((0, half(Q(-1, 2), 0, 0, Q(1, 2))), (Q(-1, 2), half(0, Q(1, 2), Q(3, 2), 2)),
         (-1, half(0, Q(1, 2), Q(1, 2), 1)), (oo, half(1, Q(3, 2), Q(3, 2), 2))),
        None, ("C", "A", "C", "C"), 41, 1, "birational partner of 153",
    ),
    198: (
        ((0, half(0, Q(1, 2), Q(1, 2), 1)), (-1, half(0, Q(1, 2), Q(1, 2), 1)),
         (-2, half(0, Q(1, 2), Q(1, 2), 1)), (oo, half(Q(1, 2), Q(1, 2), Q(5, 2), Q(5, 2)))),
        None, ("C", "C", "C", "K"), 41, 1, "operator equivalent to 152",
    ),
    243: (
        ((2, (0, 1, 1, 2)), (Q(3, 2), (0, 1, 1, 2)), (1, half(0, Q(1, 2), Q(1, 2), 1)),
         (0, (0, 1, 1, 2)), (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        ("8/1", "6/1", "32/2", "12/1", "8"), ("C", "C", "C", "C", "K"), 39, 1,
        "not reducible: the forms at the degenerate fibres are pairwise distinct",
    ),
    247: (
        ((0, (0, 0, 1, 1)), (Q(-1, 2), half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        None, ("K", "C", "C", "C"), 37, 1, "birational partner of 252",
    ),
    248: (
        ((0, (0, 1, 1, 2)), (Q(-1, 2), (0, 1, 1, 2)), (-1, (0, 0, 2, 2)),
         (Q(-3, 2), (0, 1, 1, 2)), (-2, (0, 1, 1, 2)), (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("12/1", "6/1", "16", "6/1", "12/1", "32/1"), ("C", "C", "K", "C", "C", "C"), 37, 1,
        "octic stored verbatim (third moving factor not linear, sic); printed Hodge "
        "label reads h12 where the h11 pattern applies",
    ),
    250: (
        ((1, (0, 1, 1, 2)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (Q(-1, 2), (0, 1, 3, 4)),
         (-1, half(0, Q(1, 2), Q(1, 2), 1)), (-2, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), Q(1, 2), Q(3, 2), Q(3, 2)))),
        ("6/1", "8/1", "h", "8/1", "6/1", "8"), ("C", "C", "Apparent", "C", "C", "K"), 37, 1,
        "fibres at t and -1-t differ by a quadratic twist by 2; rigid specialisations "
        "69 and 93 at 0 and -1, 245 and 240 at 1 and -2",
    ),
    252: (
        ((0, (0, 0, 1, 1)), (-1, half(0, Q(1, 2), Q(1, 2), 1)), (-2, (0, 1, 1, 2)),
         (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        None, ("K", "C", "C", "C"), 37, 1, "birational partner of 247 (parameter doubled)",
    ),
    258: (
        ((1, (0, 1, 3, 4)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (Q(-1, 2), (0, 1, 1, 2)),
         (-1, (0, 0, 1, 1)), (-2, (0, 1, 1, 2)), (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        None, ("Apparent", "C", "C", "K", "C", "C"), 37, 1, "birational partner of 250",
    ),
    266: (
        ((Q(1, 2), (0, 1, 1, 2)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (Q(-1, 4), (0, 1, 1, 2)),
         (Q(-1, 2), half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 1, 1, 2)),
         (Q_PLUS, (0, 1, 3, 4)), (Q_MINUS, (0, 1, 3, 4)), (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("6/1", "32/1", "6/1", "32/1", "6/1", "?", "?", "32/1"),
        ("C", "C", "C", "C", "C", "Apparent", "Apparent", "C"), 37, 1,
        "operator identical to 273; six planes in general position distinguish the "
        "configurations",
    ),
    273: (
        ((Q(1, 2), (0, 1, 1, 2)), (0, half(0, Q(1, 2), Q(1, 2), 1)), (Q(-1, 4), (0, 1, 1, 2)),
         (Q(-1, 2), half(0, Q(1, 2), Q(1, 2), 1)), (-1, (0, 1, 1, 2)),
         (Q_PLUS, (0, 1, 3, 4)), (Q_MINUS, (0, 1, 3, 4)), (oo, half(Q(1, 2), 1, 1, Q(3, 2)))),
        ("6/1", "32/1", "6/1", "32/1", "6/1", "?", "?", "32/1"),
        ("C", "C", "C", "C", "C", "Apparent", "Apparent", "C"), 37, 1,
        "operator identical to 266",
    ),
}


# ---------------------------------------------------------------------------
# derived three-point operators
#
# name: (operator, columns, decorations, labels, source id, chain name,
#        printed discrepancy points, notes)

DERIVED = {
    "descent-98": (
        op(
            pr(TH, TH, P(-1, 1), P(-1, 1)),
            pr(TH, TH, P(3, 0, 32)),
            pr(P(1, 4), P(1, 2), P(1, 2), P(3, 4), scale=4),
        ),
        ((0, (0, 0, 1, 1)), (Q(-1, 16), half(0, Q(1, 2), Q(1, 2), 1)),
         (oo, half(Q(1, 4), Q(1, 2), Q(1, 2), Q(3, 4)))),
        ("8", "8/1", "32/1"), ("K", "C", "C"), 98, "98descent", (), "",
    ),
    "descent-35": (
        op(
            pr(TH, TH, P(-1, 2), P(-1, 2)),
            pr(P(1, 2, 4), P(1, 4), P(1, 4)),
            pr(P(1, 4), P(3, 4), P(3, 4), P(5, 4)),
        ),
        ((0, half(0, 0, Q(1, 2), Q(1, 2))), (Q(-1, 8), half(0, Q(1, 2), Q(1, 2), 1)),
         (oo, half(Q(1, 4), Q(3, 4), Q(3, 4), Q(5, 4)))),
        ("8", "8/1", "8/1"), ("K", "C", "C"), 35, "35descent", (), "",
    ),
    "descent-35-further": (
        op(
            pr(TH, TH, P(-1, 4), P(-1, 4)),
            pr(P(1, 8), P(4, 19, 28, 32)),
            pr(P(1, 8), P(9, 8), P(5, 8), P(5, 8), scale=Q(1, 4)),
        ),
        ((0, half(0, 0, Q(1, 4), Q(1, 4))), (Q(-1, 8), half(0, Q(1, 2), 1, Q(3, 2))),
         (oo, half(Q(1, 8), Q(5, 8), Q(5, 8), Q(9, 8)))),
        ("8", "?", "8/1"), ("K", "F", "C"), 35, "35descent2", (),
        "no form identified at -1/8 (order-two monodromy), decoration stored as ?; "
        "the printed closed form is stated in a doubled variable (its leading "
        "coefficient vanishes at -1/16), while the printed exponent table and the "
        "printed pullback relation both live at -1/8, so the stored coefficients "
        "follow the table",
    ),
    "descent-153": (
        op(
            pr(TH, P(-1, 4), P(-1, 4), P(-1, 2)),
            pr(P(1, 4), P(1, 4), P(1, 2, 4), scale=-1),
            pr(P(1, 4), P(1, 2), P(5, 4), P(1, 1)),
        ),
        ((0, half(0, Q(1, 4), Q(1, 4), Q(1, 2))), (1, half(0, Q(1, 2), Q(1, 2), 1)),
         (oo, half(Q(1, 4), Q(3, 4), Q(3, 4), Q(5, 4)))),
        ("32/1", "32/2", "8/1"), ("C", "C", "A"), 153, "153descent", (oo,),
        "printed t^0 factor lacks the square on (4Theta-1) and the printed exponents "
        "at infinity repeat the descent-35 column; the stored operator follows the "
        "reduction chain, with recomputed infinity exponents (1/4,1/2,1,5/4)",
    ),
    "reduction-266": (
        op(
            pr(TH, P(-1, 3), P(-1, 1), P(-4, 3), scale=4),
            pr(TH, P(-1, 3), P(35, -96, 288), scale=3),
            pr(P(1, 12), P(1, 3), P(1, 3), P(7, 12), scale=36),
        ),
        ((0, half(0, Q(1, 3), 1, Q(4, 3))), (Q(-1, 36), half(0, Q(1, 2), Q(1, 2), 1)),
         (oo, half(Q(1, 12), Q(1, 3), Q(1, 3), Q(7, 12)))),
        ("?", "6/1", "32/1"), ("A", "C", "C"), 266, "266chain", (),
        "the printed closed form is stated in a doubled variable (its leading "
        "coefficient vanishes at -1/72) while the printed exponent table places "
        "the conifold point at -1/36; the stored coefficients follow the table",
    ),
}


# ---------------------------------------------------------------------------
# tetrahedron demonstration data
#
# Arrangement 33 near its conifold point t = 2: the moving plane
# x - y - z + t v meets the triple point (1, -1, 0, -1) of z, x + y,
# x - z + v exactly at t = 2.  With s = t - 2 and the constant change of
# coordinates
#   X = -z,  Y = x + y,  Z = -2(x - z + v),  W = v   (chart W = 1)
# the combination X + Y + Z + (x - y - z + t v) equals s W, so the octic
# becomes X Y Z (s - X - Y - Z) times the four remaining planes.  Those
# remaining planes, rescaled by constants (an overall constant twist), give
#   P = (1 + X + Z/2) (1 + X + Y + Z/2) (1 + Y + Z/2),   P(0,0,0,0) = 1.
# The coordinate change is constant in s, so the period of this tetrahedron
# form satisfies the arrangement operator translated by 2.

TETRA_DEMO = {
    "arrangement": 33,
    "base_point": Q(2),
    "planes": (
        (1, 1, 0, Q(1, 2), 0),
        (1, 1, 1, Q(1, 2), 0),
        (1, 0, 1, Q(1, 2), 0),
    ),
}

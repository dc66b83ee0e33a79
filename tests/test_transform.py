"""Exponent shifts, coordinate changes, power pullbacks, coupling data."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardfuchs import (
    CATALOG,
    DERIVED_OPERATORS,
    INFINITY,
    MobiusMap,
    SingularPoint,
    ThetaOperator,
    classify_point,
    descend_quadratic,
    mobius,
    pullback_power,
    riemann_symbol,
    shift_exponents,
    yukawa,
)
from picardfuchs import transform
from picardfuchs.arith import Polynomial, QuadraticNumber, RationalFunction, poly_gcd
from picardfuchs.errors import DegenerateTransform, NotEven
from picardfuchs.optheta import d_from_theta, singular_points
from picardfuchs.transform import (
    ShiftAssignment,
    descend_power,
    negate_variable,
    pullback_rational,
    translate_to_origin,
)

from canonical_reference import reference_from_d
from shapes import fuchsian_shapes, rational_maps


def P(*cs):
    return Polynomial([Fraction(c) for c in cs])


LEGENDRE = ThetaOperator.from_theta_polys([P(0, 0, 1), P(-4, -16, -16)])


def _norm_eq(a, b):
    return a.normalized() == b.normalized()


# ---------------------------------------------------------------------------
# mobius maps


def test_mobius_map_point_action():
    m = MobiusMap(0, 1, 1, -1)  # t = 1/(s-1)
    assert m(SingularPoint(1)) == INFINITY
    assert m(INFINITY) == SingularPoint(0)
    assert m(SingularPoint(2)) == SingularPoint(1)
    assert m.compose(m.inverse()) == MobiusMap.identity()


def test_mobius_rejects_singular_matrix():
    with pytest.raises(DegenerateTransform, match=r"^coefficient matrix is singular$"):
        MobiusMap(1, 2, 2, 4)


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(fuchsian_shapes() | st.just(LEGENDRE), small, small, small, small)
@settings(max_examples=25, deadline=None)
def test_mobius_inverse_roundtrip(op, a, b, c, d):
    if a * d - b * c == 0:
        return
    m = MobiusMap(a, b, c, d)
    assert mobius(mobius(op, m), m.inverse()) == op.normalized()


def test_mobius_roundtrip_on_catalog_operator():
    m = MobiusMap(2, -1, 1, 3)
    op = CATALOG[33].operator
    assert _norm_eq(mobius(mobius(op, m), m.inverse()), op)


def test_negation_is_an_involution():
    op = CATALOG[35].operator
    assert negate_variable(negate_variable(op)) == op


# ---------------------------------------------------------------------------
# shifts


def test_shift_moves_the_symbol():
    op = CATALOG[33].operator
    eps = {Fraction(1): Fraction(1, 3), Fraction(2): Fraction(-1, 5)}
    shifted = shift_exponents(op, eps)
    base = riemann_symbol(op).table()
    want = {}
    for p, exps in base.items():
        if p.is_infinite:
            delta = -sum(eps.values())
        else:
            delta = eps.get(p.value, Fraction(0))
        want[p] = tuple(e + delta for e in exps)
    assert riemann_symbol(shifted).same_table(want)


def test_shift_at_new_point_creates_a_singularity():
    # t = 1 is regular for Legendre (exponents 0, 1); the shift makes it genuine
    shifted = shift_exponents(LEGENDRE, {Fraction(1): Fraction(1, 2)})
    table = riemann_symbol(shifted).table()
    assert SingularPoint(1) in table
    assert table[SingularPoint(1)] == (Fraction(1, 2), Fraction(3, 2))


def test_shifts_compose_and_cancel():
    op = CATALOG[97].operator
    there = shift_exponents(op, {Fraction(0): Fraction(1, 2)})
    back = shift_exponents(there, {Fraction(0): Fraction(-1, 2)})
    assert _norm_eq(back, op)


# ---------------------------------------------------------------------------
# power pullback and descent


def test_pullback_multiplies_exponents_at_zero_and_infinity():
    up = pullback_power(LEGENDRE, 2)
    table = riemann_symbol(up).table()
    assert table[INFINITY] == (Fraction(1), Fraction(1))
    # the finite singular value acquires both square roots
    assert SingularPoint(Fraction(1, 4)) in table
    assert SingularPoint(Fraction(-1, 4)) in table


def test_descend_inverts_pullback():
    for n in (2, 3):
        up = pullback_power(LEGENDRE, n)
        assert _norm_eq(descend_power(up, n), LEGENDRE)


def _translation_cases():
    # the first finite nonzero candidate point of every catalog operator, and a quadratic point
    for aid, rec in sorted(CATALOG.items()):
        points = [p for p in singular_points(rec.operator) if not p.is_infinite and p.value != 0]
        if points:
            yield aid, points[0].value
    yield 266, next(p.value for p in singular_points(CATALOG[266].operator) if isinstance(p.value, QuadraticNumber))
    yield 4, QuadraticNumber(Fraction(1, 16), 0, -3)  # a rational value in quadratic dress


@pytest.mark.parametrize("aid, a", list(_translation_cases()))
def test_translate_to_origin_matches_mobius_translation(aid, a):
    op = CATALOG[aid].operator
    # to_json tells a QuadraticNumber from a Fraction of equal value
    assert translate_to_origin(op, a).to_json() == mobius(op, MobiusMap.translation(a)).to_json()


@pytest.mark.parametrize(
    "aid, a",
    [(98, Fraction(1, 2)), (248, -1), (250, Fraction(-1, 2)), (266, QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3))],
    ids=["98", "248", "250", "266-quadratic"],
)
def test_translate_to_origin_is_a_taylor_shift(monkeypatch, aid, a):
    # the chain points and 266's point over Q(sqrt -3) shift the derivative form, with no pullback on the way
    op = CATALOG[aid].operator
    want = mobius(op, MobiusMap.translation(a)).to_json()

    def forbidden(*args):
        raise AssertionError("pullback_rational reached")

    monkeypatch.setattr(transform, "pullback_rational", forbidden)
    assert translate_to_origin(op, a).to_json() == want


def test_pullback_restores_descended_operator():
    # inverse identity on an even operator produced by translation
    op = translate_to_origin(CATALOG[98].operator, Fraction(1, 2))
    down = descend_quadratic(op)
    assert _norm_eq(pullback_power(down, 2), op)


def test_descend_rejects_odd_operator():
    with pytest.raises(NotEven):
        descend_quadratic(LEGENDRE)


def test_labels_survive_mobius():
    op = CATALOG[33].operator
    m = MobiusMap.scaling(Fraction(1, 2))  # t = s/2, so s = 2t
    moved = mobius(op, m)
    for point in riemann_symbol(op).points():
        if point.is_infinite:
            image = INFINITY
        else:
            image = SingularPoint(2 * point.value)
        assert classify_point(moved, image) is classify_point(op, point)


def test_labels_survive_shift():
    op = CATALOG[33].operator
    shifted = shift_exponents(op, {Fraction(0): Fraction(1, 2)})
    # K at 0 stays K even though its exponents moved off (0,0,1,1)
    assert str(classify_point(shifted, SingularPoint(0))) == "K"
    assert str(classify_point(shifted, SingularPoint(1))) == "C"


# ---------------------------------------------------------------------------
# coupling normal form


def test_yukawa_of_pure_fourth_derivative_is_trivial():
    # theta falling factorial is t^4 (d/dt)^4, whose subleading ratio vanishes
    op = ThetaOperator.from_theta_polys([P(0, 1) * P(-1, 1) * P(-2, 1) * P(-3, 1)])
    assert yukawa(op).factors == ()


def test_yukawa_of_theta_power_has_the_residue_pole():
    # theta^4 = t^4 D^4 + 6 t^3 D^3 + ..., so a_1 = 6/t and Y = t^(-3)
    op = ThetaOperator.from_theta_polys([P(0, 0, 0, 0, 1)])
    assert yukawa(op).factors == ((Fraction(0), Fraction(-3)),)


def test_yukawa_zero_flags_apparent_point():
    data = yukawa(CATALOG[258].operator)
    assert Fraction(1) in data.zeros()


def test_yukawa_exponents_on_k3_fibre_operator():
    data = yukawa(CATALOG[33].operator)
    assert data.exponent(Fraction(1)) < 0
    assert data.exponent(Fraction(7)) == 0


def test_derived_operator_symbols_are_three_point():
    for name in ("descent-98", "descent-35"):
        sym = riemann_symbol(DERIVED_OPERATORS[name].operator)
        assert len(sym.points()) == 3


# ---------------------------------------------------------------------------
# typed errors


def test_typed_errors_hold_under_optimize(run_optimized):
    # under -O an assert would vanish; each bad input must still raise its typed error
    code = (
        "from fractions import Fraction\n"
        "from picardfuchs import INFINITY, MobiusMap, ThetaOperator, mobius, pullback_power, shift_exponents, yukawa\n"
        "from picardfuchs.arith import Polynomial\n"
        "from picardfuchs.transform import ShiftAssignment, descend_power, pullback_rational\n"
        "legendre = ThetaOperator([Polynomial((0, 0, 1)), Polynomial((-4, -16, -16))])\n"
        "for call in (lambda: mobius(ThetaOperator([[]]), MobiusMap.inversion()),\n"
        "             lambda: shift_exponents(ThetaOperator([[]]), {1: Fraction(1, 2)}),\n"
        "             lambda: pullback_rational(legendre, Polynomial((2,))),\n"
        "             lambda: ShiftAssignment({INFINITY: Fraction(1)}),\n"
        "             lambda: pullback_power(legendre, 0),\n"
        "             lambda: descend_power(legendre, 0),\n"
        "             lambda: yukawa(ThetaOperator([[1], [1]])),\n"
        "             lambda: MobiusMap(1, 2, 2, 4)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('%s: %s' % (type(exc).__name__, exc))\n"
    )
    assert run_optimized(code).splitlines() == [
        "ZeroOperator: transform produced the zero operator",
        "ZeroOperator: transform produced the zero operator",
        "DegenerateTransform: constant substitution",
        "DegenerateTransform: the shift at infinity is implied",
        "DegenerateTransform: power must be at least 1, got 0",
        "DegenerateTransform: power must be at least 1, got 0",
        "NoCoupling: order-zero operator has no coupling",
        "DegenerateTransform: coefficient matrix is singular",
    ]


# ---------------------------------------------------------------------------
# differential test against the RationalFunction engine the transforms replaced:
# rows of rational functions, each reduced by a gcd at every + and *, cleared by
# the lcm of their denominators

_ONE = RationalFunction(Polynomial((1,)))


def _rf_clear_to_theta(coeffs):
    coeffs = {j: r for j, r in coeffs.items() if isinstance(r, RationalFunction) and not r.is_zero}
    lcm = Polynomial((1,))
    for r in coeffs.values():
        g = poly_gcd(lcm, r.den)
        lcm = lcm * (r.den / g)
    out = [Polynomial(())] * (max(coeffs) + 1)
    for j, r in coeffs.items():
        out[j] = r.num * (lcm / r.den)
    return reference_from_d(out)


def _rf_pullback(op, phi):
    if isinstance(phi, MobiusMap):
        phi = phi.as_rational_function()
    inv = _ONE / phi.derivative()
    dop = d_from_theta(op)
    rows = [{0: _ONE}]
    for _k in range(dop.order):
        nxt = {}
        for j, r in rows[-1].items():
            nxt[j] = nxt.get(j, 0) + r.derivative()
            nxt[j + 1] = nxt.get(j + 1, 0) + r
        rows.append({j: inv * r for j, r in nxt.items()})
    coeffs = {}
    for k, c in enumerate(dop.d_coeffs):
        if c.is_zero:
            continue
        sub = RationalFunction(Polynomial(()))
        for a in reversed(c.coeffs):
            sub = sub * phi + a
        for j, r in rows[k].items():
            coeffs[j] = coeffs.get(j, 0) + sub * r
    return _rf_clear_to_theta(coeffs)


def _rf_shift(op, shifts):
    g = RationalFunction(Polynomial(()))
    for a, eps in ShiftAssignment(shifts).items:
        g = g - RationalFunction(Polynomial((eps,)), Polynomial((-a, 1)))
    dop = d_from_theta(op)
    rows = [{0: _ONE}]
    for _k in range(dop.order):
        nxt = {}
        for j, r in rows[-1].items():
            nxt[j] = nxt.get(j, 0) + r.derivative() + g * r
            nxt[j + 1] = nxt.get(j + 1, 0) + r
        rows.append(nxt)
    coeffs = {}
    for k, c in enumerate(dop.d_coeffs):
        if c.is_zero:
            continue
        lifted = RationalFunction(c)
        for j, r in rows[k].items():
            coeffs[j] = coeffs.get(j, 0) + lifted * r
    return _rf_clear_to_theta(coeffs)


_QP = QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3)
_QM = QuadraticNumber(Fraction(-1, 4), Fraction(-1, 4), -3)
_ALL_OPERATORS = {str(aid): rec.operator for aid, rec in CATALOG.items()}
_ALL_OPERATORS.update((name, rec.operator) for name, rec in DERIVED_OPERATORS.items())
_MAPS = {
    "general": MobiusMap(2, -1, 1, 3),
    "inversion": MobiusMap.inversion(),
    "scaling": MobiusMap.scaling(Fraction(1, 4)),
}


@pytest.mark.parametrize("name", sorted(_ALL_OPERATORS))
def test_mobius_matches_rational_function_engine(name):
    op = _ALL_OPERATORS[name]
    # to_json tells a QuadraticNumber from a Fraction of equal value
    for m in _MAPS.values():
        assert mobius(op, m).to_json() == _rf_pullback(op, m).to_json()


def test_quadratic_mobius_matches_rational_function_engine():
    # the map of the 266 chain, over Q(sqrt(-3))
    m = MobiusMap(_QM, -_QP, 1, -1)
    op = CATALOG[266].operator
    assert mobius(op, m).to_json() == _rf_pullback(op, m).to_json()


_CHAIN_MAPS = [
    # phi, psi and rho of the chains 35descent2, 152pullback and 266chain
    ("descent-35-further", RationalFunction(Polynomial((0, 0, 2)), Polynomial((1, 8)))),
    ("descent-98", RationalFunction(Polynomial((-1, -2, -1)), Polynomial((16, -32, 16)))),
    ("reduction-266", RationalFunction(Polynomial((0, 1)), Polynomial((9, -18, 9)))),
]


@pytest.mark.parametrize("name, phi", _CHAIN_MAPS, ids=["phi", "psi", "rho"])
def test_chain_pullbacks_match_rational_function_engine(name, phi):
    for op in (DERIVED_OPERATORS[name].operator, CATALOG[33].operator):
        assert pullback_rational(op, phi).to_json() == _rf_pullback(op, phi).to_json()


_SHIFTS = [
    (33, {Fraction(1): Fraction(1, 3), Fraction(2): Fraction(-1, 5)}),
    (97, {0: Fraction(1, 2)}),
    (266, {Fraction(-1, 2): Fraction(1, 6), 0: Fraction(1, 6)}),
    (266, {_QP: Fraction(1, 2)}),
    (266, {_QP: Fraction(1, 3), _QM: Fraction(-1, 3)}),
    (4, {QuadraticNumber(Fraction(1, 16), 0, -3): Fraction(1, 2)}),  # a rational point in quadratic dress
    (4, {_QP: Fraction(1, 2), Fraction(1): Fraction(1, 4)}),
]


@pytest.mark.parametrize("aid, shifts", _SHIFTS)
def test_shift_matches_rational_function_engine(aid, shifts):
    op = CATALOG[aid].operator
    assert shift_exponents(op, shifts).to_json() == _rf_shift(op, shifts).to_json()


_coefficient = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_point = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(op=fuchsian_shapes(), phi=rational_maps())
def test_pullback_matches_rational_function_engine_on_generated_operators(op, phi):
    assert pullback_rational(op, phi).to_json() == _rf_pullback(op, phi).to_json()


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), points=st.lists(_point, min_size=1, max_size=2, unique=True), eps=_coefficient)
def test_shift_matches_rational_function_engine_on_generated_operators(op, points, eps):
    shifts = {a: eps + i for i, a in enumerate(points)}
    assert shift_exponents(op, shifts).to_json() == _rf_shift(op, shifts).to_json()


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), points=st.lists(_point, min_size=1, max_size=2, unique=True), eps=_coefficient)
def test_shift_then_opposite_shift_is_identity(op, points, eps):
    there = shift_exponents(op, {a: eps for a in points})
    assert shift_exponents(there, {a: -eps for a in points}) == op.normalized()


@settings(max_examples=30, deadline=None)
@given(op=fuchsian_shapes(), k=st.sampled_from([2, 3]))
def test_descent_undoes_a_power_pullback(op, k):
    assert descend_power(pullback_power(op, k), k) == op.normalized()


# a bool or a float is no scalar and no power: as_scalar and the power maps
# raise typed errors, plain and under python -O: (statement, error type)
INEXACT_INPUTS = [
    ("Polynomial([True, 1])", "InexactScalar"),
    ("Polynomial([0.5, 1])", "InexactScalar"),
    ("PowerSeries([True, 2], 1)", "InexactScalar"),
    ("MobiusMap(True, 0, 0, 1)", "InexactScalar"),
    ("ShiftAssignment({0: 0.5})", "InexactScalar"),
    ("SingularPoint(True)", "InexactScalar"),
    ("pullback_power(OP, True)", "InvalidPower"),
    ("pullback_power(OP, 2.0)", "InvalidPower"),
    ("descend_power(OP, True)", "InvalidPower"),
    ("Polynomial([1, 1]) ** True", "InvalidPower"),
]
INEXACT_IMPORTS = (
    "from picardfuchs.arith import Polynomial, PowerSeries\n"
    "from picardfuchs.errors import InexactScalar, InvalidPower\n"
    "from picardfuchs.optheta import SingularPoint, ThetaOperator\n"
    "from picardfuchs.transform import MobiusMap, ShiftAssignment, descend_power, pullback_power\n"
    "OP = ThetaOperator.from_theta_polys([Polynomial([0, 0, 1]), Polynomial([-1, -1])])\n"
)


@pytest.mark.parametrize("statement, error", INEXACT_INPUTS)
def test_bools_and_floats_are_no_scalars_or_powers(statement, error):
    scope = {}
    exec(INEXACT_IMPORTS, scope)
    with pytest.raises(scope[error]):
        eval(statement, scope)


def test_bools_and_floats_are_no_scalars_or_powers_under_optimize(run_optimized):
    lines = [INEXACT_IMPORTS]
    for statement, error in INEXACT_INPUTS:
        lines.append("try:\n    %s\n    print('accepted')\nexcept %s:\n    print('%s')\n" % (statement, error, error))
    assert run_optimized("".join(lines)).split() == [error for _s, error in INEXACT_INPUTS]

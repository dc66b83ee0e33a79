"""Theta-form operators, symbols, and the Fuchs identity."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from picardfuchs import CATALOG, INFINITY, MobiusMap, SingularPoint, ThetaOperator, local_basis, mobius, riemann_symbol, shift_exponents
from picardfuchs.arith import Polynomial, PowerSeries, QuadraticNumber, as_scalar
from picardfuchs.errors import IrregularSingularity, NotASingularCandidate, OrderZeroOperator, TruncationTooLow
from picardfuchs.frobenius import annihilation_order
from picardfuchs.optheta import (
    DOperator,
    apply_to_series,
    d_from_theta,
    exponents_at,
    fuchs_defect,
    indicial_polynomial,
    jet_tables,
    local_operator,
    residual_order,
    singular_points,
    theta_from_d,
    top_profile,
)

import scalar_reference as ref
from shapes import fuchsian_shapes


def P(*cs):
    return Polynomial([Fraction(c) for c in cs])


def halves(*cs):
    return tuple(Fraction(c, 2) for c in cs)


# Gauss hypergeometric with a = b = 1/2, c = 1 in the variable 16t; the local
# exponents are textbook: (0, 0) at 0, (0, c-a-b) = (0, 0) at the finite
# singular value, (a, b) = (1/2, 1/2) at infinity.
LEGENDRE = ThetaOperator.from_theta_polys([P(0, 0, 1), P(-4, -16, -16)])


def test_constructor_clears_content_and_sign():
    op = ThetaOperator.from_theta_polys([P(0, 0, Fraction(1, 2)), P(-2, -8, -8)])
    assert op == LEGENDRE
    flipped = ThetaOperator.from_theta_polys([P(0, 0, -1), P(4, 16, 16)])
    assert flipped == LEGENDRE  # sign normalization


def test_operator_json_roundtrip():
    for op in (LEGENDRE, CATALOG[266].operator):
        assert ThetaOperator.from_json(json.loads(json.dumps(op.to_json()))) == op


def test_d_form_json_accepted():
    dop = d_from_theta(LEGENDRE)
    data = {"form": "d", "coeffs": [[str(c) for c in p.coeffs] for p in dop.d_coeffs]}
    assert ThetaOperator.from_json(data) == LEGENDRE
    with pytest.raises(ValueError):
        ThetaOperator.from_json({"form": "weird", "coeffs": [["1"]]})


def test_theta_d_roundtrip_on_catalog():
    for rec in CATALOG.values():
        op = rec.operator
        assert theta_from_d(d_from_theta(op)).cleared() == op.cleared()


def _coefficientwise(op, y):
    """Reference action: result_m = sum_i P_i(m - i) * y_{m-i}, term by term."""
    n_out = y.order - op.r
    out = []
    for m in range(n_out + 1):
        acc = as_scalar(0)
        for i in range(min(op.r, m) + 1):
            if y[m - i]:
                acc = acc + op.coeff(i)(Fraction(m - i)) * y[m - i]
        out.append(acc)
    return PowerSeries(out, n_out)


# 266's quadratic point moved to 0: an operator with coefficients in Q(sqrt(-3))
QUADRATIC_LOCAL = local_operator(
    CATALOG[266].operator,
    next(p for p in singular_points(CATALOG[266].operator) if isinstance(p.value, QuadraticNumber)),
)
_series_parts = st.one_of(st.integers(-1, 1).map(Fraction), st.fractions(min_value=-5, max_value=5, max_denominator=4))
_series_scalars = st.one_of(
    _series_parts,
    st.builds(QuadraticNumber, _series_parts, _series_parts, st.just(-3)),
    st.just(QuadraticNumber(0, 0, -3)),
)


@pytest.mark.parametrize(
    "op",
    [CATALOG[4].operator, CATALOG[33].operator, CATALOG[153].operator, QUADRATIC_LOCAL],
    ids=["4", "33", "153", "266-local"],
)
@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(_series_scalars, min_size=14, max_size=20))
def test_apply_to_series_matches_coefficientwise_formula(op, coeffs):
    y = PowerSeries(coeffs)
    assert apply_to_series(op, y) == ref.order_of([[c] for c in _coefficientwise(op, y).coeffs])


def test_apply_to_series_needs_order_at_least_r():
    with pytest.raises(TruncationTooLow):
        apply_to_series(LEGENDRE, PowerSeries([1], 0))


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**6, 10**6), max_size=7),
    q=st.integers(1, 6),
    requests=st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 45)), min_size=1, max_size=5),
)
def test_jet_tables_are_taylor_shifts_along_the_progression(coeffs, q, requests):
    # entry k at a = u/q is C(u + kq + q eps): the Taylor shift at u + kq with
    # coefficient j times q^j, for u/q in lowest terms, as the kernel reads a
    for x, K in requests:
        a = Fraction(x, q)
        u, s = a.numerator, a.denominator
        (table,) = jet_tables([(tuple(coeffs), None, None)], a, K)
        assert len(table) == K + 1
        for k, jet in enumerate(table):
            assert jet == ([c * s**j for j, c in enumerate(ref.taylor_shift(coeffs, u + k * s))], None, None)


_entries = st.one_of(st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=6))
_theta_ops = st.lists(st.lists(_entries, max_size=4).map(Polynomial), min_size=1, max_size=4).map(ThetaOperator)


@settings(max_examples=150, deadline=None)
@given(
    op=st.one_of(st.sampled_from([LEGENDRE, CATALOG[33].operator, CATALOG[153].operator]), _theta_ops),
    alpha=_entries,
    table=st.lists(st.lists(_entries, min_size=1, max_size=4), min_size=1, max_size=12),
    extra=st.integers(0, 4),
)
def test_residual_order_integer_path_matches_scalar_path(op, alpha, table, extra):
    # rational operator, exponent and table: residual_order sums integer jets;
    # width-1 tables are power series, alpha = 0 among them
    upto = len(table) - 1 + extra
    assert residual_order(op, alpha, table, upto) == ref.order_of(ref.apply_local(op, alpha, table, upto))


def _surd_entries(d):
    return st.one_of(_entries, st.builds(QuadraticNumber, _entries, _entries, st.just(d)), st.just(QuadraticNumber(0, 0, d)))


# an operator with rational P_0 and Q(sqrt 2) coefficients above it, and one
# with a zero P_1 between two polynomials that hold QuadraticNumbers
_SURD_OPS = [
    ThetaOperator([P(0, 0, 1), Polynomial([QuadraticNumber(1, 1, 2), 3]), P(-2, 0, 1)]),
    ThetaOperator([Polynomial([QuadraticNumber(0, 0, 2), 1, QuadraticNumber(1, -1, 2)]), P(), P(1, 2)]),
]


@pytest.mark.parametrize("d", [-3, 2])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), extra=st.integers(0, 4))
def test_residual_order_matches_scalar_path_over_a_quadratic_field(d, data, extra):
    # operator, exponent or table over Q(sqrt d), zeros of both types included:
    # the fraction-free sum over Z[sqrt d] vanishes where the scalar loop's rows do
    entries = _surd_entries(d)
    ops = [LEGENDRE, CATALOG[153].operator]
    ops += [QUADRATIC_LOCAL] if d == -3 else _SURD_OPS
    op = data.draw(st.one_of(st.sampled_from(ops), st.lists(st.lists(entries, max_size=4).map(Polynomial), min_size=1, max_size=4).map(ThetaOperator)))
    alpha = data.draw(entries)
    table = data.draw(st.lists(st.lists(entries, min_size=1, max_size=4), min_size=1, max_size=10))
    upto = len(table) - 1 + extra
    assert residual_order(op, alpha, table, upto) == ref.order_of(ref.apply_local(op, alpha, table, upto))


def test_legendre_symbol():
    sym = riemann_symbol(LEGENDRE)
    want = {
        SingularPoint(0): (Fraction(0), Fraction(0)),
        SingularPoint(Fraction(1, 16)): (Fraction(0), Fraction(0)),
        INFINITY: halves(1, 1),
    }
    assert sym.same_table(want)
    assert fuchs_defect(LEGENDRE) == -2


def test_exponents_at_infinity_are_negated_top_roots():
    # P_r = -16 (theta + 1/2)^2 has the double root -1/2
    assert exponents_at(LEGENDRE, INFINITY) == halves(1, 1)


def test_singular_points_always_include_zero_and_infinity():
    pts = singular_points(LEGENDRE)
    assert SingularPoint(0) in pts and INFINITY in pts
    assert SingularPoint(Fraction(1, 16)) in pts


def test_top_profile_vanishes_at_printed_points():
    ell = top_profile(CATALOG[33].operator)
    assert ell(Fraction(1)) == 0 and ell(Fraction(2)) == 0
    assert ell(Fraction(3)) != 0


def test_quadratic_points_come_in_conjugate_pairs():
    sym = riemann_symbol(CATALOG[266].operator)
    quad = [p for p in sym.points() if isinstance(p.value, QuadraticNumber)]
    assert len(quad) == 2
    assert quad[0].conjugate() == quad[1]
    assert sym.exponents(quad[0]) == sym.exponents(quad[1])


def test_symbol_format_is_aligned():
    text = riemann_symbol(LEGENDRE).format()
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two exponent rows
    assert len({len(l) for l in (lines[0], lines[2], lines[3])}) == 1


def test_fuchs_defect_on_all_catalog_operators():
    for rec in CATALOG.values():
        n = rec.operator.order
        assert fuchs_defect(rec.operator) == -n * (n - 1)


@given(st.integers(min_value=-4, max_value=4).filter(bool))
@settings(max_examples=8, deadline=None)
def test_scaling_preserves_fuchs_defect(c):
    op = ThetaOperator([p * Fraction(c) for p in LEGENDRE.theta_coeffs])
    assert fuchs_defect(op) == -2


def test_singular_point_json():
    assert SingularPoint.from_json("oo") == INFINITY
    p = SingularPoint(QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3))
    assert SingularPoint.from_json(p.to_json()) == p


_QP = QuadraticNumber(Fraction(-1, 4), Fraction(1, 4), -3)


def test_symbol_computes_each_conjugate_point():
    # the shift at q+ alone leaves q- as it was: its conjugate's exponents are no guide
    op = shift_exponents(CATALOG[266].operator, {_QP: Fraction(1, 3)})
    columns = {str(p): exps for p, exps, _g in riemann_symbol(op).entries}
    assert columns == {
        "-1": (0, 1, 1, 2),
        "-1/2": halves(0, 1, 1, 2),
        "-1/4-1/4*sqrt(-3)": (0, 1, 3, 4),
        "-1/4": (0, 1, 1, 2),
        "-1/4+1/4*sqrt(-3)": tuple(Fraction(k, 3) for k in (1, 4, 10, 13)),
        "0": halves(0, 1, 1, 2),
        "1/2": (0, 1, 1, 2),
        "oo": tuple(Fraction(k, 6) for k in (1, 4, 4, 7)),
    }
    assert all(type(e) is Fraction for exps in columns.values() for e in exps)
    assert fuchs_defect(op) == -4 * 3


def test_quadratic_exponents_over_a_quadratic_field():
    # P_0 = (theta - sqrt(-3)) (theta - 1): the exponents at 0 lie in Q(sqrt(-3)), not in Q
    root = QuadraticNumber(0, 1, -3)
    op = ThetaOperator.from_theta_polys([Polynomial([-root, 1]) * P(-1, 1), P(1, 2, 1)])
    assert exponents_at(op, SingularPoint(0)) == (root, 1)
    basis = local_basis(op, SingularPoint(0))
    assert basis.exponents() == [root, 1] and not basis.has_logarithms()
    assert [annihilation_order(op, SingularPoint(0), s) for s in basis] == [basis.solutions[0].truncation - 1] * 2
    assert fuchs_defect(op) == -2


def test_irregular_point_raises():
    # D + t, that is theta + t^2 in theta form: exp(-t^2/2) is irregular at infinity
    op = ThetaOperator.from_json({"form": "d", "coeffs": [["0", "1"], ["1"]]})
    for call in (riemann_symbol, fuchs_defect, lambda op: local_basis(op, INFINITY)):
        with pytest.raises(IrregularSingularity):
            call(op)
    assert exponents_at(op, SingularPoint(0)) == (0,)


def test_indicial_polynomial_at_an_ordinary_point_raises():
    # the finite singular value of LEGENDRE is 1/16; 1/2 is an ordinary point
    with pytest.raises(NotASingularCandidate):
        indicial_polynomial(LEGENDRE, SingularPoint(Fraction(1, 2)))
    assert indicial_polynomial(LEGENDRE, SingularPoint(Fraction(1, 16))).degree == 2


def test_indicial_polynomial_at_an_ordinary_point_raises_under_optimize(run_optimized):
    code = (
        "from fractions import Fraction\n"
        "from picardfuchs import SingularPoint, ThetaOperator\n"
        "from picardfuchs.arith import Polynomial\n"
        "from picardfuchs.errors import NotASingularCandidate\n"
        "from picardfuchs.optheta import indicial_polynomial\n"
        "op = ThetaOperator.from_theta_polys([Polynomial([0, 0, 1]), Polynomial([-4, -16, -16])])\n"
        "try:\n"
        "    indicial_polynomial(op, SingularPoint(Fraction(1, 2)))\n"
        "except NotASingularCandidate:\n"
        "    print('NotASingularCandidate')\n"
    )
    assert run_optimized(code).split() == ["NotASingularCandidate"]


def test_order_zero_operator_raises():
    op = ThetaOperator.from_theta_polys([P(1), P(2)])
    for call in (riemann_symbol, lambda op: local_basis(op, SingularPoint(0))):
        with pytest.raises(OrderZeroOperator):
            call(op)


# roots of the P_i: 0 .. 2 often, so that the closed form below holds at
# times, and any small fraction
_roots = st.one_of(st.integers(0, 2), st.fractions(min_value=-3, max_value=3, max_denominator=3))
_units = st.builds(Fraction, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 3))


@st.composite
def _trivial_at_zero(draw):
    """P_0 = theta (theta - 1) ... (theta - n + 1), so 0 has the exponents 0 .. n-1, and P_i = e_i prod (theta - b).

    Every P_i has degree n and rational roots, so the exponents at infinity
    are rational, and the top profile 1 + e_1 t + e_2 t^2 = (1 - a t)(1 - b t)
    has rational roots, which a Moebius map over Q(sqrt -3) keeps in that field.
    """
    n, r = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    a = draw(st.lists(_units, min_size=r, max_size=r, unique=True))
    lead = [Fraction(1), -sum(a)] + ([a[0] * a[1]] if r == 2 else [])
    polys = [P(1)]
    for k in range(n):
        polys[0] = polys[0] * P(-k, 1)
    for e in lead[1:]:
        poly = Polynomial([e])
        for b in draw(st.lists(_roots, min_size=n, max_size=n)):
            poly = poly * Polynomial([-b, 1])
        polys.append(poly)
    return ThetaOperator.from_theta_polys(polys), n


# theta (theta - 1) - t theta (theta - 2) is ordinary at 0, and with
# - t (theta - 1)^2 it has a log there; both moved to 266's point (-1 + sqrt(-3))/4
@example(case=(ThetaOperator.from_theta_polys([P(0, -1, 1), P(0, 2, -1)]), 2), p=Fraction(-1, 4), y=Fraction(1, 4), quadratic=True, c=Fraction(1))
@example(case=(ThetaOperator.from_theta_polys([P(0, -1, 1), P(-1, 2, -1)]), 2), p=Fraction(-1, 4), y=Fraction(1, 4), quadratic=True, c=Fraction(1))
@settings(max_examples=40, deadline=None)
@given(
    case=_trivial_at_zero(),
    p=_units,
    y=_units,
    quadratic=st.booleans(),
    c=st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_log_check_at_trivial_exponents_is_the_closed_form_on_the_rows(case, p, y, quadratic, c):
    # at exponents exactly 0 .. n-1, P_0(m) = 0 for m < n, so A_0 .. A_(n-1)
    # are free and all n solutions are log-free exactly when P_i(j) = 0 for
    # i >= 1, j >= 0, i + j <= n - 1: the genuine flag is its negation.  The
    # operator is moved off 0, to p' = p or p + y sqrt(-3), by t = (s - p')/(c s + 1);
    # a log-free point is an ordinary one, whose factor the moved operator
    # drops, so its image is no candidate there
    op, n = case
    point = QuadraticNumber(p, y, -3) if quadratic else p
    assume(1 + c * point)
    trivial = tuple(Fraction(k) for k in range(n))

    def checked(op):
        out = {}
        for q, exps, genuine in riemann_symbol(op).entries:
            if exps == trivial:
                rows = local_operator(op, q).theta_coeffs
                log_free = all(not rows[i](j) for i in range(1, len(rows)) for j in range(n - i))
                assert genuine == (not log_free), (q, [str(r) for r in rows])
                out[q] = genuine
        return out

    logs = checked(op)[SingularPoint(0)]
    event("%s at 0, moved over %s" % ("logs" if logs else "log-free", "Q(sqrt -3)" if quadratic else "Q"))
    assert checked(mobius(op, MobiusMap(1, -point, c, 1))).get(SingularPoint(point)) == (True if logs else None)


@settings(max_examples=40, deadline=None)
@given(op=fuchsian_shapes())
def test_fuchs_relation_on_generated_shapes(op):
    # sum over all points of (sum of exponents - n(n-1)/2) is -n(n-1) (Fuchs)
    try:
        sym = riemann_symbol(op, with_log_check=False)
    except IrregularSingularity:
        assume(False)  # a double root of the top profile can make a point irregular
    n = op.order
    assert fuchs_defect(op) == sym.fuchs_defect() == -n * (n - 1)

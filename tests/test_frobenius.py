"""Local solution bases, logarithm detection, and degeneration labels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardfuchs import CATALOG, INFINITY, PointType, SingularPoint, ThetaOperator, classify_point, local_basis
from picardfuchs.arith import Polynomial, QuadraticNumber, as_scalar
from picardfuchs.errors import FrobeniusInvariant, TruncationTooLow, UnclassifiedPattern
from picardfuchs.frobenius import (
    GeneralizedSeries,
    LocalBasis,
    _jet_div,
    _jet_mul,
    annihilation_order,
    has_logarithms,
    jordan_structure,
)
from picardfuchs.optheta import exponents_at, local_operator, riemann_symbol


def P(*cs):
    return Polynomial([Fraction(c) for c in cs])


LEGENDRE = ThetaOperator.from_theta_polys([P(0, 0, 1), P(-4, -16, -16)])
# theta(theta - 3): solutions 1 and t^3, so r + order = 2 and the resonance horizon is 4
APPARENT = ThetaOperator.from_theta_polys([P(0, -3, 1)])


def _quintic():
    # theta^4 - 5t (5theta+1)(5theta+2)(5theta+3)(5theta+4): the classic MUM
    # pattern at 0 that the catalog never exhibits
    prod = P(1)
    for k in (1, 2, 3, 4):
        prod = prod * P(k, 5)
    return ThetaOperator.from_theta_polys([P(0, 0, 0, 0, 1), prod * Fraction(-5)])


def test_legendre_basis_at_zero_has_one_log():
    basis = local_basis(LEGENDRE, SingularPoint(0))
    assert len(basis) == 2
    assert basis.exponents() == [0, 0]
    assert basis.has_logarithms()
    log_degrees = sorted(s.log_degree for s in basis)
    assert log_degrees == [0, 1]


def test_solutions_are_annihilated_to_full_order():
    point = SingularPoint(0)
    loc = local_operator(LEGENDRE, point)
    for sol in local_basis(LEGENDRE, point):
        assert annihilation_order(LEGENDRE, point, sol) == sol.truncation - loc.r


def test_unrelated_series_is_rejected_quickly():
    point = SingularPoint(0)
    sols = list(local_basis(LEGENDRE, point))
    holo = next(s for s in sols if s.is_log_free())
    # damage one coefficient and re-check
    table = [list(r) for r in holo.table]
    table[3][0] = table[3][0] + 1
    bad = GeneralizedSeries(point, holo.alpha, table, holo.truncation)
    assert annihilation_order(LEGENDRE, point, bad) < 4


def test_basis_exponents_match_indicial_roots():
    for aid in (33, 153, 243):
        op = CATALOG[aid].operator
        for point in riemann_symbol(op).points():
            basis = local_basis(op, point)
            assert tuple(basis.exponents()) == exponents_at(op, point)


def test_legendre_holomorphic_solution_is_elliptic_series():
    # y = sum binom(2n, n)^2 t^n is the log-free solution at 0
    from math import comb

    basis = local_basis(LEGENDRE, SingularPoint(0))
    holo = next(s for s in basis if s.is_log_free())
    coeffs = holo.power_coeffs()
    for n in range(min(10, len(coeffs))):
        assert coeffs[n] == comb(2 * n, n) ** 2


def test_classify_legendre_points():
    assert classify_point(LEGENDRE, SingularPoint(0)) is PointType.K
    assert classify_point(LEGENDRE, INFINITY) is PointType.K


def test_classify_mum_on_quintic():
    q = _quintic()
    assert classify_point(q, SingularPoint(0)) is PointType.MUM
    basis = local_basis(q, SingularPoint(0))
    assert jordan_structure(basis).all_blocks() == [4]


def test_classify_apparent_point():
    # integral distinct exponents, no logs
    assert not has_logarithms(APPARENT, SingularPoint(0))
    assert classify_point(APPARENT, SingularPoint(0)) is PointType.APPARENT


@pytest.mark.parametrize("N", [1, 3])  # below r + order; below the resonance horizon
def test_too_small_truncation_raises(N):
    with pytest.raises(TruncationTooLow):
        local_basis(APPARENT, SingularPoint(0), N)


def test_too_small_truncation_raises_under_optimize(run_optimized):
    code = (
        "from fractions import Fraction\n"
        "from picardfuchs import SingularPoint, ThetaOperator, local_basis\n"
        "from picardfuchs.arith import Polynomial\n"
        "from picardfuchs.errors import TruncationTooLow\n"
        "op = ThetaOperator.from_theta_polys([Polynomial([Fraction(0), Fraction(-3), Fraction(1)])])\n"
        "for N in (1, 3):\n"
        "    try:\n"
        "        local_basis(op, SingularPoint(0), N)\n"
        "    except TruncationTooLow:\n"
        "        print('TruncationTooLow')\n"
    )
    assert run_optimized(code).split() == ["TruncationTooLow", "TruncationTooLow"]


def test_log_map_escaping_the_span_raises():
    # a single solution log(t): its log derivative 1 lies outside the span
    sol = GeneralizedSeries(SingularPoint(0), Fraction(0), [[0, 1]], 0)
    with pytest.raises(FrobeniusInvariant):
        jordan_structure(LocalBasis(SingularPoint(0), [sol], None))


def test_log_map_escaping_the_span_raises_under_optimize(run_optimized):
    code = (
        "from fractions import Fraction\n"
        "from picardfuchs import SingularPoint\n"
        "from picardfuchs.errors import FrobeniusInvariant\n"
        "from picardfuchs.frobenius import GeneralizedSeries, LocalBasis, jordan_structure\n"
        "sol = GeneralizedSeries(SingularPoint(0), Fraction(0), [[0, 1]], 0)\n"
        "try:\n"
        "    jordan_structure(LocalBasis(SingularPoint(0), [sol], None))\n"
        "except FrobeniusInvariant:\n"
        "    print('FrobeniusInvariant')\n"
    )
    assert run_optimized(code).split() == ["FrobeniusInvariant"]


# ---------------------------------------------------------------------------
# jet division against an inverse-then-product reference


def _inverse_then_product(a, b):
    """Reference quotient: the whole inverse jet of b, then a full product with a."""
    T = len(b)
    inv0 = 1 / b[0]
    inv = [inv0] + [as_scalar(0)] * (T - 1)
    for m in range(1, T):
        acc = as_scalar(0)
        for j in range(1, m + 1):
            if b[j]:
                acc = acc + b[j] * inv[m - j]
        inv[m] = -acc * inv0
    return _jet_mul(a, inv)


# parts from {-1, 0, 1} make the quotient's partial sums cancel often
_parts = st.one_of(st.integers(-1, 1).map(Fraction), st.fractions(min_value=-3, max_value=3, max_denominator=3))
_jet_fields = {
    "fraction": _parts,
    "quadratic": st.builds(QuadraticNumber, _parts, _parts, st.just(-3)),
}


@pytest.mark.parametrize("field", sorted(_jet_fields))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_jet_div_matches_inverse_then_product(field, data):
    scalars = _jet_fields[field]
    T = data.draw(st.integers(1, 7))
    a = data.draw(st.lists(scalars, min_size=T, max_size=T))
    b = data.draw(st.lists(scalars, min_size=T, max_size=T).filter(lambda b: b[0]))
    got, want = _jet_div(a, b), _inverse_then_product(a, b)
    assert got == want
    for g, w in zip(got, want):
        # a zero is always Fraction(0); the product can also reach a
        # QuadraticNumber zero by cancellation, which no catalog basis meets
        assert type(g) is (type(w) if g else Fraction)


@pytest.mark.parametrize(
    "a, b",
    [
        # 1/(1 + e + e^2) = 1 - e + e^3 - ...: the e^2 term cancels inside the solve
        ([Fraction(2), Fraction(0), Fraction(0), Fraction(0)], [Fraction(1)] * 3 + [Fraction(0)]),
        (
            [QuadraticNumber(1, 1, 2), Fraction(0), Fraction(0), Fraction(0)],
            [QuadraticNumber(1, 0, 2)] * 3 + [Fraction(0)],
        ),
    ],
)
def test_jet_div_cancels_to_a_rational_zero(a, b):
    got, want = _jet_div(a, b), _inverse_then_product(a, b)
    assert got == want and not got[2]
    assert [type(c) for c in got] == [type(c) for c in want]


def test_jet_div_by_a_non_unit_raises():
    with pytest.raises(FrobeniusInvariant):
        _jet_div([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)])


def test_classify_catalog_spot_checks():
    assert classify_point(CATALOG[33].operator, SingularPoint(0)) is PointType.K
    assert classify_point(CATALOG[33].operator, SingularPoint(1)) is PointType.C
    assert classify_point(CATALOG[250].operator, SingularPoint(Fraction(-1, 2))) is PointType.APPARENT
    assert classify_point(CATALOG[153].operator, SingularPoint(-2)) is PointType.A


def test_point_type_strings():
    assert str(PointType.MUM) == "MUM"
    assert str(PointType.APPARENT) == "Apparent"


def test_unclassified_pattern_raises():
    # equal middle exponents with a 3-block: not in the decision table
    op = ThetaOperator.from_theta_polys([P(0, 0, 0, 1)])  # theta^3, solutions 1, log, log^2
    with pytest.raises(UnclassifiedPattern):
        classify_point(op, SingularPoint(0))

"""Local solution bases, logarithm detection, and degeneration labels."""

from fractions import Fraction

import pytest

from picardfuchs import CATALOG, INFINITY, PointType, SingularPoint, ThetaOperator, classify_point, local_basis
from picardfuchs.arith import Polynomial
from picardfuchs.errors import TruncationTooLow, UnclassifiedPattern
from picardfuchs.frobenius import annihilation_order, has_logarithms, jordan_structure
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
    from picardfuchs.frobenius import GeneralizedSeries

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

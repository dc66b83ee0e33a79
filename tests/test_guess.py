"""Operator recovery from series coefficients."""

from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from guess_reference import cleared_table, full_nullspace, full_rank_mod_p, reference_guess, screened_guess, shape_rows
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from shapes import fuchsian_shapes

from picardfuchs import (
    CATALOG,
    DERIVED_OPERATORS,
    GuessConfig,
    MobiusMap,
    QuadraticNumber,
    SingularPoint,
    ThetaOperator,
    guess,
    guess_operator,
    local_basis,
    mobius,
    recurrence_from_operator,
)
from picardfuchs.arith import Polynomial, PowerSeries, _is_probable_prime, zprimitive
from picardfuchs.errors import (
    InconsistentRecurrence,
    InexactScalar,
    InsufficientTerms,
    InvalidGuessBox,
    NonrationalScalar,
    RecurrenceObstruction,
    TruncationTooLow,
    ZeroSeries,
)
from picardfuchs.optheta import apply_to_series, indicial_roots


def P(*cs):
    return Polynomial([Fraction(c) for c in cs])


LEGENDRE = ThetaOperator.from_theta_polys([P(0, 0, 1), P(-4, -16, -16)])
GEOMETRIC = ThetaOperator.from_theta_polys([P(0, 1), P(-1, -1)])


def test_geometric_series():
    got = guess_operator([1] * 30, GuessConfig(1, 1, 10))
    assert got == GEOMETRIC


def test_central_binomial_squares():
    series = [comb(2 * n, n) ** 2 for n in range(30)]
    got = guess_operator(series, GuessConfig(2, 1, 10))
    assert got == LEGENDRE


def test_insufficient_terms_raises():
    with pytest.raises(InsufficientTerms):
        guess_operator([1, 2, 3], GuessConfig(4, 9, 10))


def test_search_box_exhausted_returns_none():
    series = [comb(2 * n, n) ** 2 for n in range(30)]
    assert guess_operator(series, GuessConfig(1, 1, 5)) is None


def test_guessed_operator_annihilates_everything_given():
    series = [Fraction(comb(2 * n, n)) for n in range(40)]
    got = guess_operator(series, GuessConfig(2, 2, 10))
    assert got is not None
    assert apply_to_series(got, PowerSeries(series, 39)) == 39 - got.r


def test_scaling_the_variable_commutes_with_guessing():
    base = [comb(2 * n, n) ** 2 for n in range(30)]
    c = Fraction(-2)
    scaled = [a * c**n for n, a in enumerate(base)]
    got = guess_operator(scaled, GuessConfig(2, 1, 10))
    # y(ct) is annihilated by the pullback along t = c*s
    want = mobius(LEGENDRE, MobiusMap.scaling(c))
    assert got.normalized() == want.normalized()


def test_smaller_order_wins_over_smaller_degree():
    # 1/(1-t) satisfies both an order-1 equation and order-2 ones; the
    # search must return the order-1 operator
    got = guess_operator([1] * 40, GuessConfig(2, 2, 10))
    assert got.order == 1


def test_recurrence_coefficients_for_legendre():
    rec = recurrence_from_operator(LEGENDRE)
    for m in range(1, 8):
        p0, p1 = rec.coefficients(m)
        # A_m m^2 = 16 (m - 1/2)^2 A_{m-1}
        assert p0 == m * m
        assert p1 == -16 * Fraction(2 * m - 1, 2) ** 2
    assert _obstructions(rec) == [0]


def _obstructions(rec):
    """Nonnegative integers m with P_0(m) = 0, where forward solving stalls."""
    roots = indicial_roots(rec.op.theta_coeffs[0])
    return [m for m, _mult in roots if isinstance(m, Fraction) and m.denominator == 1 and m >= 0]


def test_recurrence_obstructions_of_derived_operator():
    rec = recurrence_from_operator(DERIVED_OPERATORS["descent-98"].operator)
    assert _obstructions(rec) == [0, 1]


def test_recurrence_extend():
    rec = recurrence_from_operator(GEOMETRIC)
    assert rec.extend([1, 1], 10) == [1] * 11
    rec2 = recurrence_from_operator(LEGENDRE)
    vals = rec2.extend([1, 4], 8)
    assert vals == [comb(2 * n, n) ** 2 for n in range(9)]


def test_recurrence_keeps_a_fraction_index_exact():
    # a float or a bool index raises (tests/test_errors.py); a Fraction is read as it is
    got = recurrence_from_operator(CATALOG[4].operator).coefficients(Fraction(5, 2))
    assert got == (25, -16) and all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("a0, error", [(1, InconsistentRecurrence), (0, RecurrenceObstruction)])
def test_recurrence_extend_stalls_with_a_typed_error(a0, error):
    # m(m - 2) A_m = A_(m-1), so A_1 = -A_0: at m = 2 the leading coefficient vanishes, and A_1 decides
    rec = recurrence_from_operator(ThetaOperator.from_theta_polys([Polynomial((0, -2, 1)), Polynomial((-1,))]))
    with pytest.raises(error):
        rec.extend([a0, -a0], 4)


def test_recurrence_extend_checks_every_given_term():
    # A_m m^2 = (m - 1/2)^2 A_(m-1): A_1 = 1/4 and A_2 = 9/64, so 36 breaks the recurrence, also past the last index asked
    rec = recurrence_from_operator(CATALOG[4].operator)
    assert rec.extend([1, Fraction(1, 4), Fraction(9, 64)], 1) == [1, Fraction(1, 4)]
    assert rec.extend([1, Fraction(1, 4), Fraction(9, 64)], 3) == rec.extend([1, Fraction(1, 4)], 3)
    with pytest.raises(InconsistentRecurrence, match="index 2"):
        rec.extend([1, Fraction(1, 4), 36, 400], 1)
    with pytest.raises(TruncationTooLow):
        rec.extend([1, 4], -1)


def test_recurrence_extend_takes_a_given_term_at_an_obstruction():
    # m(m - 2) A_m = A_(m-1): with A_1 = -A_0 = 0 the index 2 is free, and a given A_2 fixes the rest
    rec = recurrence_from_operator(ThetaOperator.from_theta_polys([Polynomial((0, -2, 1)), Polynomial((-1,))]))
    assert rec.extend([0, 0, 5], 4) == [0, 0, 5, Fraction(5, 3), Fraction(5, 24)]
    with pytest.raises(InconsistentRecurrence, match="index 3"):
        rec.extend([0, 0, 5, 2], 2)
    with pytest.raises(InconsistentRecurrence, match="index 2"):
        rec.extend([1, -1, 5], 4)


def test_recurrence_extend_checks_the_first_terms_too():
    # m^2 A_m = 4 (2m - 1)^2 A_(m-1) forces A_1 = 4 A_0; (theta + 1) - t forces A_0 = 0
    with pytest.raises(InconsistentRecurrence, match="index 1"):
        recurrence_from_operator(LEGENDRE).extend([1, 5], 3)
    rec = recurrence_from_operator(ThetaOperator.from_theta_polys([P(1, 1), P(-1)]))
    assert rec.extend([0, 0], 2) == [0, 0, 0]
    with pytest.raises(InconsistentRecurrence, match="index 0"):
        rec.extend([1, 1], 2)


def test_recurrence_extend_needs_a_given_term_only_at_an_obstruction():
    # m^2 A_m = 4 (2m - 1)^2 A_(m-1): P_0 = theta^2 vanishes only at 0, so A_0 alone fixes A_m = C(2m, m)^2
    got = recurrence_from_operator(LEGENDRE).extend([1], 8)
    assert got == [1, 4, 36, 400, 4900, 63504, 853776, 11778624, 165636900]
    assert got == [comb(2 * m, m) ** 2 for m in range(9)]


def test_recurrence_extend_without_terms_stops_at_the_first_obstruction():
    with pytest.raises(RecurrenceObstruction, match="index 0"):
        recurrence_from_operator(LEGENDRE).extend([], 8)


@pytest.mark.parametrize("box", [(0, 1, 10), (1, -1, 10), (1, 1, 0)], ids=["order", "degree", "margin"])
def test_invalid_box_raises(box):
    with pytest.raises(InvalidGuessBox):
        GuessConfig(*box)


def test_zero_series_raises():
    with pytest.raises(ZeroSeries):
        guess_operator([0] * 30, GuessConfig(1, 1, 10))


def test_guessing_errors_under_optimize(run_optimized):
    code = (
        "from picardfuchs import GuessConfig, guess_operator\n"
        "calls = [lambda: GuessConfig(0, 1), lambda: GuessConfig(1, -1), lambda: GuessConfig(1, 1, 0),\n"
        "         lambda: guess_operator([0] * 30, GuessConfig(1, 1, 10)),\n"
        "         lambda: guess_operator([1, 2, 3], GuessConfig(4, 9, 10))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert run_optimized(code).split() == ["InvalidGuessBox"] * 3 + ["ZeroSeries", "InsufficientTerms"]


@pytest.mark.parametrize("box", [(1.5, 1), (True, 1), (1, 1.0), (1, 1, False)], ids=["float-order", "bool-order", "float-degree", "bool-margin"])
def test_box_fields_must_be_ints(box):
    with pytest.raises(InvalidGuessBox):
        GuessConfig(*box)


# a float or a bool has no exact reading, and sqrt(-3) is not rational
BAD_COEFFICIENTS = [(0.5, InexactScalar), (True, InexactScalar), (QuadraticNumber(0, 1, -3), NonrationalScalar)]


@pytest.mark.parametrize("bad, error", BAD_COEFFICIENTS, ids=["float", "bool", "quadratic"])
def test_series_coefficients_must_be_rational(bad, error):
    with pytest.raises(error):
        guess_operator([1, bad] + [1] * 28, GuessConfig(1, 1, 10))
    with pytest.raises(error):
        recurrence_from_operator(GEOMETRIC).extend([1, bad], 4)


def test_quadratic_coefficients_with_zero_sqrt_part_are_rational():
    one = QuadraticNumber(1, 0, -3)
    assert guess_operator([one] * 30, GuessConfig(1, 1, 10)) == GEOMETRIC
    assert recurrence_from_operator(GEOMETRIC).extend([one, one], 4) == [1] * 5


def test_boundary_type_errors_under_optimize(run_optimized):
    code = (
        "from picardfuchs import GuessConfig, QuadraticNumber, guess_operator\n"
        "calls = [lambda: GuessConfig(1.5, 1), lambda: GuessConfig(True, 1)]\n"
        "for bad in (0.5, True, QuadraticNumber(0, 1, -3)):\n"
        "    calls.append(lambda bad=bad: guess_operator([1, bad] + [1] * 28, GuessConfig(1, 1, 10)))\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    want = ["InvalidGuessBox"] * 2 + ["InexactScalar"] * 2 + ["NonrationalScalar"]
    assert run_optimized(code).split() == want


# -- the modular screen against the loop it replaced ---------------------------

DEFAULT_BOX = GuessConfig(4, 9, 10)
REFERENCE_OPERATORS = (4, 72, 35, 97, 33, 247, 252)


def holomorphic_series(op, terms):
    """The power series solution at 0 with constant term 1."""
    basis = local_basis(op, SingularPoint(0), terms - 1)
    sol = next(s for s in basis.solutions if s.alpha == 0 and s.is_log_free() and s.coeff(0, 0) == 1)
    return sol.power_coeffs()


def scaled(series, c):
    """Coefficients of y(ct)."""
    return [a * c**k for k, a in enumerate(series)]


def _json(op):
    return None if op is None else op.to_json()


def _same_as_reference(series, box):
    got = guess_operator(series, box)
    assert _json(got) == _json(reference_guess(series, box))
    return got


@pytest.mark.parametrize("aid", REFERENCE_OPERATORS)
def test_matches_reference_on_catalog_series(aid):
    op = CATALOG[aid].operator
    got = _same_as_reference(holomorphic_series(op, DEFAULT_BOX.required_terms()), DEFAULT_BOX)
    assert got.normalized() == op.normalized()


@pytest.mark.parametrize("aid", REFERENCE_OPERATORS)
def test_matches_reference_on_scaled_series_and_exhausted_boxes(aid):
    # c = -2/3 gives every coefficient beyond A_0 a denominator; a box one
    # order too small is exhausted
    op = CATALOG[aid].operator
    for box in (GuessConfig(4, op.r + 1, 10), GuessConfig(op.order - 1, 4, 10)):
        series = scaled(holomorphic_series(op, box.required_terms()), Fraction(-2, 3))
        got = _same_as_reference(series, box)
        assert (got is None) == (box.max_order < op.order)


@settings(max_examples=25, deadline=None)
@given(op=fuchsian_shapes(), c=st.sampled_from([1, Fraction(-2, 3)]), margin=st.integers(1, 6))
def test_matches_reference_on_generated_operators(op, c, margin):
    box = GuessConfig(4, 2, margin)
    try:
        basis = local_basis(op, SingularPoint(0), box.required_terms() - 1)
    except ValueError:  # a shape the Frobenius engine rejects has no series to guess from
        return
    for sol in basis.solutions:
        if sol.is_log_free():
            _same_as_reference(scaled(sol.power_coeffs(), c), box)


def _screen_cases():
    central = [comb(2 * n, n) ** 2 for n in range(30)]
    yield central, GuessConfig(2, 1, 10)
    yield central, GuessConfig(1, 1, 5)
    yield [1] * 40, GuessConfig(2, 2, 10)
    for aid in (4, 72, 35):
        op = CATALOG[aid].operator
        for box in (GuessConfig(4, op.r + 1, 10), GuessConfig(op.order - 1, 4, 10)):
            series = holomorphic_series(op, box.required_terms())
            yield series, box
            yield scaled(series, Fraction(-2, 3)), box


@pytest.mark.parametrize("prime", [2, 3])
def test_small_screening_primes_change_no_result(prime):
    cases = list(_screen_cases())
    want = [_json(guess_operator(series, box)) for series, box in cases]
    exact = mock.Mock(wraps=guess._nullspace)
    with mock.patch.object(guess, "_PRIME", prime), mock.patch.object(guess, "_nullspace", exact):
        assert [_json(guess_operator(series, box)) for series, box in cases] == want
    # the small prime lets through shapes that the default one screens out
    assert exact.call_count > 2 * len(cases)


def _first_degree(series, n, max_degree, prime):
    table = cleared_table(series, n)
    with mock.patch.object(guess, "_PRIME", prime):
        return guess._first_dependent_degree([[x % prime for x in block] for block in table], n, max_degree)


def test_screen_on_a_table_singular_only_mod_p():
    # A = 1, p, 0, 0: at order 1 and t-degree 0 the columns (1, p, 0, 0) and
    # (0, p, 0, 0) are independent over Q but not modulo p
    p = guess._PRIME
    singular = [1, p, 0, 0]
    assert _first_degree(singular, 1, 1, p) == 0
    assert guess._nullspace(shape_rows(cleared_table(singular, 1), 1, 0), 2) == []
    assert _first_degree([1, p + 1, 0, 0], 1, 1, p) == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_first_dependent_degree_matches_the_screen_shape_by_shape(data):
    sympy = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    prime = data.draw(st.sampled_from([2, 3, 5, 7, guess._PRIME]), label="prime")
    numerators = st.integers(-6, 6) | st.sampled_from([prime, -prime, 3 * prime])
    series = data.draw(st.lists(st.builds(Fraction, numerators, st.sampled_from([1, 2, 3])), min_size=1, max_size=30))
    n = data.draw(st.integers(1, 4), label="order")
    max_degree = data.draw(st.integers(0, 5), label="max_degree")
    table = cleared_table(series, n)
    got = _first_degree(series, n, max_degree, prime)
    # the earlier screen, run on every shape: full rank before the first degree, below it from there on
    top = max_degree + 1 if got is None else got
    for r in range(max_degree + 1):
        assert full_rank_mod_p(shape_rows(table, n, r), (n + 1) * (r + 1), prime) == (r < top)
    # and full rank mod p is full rank over Q (sympy's dense rank takes minutes on 30 rows of 70-bit entries)
    for r in range(top):
        assert DomainMatrix.from_list(shape_rows(table, n, r), sympy.ZZ).rank() == (n + 1) * (r + 1)


@pytest.mark.parametrize("prime", [2, 3, guess._PRIME])
def test_exact_eliminations_match_the_screen_shape_by_shape(prime):
    # counts, not times: the shapes sent to exact elimination are those the
    # earlier per-shape screen let through, and the screen runs once per order
    for series, box in _screen_cases():
        want, want_exact = screened_guess(series, box, prime)
        exact = mock.Mock(wraps=guess._nullspace)
        screen = mock.Mock(wraps=guess._first_dependent_degree)
        with (
            mock.patch.object(guess, "_PRIME", prime),
            mock.patch.object(guess, "_nullspace", exact),
            mock.patch.object(guess, "_first_dependent_degree", screen),
        ):
            got = guess_operator(series, box)
        assert _json(got) == _json(want)
        assert exact.call_count == want_exact
        assert screen.call_count <= box.max_order


@pytest.mark.parametrize("aid", [35, 97])
def test_one_exact_elimination_and_one_candidate_in_the_default_box(aid, monkeypatch):
    # counts, not times: the screen must leave one shape to exact elimination,
    # and candidates are checked through the module's apply_to_series
    series = holomorphic_series(CATALOG[aid].operator, DEFAULT_BOX.required_terms())
    exact = mock.Mock(wraps=guess._nullspace)
    applied = mock.Mock(wraps=guess.apply_to_series)
    monkeypatch.setattr(guess, "_nullspace", exact)
    monkeypatch.setattr(guess, "apply_to_series", applied)
    assert guess_operator(series, DEFAULT_BOX) is not None
    assert exact.call_count == 1 and applied.call_count == 1


@st.composite
def _rank_deficient_leads(draw):
    """(rows, ncols): integer rows whose leading ncols rows are duplicates, zeros or combinations of fewer rows."""
    ncols = draw(st.integers(2, 6), label="ncols")
    entries = st.integers(-4, 4)
    spanning = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=ncols - 1))
    lead = []
    for _ in range(ncols):
        weights = draw(st.lists(st.integers(-2, 2), min_size=len(spanning), max_size=len(spanning)))
        lead.append([sum(w * row[c] for w, row in zip(weights, spanning)) for c in range(ncols)])
    later = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=3 * ncols))
    return lead + later, ncols


@settings(max_examples=150, deadline=None)
@given(case=_rank_deficient_leads())
def test_nullspace_on_certified_rows_is_the_full_elimination(case):
    rows, ncols = case
    want = full_nullspace(rows, ncols)
    # a later row outside the leading rows' span makes the prefix grow
    assume(len(want) < len(full_nullspace(rows[:ncols], ncols)))
    eliminated = mock.Mock(wraps=guess.zprimitive)
    with mock.patch.object(guess, "zprimitive", eliminated):
        assert guess._nullspace(rows, ncols) == want
    assert eliminated.call_count > sum(map(any, rows[:ncols]))


@pytest.mark.parametrize("aid", [35, 97])
def test_exact_elimination_reads_the_leading_rows_in_the_default_box(aid, monkeypatch):
    # counts, not times: the one shape eliminated has 20 columns, and its first 20 of 60 rows certify
    series = holomorphic_series(CATALOG[aid].operator, DEFAULT_BOX.required_terms())
    eliminated = mock.Mock(wraps=guess.zprimitive)
    monkeypatch.setattr(guess, "zprimitive", eliminated)
    assert guess_operator(series, DEFAULT_BOX) is not None
    assert len(series) == 60 and eliminated.call_count == 20


# -- the modular solve against fraction-free elimination on every row ----------

# the first prime the solve takes: the largest below 2^62
FIRST_PRIME = next(filter(_is_probable_prime, range((1 << 62) - 1, 2, -2)))


def _primitive(rows):
    """The nonzero rows over their contents, as _nullspace passes them to _eliminate."""
    return [zprimitive(row) for row in rows if any(row)]


def _solved(mat, ncols):
    """(basis, primes): guess._eliminate on the rows `mat`, and the primes it took."""
    echelon = mock.Mock(wraps=guess._echelon_mod)
    with mock.patch.object(guess, "_echelon_mod", echelon):
        basis = guess._eliminate(mat, ncols)
    return basis, [call.args[2] for call in echelon.call_args_list]


def _height(basis):
    return max((max(abs(x.numerator), x.denominator) for vec in basis for x in vec), default=0)


@st.composite
def _wide_blocks(draw):
    """(rows, ncols): fewer than ncols rows with entries up to 2^40 in size, and up to two combinations of them."""
    ncols = draw(st.integers(2, 6), label="ncols")
    wide = st.integers(-(2**40), 2**40)
    rows = draw(st.lists(st.lists(wide, min_size=ncols, max_size=ncols), min_size=1, max_size=ncols - 1))
    for _ in range(draw(st.integers(0, 2))):
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(w * row[c] for w, row in zip(weights, rows)) for c in range(ncols)])
    return rows, ncols


@settings(max_examples=60, deadline=None)
@given(case=_wide_blocks())
def test_modular_solve_reads_back_a_basis_that_needs_several_primes(case):
    rows, ncols = case
    want = full_nullspace(rows, ncols)
    # one prime reads back numerators and denominators up to 2^30.5 at most
    assume(_height(want) > 2**31)
    got, primes = _solved(_primitive(rows), ncols)
    assert got == want
    assert len(primes) >= 2 and primes[0] == FIRST_PRIME


@st.composite
def _blocks_singular_mod_the_first_prime(draw):
    """(rows, ncols): A + p E with p the first prime, A small and of lower rank, E small."""
    lead, ncols = draw(_rank_deficient_leads())
    shift = st.lists(st.integers(-1, 1), min_size=ncols, max_size=ncols)
    return [[a + FIRST_PRIME * e for a, e in zip(row, draw(shift))] for row in lead[:ncols]], ncols


@settings(max_examples=60, deadline=None)
@given(case=_blocks_singular_mod_the_first_prime())
def test_modular_solve_passes_over_a_prime_with_the_wrong_pivots(case):
    rows, ncols = case
    mat = _primitive(rows)
    want = full_nullspace(rows, ncols)
    free = [max(i for i, x in enumerate(vec) if x) for vec in want]
    pivots, _basis = guess._echelon_mod(mat, ncols, FIRST_PRIME)
    assume(pivots != [c for c in range(ncols) if c not in free])
    got, primes = _solved(mat, ncols)
    assert got == want and primes[0] == FIRST_PRIME
    # a better pivot set starts the combination over: the first prime costs one solve and no more
    with mock.patch.object(guess, "_solve_prime", lambda k, solve=guess._solve_prime: solve(k + 1)):
        assert _solved(mat, ncols) == (want, primes[1:])


def test_the_screening_prime_leaves_the_solve_primes_alone():
    series = [comb(2 * n, n) ** 2 for n in range(30)]
    echelon = mock.Mock(wraps=guess._echelon_mod)
    with mock.patch.object(guess, "_PRIME", 2), mock.patch.object(guess, "_echelon_mod", echelon):
        assert guess_operator(series, GuessConfig(2, 1, 10)) == LEGENDRE
    primes = [call.args[2] for call in echelon.call_args_list]
    assert primes and all(p.bit_length() == 62 for p in primes) and primes[0] == FIRST_PRIME

"""The integer period expansion and the mask point count against the loops they replaced.

`period_reference` keeps the Fraction recurrence and the per-point count.
Both kernels must give the same PeriodSeries (JSON and scalar types) and the
same counts, and fail with the same error types, on random inputs and on the
edge cases named below.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import period_reference as ref
from picardfuchs import TetraForm, conifold_expand, count_double_octic
from picardfuchs import period
from picardfuchs.catalog_data import TETRA_DEMO
from picardfuchs.errors import InexactDivision, SlotOverflow
from test_qexp import _expand, _fibre_planes

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# numerators up to 2^40 and denominators up to 2^20 widen the slots of the
# packed lines; a lead's denominators keep its square class decidable
wide_rationals = st.one_of(small_rationals, st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**20)))
wide_leads = st.builds(Fraction, st.integers(-(2**40), 2**40).filter(bool), st.sampled_from([1, 3, 2**20, 3**12]))
exponent_keys = st.tuples(*[st.integers(0, 3)] * 4)


def _same_series(form):
    try:
        want = ref.conifold_expand(form)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            period.conifold_expand(form)
        return
    got = period.conifold_expand(form)
    assert got.to_json() == want.to_json()
    assert type(got.unit) is type(want.unit)
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.conditions == want.conditions


@given(
    st.one_of(small_rationals.filter(bool), wide_leads),
    st.lists(st.tuples(exponent_keys, wide_rationals), max_size=6),
    st.integers(0, 10),
)
@settings(max_examples=80, deadline=None)
def test_expansion_matches_fraction_recurrence(lead, pairs, truncation):
    # a list of pairs may repeat a key; degrees up to 12 run past the
    # truncation, and a key with a t exponent fills lines with s < m
    form = TetraForm([((0, 0, 0, 0), lead)] + pairs, truncation)
    if not form.constant_term():
        return
    _same_series(form)


@pytest.mark.parametrize("scale", [1, 2, -1, -3, 9, Fraction(4, 9), Fraction(-5, 7)])
@pytest.mark.parametrize("truncation", [0, 1, 10, 16])
def test_demo_expansion_matches_for_square_and_nonsquare_leads(scale, truncation):
    _same_series(TetraForm.from_planes(TETRA_DEMO["planes"], scale=scale, truncation=truncation))


@pytest.mark.parametrize(
    "terms",
    [
        [((0, 0, 0, 0), 3), ((0, 0, 0, 1), Fraction(1, 2)), ((0, 0, 0, 3), -7)],  # t only
        [((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((1, 0, 0, 0), Fraction(1, 3))],  # a repeated key
        [((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((1, 0, 0, 0), -1), ((0, 2, 1, 0), 5)],  # cancels to 0
        [((0, 0, 0, 0), -2), ((3, 3, 3, 3), 1)],  # only a term beyond the truncation
    ],
)
def test_expansion_edge_forms(terms):
    _same_series(TetraForm(terms, 6))


@pytest.mark.parametrize(
    "terms, truncation",
    [
        # 2t + 3t^2 gives r_2 = -3/2 + 3/2 = 0 on the line (a, s) = (0, 0) of
        # R_2, while x keeps the lines (1, 1), (1, 2) and (2, 2) nonzero
        ([((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((0, 0, 0, 1), 2), ((0, 0, 0, 2), 3)], 8),
        # t terms next to x, y, z terms: lines with s < m at every m
        ([((0, 0, 0, 0), -5), ((0, 0, 0, 1), 3), ((1, 0, 1, 1), Fraction(-7, 2)), ((0, 1, 0, 2), 2), ((1, 1, 1, 0), -1)], 16),
        # coefficients of 2^40 over a lead with a large denominator
        ([((0, 0, 0, 0), Fraction(2**40 + 1, 2**20)), ((0, 1, 0, 1), -(2**40)), ((2, 0, 1, 0), Fraction(2**40 - 1, 3))], 16),
        # a negative and a positive non-square lead: the quadratic unit
        ([((0, 0, 0, 0), -3), ((1, 0, 0, 1), Fraction(5, 11)), ((0, 1, 1, 0), 2**40)], 12),
        ([((0, 0, 0, 0), Fraction(7, 2**20)), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), -1), ((1, 1, 0, 1), 4)], 12),
    ],
)
def test_expansion_of_packed_line_edge_forms(terms, truncation):
    _same_series(TetraForm(terms, truncation))


def test_the_cancelling_line_sums_to_zero():
    # the line (0, 0) of R_2 above sums to zero; A_2 reads the other lines only
    form = TetraForm([((0, 0, 0, 0), 1), ((0, 0, 0, 1), 2), ((0, 0, 0, 2), 3)], 2)
    assert period.conifold_expand(form).coeffs == (1, -1, 0)


def test_a_dense_form_outgrowing_the_slack_matches(monkeypatch):
    # 69 terms with t: the exact width grows about 12 bits a step, so the
    # kept rows are repacked at wider slots several times mid-expansion
    widths, width = [], period._slot_width
    monkeypatch.setattr(period, "_slot_width", lambda bound: widths.append(width(bound)) or widths[-1])
    planes = [(1, 3, -2, Fraction(5, 7), 1), (2, -1, 4, 3, Fraction(-1, 3)), (-1, 2, 1, -6, 5), (3, 0, -5, 2, 2)]
    _same_series(TetraForm.from_planes(planes, truncation=12))
    assert widths[-1] > widths[0] + 2 * period._SLACK


def test_expansion_keeps_only_the_rows_it_reads():
    # R_m reads the last max-grade rows; keeping every row peaked at 0.93 MiB
    form = TetraForm.from_planes(TETRA_DEMO["planes"], truncation=40)
    tracemalloc.start()
    try:
        conifold_expand(form)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 1024 * 1024


def test_remainder_in_the_recurrence_raises(monkeypatch):
    monkeypatch.setattr(period, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InexactDivision):
        conifold_expand(TetraForm.from_planes(TETRA_DEMO["planes"], truncation=3))


def test_remainder_in_the_recurrence_raises_under_optimize(run_optimized):
    code = (
        "from picardfuchs import TetraForm, conifold_expand, period\n"
        "from picardfuchs.catalog_data import TETRA_DEMO\n"
        "from picardfuchs.errors import InexactDivision\n"
        "period.divmod = lambda a, b: (a // b, 1)\n"
        "try:\n"
        "    conifold_expand(TetraForm.from_planes(TETRA_DEMO['planes'], truncation=3))\n"
        "except InexactDivision:\n"
        "    print('InexactDivision')\n"
    )
    assert run_optimized(code).strip() == "InexactDivision"


@pytest.mark.parametrize(
    "line, m, n, K, error",
    [
        # at width 8, 2^8 = 1 mod 3: the line 1 + 2 * 2^8 divides by 3, its slot 1 does not
        (1 + 2 * 2**8, 3, 2, 8, InexactDivision),
        # 12 divides by 4 but passes the slot [-8, 8) of width 4, so its quotient's digit is too large
        (12, 4, 1, 4, SlotOverflow),
        # the slot -8 at width 4 is the least balanced digit: its quotient -4 reads back, though -4 * 2 = -2^3
        (-8, 2, 1, 4, None),
        (3 - 6 * 2**8, 3, 2, 8, None),
    ],
    ids=["slot-remainder", "slot-overflow", "least-digit", "clean"],
)
def test_a_packed_line_is_divided_once_and_read_back_or_named(line, m, n, K, error):
    bias = sum(1 << K * b + K - 1 for b in range(n))
    if error is not None:
        with pytest.raises(error):
            period._read_line(line, m, n, K, bias)
        return
    q, coeffs, big = period._read_line(line, m, n, K, bias)
    assert q * m == line and sum(c << K * b for b, c in enumerate(coeffs)) == q and big == max(map(abs, coeffs))


# P = 1 + 3x has one term, so the slot of A_1's line holds the bound itself,
# -6, and a slot one bit narrower than _slot_width gives carries it past the
# line; without the slack, the kernel packs at that width
_ONE_TERM = "TetraForm({(0, 0, 0, 0): 1, (1, 0, 0, 0): 3}, 4)"


def test_a_slot_one_bit_too_narrow_raises(monkeypatch):
    width = period._slot_width
    monkeypatch.setattr(period, "_slot_width", lambda bound: width(bound) - 1)
    monkeypatch.setattr(period, "_SLACK", 0)
    with pytest.raises(SlotOverflow):
        conifold_expand(eval(_ONE_TERM))


def test_a_slot_one_bit_too_narrow_raises_under_optimize(run_optimized):
    code = (
        "from picardfuchs import TetraForm, conifold_expand, period\n"
        "from picardfuchs.errors import SlotOverflow\n"
        "width = period._slot_width\n"
        "period._slot_width = lambda bound: width(bound) - 1\n"
        "period._SLACK = 0\n"
        "try:\n"
        "    conifold_expand(%s)\n"
        "except SlotOverflow:\n"
        "    print('SlotOverflow')\n" % _ONE_TERM
    )
    assert run_optimized(code).strip() == "SlotOverflow"


# ---------------------------------------------------------------------------
# point counts

FIBRE_69 = _fibre_planes(250, 0)
small_primes = st.sampled_from([3, 5, 7, 11, 13])
forms = st.lists(st.tuples(*[st.integers(-30, 30)] * 4), min_size=8, max_size=8)


def _same_count(f8, p):
    try:
        want = ref.count_double_octic(f8, p)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            count_double_octic(f8, p)
        return
    got = count_double_octic(f8, p)
    assert type(got) is int and got == want


@given(forms, small_primes)
@settings(max_examples=80, deadline=None)
def test_count_matches_per_point_loop(f8, p):
    _same_count(f8, p)


# coefficients 0 half the time: forms with d = 0, with c = d = 0, or zero
sparse_forms = st.lists(st.tuples(*[st.one_of(st.just(0), st.integers(-30, 30))] * 4), min_size=8, max_size=8)


@given(sparse_forms, st.sampled_from([17, 19, 23, 29, 31, 37, 41, 43]))
@settings(max_examples=8, deadline=None)
def test_count_matches_per_point_loop_at_larger_primes(f8, p):
    _same_count(f8, p)


@given(forms, small_primes, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_count_of_permuted_and_repeated_forms(f8, p, rng):
    rng.shuffle(f8)
    _same_count(f8, p)
    _same_count(f8[:4] * 2, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize(
    "f8",
    [
        FIBRE_69,
        [(p_, 0, 0, 0) for p_ in range(8)],  # zero v-coefficients, one form 0
        [(1, 2, 3, 0)] * 8,  # one form eight times, no v
        [(13, 26, 0, 39)] + FIBRE_69[1:],  # vanishes identically mod 13
        [(0, 0, 0, 1)] * 4 + [(0, 0, 1, 0)] * 4,
        [(Fraction(1, 2), 1, Fraction(-3, 4), 5)] + FIBRE_69[1:],
    ],
)
def test_count_edge_octics(f8, p):
    _same_count(f8, p)


# each mixes forms with d != 0 (rows rotate), d = 0 and c != 0 (whole rows
# move) and c = d = 0 (a constant on each plane), in the coordinates (x, y, z, v)
MIXED_OCTICS = [
    FIBRE_69,
    [(2, -1, 0, 0), (1, 3, 5, 0), (0, 0, 2, 7), (4, 1, 0, 3), (1, 1, 0, 0), (0, 2, -3, 0), (5, 0, 1, -2), (3, -4, 6, 1)],
    [(1, 2, 0, 0)] * 3 + [(0, 1, 1, 0)] * 2 + [(1, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)],
]


@pytest.mark.parametrize("p", [3, 31])
@pytest.mark.parametrize("f8", MIXED_OCTICS)
def test_count_of_octics_mixing_the_three_rotations(f8, p):
    _same_count(f8, p)


@pytest.mark.parametrize(
    "f8, p",
    [
        (FIBRE_69, 2),  # EvenPrime
        (FIBRE_69, 9),  # NotPrime
        (FIBRE_69, 1),  # NotPrime
        (FIBRE_69[:7], 5),  # InvalidOctic
        ([(1, 0, 0)] * 8, 5),  # InvalidOctic
        ([(Fraction(1, 5), 0, 0, 1)] * 8, 5),  # bad reduction
        ({(7, 0, 0, 0): 1, (0, 0, 0, 8): 1}, 5),  # InvalidOctic
    ],
)
def test_count_rejects_what_the_loop_rejects(f8, p):
    with pytest.raises(ValueError) as want:
        ref.count_double_octic(f8, p)
    with pytest.raises(want.type):
        count_double_octic(f8, p)


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=8, max_size=8), st.sampled_from([3, 5]))
@settings(max_examples=10, deadline=None)
def test_monomial_count_matches_per_point_loop(f8, p):
    _same_count(_expand(f8), p)


@pytest.mark.parametrize(
    "f8, p",
    [
        (FIBRE_69, 211),  # a point list would hold 9.4 million tuples
        ({(8, 0, 0, 0): 1, (0, 0, 0, 8): 1, (2, 2, 2, 2): 3}, 41),  # 70 thousand
    ],
)
def test_count_keeps_no_point_list(f8, p):
    tracemalloc.start()
    try:
        count_double_octic(f8, p)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024

"""The q tables against the per-k evaluation they replaced.

`reference_q_upper`, `reference_q_lower` and `reference_refined_li_sun`
are the closed forms as they were before each table's terms were formed
once per pair: every k built its three term lists by indexing and summed
them with one `fsum`, and refined Li-Sun marked k = 0 as (0, 0) and
summed the q-upper terms again. q-upper, q-lower and refined Li-Sun must
return their results and tables, repr for repr, and raise the same
`NumericalRangeError` text.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from polarbounds import bounds
from polarbounds.bounds import (KRatioTable, li_sun_coeff, q_lower_coeff, q_upper_coeff,
                                refined_li_sun_coeff)
from polarbounds.spectra import (BoundResult, NumericalRangeError, check_range, fg_scalars,
                                 validate_spectrum_pair)

# y ** 2 and y * y differ in the last bit here: 55.145672514108995 and
# 55.145672514109
SQUARE_BIT = 7.426013231479526


def reference_upper_numden(pair, k):
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    return float(s - r + 4 * k), math.fsum(
        [(sig[j] - sigt[j]) ** 2 for j in range(r - k)]
        + [(sig[r - 1 - j] + sigt[s - k + j]) ** 2 for j in range(k)]
        + [sigt[j] ** 2 for j in range(r - k, s - k)])


def reference_lower_numden(pair, k):
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    return float(s - r + 4 * k), math.fsum(
        [(sig[j] + sigt[j]) ** 2 for j in range(k)]
        + [(sig[r - 1 - j] - sigt[s - r + k + j]) ** 2 for j in range(r - k)]
        + [sigt[j] ** 2 for j in range(k, s - r + k)])


def _reference_q(pair, theorem_id, numden, upper):
    try:
        tol = 1e-12 * max(1.0, fg_scalars(pair).F)
        values = []
        for k in range(pair.r + 1):
            num, den = numden(k)
            values.append(None if abs(num) < tol and abs(den) < tol else num / den)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalRangeError(f"{theorem_id}: {exc}") from exc
    for v in values:
        if v is not None:
            check_range(theorem_id, v, 0.0, sys.float_info.max)
    best = None
    for k, v in enumerate(values):
        if v is not None and (best is None or (v > best[1] if upper else v < best[1])):
            best = (k, v)
    if best is None:
        raise NumericalRangeError(f"{theorem_id}: every k is 0/0")
    return (BoundResult(theorem_id=theorem_id, coefficient=math.sqrt(best[1]),
                        optimal_index=best[0]), KRatioTable(values=tuple(values)))


def reference_q_upper(pair):
    return _reference_q(pair, "q-upper", lambda k: reference_upper_numden(pair, k), True)


def reference_q_lower(pair):
    return _reference_q(pair, "q-lower", lambda k: reference_lower_numden(pair, k), False)


def reference_refined_li_sun(pair):
    classical = li_sun_coeff(pair).coefficient
    result, table = _reference_q(
        pair, "refined-li-sun",
        lambda k: (0.0, 0.0) if k == 0 else reference_upper_numden(pair, k), True)
    check_range("refined-li-sun", result.coefficient, 0.0, classical * (1 + 1e-12))
    return result, table


# (theorem id, library function, reference)
PAIRS = (("q-upper", q_upper_coeff, reference_q_upper),
         ("q-lower", q_lower_coeff, reference_q_lower),
         ("refined-li-sun", refined_li_sun_coeff, reference_refined_li_sun))


def outcome(fn, *args):
    """repr of fn's result, or its arithmetic error's type and text."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


def read_off_refined_li_sun(pair):
    """Refined Li-Sun as the bounds report forms it, from q-upper."""
    return bounds.refined_li_sun(q_upper_coeff(pair), li_sun_coeff(pair))


def assert_matches_reference(pair):
    for _, fn, reference in PAIRS:
        if fn is refined_li_sun_coeff and pair.r != pair.s:
            continue
        assert outcome(fn, pair) == outcome(reference, pair), fn.__name__
    if pair.r == pair.s and not outcome(q_upper_coeff, pair).startswith("Numerical"):
        assert outcome(read_off_refined_li_sun, pair) \
            == outcome(reference_refined_li_sun, pair)
    for k in range(pair.r + 1):
        assert outcome(bounds.q_upper_numden, pair, k) \
            == outcome(reference_upper_numden, pair, k)
        assert outcome(bounds.q_lower_numden, pair, k) \
            == outcome(reference_lower_numden, pair, k)


def _descending(values):
    return sorted(values, reverse=True)


@st.composite
def spectrum_pairs(draw):
    """Pairs with r = 1..6 and s = r..8: generic values spread over
    1e-150..1e150, ties from a few values, or sigma~ within a few ulps of
    sigma on the first r entries."""
    r = draw(st.integers(1, 6))
    s = r if draw(st.booleans()) else draw(st.integers(r, 8))
    kind = draw(st.sampled_from(["spread", "ties", "near-identical"]))
    if kind == "ties":
        value = st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, SQUARE_BIT])
    else:
        value = st.floats(min_value=1e-150, max_value=1e150)
    sig = _descending(draw(st.lists(value, min_size=r, max_size=r)))
    sigt = draw(st.lists(value, min_size=s, max_size=s))
    if kind == "near-identical":
        ulps = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        sigt[:r] = [x * (1 + u * 2.0 ** -52) for x, u in zip(sig, ulps)]
    return validate_spectrum_pair(sig, _descending(sigt))


@settings(max_examples=400, deadline=None)
@given(spectrum_pairs())
@example(validate_spectrum_pair([1.0], [SQUARE_BIT, 1.0]))
@example(validate_spectrum_pair([4.0], [8.0, SQUARE_BIT]))
@example(validate_spectrum_pair([SQUARE_BIT, 1.0], [SQUARE_BIT, 2.0 ** -60]))
@example(validate_spectrum_pair([1.0], [1.0]))
@example(validate_spectrum_pair([3.0, 3.0, 1.0], [3.0, 3.0, 1.0]))
@example(validate_spectrum_pair([1e150, 1e-150], [1e150, 1e149, 1e-150]))
def test_q_tables_match_per_k_reference(pair):
    assert_matches_reference(pair)


@pytest.mark.parametrize("e", range(-175, -145))
def test_underflow_edge_matches_reference(e):
    # denominators reach the subnormals and 0 term by term and k by k
    t = 10.0 ** e
    for sig, sigt in (([3.0, 2.0], [1.5, 1.0]), ([1.0], [1.0, 1e-3]),
                      ([5.0, 5.0, 1e-4], [5.0, 5.0, 1e-4]), ([2.0, 1.0], [8.0, 4.0, 2.0, 1.0])):
        assert_matches_reference(validate_spectrum_pair([x * t for x in sig],
                                                        [y * t for y in sigt]))


@pytest.mark.parametrize("e", range(150, 160))
def test_overflow_edge_matches_reference(e):
    # a squared term or one k's sum leaves the double range first, or the
    # ranges of the two sums cross
    t = 10.0 ** e
    for sig, sigt in (([3.0, 2.0], [1.5, 1.0]), ([1.2, 1.2], [0.2, 0.2]),
                      ([1.0], [1.0, 1e-3]), ([2.0, 1.0], [8.0, 4.0, 2.0, 1.0]),
                      ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0])):
        assert_matches_reference(validate_spectrum_pair([x * t for x in sig],
                                                        [y * t for y in sigt]))


def test_square_term_formed_with_pow():
    # sigma~_1 ** 2 enters the q-upper table at k = 1; with y * y the value
    # moves in its last bit
    pair = validate_spectrum_pair([1.0], [SQUARE_BIT, 1.0])
    assert SQUARE_BIT ** 2 != SQUARE_BIT * SQUARE_BIT
    assert q_upper_coeff(pair)[1].values[1] == 5.0 / math.fsum([4.0, SQUARE_BIT ** 2])


@pytest.mark.parametrize("theorem_id, fn, reference", PAIRS, ids=[p[0] for p in PAIRS])
@pytest.mark.parametrize("scale, text", [
    (1e200, "(34, 'Numerical result out of range')"),
    (1e-170, "float division by zero")], ids=["overflow", "underflow"])
def test_range_error_text_unchanged(theorem_id, fn, reference, scale, text):
    pair = validate_spectrum_pair([3.0 * scale, 2.0 * scale], [1.5 * scale, 1.0 * scale])
    assert outcome(fn, pair) == outcome(reference, pair) \
        == f"NumericalRangeError: {theorem_id}: {text}"


def test_refined_li_sun_above_classical_is_typed():
    pair = validate_spectrum_pair([2.0], [2.0])
    q_upper = (BoundResult(theorem_id="q-upper", coefficient=2.0, optimal_index=1),
               KRatioTable(values=(None, 4.0)))
    with pytest.raises(NumericalRangeError, match="refined-li-sun"):
        bounds.refined_li_sun(q_upper, li_sun_coeff(pair))

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from polarbounds.spectra import (
    SpectrumValidationError,
    UnitSums,
    fg_scalars,
    validate_eigen_pair,
    validate_spectrum_pair,
)

spectrum = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6) \
    .map(lambda xs: sorted(xs, reverse=True))


class TestValidation:
    def test_equal_pair(self):
        p = validate_spectrum_pair([2, 1], [2, 1])
        assert p.r == p.s == 2 and not p.swapped

    def test_unequal_ranks(self):
        p = validate_spectrum_pair([1], [1, 1])
        assert (p.r, p.s) == (1, 2)

    def test_not_decreasing(self):
        with pytest.raises(SpectrumValidationError, match="index 1"):
            validate_spectrum_pair([1, 2], [1])

    def test_increasing_rejected_at_every_scale(self):
        # the slack is relative, so no scale lets an increasing spectrum
        # through, subnormal ones included; ties and rises below the slack
        # pass at every scale
        bases = ([1.0, 2.0], [1e-20, 5e-15], [0.5, 0.75, 1.0], [2.0 ** -60, 1.5 * 2.0 ** -60])
        for k in range(-1000, 1001):
            for base in bases:
                vals = [math.ldexp(v, k) for v in base]
                if 0.0 in vals:
                    continue
                if vals == sorted(vals, reverse=True):   # rounded to a tie
                    validate_spectrum_pair(vals, [1.0])
                    continue
                with pytest.raises(SpectrumValidationError, match="not decreasing"):
                    validate_spectrum_pair(vals, [1.0])
            for tie in ([1.0, 1.0], [1.0, 1.0 + 4e-15], [3.0, 2.0, 2.0]):
                validate_spectrum_pair([math.ldexp(v, k) for v in tie], [1.0])

    def test_swap_recorded(self):
        p = validate_spectrum_pair([3, 2, 1], [5])
        assert p.swapped and p.sigma == (5.0,) and p.r == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(SpectrumValidationError):
            validate_spectrum_pair([1, 0], [1])


class TestFGScalars:
    def test_equal_spectra(self):
        fg = fg_scalars(validate_spectrum_pair([2, 1], [2, 1]))
        assert fg.F == 10 and fg.G == 5

    def test_unequal(self):
        fg = fg_scalars(validate_spectrum_pair([1], [1, 1]))
        assert fg.F == 3 and fg.G == 1

    def test_golden_row(self):
        p = validate_spectrum_pair([8.7559, 6.1282, 5.0602],
                                   [7.3693, 5.7829, 3.2958, 2.5156])
        fg = fg_scalars(p)
        expect_F = math.fsum([8.7559**2, 6.1282**2, 5.0602**2,
                              7.3693**2, 5.7829**2, 3.2958**2, 2.5156**2])
        assert fg.F == expect_F

    @given(spectrum, spectrum)
    def test_cauchy_schwarz_always(self, a, b):
        fg = fg_scalars(validate_spectrum_pair(a, b))
        assert 2 * fg.G <= fg.F * (1 + 1e-13)

    @given(spectrum)
    def test_equality_iff_identical(self, a):
        fg = fg_scalars(validate_spectrum_pair(a, list(a)))
        assert abs(2 * fg.G - fg.F) <= 1e-12 * fg.F

    def test_summation_order_stable(self):
        # fsum is exact, so a reversed accumulation matches to the last bit
        sig = [10.0 ** (-k) for k in range(6)]
        p = validate_spectrum_pair(sig, sig)
        fg = fg_scalars(p)
        assert fg.F == math.fsum([x * x for x in sig] * 2)

    @pytest.mark.parametrize("a, b, F", [([1e200], [1e199], math.inf),
                                         ([1.3e154, 1.3e154], [1.3e154], math.inf),
                                         ([1e-300], [1e-301], 0.0)])
    def test_out_of_range_reads_inf_or_0(self, a, b, F):
        # F is the unit-scale sum times 4**e, so finite squares whose sum
        # passes the largest double give inf, not fsum's OverflowError
        assert fg_scalars(validate_spectrum_pair(a, b)).F == F


def reference_unit_sums(pair):
    """The seven sums of `SpectrumPair.unit_sums`, each `fsum`med from its
    defining terms on the copy divided by 2**e, e even, that brings the
    larger leading value into [0.5, 2)."""
    _, e = math.frexp(max(pair.sigma[0], pair.sigma_tilde[0]))
    e -= e % 2
    sig = [math.ldexp(x, -e) for x in pair.sigma]
    sigt = [math.ldexp(y, -e) for y in pair.sigma_tilde]
    r, s = len(sig), len(sigt)
    return UnitSums(
        e=e,
        F=math.fsum([sig[j] * sig[j] for j in range(r)] + [sigt[j] * sigt[j] for j in range(s)]),
        G=math.fsum([sig[j] * sigt[j] for j in range(r)]),
        D=math.fsum([(sig[j] - sigt[j]) * (sig[j] - sigt[j]) for j in range(r)]
                    + [sigt[j] * sigt[j] for j in range(r, s)]),
        squares=math.fsum([sig[j] * sig[j] for j in range(r)]),
        squares_tilde=math.fsum([sigt[j] * sigt[j] for j in range(s)]),
        cross_squares=math.fsum([(sig[j] * sigt[j]) ** 2 for j in range(r)]),
        quarts=math.fsum([sig[j] ** 4 for j in range(r)] + [sigt[j] ** 4 for j in range(s)]))


# (4 * POW_BIT)**2 at unit scale, where the one cross product is POW_BIT:
# c ** 2 gives 0.6638175624999999 and c * c gives 0.6638175625
POW_BIT = 0.81475


@st.composite
def unit_sum_pairs(draw):
    """Pairs with r = 1..6 and s = r..8: values spread over 1e-150..1e150,
    ties from a few values, or sigma~ within a few ulps of sigma on the
    first r entries."""
    r = draw(st.integers(1, 6))
    s = draw(st.integers(r, 8))
    kind = draw(st.sampled_from(["spread", "ties", "near-identical"]))
    if kind == "ties":
        value = st.sampled_from([0.5, 1.0, 3.0, 4.0, 4 * POW_BIT])
    else:
        value = st.floats(min_value=1e-150, max_value=1e150)
    sig = sorted(draw(st.lists(value, min_size=r, max_size=r)), reverse=True)
    sigt = draw(st.lists(value, min_size=s, max_size=s))
    if kind == "near-identical":
        ulps = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        sigt[:r] = [x * (1 + u * 2.0 ** -52) for x, u in zip(sig, ulps)]
    return validate_spectrum_pair(sig, sorted(sigt, reverse=True))


class TestUnitSums:
    @settings(max_examples=300, deadline=None)
    @given(unit_sum_pairs())
    @example(validate_spectrum_pair([4.0], [4 * POW_BIT]))
    @example(validate_spectrum_pair([1e150, 1e-150], [1e150, 1e149, 1e-150]))
    def test_matches_reference_field_by_field(self, pair):
        got, want = pair.unit_sums, reference_unit_sums(pair)
        for name in UnitSums.__dataclass_fields__:
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name

    def test_cross_products_squared_with_pow(self):
        # the pinned pair above tells `(x * y) ** 2` from `(x * y) * (x * y)`
        assert POW_BIT ** 2 != POW_BIT * POW_BIT
        pair = validate_spectrum_pair([4.0], [4 * POW_BIT])
        assert pair.unit_sums.e == 2
        assert pair.unit_sums.cross_squares == POW_BIT ** 2 == 0.6638175624999999


class TestEigenPair:
    def test_basic(self):
        e = validate_eigen_pair([1], [-1, -1])
        assert (e.r, e.s) == (1, 2) and e.F_hat == 3

    def test_imaginary(self):
        e = validate_eigen_pair([1j], [1])
        assert e.F_hat == 2

    def test_zero_rejected(self):
        with pytest.raises(SpectrumValidationError):
            validate_eigen_pair([0], [1])

    def test_role_swap(self):
        e = validate_eigen_pair([1, 2], [3])
        assert e.swapped and e.lam == (3 + 0j,)

"""Welch's t-test, the Student-t tail, and the incomplete beta function.

The canned t/p values below were produced with scipy.stats.ttest_ind
(equal_var=False) and scipy.special; the suite also cross-checks against
scipy directly so the frozen numbers and the live library agree.
"""

import math

import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from caadam.stats import (
    WelchResult,
    regularized_incomplete_beta,
    significance_stars,
    student_t_two_sided_p,
    welch_one_sided_p,
    welch_t_test,
)

# (group_a, group_b, t, two_sided_p)
CANNED_PAIRS = [
    ([1, 2, 3], [4, 5, 6],
     -3.6742346141747673, 0.021311641128756727),
    ([0.446, 0.451, 0.44, 0.448, 0.443], [0.466, 0.47, 0.461, 0.468, 0.473],
     -7.9179732582356825, 4.7736452640662295e-05),
    ([10, 12, 11, 13], [10.5, 11.5, 12.5],
     0.0, 1.0),
    ([2.5, 2.5, 2.5, 2.6], [2.5, 2.5, 2.5, 2.4],
     1.4142135623730887, 0.20703125000000175),
    ([100, 101, 99, 100.5, 99.5, 100.2], [100.1, 100.9, 99.2, 100.4, 99.6],
     -0.016026176096527744, 0.9875695069504118),
    ([0.1, 0.2, 0.15, 0.12, 0.18], [0.3, 0.25, 0.28, 0.31, 0.27],
     -6.195066958923905, 0.0006316985297602028),
    ([5.0, 5.1], [5.2, 5.3],
     -2.8284271247462027, 0.10557280900008333),
    ([0.001, 0.002, 0.0015], [0.0011, 0.0021, 0.0016],
     -0.24494897427831688, 0.8185490697753567),
    ([7, 7, 7.1, 6.9, 7.05], [7, 7, 7.1, 6.9, 7.05],
     0.0, 1.0),
    ([42, 44, 41, 43, 45, 40], [52, 54, 51, 53, 55, 50],
     -9.258200997725515, 3.2065531538603336e-06),
]


@pytest.mark.parametrize("a,b,t,p", CANNED_PAIRS)
def test_welch_matches_canned_values(a, b, t, p):
    res = welch_t_test(a, b)
    assert res.t == pytest.approx(t, abs=1e-10)
    assert res.p == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("a,b,t,p", CANNED_PAIRS)
def test_welch_matches_scipy_live(a, b, t, p):
    res = welch_t_test(a, b)
    ref = sp_stats.ttest_ind(a, b, equal_var=False)
    assert res.t == pytest.approx(ref.statistic, abs=1e-12)
    assert res.p == pytest.approx(ref.pvalue, abs=1e-12)


def test_welch_hand_computation():
    # groups [1,2,3] and [4,5,6]: both variances 1, so
    # t = -3 / sqrt(2/3) and df = (2/3)^2 / (2 * (1/3)^2 / 2) = 4
    res = welch_t_test([1, 2, 3], [4, 5, 6])
    assert res.t == pytest.approx(-3.0 / math.sqrt(2.0 / 3.0), rel=1e-15)
    assert res.df == pytest.approx(4.0, rel=1e-12)


def test_welch_unequal_variances_welch_satterthwaite_df():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [10.0, 30.0, 50.0]
    res = welch_t_test(a, b)
    ref_df = sp_stats.ttest_ind(a, b, equal_var=False).df
    assert res.df == pytest.approx(ref_df, rel=1e-12)


def test_welch_degenerate_groups():
    equal = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
    assert equal == WelchResult(t=0.0, df=3.0, p=1.0)
    apart = welch_t_test([2.0, 2.0], [3.0, 3.0, 3.0])
    assert apart.t == -math.inf
    assert apart.p == 0.0
    apart = welch_t_test([5.0, 5.0], [3.0, 3.0])
    assert apart.t == math.inf


def test_welch_needs_two_samples_per_group():
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0, 2.0], [])


def test_welch_one_sided():
    # alternative: mean(a) < mean(b)
    less = welch_one_sided_p([1, 2, 3], [4, 5, 6])
    assert less == pytest.approx(0.021311641128756727 / 2.0, abs=1e-12)
    greater = welch_one_sided_p([4, 5, 6], [1, 2, 3])
    assert greater == pytest.approx(1.0 - 0.021311641128756727 / 2.0, abs=1e-12)
    assert welch_one_sided_p([2.0, 2.0], [2.0, 2.0]) == 0.5


# ---------------------------------------------------------------------------
# Student-t tail


PINNED_T_P = [
    (2.0, 5.0, 0.10193947882985828),
    (-3.674234614174767, 4.0, 0.021311641128756727),
    (0.5, 30.0, 0.6207230048851273),
    (10.0, 2.0, 0.009852457023325692),
]


@pytest.mark.parametrize("t,df,p", PINNED_T_P)
def test_student_t_two_sided_pinned(t, df, p):
    assert student_t_two_sided_p(t, df) == pytest.approx(p, abs=1e-12)


def test_student_t_two_sided_against_scipy_grid():
    for t in (-8.0, -1.7, -0.2, 0.0, 0.9, 3.3, 25.0):
        for df in (1.0, 2.5, 4.0, 11.0, 77.0, 300.0):
            want = 2.0 * sp_stats.t.sf(abs(t), df)
            assert student_t_two_sided_p(t, df) == pytest.approx(want, abs=1e-10)


def test_student_t_edge_cases():
    assert student_t_two_sided_p(0.0, 7.0) == 1.0
    assert student_t_two_sided_p(math.inf, 7.0) == 0.0
    with pytest.raises(ValueError):
        student_t_two_sided_p(1.0, 0.0)
    with pytest.raises(ValueError):
        student_t_two_sided_p(math.nan, 5.0)


# ---------------------------------------------------------------------------
# incomplete beta


def test_incomplete_beta_against_scipy():
    for a in (0.5, 1.0, 2.0, 3.5, 10.0, 50.0):
        for b in (0.5, 1.0, 2.5, 7.0):
            for x in (0.001, 0.1, 0.33, 0.5, 0.77, 0.95, 0.999):
                want = float(sp_special.betainc(a, b, x))
                got = regularized_incomplete_beta(a, b, x)
                assert got == pytest.approx(want, abs=1e-10), (a, b, x)


def test_incomplete_beta_bounds_and_validation():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# stars


def test_significance_stars_boundaries():
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"  # strict: the boundary drops a star
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == ""
    assert significance_stars(0.5) == ""
    assert significance_stars(math.nan) == ""

"""Closed-form constant chain: roots, right-hand sides, dichotomy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab import (
    BoundParams,
    DichotomyBranch,
    boundary_rhs,
    epsilon_ab,
    epsilon_prime,
    interior_rhs,
    make_ledger,
    mu_ab,
    quantization_dichotomy,
)
from mvlab.errors import (
    BothLinearTermsZero,
    BothNonlinearitiesZero,
    MVLabError,
    RadiusOutOfRange,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
# zero is a meaningful degenerate case; nonzero values stay representable
# (denormal-scale constants overflow the root and are rejected explicitly)
nonneg = st.one_of(st.just(0.0),
                   st.floats(min_value=1e-9, max_value=1e3, allow_nan=False))
dims = st.sampled_from([2, 3, 4])


def test_epsilon_examples():
    assert epsilon_ab(2, 0, 1) == 0.5
    assert epsilon_ab(0, 4, 1) == 0.125
    assert epsilon_ab(1, 1, 2) == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-15)
    with pytest.raises(BothNonlinearitiesZero):
        epsilon_ab(0, 0, 1)


def test_mu_examples():
    assert mu_ab(2, 0, 1, 2) == pytest.approx(0.125)
    assert mu_ab(0, 4, 1, 2) == pytest.approx(1 / 128)
    # independent high-precision root for the mixed case
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    root = (Decimal(2).sqrt() - 1) / 2
    expected = float(root**3 / 4)
    assert mu_ab(1, 1, 2, 3) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(a=nonneg, b=nonneg, c=positive)
def test_epsilon_root_residual(a, b, c):
    if a + b == 0:
        return
    eps = epsilon_ab(a, b, c)
    assert eps > 0
    assert abs(a * eps**2 + b * eps - 0.5 / c) < 1e-12


@settings(max_examples=100, deadline=None)
@given(a=positive, b=positive, c=positive, n=dims)
def test_epsilon_mu_monotone(a, b, c, n):
    bump = 1.25
    eps = epsilon_ab(a, b, c)
    assert epsilon_ab(a * bump, b, c) < eps
    assert epsilon_ab(a, b * bump, c) < eps
    assert epsilon_ab(a, b, c * bump) < eps
    mu = mu_ab(a, b, c, n)
    assert mu_ab(a * bump, b, c, n) < mu
    assert mu_ab(a, b * bump, c, n) < mu


def test_interior_rhs_examples():
    p = BoundParams(2)
    assert interior_rhs(p, 1.0, 3.0, 2.0) == pytest.approx(6.0)
    p1 = BoundParams(2, A0=1.0)
    assert interior_rhs(p1, 0.5, 0.0, 1.0) == pytest.approx(0.25)
    p2 = BoundParams(2, A0=1.0, A1=4.0)
    assert interior_rhs(p2, 1.0, 1.0, 1.0) == pytest.approx(6.0)
    with pytest.raises(RadiusOutOfRange):
        interior_rhs(p, 1.5, 1.0, 1.0)


def test_boundary_rhs_examples():
    p = BoundParams(2)
    assert boundary_rhs(p, 2.0, 1.0, 1.0) == pytest.approx(2.0 ** (-2))
    p1 = BoundParams(2, B0=2.0)
    assert boundary_rhs(p1, 0.5, 0.0, 1.0) == pytest.approx(1.0)
    p2 = BoundParams(2, A1=1.0, B1=1.0)
    assert boundary_rhs(p2, 1.0, 1.0, 1.0) == pytest.approx(3.0)


@settings(max_examples=100, deadline=None)
@given(a0=nonneg, a1=nonneg, b0=nonneg, b1=nonneg, r=positive, en=nonneg,
       c=positive, n=dims)
def test_boundary_reduces_to_interior(a0, a1, b0, b1, r, en, c, n):
    r = min(r, 1.0)
    full = BoundParams(n, A0=a0, A1=a1, B0=b0, B1=b1)
    interior_only = BoundParams(n, A0=a0, A1=a1)
    lhs = boundary_rhs(full, r, en, c)
    rhs = interior_rhs(interior_only, r, en, c) + c * b0 * r + c * b1**n * en
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dichotomy_examples():
    p = BoundParams(2)
    res = quantization_dichotomy(1.0, p, 1.0, 1.0)
    assert res.branch is DichotomyBranch.BOUND_CONSISTENT  # tie
    low = quantization_dichotomy(0.124, p, 0.125, 1.0)
    high = quantization_dichotomy(0.126, p, 0.125, 1.0)
    assert low.branch is DichotomyBranch.BOUND_CONSISTENT
    assert high.branch is DichotomyBranch.CONCENTRATION_FORCED
    # large R: lhs diverges while rhs tends to c * hbar
    big = quantization_dichotomy(1e9, p, 1.0, 1.0)
    assert big.forced
    assert big.rhs == pytest.approx(1.0, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(a0=nonneg, a1=nonneg, b0=nonneg, b1=nonneg, hbar=positive, c=positive,
       n=dims, r1=positive, r2=positive)
def test_dichotomy_monotone_in_r(a0, a1, b0, b1, hbar, c, n, r1, r2):
    lo, hi = sorted((r1, r2))
    p = BoundParams(n, A0=a0, A1=a1, B0=b0, B1=b1)
    if quantization_dichotomy(lo, p, hbar, c).forced:
        assert quantization_dichotomy(hi, p, hbar, c).forced


def test_epsilon_prime_examples():
    p = BoundParams(2, B1=1.0)
    res = epsilon_prime(p, 1.0, 1.0, 0.5)
    assert res.value == pytest.approx(1 / 8)
    assert not res.capped

    p2 = BoundParams(2, A1=1.0)
    res2 = epsilon_prime(p2, 1.0, 1.0, 0.5)
    assert res2.value == pytest.approx(2.0 ** (-1.5))
    # root above the cap: eps' = eps
    res2b = epsilon_prime(p2, 1.0, 1.0, 0.25)
    assert res2b.capped and res2b.value == 0.25

    p3 = BoundParams(2, A1=1.0, B1=1.0)
    res3 = epsilon_prime(p3, 1.0, 1.0, 0.5)
    assert res3.value == pytest.approx((-1 + math.sqrt(1.5)) / 2, abs=1e-12)
    assert res3.all_certified()

    with pytest.raises(BothLinearTermsZero):
        epsilon_prime(BoundParams(2), 1.0, 1.0, 0.5)


@settings(max_examples=200, deadline=None)
@given(a1=nonneg, b1=nonneg, r=positive, c=positive, n=dims)
def test_epsilon_prime_residual_and_certificates(a1, b1, r, c, n):
    if a1 + b1 == 0:
        return
    p = BoundParams(n, A1=a1, B1=b1)
    res = epsilon_prime(p, r, c, 0.5)
    t = res.value * r
    target = 2.0 ** (-n - 1) / c
    if res.capped:
        assert res.value == 0.5
        assert a1 * t**2 + b1 * t <= target * (1 + 1e-12)
    else:
        assert abs(a1 * t**2 + b1 * t - target) < 1e-12 * max(1.0, target)
        assert res.all_certified()


def test_ledger_construction_and_thresholds():
    led = make_ledger(2, 2.0, 0.0, 1.0)
    assert led.eps_ab == 0.5 and led.hbar == 0.125
    assert led.energy_threshold_interior() == pytest.approx(0.125 / 2.0)
    assert led.energy_threshold_boundary() == 0.125

    vac = make_ledger(3, 0.0, 0.0, 2.0)
    assert vac.eps_ab is None and vac.hbar is None
    assert vac.energy_threshold_interior() == math.inf
    assert vac.energy_threshold_boundary() == math.inf

    with pytest.raises(MVLabError):
        make_ledger(2, 1.0, 0.0, -1.0)


@pytest.mark.parametrize("a, c, delta, key", [
    (0.0, math.nan, 0.05, "'C'"), (0.0, math.inf, 0.05, "'C'"), (2.0, math.nan, 0.05, "'C'"),
    (2.0, math.inf, 0.05, "'C'"), (0.0, 1.0, math.nan, "'delta'"), (2.0, 1.0, math.inf, "'delta'"),
    (0.0, 1.0, -0.1, "'delta'"),
])
def test_ledger_rejects_a_non_finite_constant(a, c, delta, key):
    # NaN passed the old `<= 0` checks, and skipped the metric-deviation gate
    with pytest.raises(MVLabError, match=key):
        make_ledger(2, a, 0.0, c, delta)


def test_ledger_block_text():
    from mvlab.report import ledger_block

    led = make_ledger(2, 2.0, 0.0, 1.0)
    block = ledger_block(led)
    assert "eps_ab=0.5 [derived]" in block
    assert "hbar=0.125 [derived]" in block
    assert "c_master=1.0 [configured]" in block


def test_epsilon_overflow_guard():
    with pytest.raises(MVLabError):
        epsilon_ab(5e-324, 0.0, 4.0)

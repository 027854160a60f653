import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from platmod import (
    ContractViolationError,
    InvalidParamsError,
    ModelParams,
    Platform,
    UserProfile,
    news_payoff,
    sender_utility,
    social_payoff,
    trust_threshold,
    user_utility,
)
from platmod.model import news_gain, sender_payoff, trusts

from conftest import mc_news_payoff, mc_persuasion_rate


def test_trust_threshold_value():
    assert trust_threshold(0.2, 0.3) == pytest.approx(0.5833333333333333, abs=1e-12)


def test_trust_threshold_boundaries():
    # c at the top of its range: threshold tends to mu/(1-mu)
    assert trust_threshold(0.2, 0.5 - 1e-9) == pytest.approx(0.25, abs=1e-7)
    # c just above mu: threshold tends to 1
    assert trust_threshold(0.2, 0.2 + 1e-9) == pytest.approx(1.0, abs=1e-7)


def test_trust_threshold_domain():
    for mu, c in [(0.0, 0.3), (0.3, 0.2), (0.2, 0.6), (0.3, 0.3)]:
        with pytest.raises(InvalidParamsError):
            trust_threshold(mu, c)


def test_trust_threshold_monotonicity_finite_differences():
    mus = np.linspace(0.05, 0.3, 12)
    cs = np.linspace(0.31, 0.49, 12)
    for c in cs:
        vals = [trust_threshold(m, c) for m in mus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for m in mus:
        vals = [trust_threshold(m, c) for c in cs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


@given(
    mu=st.floats(0.01, 0.45),
    gap=st.floats(0.005, 0.2),
)
def test_trust_threshold_in_unit_interval(mu, gap):
    c = min(mu + gap, 0.499)
    assert 0.0 < trust_threshold(mu, c) < 1.0


def test_news_payoff_no_signal():
    for beta in (0.0, 0.3, 0.99):
        assert news_payoff(0.2, 0.3, beta, 0.0) == pytest.approx(0.24, abs=1e-15)


def test_news_payoff_trusting_value():
    assert news_payoff(0.2, 0.3, 0.5, 0.9) == pytest.approx(0.258, abs=1e-12)


def test_news_payoff_distrust_value():
    assert news_payoff(0.2, 0.3, 0.99, 0.9) == pytest.approx(0.24, abs=1e-15)


def test_news_payoff_against_monte_carlo():
    for beta, p_recv in [(0.5, 0.9), (0.0, 0.7), (0.99, 0.9)]:
        expected = news_payoff(0.2, 0.3, beta, p_recv)
        assert mc_news_payoff(0.2, 0.3, beta, p_recv) == pytest.approx(expected, abs=1e-3)


def test_news_payoff_continuous_at_threshold():
    bp = trust_threshold(0.2, 0.3)
    trusting = news_payoff(0.2, 0.3, bp, 0.9)
    assert trusting == pytest.approx(0.24, abs=1e-12)  # distrust value


def test_news_payoff_nonincreasing_in_beta_up_to_threshold():
    bp = trust_threshold(0.2, 0.3)
    betas = np.linspace(0.0, bp, 40)
    vals = [news_payoff(0.2, 0.3, float(b), 0.9) for b in betas]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_news_payoff_domain():
    with pytest.raises(InvalidParamsError):
        news_payoff(0.2, 0.3, -0.1, 0.5)
    with pytest.raises(InvalidParamsError):
        news_payoff(0.2, 0.3, 0.1, 1.5)


def test_social_payoff():
    assert social_payoff(0, 5.0) == 0.0
    assert social_payoff(3, 0.01) == pytest.approx(0.03)
    with pytest.raises(InvalidParamsError):
        social_payoff(-1, 0.1)


def test_social_payoff_interior_hub_count():
    # interior hub of a 2-leafless chain: one leaf plus two hub neighbors
    from platmod import gen_star_chain

    net = gen_star_chain(3, 2)
    hub_degree = int(net.degrees[1])
    assert hub_degree == 3
    assert social_payoff(hub_degree, 0.2) == pytest.approx(3 * 0.2)


def test_user_utility_isolated():
    params = ModelParams(mu=0.2, p=0.9, b_a=0.1, b_b=0.0)
    v = user_utility(UserProfile(c=0.3), params, 0.4, Platform.A, Platform.B, 0, 0.0)
    assert v == pytest.approx(0.24, abs=1e-15)


def test_user_utility_on_sender_platform():
    # user receiving with probability 0.9 at beta=0 and no social payoff
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    v = user_utility(UserProfile(c=0.3), params, 0.0, Platform.B, Platform.B, 0, 0.9)
    assert v == pytest.approx(0.366, abs=1e-12)


def test_user_utility_platform_indifferent_when_distrusting():
    params = ModelParams(mu=0.2, p=0.9, b_a=0.3, b_b=0.7)
    prof = UserProfile(c=0.3)
    va = user_utility(prof, params, 0.99, Platform.A, Platform.B, 0, 0.0)
    vb = user_utility(prof, params, 0.99, Platform.B, Platform.B, 0, 0.9)
    assert va == pytest.approx(0.24, abs=1e-15)
    assert vb == pytest.approx(0.24, abs=1e-15)


def test_user_utility_contract_violation():
    params = ModelParams(mu=0.2, p=0.9, b_a=0.01, b_b=0.0)
    with pytest.raises(ContractViolationError):
        user_utility(UserProfile(c=0.3), params, 0.0, Platform.A, Platform.B, 1, 0.5)


def test_sender_utility_nobody_trusts():
    receivers = [(0.9, 0.58), (0.5, 0.4)]
    assert sender_utility(0.2, 0.7, receivers) == 0.0


def test_sender_utility_single_receiver_at_threshold():
    bp = trust_threshold(0.2, 0.3)
    u = sender_utility(0.2, bp, [(1.0, bp)])
    assert u == pytest.approx(0.2 + 0.8 * bp, abs=1e-12)
    assert u == pytest.approx(0.6666666666, abs=1e-9)


def test_sender_utility_geometric_line_limit():
    # receivers at p**k on an effectively infinite line, beta = 0
    p = 0.9
    receivers = [(p**k, 0.5833) for k in range(600)]
    assert sender_utility(0.2, 0.0, receivers) == pytest.approx(2.0, abs=1e-9)


def test_sender_utility_against_monte_carlo():
    # expected persuaded count is the sum of per-user persuasion rates
    receivers = [(1.0, trust_threshold(0.2, 0.3)), (0.81, trust_threshold(0.2, 0.3))]
    beta = 0.4
    expected = sender_utility(0.2, beta, receivers)
    mc = sum(mc_persuasion_rate(0.2, 0.3, beta, p, seed=11 + i) for i, (p, _) in enumerate(receivers))
    assert mc == pytest.approx(expected, abs=2e-3)


def test_sender_utility_heterogeneous_counts_only_trusting():
    bp_low = trust_threshold(0.2, 0.4)   # 0.375
    bp_high = trust_threshold(0.2, 0.21)  # ~0.94
    beta = 0.5
    u = sender_utility(0.2, beta, [(1.0, bp_low), (0.5, bp_high)])
    assert u == pytest.approx((0.2 + 0.8 * 0.5) * 0.5, abs=1e-12)


def test_sender_utility_piecewise_linear_nondecreasing():
    receivers = [(0.9**k, trust_threshold(0.2, 0.3)) for k in range(10)]
    betas = np.linspace(0.0, trust_threshold(0.2, 0.3), 50)
    vals = [sender_utility(0.2, float(b), receivers) for b in betas]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    # linearity: second differences vanish
    d2 = np.diff(vals, n=2)
    assert np.abs(d2).max() < 1e-12


def test_model_params_validation():
    with pytest.raises(InvalidParamsError):
        ModelParams(mu=0.6, p=0.5, b_a=0.1, b_b=0.0)
    with pytest.raises(InvalidParamsError):
        ModelParams(mu=0.2, p=1.0, b_a=0.1, b_b=0.0)
    with pytest.raises(InvalidParamsError):
        ModelParams(mu=0.2, p=0.5, b_a=-0.1, b_b=0.0)
    # NaN fails every comparison, so the qualities must be finite as well
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParamsError, match="finite"):
            ModelParams(mu=0.2, p=0.5, b_a=bad, b_b=0.0)
        with pytest.raises(InvalidParamsError, match="finite"):
            ModelParams(mu=0.2, p=0.5, b_a=0.1, b_b=bad)
    with pytest.raises(InvalidParamsError):
        ModelParams(mu=0.2, p=0.5, b_a=0.1, b_b=0.0, rho_a=1.5)
    with pytest.raises(InvalidParamsError):
        ModelParams(mu=0.2, p=0.5, b_a=0.1, b_b=0.0, rho_b=0.5)


def test_user_profile_validation():
    with pytest.raises(InvalidParamsError):
        UserProfile(c=0.6)
    with pytest.raises(InvalidParamsError):
        UserProfile(c=0.3, community=-1)


def test_scalar_views_equal_the_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(50):
        mu = float(rng.uniform(0.01, 0.45))
        c = rng.uniform(mu + 1e-3, 0.5 - 1e-3, 16)
        p_recv = rng.uniform(0.0, 1.0, 16)
        bp = trust_threshold(mu, c)
        # betas at, just around and away from the thresholds
        beta = np.clip(np.where(rng.random(16) < 0.3, bp, rng.uniform(0.0, 1.0, 16)), 0.0, 1.0)
        news = (1.0 - mu) * c + np.where(trusts(beta, bp), p_recv * news_gain(mu, c, beta), 0.0)
        for i in range(16):
            ci, bi, pi = float(c[i]), float(beta[i]), float(p_recv[i])
            assert trust_threshold(mu, ci) == bp[i]
            assert news_payoff(mu, ci, bi, pi) == news[i]
        b = float(beta[0])
        column = sender_payoff(mu, b, p_recv, trusts(b, bp))
        assert sender_utility(mu, b, zip(p_recv.tolist(), bp.tolist())) == column

import math

import numpy as np
import pytest

from platmod import (
    FamilySpec,
    InvalidParamsError,
    ModelParams,
    RegulationKind,
    SbmAnalyticSpec,
    beta_j,
    boundary_b_a,
    rho_se_linear_infinite,
    sbm_boundary_b_a,
    sbm_threshold,
    scaling_presets,
    threshold_rho0,
    trust_threshold,
    ustar_b_linear_infinite,
)
from platmod.analytic import (
    appendix_structure_check,
    big_f,
    big_g,
    f_k,
    f_nk,
    g_nk,
    h_k,
    h_nk,
    k_cap,
)
from platmod.experiments import chain_theta, complete_theta

from conftest import default_params


def test_big_f_at_zero():
    params = default_params(b_a=0.01, b_b=0.0)
    assert big_f(0, params, 0.3) == pytest.approx(0.13 / 0.24, abs=1e-12)
    assert big_f(0, params, 0.3) == pytest.approx(0.5416666666, abs=1e-9)


def test_big_g_at_zero():
    params = default_params(b_a=0.01, b_b=0.0)
    expected = math.log(0.01 / 0.14) / math.log(0.9)
    assert big_g(0.0, params, 0.3) == pytest.approx(expected, abs=1e-12)
    assert 25.0 < big_g(0.0, params, 0.3) < 25.1


def test_f_g_inverse_identities():
    params = default_params(b_a=0.013, b_b=0.002)
    beta_prime = trust_threshold(0.2, 0.3)
    for k in range(0, 22, 3):
        beta = big_f(k, params, 0.3)
        if 0.0 < beta < beta_prime:
            assert big_g(beta, params, 0.3) == pytest.approx(k, abs=1e-9)
    for beta in (0.05, 0.2, 0.4):
        k = big_g(beta, params, 0.3)
        assert big_f(k, params, 0.3) == pytest.approx(beta, abs=1e-9)


def test_big_g_domain_errors():
    with pytest.raises(InvalidParamsError):
        big_g(0.0, default_params(b_a=0.01, b_b=0.01), 0.3)
    with pytest.raises(InvalidParamsError):
        big_g(0.6, default_params(b_a=0.01, b_b=0.0), 0.3)  # denominator <= 0


def test_f_k_value():
    val = f_k(5, 0.9)
    # independent evaluation of the same quantity
    expected = 0.2 * 0.9**5 * (1 - 0.3 / (1 - 0.9**6))
    assert val == pytest.approx(expected, abs=1e-15)
    assert val == pytest.approx(0.0425, abs=5e-4)


def test_f_nk_special_form():
    assert f_nk(3, 1, 0.5) == pytest.approx(0.07, abs=1e-15)
    with pytest.raises(InvalidParamsError):
        f_nk(3, 2, 0.5)


def test_g_h_reduce_to_f_under_r_one():
    for k in range(8):
        assert h_k(k, 0.6, 1) == pytest.approx(f_k(k, 0.6), abs=1e-15)
    # finite star chain with r=1 shares the line's interior terms
    for k in range(5):
        assert g_nk(12, k, 0.6) == pytest.approx(f_nk(12, k, 0.6), abs=1e-15)


def test_star_and_line_thresholds_agree_at_r_one():
    params = default_params()
    for p in np.linspace(0.1, 0.9, 9):
        pp = ModelParams(mu=0.2, p=float(p), b_a=0.01, b_b=0.0)
        line = threshold_rho0(FamilySpec(kind="linear-finite", params=pp, n=20))
        star = threshold_rho0(FamilySpec(kind="star-chain-finite", params=pp, n=20, r=1))
        assert star == pytest.approx(line, abs=1e-12)


def test_finite_line_schedule_runs_through_f_nk():
    # a constant per-distance c schedule is the scalar c bit for bit, and a
    # schedule entry at or below mu is refused as on the infinite line
    for n in (2, 3, 7, 20):
        for p in (0.2, 0.55, 0.9):
            params = ModelParams(mu=0.2, p=p, b_a=0.01, b_b=0.0)
            scalar = threshold_rho0(FamilySpec("linear-finite", params, c=0.35, n=n))
            schedule = threshold_rho0(FamilySpec("linear-finite", params, c=(0.35,) * n, n=n))
            assert schedule == scalar
    params = ModelParams(mu=0.2, p=0.7, b_a=0.01, b_b=0.0)
    for kind in ("linear-finite", "linear-infinite"):
        with pytest.raises(InvalidParamsError, match="mu < c"):
            threshold_rho0(FamilySpec(kind, params, c=(0.1, 0.3, 0.3, 0.3), n=4))
        with pytest.raises(InvalidParamsError, match="mu < c"):
            threshold_rho0(FamilySpec(kind, params, c=(0.3, 0.3, 0.2), n=4))


@pytest.mark.parametrize("kind", ["linear-finite", "linear-infinite"])
def test_empty_c_schedule_is_refused(kind):
    params = ModelParams(mu=0.2, p=0.7, b_a=0.01, b_b=0.0)
    with pytest.raises(InvalidParamsError, match="c schedule needs at least one value"):
        FamilySpec(kind, params, c=(), n=4)


def test_h_nk_limit_at_unit_reproduction():
    # p*r == 1: the ratio collapses to n/(k+1)
    val = h_nk(6, 2, 0.5, 2)
    assert val == pytest.approx(0.2 * 0.25 * (1 - 0.3 * 6 / 3), abs=1e-15)
    with pytest.raises(InvalidParamsError):
        h_k(2, 0.5, 2)


def test_threshold_rho0_linear_small_p_limit():
    params = ModelParams(mu=0.2, p=1e-6, b_a=0.01, b_b=0.0)
    assert threshold_rho0(FamilySpec(kind="linear-infinite", params=params)) == pytest.approx(
        0.14, abs=1e-5
    )


def test_threshold_rho0_infinite_tree_collapses():
    params = ModelParams(mu=0.2, p=0.6, b_a=1e-9, b_b=0.0)
    assert threshold_rho0(FamilySpec(kind="tree-infinite", params=params, r=2)) == 0.0


@pytest.mark.parametrize("p, r", [(0.3, 2), (0.2, 3)])
def test_infinite_tree_below_unit_reproduction_matches_a_deep_finite_tree(p, r):
    # p*r < 1: the infinite maximum over h_k is the limit of the finite one
    params = ModelParams(mu=0.2, p=p, b_a=0.01, b_b=0.0)
    inf = threshold_rho0(FamilySpec(kind="tree-infinite", params=params, r=r))
    fin = threshold_rho0(FamilySpec(kind="tree-finite", params=params, n=80, r=r))
    assert inf == pytest.approx(fin, abs=1e-12)


def test_prop4_tighter_than_prop3():
    # the stop-index maximum undercuts min(mu(1-c), mu(1-c)^2/p) everywhere
    strict = False
    for p in np.linspace(0.05, 0.95, 19):
        params = ModelParams(mu=0.2, p=float(p), b_a=0.01, b_b=0.0)
        tight = threshold_rho0(FamilySpec(kind="linear-infinite", params=params))
        loose = min(0.2 * 0.7, 0.2 * 0.49 / p)
        assert tight <= loose + 1e-12
        strict |= tight < loose - 1e-9
    assert strict


def test_finite_thresholds_converge_to_infinite():
    for kind_fin, kind_inf, r in [
        ("linear-finite", "linear-infinite", None),
        ("star-chain-finite", "star-chain-infinite", 2),
        ("tree-finite", "tree-infinite", 2),
    ]:
        params = ModelParams(mu=0.2, p=0.6, b_a=0.01, b_b=0.0)
        fin = threshold_rho0(FamilySpec(kind=kind_fin, params=params, n=200, r=r))
        inf = threshold_rho0(FamilySpec(kind=kind_inf, params=params, r=r))
        assert fin == pytest.approx(inf, abs=1e-9)


def test_boundary_b_a_scaling():
    params = ModelParams(mu=0.2, p=0.6, b_a=0.01, b_b=0.0)
    lin = FamilySpec(kind="linear-finite", params=params, n=20)
    star = FamilySpec(kind="star-chain-finite", params=params, n=20, r=2)
    assert boundary_b_a(lin) == pytest.approx(threshold_rho0(lin))
    assert boundary_b_a(star) == pytest.approx(threshold_rho0(star) / 2)


def test_ustar_b_linear_infinite_brute_force():
    params = default_params(b_a=0.01, b_b=0.0)
    u, beta, k_star = ustar_b_linear_infinite(params)
    best = max(
        (0.2 + 0.8 * big_f(k, params, 0.3)) * (1 - 0.9 ** (k + 1)) / 0.1
        for k in range(60)
        if big_f(k, params, 0.3) >= 0
    )
    assert u == pytest.approx(best, abs=1e-12)
    assert k_star == 14


def test_ustar_b_no_migration_when_gap_dominates():
    params = default_params(b_a=0.15, b_b=0.0)  # gap > mu*(1-c)
    u, beta, k_star = ustar_b_linear_infinite(params)
    assert u == 0.0 and beta == 0.0 and k_star == -1


def test_ustar_b_small_p_single_receiver():
    params = ModelParams(mu=0.2, p=1e-9, b_a=0.01, b_b=0.0)
    u, beta, k_star = ustar_b_linear_infinite(params)
    assert k_star == 0
    assert u == pytest.approx(0.2 + 0.8 * big_f(0, params, 0.3), abs=1e-9)


def test_rho_se_linear_infinite_cases():
    # far above the collapse threshold
    res = rho_se_linear_infinite(default_params(b_a=0.2, b_b=0.0))
    assert res.kind is RegulationKind.ANY_REGULATION
    # equal qualities: the wave never stops
    res = rho_se_linear_infinite(default_params(b_a=0.01, b_b=0.01))
    assert res.kind is RegulationKind.NO_EFFECTIVE_REGULATION
    # reference defaults sit in the moderate band and match the crossing
    res = rho_se_linear_infinite(default_params(b_a=0.01, b_b=0.0))
    assert res.kind is RegulationKind.MODERATE
    assert 0.0 < res.rho_se < trust_threshold(0.2, 0.3)
    assert res.rho_se == pytest.approx((0.1 * res.u_star_b - 0.2) / 0.8, abs=1e-12)


def test_scaling_presets_chain():
    p_phi, big_r = scaling_presets("chain", (30, 30, 30), 0.9)
    assert p_phi == pytest.approx([0.9, 0.81, 0.9**4])
    assert big_r == pytest.approx([27.0, 30 * 0.9**3, 30 * 0.9**5])


def test_scaling_presets_star():
    p_phi, big_r = scaling_presets("star", (20, 30, 40, 50), 0.5)
    assert p_phi == pytest.approx([0.5, 0.25, 0.25, 0.25])
    assert big_r == pytest.approx([10.0, 30 * 0.125, 40 * 0.125, 50 * 0.125])


def test_sbm_threshold_single_community():
    spec = SbmAnalyticSpec(
        sizes=(30,), theta_diag=(0.75,), b_a=0.0, b_b=0.0, p=0.7, scaling="chain"
    )
    assert sbm_threshold(spec) == pytest.approx([0.2 * 0.7 * 0.7], abs=1e-15)


def test_sbm_threshold_sympathizer_sign():
    # sympathizers near the sender raise the low-p threshold
    kw = dict(sizes=(30, 30, 30), theta_diag=(0.75,) * 3, b_a=0.0, b_b=0.0, scaling="chain")
    for p in (0.3, 0.5):
        lo = sbm_boundary_b_a(SbmAnalyticSpec(p=p, c=(0.21, 0.3, 0.3), **kw))
        hi = sbm_boundary_b_a(SbmAnalyticSpec(p=p, c=(0.4, 0.3, 0.3), **kw))
        assert lo > hi


def test_beta_j_formula():
    spec = SbmAnalyticSpec(
        sizes=(30, 30, 30), theta_diag=(0.75,) * 3, b_a=0.002, b_b=0.0, p=0.7
    )
    expected = (0.2 * 0.7 - 30 * 0.75 * 0.002 / 0.7) / (0.8 * 0.3)
    assert beta_j(spec, 1) == pytest.approx(expected, abs=1e-12)


def test_structure_check_chain_base():
    report = appendix_structure_check(chain_theta((30, 30, 30), 0.75), (30, 30, 30))
    assert report.chain_ok
    # 30 * 4/900 < 1 < 900 * 4/900 and the two-sided bridge product 4 * 4/30 < 1
    names = dict(report.chain_conditions)
    assert names["adjacent_links_sparse_but_present"]
    assert names["no_user_bridges_both_neighbors"]


def test_structure_check_complete_graph():
    sizes = (20, 30, 40, 50)
    report = appendix_structure_check(complete_theta(sizes, 0.75), sizes)
    assert report.star_ok


def test_infinite_star_chain_threshold_corroborated_below_unit_reproduction():
    # for p < 1/r the farthest-hub end effect vanishes with length, so the
    # infinite-chain threshold (f_k on r*b_a - b_b, verbatim) matches long
    # truncations; above 1/r the finite end effect is real and documented
    from platmod import RegulationKind, gen_star_chain, strictest_effective_regulation

    for p in (0.3, 0.45):
        params0 = ModelParams(mu=0.2, p=p, b_a=0.01, b_b=0.0)
        ana = threshold_rho0(FamilySpec(kind="star-chain-infinite", params=params0, r=2)) / 2
        net = gen_star_chain(40, 2)
        sim = None
        for b_a in np.linspace(0.0, 0.2, 101):
            res = strictest_effective_regulation(
                net, ModelParams(mu=0.2, p=p, b_a=float(b_a), b_b=0.0)
            )
            if res.kind is RegulationKind.ANY_REGULATION:
                sim = float(b_a)
                break
        assert abs(sim - ana) <= 0.002 + 1e-12


def test_k_cap_envelope():
    cap = k_cap(0.2, 0.9)
    assert 0.2 * 0.9**cap < 1e-15
    assert 0.2 * 0.9 ** (cap - 1) >= 1e-15

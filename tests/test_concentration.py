import math

import numpy as np
import pytest

from locrad.concentration import (
    LOWER_K,
    LOWER_K_GAMMA,
    UPPER_K,
    UPPER_K_GAMMA,
    LadderInputs,
    MassartParams,
    ladder_constants,
    massart_lower_threshold,
    massart_upper_threshold,
    phi_ladder,
    tail_coefficients,
)
from locrad.rademacher import constants_from_gammas


def params(**kw):
    base = dict(ez=0.0, sigma2=0.0, b=1.0, n=100, x=1.0, gamma=0.5)
    base.update(kw)
    return MassartParams(**base)


def test_upper_threshold_example():
    p = params(ez=0.0, sigma2=0.0, b=1.0, n=100, x=2.0, gamma=0.99)
    want = (3.5 + 32.0 / 0.99) * 2.0 / 100.0
    assert massart_upper_threshold(p) == pytest.approx(want, rel=1e-12)
    assert massart_upper_threshold(p) == pytest.approx(0.7164646, abs=5e-7)


def test_upper_threshold_zero_tail():
    p = params(ez=0.3, sigma2=5.0, x=0.0, gamma=0.25)
    assert massart_upper_threshold(p) == pytest.approx(1.25 * 0.3, rel=1e-12)


def test_upper_sigma_term_matches_localization_term():
    # sigma^2 = n r with x = n eps / 2 makes the sigma term 2 sqrt(r eps)
    r, eps, n = 0.5, 0.01, 1000
    p = params(sigma2=n * r, x=n * eps / 2.0, n=n, b=1.0)
    term = math.sqrt(n * r) * math.sqrt(8.0 * n * eps / 2.0) / n
    assert term == pytest.approx(2.0 * math.sqrt(r * eps), rel=1e-12)
    bx = (3.5 + 32.0 / p.gamma) * p.x / n
    assert massart_upper_threshold(p) == pytest.approx(2.0 * math.sqrt(r * eps) + bx, rel=1e-12)


def test_lower_sigma_term_matches_localization_term():
    r, eps, n = 0.5, 0.01, 1000
    p = params(sigma2=n * r, x=n * eps / 2.0, n=n)
    term = math.sqrt(n * r) * math.sqrt(2.0 * 5.4 * n * eps / 2.0) / n
    assert term == pytest.approx(math.sqrt(5.4 * r * eps), rel=1e-12)


def test_lower_threshold_example():
    p = params(ez=1.0, sigma2=0.0, b=1.0, n=100, x=5.0, gamma=0.5)
    want = 0.5 - (3.5 + 86.4) * 5.0 / 100.0
    assert massart_lower_threshold(p) == pytest.approx(want, rel=1e-12)
    assert massart_lower_threshold(p) == pytest.approx(-3.995, rel=1e-12)


def test_lower_threshold_degenerate():
    p = params(ez=0.0, sigma2=0.0, x=0.0)
    assert massart_lower_threshold(p) == 0.0


def test_threshold_monotonicity():
    base = params(ez=0.2, sigma2=3.0, b=1.0, n=50, x=2.0, gamma=0.3)
    for name, hi in (("ez", 0.4), ("sigma2", 6.0), ("b", 2.0), ("x", 4.0)):
        bumped = params(**{**vars(base), name: hi})
        assert massart_upper_threshold(bumped) > massart_upper_threshold(base)


def test_params_validation():
    for bad in (dict(ez=-0.1), dict(sigma2=-1.0), dict(b=0.0), dict(n=0),
                dict(x=-1.0), dict(gamma=0.0), dict(gamma=1.0)):
        with pytest.raises(ValueError):
            params(**bad)


# ------------------------------------------------------------- phi ladder

def test_ladder_all_zero():
    ladder = phi_ladder(
        0.0,
        LadderInputs(sup_dev=0.0, mean_sup_dev=0.0, rademacher_norm=0.0,
                     mean_rademacher_norm=0.0),
        eps=0.0,
    )
    for name in ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6"):
        assert getattr(ladder, name) == 0.0


def test_ladder_phi2_example():
    ladder = phi_ladder(0.25, LadderInputs(mean_sup_dev=0.1), eps=0.01, gamma=0.5)
    want = 1.5 * 0.1 + 2.0 * math.sqrt(0.0025) + (1.75 + 32.0) * 0.01
    assert want == pytest.approx(0.5875, rel=1e-12)
    assert ladder.phi2 == pytest.approx(want, rel=1e-12)


def test_ladder_phi3_example():
    # evaluated from the printed expression: the inner bracket carries the
    # 2(1+gamma)/(1-gamma') factor, the outer terms repeat the phi2 tail
    ladder = phi_ladder(0.25, LadderInputs(rademacher_norm=0.05), eps=0.01,
                        gamma=0.5, gamma_prime=0.5)
    want = 6.0 * (0.05 + math.sqrt(5.4 * 0.0025) + 44.95 * 0.01) \
        + 2.0 * math.sqrt(0.0025) + 33.75 * 0.01
    assert ladder.phi3 == pytest.approx(want, rel=1e-12)
    assert ladder.phi3 == pytest.approx(4.1316370, abs=5e-7)


def test_ladder_missing_input():
    ladder = phi_ladder(0.2, LadderInputs(sup_dev=0.1), eps=0.01)
    assert ladder.phi2 is None and ladder.phi4 is None
    with pytest.raises(ValueError):
        phi_ladder(0.2, LadderInputs(sup_dev=0.1), eps=0.01, require=("phi2",))


def test_ladder_phi4_formula():
    gamma = gamma_prime = g2 = 0.5
    r, eps, nu = 0.3, 0.02, 0.07
    ladder = phi_ladder(r, LadderInputs(mean_rademacher_norm=nu), eps=eps)
    a = 2.0 * (1.0 + gamma) / (1.0 - gamma_prime)
    want = a * (
        (1.0 + 1.0 / g2) * nu + 2.0 * math.sqrt(r * eps) + (1.75 + 32.0) * eps
        + math.sqrt(5.4 * r * eps) + (1.75 + 43.2) * eps
    ) + 2.0 * math.sqrt(r * eps) + (1.75 + 32.0) * eps
    assert ladder.phi4 == pytest.approx(want, rel=1e-12)


def test_localization_constants_equal_phi3_expansion():
    # expanding phi3 at ball radius 2r gathers exactly the (K1, K2, K3)
    # triple used by the localization step, as float identities
    for gamma, gamma_prime in ((0.5, 0.5), (0.3, 0.7), (0.9, 0.1)):
        a = 2.0 * (1.0 + gamma) / (1.0 - gamma_prime)
        k1, k2, k3 = constants_from_gammas(gamma, gamma_prime)
        assert k1 == a
        assert k2 == a * math.sqrt(5.4) + 2.0
        assert k3 == a * (1.75 + 21.6 / gamma_prime) + (1.75 + 16.0 / gamma)


def test_tail_coefficients_equal_halved_literals():
    # x = n eps / 2 halves the b x coefficient, exactly in binary floating
    # point, and sqrt(4) is exact: the derivation reproduces the decimal forms
    for gamma in np.concatenate((np.linspace(0.01, 0.99, 99), [1e-6, 0.5, 0.999999])):
        gamma = float(gamma)
        assert tail_coefficients(UPPER_K, UPPER_K_GAMMA, gamma) == (2.0, 1.75 + 16.0 / gamma)
        assert tail_coefficients(LOWER_K, LOWER_K_GAMMA, gamma) == (
            math.sqrt(5.4), 1.75 + 21.6 / gamma
        )


def test_ladder_constants_exposed_and_ordered():
    consts = ladder_constants(0.5, 0.5, 0.5)
    assert consts.c1_prime > 1.0
    assert consts.c1_tilde > consts.c1_prime
    assert consts.c2_tilde > consts.c2_prime
    assert consts.c3_tilde > consts.c3_prime
    # phi3 <= phi5 must hold pointwise once the Rademacher norm is replaced
    # by its empirical-deviation majorant; check the coefficient gaps
    a = 6.0
    assert consts.c1_prime == pytest.approx(a * 6.0, rel=1e-12)


def test_ladder_chain_orders_on_simulated_instance(rng):
    # small smoke version of the coverage-scale ordering check
    import locrad as L

    dist = L.DistributionSpec.uniform(1)
    target = (0.3, 0.7)
    n, eps = 400, 0.05
    radii = np.linspace(0.1, 1.0, 5)
    means, _ = L.mc_mean_sup_deviation(dist, target, n, radii, draws=25, master_seed=5)
    for inst in range(5):
        sample = L.draw_sample(dist, n, L.derive_seed(6, inst, 0))
        table = L.IntervalSymdiffTable(sample, target, dist)
        signs = L.RademacherDraw.from_seed(L.derive_seed(6, inst, 1), n)
        for k, r in enumerate(radii):
            ladder = phi_ladder(
                float(r),
                LadderInputs(
                    sup_dev=table.sup_deviation(float(r)),
                    mean_sup_dev=float(means[k]),
                    rademacher_norm=table.sup_rademacher(signs.signs, float(r)),
                ),
                eps,
            )
            assert ladder.phi1 <= ladder.phi2 <= ladder.phi3
            assert ladder.phi3 <= ladder.phi5 <= ladder.phi6


def test_ladder_rejects_bad_radius():
    with pytest.raises(ValueError):
        phi_ladder(1.2, LadderInputs(sup_dev=0.1), eps=0.01)
    with pytest.raises(ValueError):
        phi_ladder(0.5, LadderInputs(sup_dev=0.1), eps=-0.01)

"""Concentration thresholds for empirical and Rademacher suprema.

Massart's form of Talagrand's inequality with explicit numerical
constants: for Z either sup|P_n - P| or the Rademacher norm over a class
bounded by b, with sigma^2 = n sup Var,

    P(Z >= (1+gamma) EZ + [sigma sqrt(2*4*x) + (3.5 + 32/gamma) b x]/n) <= e^-x
    P(Z <= (1-gamma) EZ - [sigma sqrt(2*5.4*x) + (3.5 + 43.2/gamma) b x]/n) <= e^-x

The second bracket is implemented with a plus sign between its terms;
some printed statements carry a minus there, but the rearranged form the
localization constants rely on corresponds to the plus sign, which is
also the conservative direction.

The phi-ladder evaluates the chain of comparison functions that sits
between the oracle deviation sup and the data-only localization step:
phi1 <= phi2 <= phi3 holds with probability at least 1 - 2 exp(-n eps/2),
and phi5/phi6 extend the chain to expected empirical deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UPPER_K = 4.0
UPPER_K_GAMMA = (3.5, 32.0)
LOWER_K = 5.4
LOWER_K_GAMMA = (3.5, 43.2)


@dataclass(frozen=True)
class MassartParams:
    """Inputs of one threshold evaluation.

    ez is the expectation of the supremum, sigma2 = n * sup Var(f(X_1)),
    b the sup-norm envelope, x the tail parameter (the event probability
    is at most e^-x), gamma the slack parameter in (0, 1).
    """

    ez: float
    sigma2: float
    b: float
    n: int
    x: float
    gamma: float

    def __post_init__(self):
        if self.ez < 0.0:
            raise ValueError("ez must be nonnegative")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if self.b <= 0.0:
            raise ValueError("envelope b must be positive")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.x < 0.0:
            raise ValueError("tail parameter x must be nonnegative")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")


def _linear_coefficient(k_gamma: tuple[float, float], gamma: float) -> float:
    """The b x coefficient k_const + k_over / gamma of a threshold bracket."""
    k_const, k_over = k_gamma
    return k_const + k_over / gamma


def _bracket(p: MassartParams, k: float, k_gamma: tuple[float, float]) -> float:
    """sigma sqrt(2 k x) + (k_const + k_over / gamma) b x."""
    sigma_term = math.sqrt(p.sigma2) * math.sqrt(2.0 * k * p.x)
    return sigma_term + _linear_coefficient(k_gamma, p.gamma) * p.b * p.x


def massart_upper_threshold(p: MassartParams) -> float:
    """Level whose upward crossing has probability at most e^-x."""
    return (1.0 + p.gamma) * p.ez + _bracket(p, UPPER_K, UPPER_K_GAMMA) / p.n


def massart_lower_threshold(p: MassartParams) -> float:
    """Level whose downward crossing has probability at most e^-x."""
    return (1.0 - p.gamma) * p.ez - _bracket(p, LOWER_K, LOWER_K_GAMMA) / p.n


def tail_coefficients(
    k: float, k_gamma: tuple[float, float], gamma: float
) -> tuple[float, float]:
    """The (sqrt(r eps), eps) coefficients of one threshold's bracket / n.

    At b = 1, sigma^2 = n r (0/1 functions on the ball {Pf <= r}) and
    x = n eps / 2 (so e^-x = exp(-n eps / 2)), the bracket over n is
    sqrt(k) sqrt(r eps) + (k_const + k_over / gamma) / 2 * eps:

        upper tail (UPPER_K, UPPER_K_GAMMA): 2 and u(g) = (3.5 + 32/g) / 2
        lower tail (LOWER_K, LOWER_K_GAMMA): sqrt(5.4) and l(g) = (3.5 + 43.2/g) / 2

    Halving and sqrt(4) are exact in binary floating point, so these equal
    the written-out decimal forms bit for bit.  With Z = sup |P_n - P| and
    R the per-draw Rademacher norm over {Pf <= r}, a(g, g') =
    2 (1 + g) / (1 - g') and each tail failing with probability at most
    exp(-n eps / 2), the chain is, one inequality per line:

        Z  <= (1+g) EZ + 2 sqrt(r eps) + u(g) eps                 upper tail of Z (phi2)
        EZ <= 2 ER                                                symmetrization
        ER <= (R + sqrt(5.4) sqrt(r eps) + l(g') eps) / (1-g')    lower tail of R (phi3)
        K1 = a(g, g'), K2 = K1 sqrt(5.4) + 2, K3 = K1 l(g') + u(g)   phi3, R over ball(2r)
        R  <= (1+g'') ER + 2 sqrt(r eps) + u(g'') eps             upper tail of R
        ER <= 2 EZ + sqrt(r eps)                                  symmetrization, eps >= 1/n
        EZ <= (Z + sqrt(5.4) sqrt(r eps) + l(g'') eps) / (1-g'')  lower tail of Z (phi5)
        Z  <= (1+g'') EZ + 2 sqrt(r eps) + u(g'') eps             upper tail of Z (phi6)
    """
    return math.sqrt(k), _linear_coefficient(k_gamma, gamma) / 2.0


def _upper(gamma: float) -> tuple[float, float]:
    return tail_coefficients(UPPER_K, UPPER_K_GAMMA, gamma)


def _lower(gamma: float) -> tuple[float, float]:
    return tail_coefficients(LOWER_K, LOWER_K_GAMMA, gamma)


def _slack(gamma: float, gamma_prime: float) -> float:
    """a(g, g') = 2 (1 + g) / (1 - g'): upper tail, symmetrization, lower tail."""
    return 2.0 * (1.0 + gamma) / (1.0 - gamma_prime)


def constants_from_gammas(gamma: float, gamma_prime: float) -> tuple[float, float, float]:
    """Conservative localization constants for parameters in (0, 1).

    K1 scales the local Rademacher norm, K2 the sqrt(r eps) term, K3 the
    eps term.  They are the coefficients of phi3 (see `tail_coefficients`),
    so the same triple reappears when the phi-ladder is expanded at ball
    radius 2r.
    """
    if not (0.0 < gamma < 1.0) or not (0.0 < gamma_prime < 1.0):
        raise ValueError("gamma and gamma_prime must lie in (0, 1)")
    k1 = _slack(gamma, gamma_prime)
    upper_root, upper_eps = _upper(gamma)
    lower_root, lower_eps = _lower(gamma_prime)
    return k1, k1 * lower_root + upper_root, k1 * lower_eps + upper_eps


@dataclass(frozen=True)
class LadderConstants:
    """Coefficients of phi5 and phi6.

    The last four lines of the chain in `tail_coefficients`, at parameter
    gamma_double_prime: first bound the Rademacher norm by its
    expectation, then symmetrize (E||R_n|| <= 2 E sup|P_n - P| + sqrt(r eps),
    the last term folding the r/sqrt(n) remainder, valid for eps >= 1/n),
    then pass between the realized and expected empirical deviation.
    c1_prime > 1 always holds, as the downstream comparison needs.
    """

    c1_prime: float
    c2_prime: float
    c3_prime: float
    c1_tilde: float
    c2_tilde: float
    c3_tilde: float


def ladder_constants(
    gamma: float, gamma_prime: float, gamma_double_prime: float = 0.5
) -> LadderConstants:
    for name, g in (("gamma", gamma), ("gamma_prime", gamma_prime),
                    ("gamma_double_prime", gamma_double_prime)):
        if not (0.0 < g < 1.0):
            raise ValueError(f"{name} must lie in (0, 1)")
    a = _slack(gamma, gamma_prime)
    g2 = gamma_double_prime
    a2 = _slack(g2, g2)
    upper_root, upper_eps = _upper(gamma)
    inner_root, inner_eps = _lower(gamma_prime)
    g2_upper_root, g2_upper_eps = _upper(g2)
    g2_lower_root, g2_lower_eps = _lower(g2)
    c1_prime = a * a2
    c2_prime = a * (a2 * g2_lower_root + (1.0 + g2) + g2_upper_root + inner_root) + upper_root
    c3_prime = a * (a2 * g2_lower_eps + g2_upper_eps + inner_eps) + upper_eps
    c1_tilde = c1_prime * (1.0 + g2)
    c2_tilde = c2_prime + g2_upper_root * c1_prime
    c3_tilde = c3_prime + c1_prime * g2_upper_eps
    return LadderConstants(c1_prime, c2_prime, c3_prime,
                           c1_tilde, c2_tilde, c3_tilde)


@dataclass(frozen=True)
class LadderInputs:
    """Process statistics feeding the phi-ladder at one radius.

    sup_dev and mean_sup_dev refer to sup|P_n - P| over the oracle ball
    {f: Pf <= r} (realized value and Monte Carlo expectation); these are
    simulation-only since they need true means.  rademacher_norm is a
    per-draw Rademacher supremum over the ball the caller chose;
    mean_rademacher_norm is the sign-average over the empirical 2r ball.
    """

    sup_dev: float | None = None
    mean_sup_dev: float | None = None
    rademacher_norm: float | None = None
    mean_rademacher_norm: float | None = None


@dataclass(frozen=True)
class PhiLadder:
    phi1: float | None
    phi2: float | None
    phi3: float | None
    phi4: float | None
    phi5: float | None
    phi6: float | None
    constants: LadderConstants

    def as_dict(self) -> dict:
        return {
            "phi1": self.phi1, "phi2": self.phi2, "phi3": self.phi3,
            "phi4": self.phi4, "phi5": self.phi5, "phi6": self.phi6,
        }


def phi_ladder(
    r: float,
    inputs: LadderInputs,
    eps: float,
    gamma: float = 0.5,
    gamma_prime: float = 0.5,
    gamma_double_prime: float = 0.5,
    require: tuple[str, ...] = (),
) -> PhiLadder:
    """Evaluate the comparison functions phi1..phi6 at radius r.

    Each phi whose inputs are present is computed; names listed in
    `require` must be computable or a ValueError is raised.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError("radius must lie in [0, 1]")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    consts = ladder_constants(gamma, gamma_prime, gamma_double_prime)
    a = _slack(gamma, gamma_prime)
    g2 = gamma_double_prime
    sqrt_re = math.sqrt(r * eps)
    upper_root, upper_eps = _upper(gamma)
    g2_upper_root, g2_upper_eps = _upper(g2)
    outer = upper_root * sqrt_re + upper_eps * eps
    inner_eps = _lower(gamma_prime)[1] * eps

    phi1 = inputs.sup_dev
    phi2 = None
    if inputs.mean_sup_dev is not None:
        phi2 = (1.0 + gamma) * inputs.mean_sup_dev + outer
    phi3 = None
    if inputs.rademacher_norm is not None:
        phi3 = a * (inputs.rademacher_norm + math.sqrt(LOWER_K * r * eps) + inner_eps) + outer
    phi4 = None
    if inputs.mean_rademacher_norm is not None:
        phi4 = a * (
            (1.0 + 1.0 / g2) * inputs.mean_rademacher_norm
            + g2_upper_root * sqrt_re
            + g2_upper_eps * eps
            + math.sqrt(LOWER_K * r * eps)
            + inner_eps
        ) + outer
    phi5 = None
    if inputs.sup_dev is not None:
        phi5 = consts.c1_prime * inputs.sup_dev + consts.c2_prime * sqrt_re + consts.c3_prime * eps
    phi6 = None
    if inputs.mean_sup_dev is not None:
        phi6 = consts.c1_tilde * inputs.mean_sup_dev + consts.c2_tilde * sqrt_re + consts.c3_tilde * eps

    ladder = PhiLadder(phi1, phi2, phi3, phi4, phi5, phi6, consts)
    for name in require:
        if getattr(ladder, name) is None:
            raise ValueError(f"{name} requested but its input is missing")
    return ladder

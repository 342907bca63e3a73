"""Weight functions for the weighted (Carleman-type) energy estimates.

Two families of space weights are combined with one time-age pole factor:

  * pole factor   Theta(t, a) = 1 / ((t(T-t))^4 a^4), blowing up at t in
    {0, T} and a = 0 — it switches the estimates off at the data faces;
  * degenerate profile  psi(x) = c1 * (ramp(x) - c2) < 0, where
    ramp(x) = integral_{x0}^{x} (r - x0)/k(r) dr bends the profile around
    the degeneracy point;
  * bump profile  sigma(x) = x(1-x)e^{rho x} with its single critical point
    placed at a chosen center (inside the core control window), and the
    derived negative envelope  Psi(x) = e^{kappa sigma} - e^{2 kappa |sigma|_sup};
  * the products  phi = Theta * psi  and  Phi = Theta * Psi.

Admissibility of (c1, c2) is what makes phi <= Phi hold pointwise: c2 must
exceed an explicit threshold so psi stays negative, and c1 must exceed a
second threshold (depending on c2, kappa, and the bump) so the degenerate
profile lies below the bump envelope at the gene endpoints — where psi is
largest and Psi smallest.  Both thresholds are exposed and enforced.

The auxiliary weight  p(x) = (k(x) |x - x0|^4)^{1/3}  drives the weighted
Hardy-type inequality used by the analysis; it vanishes at the degeneracy.

Magnitudes: Theta is at least (4/T^2)^4 everywhere, so exp(2 s phi) routinely
underflows double precision.  Evaluators that integrate against these weights
work in the log domain (see the inequality module); this module only hands
out values and logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _read_only


# ---------------------------------------------------------------------------
# pole factor
# ---------------------------------------------------------------------------

def pole_weight(t, a, T, A):
    """Theta(t, a) = 1/((t(T-t))^4 a^4) on the open slab 0<t<T, 0<a<=A."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= T):
        raise ValueError("pole weight requires 0 < t < T")
    if np.any(a <= 0.0) or np.any(a > A):
        raise ValueError("pole weight requires 0 < a <= A")
    val = 1.0 / ((t * (T - t)) ** 4 * a**4)
    return val if val.shape else float(val)


# ---------------------------------------------------------------------------
# bump profile sigma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpProfile:
    """sigma(x) = x(1-x)e^{steepness*x}: zero at the ends, positive inside,
    with its unique critical point at `center` and nonzero slope at 0 and 1."""

    center: float
    steepness: float
    sup_norm: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x) * np.exp(self.steepness * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(self.steepness * x) * (
            (1.0 - 2.0 * x) + self.steepness * x * (1.0 - x)
        )


def build_bump(center, tol=1e-14, max_expand=60):
    """Construct the bump profile with critical point at `center` in (0,1).

    The slope at the center, (1-2c) + rho*c(1-c) (up to the positive factor
    e^{rho c}), is monotone in the steepness rho, so a guarded bisection on
    rho finds its root to machine accuracy.
    """
    c = float(center)
    if not 0.0 < c < 1.0:
        raise ValueError(f"bump center {c} must lie strictly inside (0,1)")

    def slope(rho):
        return (1.0 - 2.0 * c) + rho * c * (1.0 - c)

    lo, hi = -1.0, 1.0
    for _ in range(max_expand):
        if slope(lo) <= 0.0 <= slope(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:  # pragma: no cover - slope is linear with positive coefficient
        raise RuntimeError("could not bracket the bump steepness")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    rho = 0.5 * (lo + hi)
    sup = c * (1.0 - c) * np.exp(rho * c)
    return BumpProfile(center=c, steepness=rho, sup_norm=float(sup))


def bump_weight(x, bump: BumpProfile, kappa):
    """Psi(x) = e^{kappa sigma(x)} - e^{2 kappa sup|sigma|}; negative everywhere."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return np.exp(kappa * bump.value(x)) - np.exp(2.0 * kappa * bump.sup_norm)


# ---------------------------------------------------------------------------
# admissibility thresholds
# ---------------------------------------------------------------------------

def min_negativity_offset(k, gamma):
    """Smallest admissible c2 (exclusive): keeps the degenerate profile negative.

    c2 must exceed max of dist(e, x0)^2 / (k(e)(2-gamma)) over the gene
    endpoints e in {0, 1}.
    """
    k0 = float(k.value(0.0))
    k1 = float(k.value(1.0))
    if k0 <= 0.0 or k1 <= 0.0:
        raise ValueError("dispersion must be positive at the gene endpoints")
    x0 = k.x0
    return max((1.0 - x0) ** 2 / (k1 * (2.0 - gamma)), x0**2 / (k0 * (2.0 - gamma)))


def min_profile_scale(k, gamma, c2, kappa, bump: BumpProfile):
    """Smallest admissible c1: forces the degenerate profile below the bump
    envelope at both gene endpoints, hence phi <= Phi everywhere.

    The two-term maximum has denominators c2*k(e)*(2-gamma) - dist(e, x0)^2,
    which are positive exactly when c2 clears its own threshold.
    """
    k0 = float(k.value(0.0))
    k1 = float(k.value(1.0))
    x0 = k.x0
    rise = np.exp(2.0 * kappa * bump.sup_norm) - 1.0
    den1 = c2 * k1 * (2.0 - gamma) - (1.0 - x0) ** 2
    den0 = c2 * k0 * (2.0 - gamma) - x0**2
    if den1 <= 0.0 or den0 <= 0.0:
        raise ValueError(
            "negativity offset c2 is at or below its lower bound "
            "(a profile-scale denominator is nonpositive)"
        )
    return max(k1 * (2.0 - gamma) * rise / den1, k0 * (2.0 - gamma) * rise / den0)


def hardy_weight(x, k):
    """p(x) = (k(x) |x - x0|^4)^{1/3}; vanishes at the degeneracy point."""
    x = np.asarray(x, dtype=float)
    return (np.asarray(k.value(x), dtype=float) * np.abs(x - k.x0) ** 4) ** (1.0 / 3.0)


# ---------------------------------------------------------------------------
# configuration and the assembled family
# ---------------------------------------------------------------------------

@dataclass
class WeightConfig:
    """User-facing weight parameters.

    profile_scale (c1) and negativity_offset (c2) control the degenerate
    profile; bump_gain (kappa) the envelope contrast; strength (s) the
    default Carleman parameter.
    """

    profile_scale: float
    negativity_offset: float
    bump_gain: float = 1.0
    strength: float = 20.0

    def __post_init__(self):
        if self.bump_gain <= 0.0:
            raise ValueError("bump_gain must be positive")
        if self.strength <= 0.0:
            raise ValueError("strength must be positive")


class WeightFamily:
    """All weight functions assembled for one coefficient set and grid.

    Construction validates admissibility: the negativity offset exceeds its
    threshold, the profile scale reaches its own, the degenerate profile is
    negative at every gene node, and it lies below the bump envelope at
    every node (which makes phi <= Phi at every interior space-time node).

    It also tabulates, once and read-only, the (t, a) arrays every weighted
    integral uses: `masked_pole`, the pole factor Theta with zeros on the
    faces t in {0, T} and a = 0 where it blows up, and `face_weights`, the
    (t, a) trapezoid weights zeroed on the same faces.
    """

    def __init__(self, coeffs, grid, config: WeightConfig):
        self.coeffs = coeffs
        self.grid = grid
        self.config = config
        k = coeffs.dispersion
        window = grid.omega_core if grid.omega_core is not None else grid.omega
        self.bump = build_bump(0.5 * (window[0] + window[1]))

        self.min_negativity_offset = min_negativity_offset(k, coeffs.gamma)
        if config.negativity_offset <= self.min_negativity_offset:
            raise ValueError(
                f"negativity_offset={config.negativity_offset} must exceed "
                f"{self.min_negativity_offset:.6g}"
            )
        self.min_profile_scale = min_profile_scale(
            k, coeffs.gamma, config.negativity_offset, config.bump_gain, self.bump
        )
        if config.profile_scale < self.min_profile_scale * (1.0 - 1e-12):
            raise ValueError(
                f"profile_scale={config.profile_scale} must be at least "
                f"{self.min_profile_scale:.6g}"
            )

        x = grid.x_nodes
        self.psi_nodes = self.profile(x)
        self.Psi_nodes = self.envelope(x)
        if np.any(self.psi_nodes >= 0.0):
            raise ValueError("degenerate profile fails to be negative on the grid")
        if np.any(self.Psi_nodes >= 0.0):
            raise ValueError("bump envelope fails to be negative on the grid")
        bad = self.psi_nodes > self.Psi_nodes + 1e-15
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise ValueError(
                f"profile/envelope ordering fails at x={x[idx]:.6g}: "
                f"{self.psi_nodes[idx]:.6g} > {self.Psi_nodes[idx]:.6g}"
            )

        t, a = grid.t_levels[:, None], grid.a_levels[None, :]
        interior = np.zeros((grid.nt + 1, grid.na + 1), dtype=bool)
        interior[1:-1, 1:] = True
        with np.errstate(divide="ignore"):
            pole = 1.0 / ((t * (grid.T - t)) ** 4 * a**4)
        self.masked_pole = _read_only(np.where(interior, pole, 0.0))
        self.face_weights = _read_only(
            np.where(interior, grid.wt[:, None] * grid.wa[None, :], 0.0)
        )

    # -- space profiles --------------------------------------------------
    def profile(self, x):
        """psi(x) = c1 (ramp(x) - c2) < 0."""
        ramp = self.coeffs.dispersion.ramp_integral(x)
        return self.config.profile_scale * (np.asarray(ramp, float)
                                            - self.config.negativity_offset)

    def envelope(self, x):
        """Psi(x) = e^{kappa sigma(x)} - e^{2 kappa sup sigma} < 0."""
        return bump_weight(x, self.bump, self.config.bump_gain)

    # -- full weights -------------------------------------------------------
    def degenerate_weight(self, t, a, x):
        """phi(t,a,x) = Theta(t,a) * psi(x)."""
        theta = pole_weight(t, a, self.grid.T, self.grid.A)
        return theta * self.profile(x)

    def regular_weight(self, t, a, x):
        """Phi(t,a,x) = Theta(t,a) * Psi(x)."""
        theta = pole_weight(t, a, self.grid.T, self.grid.A)
        return theta * self.envelope(x)


def resolve_weight_config(coeffs, grid, profile_scale="auto",
                          negativity_offset="auto", bump_gain=1.0,
                          strength=20.0, headroom=1.05):
    """Build an admissible WeightConfig, resolving "auto" thresholds.

    "auto" sets the negativity offset to headroom times its lower bound and
    then the profile scale to headroom times its own (which depends on the
    resolved offset).
    """
    k = coeffs.dispersion
    window = grid.omega_core if grid.omega_core is not None else grid.omega
    bump = build_bump(0.5 * (window[0] + window[1]))
    if negativity_offset == "auto":
        negativity_offset = headroom * min_negativity_offset(k, coeffs.gamma)
    if profile_scale == "auto":
        profile_scale = headroom * min_profile_scale(
            k, coeffs.gamma, negativity_offset, bump_gain, bump
        )
    return WeightConfig(
        profile_scale=float(profile_scale),
        negativity_offset=float(negativity_offset),
        bump_gain=float(bump_gain),
        strength=float(strength),
    )

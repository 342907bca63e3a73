"""Check the structural hypotheses on a dispersion coefficient.

The solvers assume three things about the model coefficients:

1. the dispersion k(x) vanishes at one interior point x0 and satisfies the
   weak-degeneracy bound (x - x0) k'(x) <= gamma k(x) with gamma < 1;
2. the envelope k(x)/|x - x0|^theta is monotone away from x0 (decreasing on
   the left of x0, increasing on the right) for some theta <= gamma;
3. mortality is nonnegative, fertility is nonnegative and bounded, and no
   newborn is fertile (beta vanishes at age zero).

This script runs the validators on power-law dispersions k = |x - 0.5|^alpha
for several alpha, shows that the fitted degeneracy exponent recovers alpha,
and then shows how a coefficient that breaks hypothesis 3 is reported.
"""

from pathlib import Path

import numpy as np

import degenpop as dp


def main():
    grid = dp.parse_config(
        Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini").grid

    print("== power-law dispersions k = |x - 0.5|^alpha ==")
    for alpha in (0.25, 0.5, 0.75):
        k = dp.PowerLawDispersion(0.5, alpha)
        deg = dp.validate_degeneracy(k, gamma=alpha, grid=grid)
        env = dp.validate_hp(k, theta=alpha, gamma=alpha, grid=grid)
        fitted = dp.fit_hp_theta(k, gamma=alpha, grid=grid)
        print(f"alpha = {alpha}:")
        print(f"  degeneracy check : {'PASS' if deg.passed else 'FAIL'}, "
              f"fitted exponent = {deg.fitted_gamma:.12f}")
        print(f"  envelope check   : {'PASS' if env.passed else 'FAIL'} at theta = alpha")
        print(f"  largest admissible envelope exponent ~ {fitted:.6f}")

    print()
    print("== rate bounds ==")
    good = dp.SeparableRate(age_factor=lambda a: np.where(a > 0, 4 * a * (1 - a), 0.0))
    bad = dp.ConstantRate(0.3)  # fertile newborns: beta(., 0, .) = 0.3 != 0
    for label, beta in (("fertility 4a(1-a), zero at a=0", good),
                        ("constant fertility 0.3", bad)):
        report = dp.validate_rates(dp.ConstantRate(0.1), beta, grid)
        print(f"{label}: {'PASS' if report.passed else 'FAIL'}")
        for v in report.violations:
            print(f"  violation: {v}")


if __name__ == "__main__":
    main()

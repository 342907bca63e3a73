"""Measure the weighted energy inequalities on random ensembles.

Why can a gene-window control steer the whole box population?  The adjoint
system satisfies a chain of weighted energy estimates: two Carleman-type
bounds with pole-type weights concentrated at the degeneracy point, a
Caccioppoli gradient-localization bound between nested gene windows, and an
observability bound (terminal energy controlled by the control-window
observation).  A Hardy-type interpolation inequality for the degenerate
profile underpins the weights' admissibility.

Each check draws random adjoint data, evaluates both sides of its
inequality in the log domain (the weights span hundreds of orders of
magnitude near the pole), and reports the worst ratio over the ensemble as
an empirical constant.  The lab takes the config's weight family alone: the
family carries the coefficients and the grid it was built for.  Finite
fitted constants across an ensemble -- and stability of those constants
under grid refinement, which the acceptance suite checks -- are the
numerical signature that the estimates hold.
"""

from pathlib import Path

import numpy as np

import degenpop as dp


def main():
    config = dp.parse_config(
        Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini")
    family = config.family
    print("weight family (auto-resolved admissible parameters):")
    print(f"  profile scale c1     : {family.config.profile_scale:.6f}")
    print(f"  negativity offset c2 : {family.config.negativity_offset:.6f}")
    for d in (1, 2, 3):
        sup = dp.weight_sup_check(family, d)
        print(f"  peak of s^{d} pole^{d} exp(2 s Phi) (log): {sup.log_value:.1f}, "
              f"finite: {np.isfinite(sup.log_value)}")

    print()
    print("running every inequality check (10 trials each, coarse grid)...")
    reports = dp.run_inequality_lab(family, s_values=(5.0, 20.0, 50.0), trials=10,
                                    seed=dp.DEFAULT_SEED)
    for name, report in reports.items():
        print()
        print(report.summary())

    print()
    print("a finite fitted constant with zero excluded trials means every")
    print("random draw satisfied the inequality with a uniform constant.")


if __name__ == "__main__":
    main()

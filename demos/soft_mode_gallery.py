"""Spatially modulated soft modes chasing a conformal target.

A compressive conformal map bends the lattice differently in different
places.  Locking each cell into the mechanism state matching the local
conformal factor (plus a short local relaxation) yields deformations
whose area-averaged energy decays as the cells shrink — the hallmark of
a soft mode — while box-averaged gradients converge to the target
conformal field.
"""

from latmech.lattice import build_kagome
from latmech.softmodes import default_target, modulate, soft_mode_report

spec = build_kagome()
target = default_target()
z = 0.5 - 0.2j
print("target: f(z) = z - z^2/4 on [0.2,1.2] x [-0.5,0.5], "
      f"|f'| in [{target.min_derivative:.3f}, {target.max_derivative:.3f}]")
print(f"sample: f({z}) = {target.value(z):.4f}, "
      f"f'({z}) = {target.derivative(z):.4f}\n")

rep = soft_mode_report([modulate(spec, target, eps) for eps in (1 / 8, 1 / 16, 1 / 32)],
                       target)
wl = rep.weak

print(f"{'eps':>6} {'cells':>6} {'energy/area':>12} {'l2 error':>10} "
      f"{'cr residual':>12} {'max factor':>11}")
for i, eps in enumerate(wl.eps_list):
    print(f"{eps:6.4f} {rep.n_cells[i]:6d} {rep.energy_densities[i]:12.3e} "
          f"{wl.l2_errors[i]:10.4f} {wl.cr_residuals[i]:12.4f} "
          f"{wl.max_factors[i]:11.4f}")

print(f"\nfitted decay exponent {rep.fitted_exponent:.2f}; "
      f"final/first {rep.final_over_first:.3f}")
assert rep.final_over_first < 0.5 and wl.cr_decreasing
print("energy decays and the coarse-grained gradients become conformal:")
print("the lattice imitates the target map at vanishing cost.")

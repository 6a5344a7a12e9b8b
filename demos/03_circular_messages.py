"""The message algebra: von Mises beliefs, conversions, Laplace fits.

Every belief the estimator passes around is either a von Mises density
over a scaled direction cosine or a Gaussian produced by a Laplace fit;
this script exercises each primitive on its own.
"""

import numpy as np

from nearfield_pae import (
    GaussianBelief,
    VonMises,
    gaussian_to_vm,
    laplace_fit,
    vm_extrinsic,
    vm_log_pdf,
    vm_multiply,
)

a = VonMises(chi=0.3, kappa=6.0)
b = VonMises(chi=-0.1, kappa=2.5)
prod = vm_multiply(a, b)
print(f"product of (chi=0.3, k=6) and (chi=-0.1, k=2.5): "
      f"chi={prod.chi:.4f}, kappa={prod.kappa:.4f}")

post = vm_multiply(a, b)
ext = vm_extrinsic(post, b)
print(f"removing the second factor again: chi={ext.chi:.4f}, kappa={ext.kappa:.4f} "
      f"(recovers the first factor)")

# a position belief 10 m in front of a reference point, 10 cm uncertainty
belief = GaussianBelief(np.array([0.0, 0.0, 10.0]), 0.01 * np.eye(3))
pair = gaussian_to_vm(belief, subarray_ref=np.zeros(3))
print(f"\nGaussian position belief -> cosine beliefs: "
      f"chi=({pair.vx.chi:.3f}, {pair.vy.chi:.3f}), "
      f"kappa=({pair.vx.kappa:.1f}, {pair.vy.kappa:.1f})")
print("tighter position knowledge or a longer range both raise the concentration:")
for std in (0.3, 0.1, 0.03):
    p = gaussian_to_vm(GaussianBelief(belief.mean, std**2 * np.eye(3)), np.zeros(3))
    print(f"  position std {std * 100:>4.0f} cm -> kappa {p.vx.kappa:,.0f}")

# Laplace fit: damped Newton on the analytic derivatives; on a true
# log-Gaussian it is exact, and on a concentrated circular density it
# recovers the mean direction and the 1/kappa variance
target = VonMises(chi=0.8, kappa=50.0)
fit = laplace_fit(
    lambda x: float(vm_log_pdf(target, x[0])),
    np.array([0.0]),
    grad=lambda x: -target.kappa * np.sin(x - target.chi),
    hess=lambda x: -target.kappa * np.cos(x - target.chi),
)
print(f"\nLaplace fit of a kappa=50 circular density: mean {fit.mean[0]:.4f} "
      f"(true 0.8), variance {fit.cov[0, 0]:.5f} (1/kappa = {1 / 50:.5f})")
print(f"converged: {fit.converged}, Newton steps: {fit.n_polish_steps}")

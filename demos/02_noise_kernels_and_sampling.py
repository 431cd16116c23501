"""Covariance kernels, derived exponents, and correlated field sampling.

Shows the two kernel families with their (beta, eta) exponents and the
critical growth exponent gamma_c = 1 + (1-eta)/(2 beta), then samples
increment fields and verifies their covariance empirically.
"""

import math

import numpy as np

from stochheat import (
    DIRICHLET,
    NEUMANN,
    DomainSpec,
    RieszKernel,
    SpectralKernel,
    WhiteNoise,
    build_basis,
    critical_exponent,
    make_sampler,
    verify_decay,
)

PI = math.pi

print("=" * 70)
print("1. Parameter table: (beta, eta) and gamma_c per kernel and dimension")
print("=" * 70)
cases = [
    ("white noise, d=1", WhiteNoise(), 1),
    ("Riesz alpha=0.3, d=1", RieszKernel(0.3), 1),
    ("Riesz alpha=1.0, d=3", RieszKernel(1.0), 3),
    ("spectral theta=0.25, d=1", SpectralKernel(0.25, 0.0), 1),
    ("spectral theta=0.75, d=2", SpectralKernel(0.75, 0.0), 2),
]
for label, spec, d in cases:
    beta, eta = spec.params(d)
    gc = critical_exponent(beta, eta)
    print(f"  {label:28}: beta={beta:4.2f} eta={eta:4.2f} gamma_c={gc:.4f}")
print("  (the classical d=1 white-noise case recovers gamma_c = 3/2)")

print()
print("=" * 70)
print("2. Kernel values and closed forms")
print("=" * 70)
b3 = build_basis(DomainSpec(3, NEUMANN, 8))
r = RieszKernel(1.0).kernel(b3, [0.5, 0.5, 0.5], [0.5 + PI / 2, 0.5, 0.5])
print(f"  Riesz d=3 alpha=1 at |x-y|=pi/2: {r:.6f} (2/pi = {2 / PI:.6f})")

b1 = build_basis(DomainSpec(1, DIRICHLET, 1024))
v = SpectralKernel(1.0, 0.0).kernel(b1, [PI / 2], [PI / 2])
print(f"  spectral theta=1 diagonal at pi/2: {v:.6f} (pi/4 = {PI / 4:.6f})")
di = SpectralKernel(1.0, 0.0).double_integral(b1)
print(f"  its double integral: {di:.6f} (pi^3/12 = {PI**3 / 12:.6f})")

print()
print("=" * 70)
print("3. Sampling correlated increments and verifying the covariance")
print("=" * 70)
basis = build_basis(DomainSpec(1, DIRICHLET, 64))
spec = SpectralKernel(theta=0.25, a=0.0)
sampler = make_sampler(spec, basis)
dt = 0.01
rng = np.random.Generator(np.random.Philox(key=7))
draws = sampler.sample_batch(dt, rng, 50_000)
for j in (10, 31, 50):
    x = basis.axis_points[j]
    emp = draws[:, j].var()
    true = spec.kernel(basis, [x], [x]) * dt
    print(f"  Var dW(x={x:.3f}): empirical {emp:.5f}  kernel*dt {true:.5f}")
i, j = 10, 40
emp_cov = np.mean(draws[:, i] * draws[:, j])
true_cov = spec.kernel(basis, [basis.axis_points[i]], [basis.axis_points[j]]) * dt
print(f"  Cov(dW(x_10), dW(x_40)): empirical {emp_cov:.6f}  kernel*dt {true_cov:.6f}")

print()
print("=" * 70)
print("4. Decay of the kernel-smoothed heat flow (the eta exponent)")
print("=" * 70)
for label, spec_, basis_ in [
    ("spectral d=1 theta=0.25", SpectralKernel(0.25, 0.0), build_basis(DomainSpec(1, DIRICHLET, 512))),
    ("spectral d=2 theta=0.75", SpectralKernel(0.75, 0.0), build_basis(DomainSpec(2, DIRICHLET, 256))),
    ("white noise d=1", WhiteNoise(), build_basis(DomainSpec(1, NEUMANN, 1024))),
]:
    rep = verify_decay(spec_, basis_)
    print(f"  {label:26}: fitted slope {rep.fitted_slope:+.3f} "
          f"(expect {-rep.expected_eta:+.2f}), fitted C {rep.fitted_C:.3f}")

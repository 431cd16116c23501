"""Moment scaling of the stochastic convolution Z = conv(G, dW).

The pointwise variance has the exact eigenvalue series
sum lambda_k^2 (1 - e^(-2 alpha_k t)) / (2 alpha_k) e_k(x)^2, and the
sup-moment E sup_{t<=T,x} |Z|^p is bounded by
C_p T^((1-eta)(p-2)/2 - 2 beta).  The probe simulates Z, checks the
variance against the series, and fits the log-log growth of the p-th
sup-moment against the envelope exponent.
"""

from stochheat import (
    DomainSpec,
    SpectralKernel,
    build_basis,
    convolution_moment_probe,
)

basis = build_basis(DomainSpec(1, "dirichlet", 64))
kernel = SpectralKernel(theta=0.25, a=0.0)

report = convolution_moment_probe(
    basis, kernel, p=20,
    T_grid=[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
    paths=4096, dt=5e-5, seed=7,
)

print("pointwise variance at the box centre vs the eigenvalue series:")
for check in report.variance_checks:
    print(f"  T={check['T']:6.3f}: empirical {check['empirical']:.5f}  "
          f"series {check['oracle']:.5f}  "
          f"({abs(check['empirical'] - check['oracle']) / check['se']:.2f} se)")

print()
print(f"E sup |Z|^{report.p:.0f} median-of-means estimates per horizon:")
for T, m in zip(report.T_grid, report.moment_estimates):
    print(f"  T={T:6.3f}: {m:.3e}")

print()
print(f"fitted log-log slope       : {report.fitted_slope:+.3f}")
print(f"envelope exponent (bound)  : {report.theoretical_exponent:+.3f}")
print(f"one-sided envelope check   : "
      f"{'PASS' if report.envelope_passed else 'FAIL'} "
      "(growth must not beat the bound's rate)")

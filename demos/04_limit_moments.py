"""Moments of the limiting distributions, in every toll regime.

After dividing by sigma^s n^(s(alpha+1/2)) (and centering where the
mean's leading term is linear), the cost converges to a law whose
moments depend only on alpha.  One-sided at alpha = 0 the limit is the
standard Rayleigh law.  At alpha = 1/2 (two-sided) the moments are
built from entropy-kernel integrals J(s1,s2,s3), evaluated here by
tanh-sinh quadrature and cross-checked by adaptive Gauss-Kronrod.
"""

import math

from treecut import (
    cayley,
    j_integral,
    j_integral_adaptive,
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
    ordered,
    predicted_mean,
    solve_constants,
)

print("two-sided limit moments m_s(alpha):")
for alpha in (0.75, 1.0, 2.0):
    m = limit_moments_two_sided(alpha, 4).m
    print(f"  alpha={alpha:<5} " + "  ".join(f"m{s}={m[s]:.6f}" for s in range(1, 5)))
print(f"  (alpha=1: m1 = sqrt(pi/2) = {math.sqrt(math.pi / 2):.6f}, m2 = 5/3, "
      f"m3 = 15 sqrt(pi/2)/8 = {15 * math.sqrt(math.pi / 2) / 8:.6f})")

print()
m = limit_moments_two_sided(0.25, 3).m
print(f"below alpha = 1/2 the same recurrence describes the centered cost: m1 = {m[1]:.6f} < 0")

print()
print("alpha = 1/2 needs the entropy-kernel integrals:")
print(f"  J(0,1,1) = {j_integral(0, 1, 1):.12f}  (= pi/2 = {math.pi / 2:.12f})")
print(f"  J(0,2,1) = {j_integral(0, 2, 1):.12f}  (= 3pi/8 = {3 * math.pi / 8:.12f})")
print(f"  J(1,1,0) = {j_integral(1, 1, 0):.12f}  (negative: the kernel is <= 0)")
ts, ad = j_integral(2, 1, 1), j_integral_adaptive(2, 1, 1)
print(f"  J(2,1,1): tanh-sinh {ts:.12f} | adaptive {ad:.12f}")
half = limit_moments_two_sided_half(4).m
print(f"  centered limit moments at alpha = 1/2: m1 = {half[1]}, m2 = {half[2]:.6f}, "
      f"m3 = {half[3]:.6f}")

print()
print("one-sided closed product; at alpha = 0 it is the Rayleigh law:")
m0 = limit_moments_one_sided(0.0, 4).m
print("  alpha=0 :", "  ".join(f"m{s}={m0[s]:.6f}" for s in range(1, 5)))
print("  Rayleigh:", "  ".join(f"m{s}={2.0 ** (s / 2.0) * math.gamma(1.0 + s / 2.0):.6f}" for s in range(1, 5)))
m1 = limit_moments_one_sided(1.0, 2).m
print(f"  alpha=1 : m1 = {m1[1]:.6f} (= sqrt(pi/8)), m2 = {m1[2]:.6f} (= 8/15)")

print()
print("leading term of the mean cost:")
for variant, alpha, spec in (("one_sided", 0.0, cayley()), ("two_sided", 0.5, ordered()), ("two_sided", 1.0, ordered())):
    term = predicted_mean(solve_constants(spec), alpha, variant)
    log_part = " ln(n)" if term.log_power else ""
    print(f"  {variant:<10} alpha={alpha:<4} {spec.label():<22} ~ "
          f"{term.coefficient:.6f} * n^{term.n_power}{log_part}")

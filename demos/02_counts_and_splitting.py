"""Weighted counts T_n and the splitting law of the first cut.

The exact counts come from one closed form for every family (Lagrange
inversion of T = z*Phi(T)); ordered trees give Catalan numbers, Cayley
trees n^(n-1)/n!.  The splitting probabilities
p_{n,k} (law of the root-side size after one uniform edge cut) are
exact rationals, sum to one, and at large n are evaluated in log scale
where T_n itself has ~1800 digits.
"""

import math

from treecut import cayley, compute_counts, lagrange_counts, ordered, split_distribution

wo = compute_counts(ordered(), 3000, exact_cutoff=60)
wa = compute_counts(cayley(), 60, exact_cutoff=60)

print("ordered-tree counts (Catalan numbers):", [str(wo.exact_t(n)) for n in range(1, 9)])
print("Cayley weighted counts n^(n-1)/n!   :", [str(wa.exact_t(n)) for n in range(1, 6)])

oracle = lagrange_counts(ordered(), 12)
print("Lagrange-inversion oracle agrees exactly up to n=12:",
      all(oracle[n] == wo.exact_t(n) for n in range(1, 13)))

print()
print("splitting law for ordered trees, n = 6 (exact, sums to 1):")
dist = split_distribution(wo, 6)
for k in range(1, 6):
    print(f"  p(root side = {k}) = {dist.prob(k)}")
print("  total:", sum(dist.probs))

sym = split_distribution(wo, 6, symmetrized=True)
print("symmetrized (palindromic):", [str(p) for p in sym.probs])

print()
n = 3000
print(f"log-scale counts survive far past double overflow: ln T_{n} = {wo.log_t(n):.3f}")
print(f"  (that is a {wo.log_t(n) / math.log(10):.0f}-digit number)")
row = split_distribution(wo, n)
print(f"float splitting law at n = {n}: sum = {sum(row.probs):.15f}, "
      f"p(1) = {row.prob(1):.6f} (mass sits at extreme splits)")

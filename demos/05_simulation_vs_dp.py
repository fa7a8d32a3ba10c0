"""Monte Carlo engines cross-validated against the exact DP.

The size-process engine never builds a tree: it draws component sizes
from the splitting law, which is exact because cutting keeps the pieces
random within the family.  The explicit engine builds literal trees, a
shard of them at once (offspring vectors from the family's law, turned
into trees by the cycle lemma), and cuts their edges in a uniform random
order -- its whole purpose is to test that assumption, which it does
below via the first-cut histogram that an explicit run reports.

Experiments are deterministic: fixed shards, one Philox stream per
shard keyed by (seed, shard), partial sums combined in shard order, so
the worker count cannot change a single bit of the output.
"""

import numpy as np
from scipy.stats import chi2

from treecut import (
    ExperimentConfig,
    TollSpec,
    compute_counts,
    ordered,
    run_experiment,
    split_distribution,
)
from treecut.moments import ONE_SIDED, TWO_SIDED, one_sided_moments, two_sided_moments
from treecut.simulate import EXPLICIT

spec = ordered()
n = 200
counts = compute_counts(spec, n, exact_cutoff=1)

print(f"ordered trees, toll m^1, n = {n}, 40000 samples per experiment")
for variant, maker in ((ONE_SIDED, one_sided_moments), (TWO_SIDED, two_sided_moments)):
    dp = float(maker(counts, TollSpec(alpha=1), n, 1, mode="float").moment(n, 1))
    stats = run_experiment(
        ExperimentConfig(family=spec, variant=variant, alpha=1.0, n=n,
                         samples=40_000, seed=424242)
    )
    gap = abs(stats.moment_estimates[0] - dp) / stats.standard_errors[0]
    print(f"  {variant:<10} sample mean {stats.moment_estimates[0]:12.3f} "
          f"vs DP {dp:12.3f}  ({gap:.2f} standard errors)")

print()
print("worker count never changes the result:")
base = dict(family=spec, variant=TWO_SIDED, alpha=1.0, n=n, samples=20_000, seed=7)
one = run_experiment(ExperimentConfig(**base, workers=1))
four = run_experiment(ExperimentConfig(**base, workers=4))
print("  workers=1 ->", one.moment_estimates)
print("  workers=4 ->", four.moment_estimates)
print("  bit-identical:", one == four)

print()
print("randomness preservation, tested literally (n = 10, 20000 explicit trees):")
cuts = run_experiment(
    ExperimentConfig(family=spec, variant=ONE_SIDED, alpha=0.0, n=10, samples=20_000,
                     seed=31337, engine=EXPLICIT, s_max=1)
)
wc10 = compute_counts(spec, 10, exact_cutoff=10)
probs = split_distribution(wc10, 10).as_array()
expected = cuts.count * probs
histogram = np.array(cuts.first_cut[1:])
stat = float(np.sum((histogram - expected) ** 2 / expected))
p_value = float(chi2.sf(stat, df=8))
print("  first-cut root-size histogram:", histogram.tolist())
print("  expected under the splitting law:", [f"{e:.0f}" for e in expected])
print(f"  chi-square p-value: {p_value:.3f}")

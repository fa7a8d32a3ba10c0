"""Families and their singularity constants.

Builds the three reference families (Cayley, binary, ordered), plus a
custom weighted one, and prints the constants that drive everything
else: tau (saddle point of the degree series), rho (growth rate of the
counts), and sigma (the scale constant in every limit law).
"""

import math

from treecut import (
    binary,
    cayley,
    format_config,
    make_family,
    ordered,
    parse_config,
    phi_coefficient,
    solve_constants,
)

SPECS = [
    ("Cayley trees", cayley()),
    ("binary trees", binary()),
    ("ordered trees", ordered()),
    ("custom kind C", make_family("C", "1/2", alpha1="3/4")),
]

print(f"{'family':<16} {'a0':>6} {'a1':>6} {'tau':>10} {'rho':>10} {'sigma^2':>10} {'c':>10}")
for name, spec in SPECS:
    con = solve_constants(spec)  # closed forms from tau = 1/a1
    print(
        f"{name:<16} {str(spec.a0):>6} {str(spec.a1):>6} "
        f"{con.tau:>10.6f} {con.rho:>10.6f} {con.sigma2:>10.6f} {con.c:>10.6f}"
    )

print()
print("identities held by every family:")
spec = SPECS[3][1]
con = solve_constants(spec)
print(f"  a1 * tau                = {float(spec.a1) * con.tau!r}  (exactly 1 in rationals)")
print(f"  2 sqrt(pi) * c * sigma  = {2 * math.sqrt(math.pi) * con.c * con.sigma:.15f}")
print(f"  sqrt(2) * tau           = {math.sqrt(2) * con.tau:.15f}")

print()
print("degree weights are exact rationals, e.g. for the custom family:")
print(" ", [str(phi_coefficient(spec, k)) for k in range(6)])

print()
print("specs serialize to plain-text config blocks:")
text = format_config(spec)
print("  " + text.replace("\n", " | "))
print("  round-trips:", parse_config(text) == spec)

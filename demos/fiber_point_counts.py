"""Point counts of smooth Dwork fibers over small finite fields.

The point count pins down the Frobenius trace on primitive middle
cohomology exactly, for every N: #Y_t(F_q) = 1 + q + ... + q^(N-2) +
(-1)^N trace.  For the quintic (N = 5) this is #Y = 1 + q + q^2 + q^3 - a_q.
This script sweeps the smooth quintic parameters over F_11, compares the
two independent counting strategies, checks the 204 * q^(3/2) bound, climbs
a small extension tower, verifies the symmetry-group stability of a fiber,
and ends with the paper's own family in P^5 (N = 6) over F_13.

Run:  python demos/fiber_point_counts.py
"""

import math

from dworklab import (
    FiberSpec,
    SmoothnessError,
    classical_weight,
    count_projective_fast,
    count_projective_naive,
    field_make,
    group_action_check,
    group_elements,
    total_dimension,
    tower_counts,
    weil_bound_ok,
)

N = 5
W = classical_weight(N)
field = field_make(11, 1)
bound = math.isqrt(204**2 * 11**3)

print("Fibers over F_11 (five parameters are singular and refused):")
for t in range(11):
    try:
        spec = FiberSpec(N, W, t, field)
    except SmoothnessError:
        print(f"   t = {t}: singular (t^5 = 1), refused")
        continue
    naive = count_projective_naive(spec)
    fast = count_projective_fast(spec)
    agree = "agree" if naive.projective_count == fast.projective_count else "DISAGREE"
    print(f"   t = {t}: {naive.projective_count} points, trace {naive.trace:+6d} "
          f"(|trace| <= {bound}: {bool(weil_bound_ok(naive.trace, 11, N))}); strategies {agree}")

print("\nExtension tower above F_11:")
for fc in tower_counts(FiberSpec(N, W, 2, field), 2):
    q = fc.spec.field.q
    expected = sum(q**j for j in range(N - 1))
    print(f"   q = {q} ({fc.strategy} counter): {fc.projective_count} points, trace {fc.trace} "
          f"(count + trace = {fc.projective_count + fc.trace} = 1+q+q^2+q^3: "
          f"{fc.projective_count + fc.trace == expected})")

print("\nSymmetry group of the fiber t = 2 over F_11:")
spec = FiberSpec(N, W, 2, field)
gammas = group_elements(W, field)
stable = sum(group_action_check(spec, g) for g in gammas)
print(f"   {stable} of {len(gammas)} coset representatives map Y_t(F_11) into itself")
print("   (the diagonal fifth roots of unity act trivially on projective points)")

print("\nThe paper's family in P^5 (N = 6) at t = 2 over F_13:")
N6 = 6
spec = FiberSpec(N6, classical_weight(N6), 2, field_make(13, 1))
naive = count_projective_naive(spec)
fast = count_projective_fast(spec)
b6 = total_dimension(N6)
print(f"   {naive.projective_count} points by both strategies: "
      f"{naive.projective_count == fast.projective_count}")
print(f"   trace {naive.trace} on the {b6}-dimensional primitive middle cohomology "
      f"(count = 1+q+q^2+q^3+q^4 + trace: "
      f"{naive.projective_count == sum(13**j for j in range(N6 - 1)) + naive.trace})")
print(f"   |trace| <= {b6} * 13^2 = {b6 * 13**2}: {weil_bound_ok(naive.trace, 13, N6)}")

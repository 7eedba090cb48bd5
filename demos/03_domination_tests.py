"""Deciding degradation and the less-noisy order, with certificates.

Degradation (post-processing one channel into another) is a linear
feasibility question and comes with an explicit kernel.  The less-noisy order
is weaker; from an invertible square channel W to any channel V it reduces
to q exact PSD checks on A = W^{-1} V, and failures come with a witness that
materializes, in closed form, into a concrete pair of inputs whose output
chi-squared divergences flip the required inequality.
"""

import numpy as np

from channel_order import (
    chi2_violation_pair,
    erasure_channel,
    extremal_degraded_tau,
    is_degraded,
    less_noisy_exact,
    ln_gamma_bound,
    symmetric_channel,
)

q, delta = 3, 0.2
w = symmetric_channel(q, delta)
tau = extremal_degraded_tau(q, delta)
gamma = ln_gamma_bound(q, delta)
print(f"q={q}, delta={delta}: degradation interval ends at tau={tau},")
print(f"while the less-noisy order reaches further, to gamma={gamma:.6f}\n")

verdict = is_degraded(w, symmetric_channel(q, tau))
print(f"degraded at tau? {verdict.status.value}; kernel A = W^-1 V:")
print(np.round(verdict.certificate["matrix"], 6) + 0.0)  # + 0.0 prints -0 as 0

beyond = is_degraded(w, symmetric_channel(q, gamma))
entry = beyond.witness
print(f"\ndegraded at gamma? {beyond.status.value}")
print(f"witness: A[{entry['row']}, {entry['col']}] = {entry['value']:.6f} < 0")
exact = less_noisy_exact(w, symmetric_channel(q, gamma))
print(f"less noisy at gamma? {exact.status.value} ({exact.certificate['description']})")

failing = less_noisy_exact(w, symmetric_channel(q, 0.1))
print(f"\nless noisy than a cleaner channel? {failing.status.value}")
print(
    "witness: input pmf", np.round(failing.witness.pmf, 6),
    "eigenvalue", f"{failing.witness.eigenvalue:.4f}",
)
p, qq, gap = chi2_violation_pair(w, symmetric_channel(q, 0.1), failing.witness)
print("input pair with flipped output chi-squared divergences, in closed form:")
print("q is the witness pmf, and p moves from q along the witness direction")
print("  p =", np.round(p, 6), " q =", np.round(qq, 6), " gap =", f"{gap:.6f}")
d = failing.witness.direction
step = 2.0 * np.abs(p - qq).max() / np.abs(d - d.sum() * qq).max()  # p = q + step (d - (sum d) q) / 2
print(f"  eigenvalue * step^2 / 4 = {failing.witness.eigenvalue * step**2 / 4:.6f} (step {step:.6f})")

print("\nno symmetric channel dominates an erasure channel (V need not be square):")
refuted = less_noisy_exact(w, erasure_channel(q, 0.3))
witness = refuted.witness
print(
    f"  {refuted.status.value}: D(pV||qV) = {witness.rhs} while D(pW||qW) = {witness.lhs:.6f}"
    f" at p = {np.round(witness.p, 4)}, q = {np.round(witness.q, 4)}"
)

"""Closed-form algebra of the q-ary symmetric channel family.

The symmetric matrices with rows and columns summing to one form an Abelian
group under multiplication; inverses and products stay in the family with
parameters given in closed form, and all the channel's information-theoretic
constants are available without any numerics.
"""

import numpy as np

from channel_order import (
    discrete_lsi_constant_symmetric,
    eta_kl_bounds,
    lsi_constant_symmetric,
    maximal_correlation,
    symmetric_channel,
    symmetric_compose_param,
    symmetric_eigenvalue,
    symmetric_inverse_param,
    symmetric_matrix,
    uniform_pmf,
)

q, delta = 3, 0.2
w = symmetric_matrix(q, delta)
print(f"symmetric channel, q={q}, delta={delta}:")
print(w)

print("\neigenvalues: 1 and", symmetric_eigenvalue(q, delta), f"(multiplicity {q - 1})")

tau = symmetric_inverse_param(q, delta)
print(f"\ninverse lives in the same family at tau = {tau:.10f}")
print("W_tau W_delta =\n", np.round(symmetric_matrix(q, tau) @ w, 12))

print(f"\ntwo channel uses compose to the parameter {symmetric_compose_param(q, delta, delta)}")

print("\nconstants at (q, delta) = (3, 0.2):")
print("  maximal correlation  ", maximal_correlation(uniform_pmf(q), w))
lower, upper = eta_kl_bounds(w, samples=200, seed=0)
print(f"  KL contraction bracket  [{lower:.6f}, {upper:.6f}]")
print("  log-Sobolev constant    ", lsi_constant_symmetric(q, delta))
print("  discrete LSI constant   ", discrete_lsi_constant_symmetric(q, delta))

print("\nthe same bracket collapses at the extremes:")
print("  identity:", eta_kl_bounds(symmetric_channel(q, 0.0), samples=50, seed=0))
print("  uniform: ", eta_kl_bounds(symmetric_channel(q, (q - 1) / q), samples=50, seed=0))

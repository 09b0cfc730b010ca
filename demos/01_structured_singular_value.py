"""Structured singular values and gamma-domain membership.

Walks through the two uncertainty structures the library supports, computes
mu for a few matrices, and shows how the coordinate maps turn matrices into
gamma-domain tuples whose membership mu decides.
"""

import numpy as np

from gammapick.domains import E311, E312, in_gamma, mu, mu_bound, pi_coordinates

rng = np.random.default_rng(1)

print("== block structures ==")
print(f"full diagonal : {E311.label()}  (three 1x1 scalar blocks)")
print(f"two-block     : {E312.label()}  (one 1x1 block, one scalar 2x2 block)")
print()

# For a diagonal matrix the perturbation can align with the largest entry,
# so mu is simply the largest modulus on the diagonal.
a = np.diag([0.5, 0.25, 0.2]).astype(complex)
print("== diagonal fixture ==")
print(f"mu_311(diag(0.5, 0.25, 0.2)) = {mu(a, E311):.12f}")
print(f"mu_312(diag(0.5, 0.25, 0.2)) = {mu(a, E312):.12f}")
print()

print("== general matrices ==")
for trial in range(3):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m311 = mu(m, E311)
    m312 = mu(m, E312)
    rho = float(np.abs(np.linalg.eigvals(m)).max())
    norm = float(np.linalg.norm(m, 2))
    # the two-block structure is a subset of the full-diagonal one, and
    # scalar multiples of the identity are admissible in both, which pins
    # mu between the spectral radius and the operator norm
    print(
        f"trial {trial}: rho = {rho:.4f} <= mu_312 = {m312:.4f}"
        f" <= mu_311 = {m311:.4f} <= ||m|| = {norm:.4f}"
    )
    assert rho <= m312 + 1e-9 <= m311 + 2e-9 <= norm + 3e-9
print()

# mu is certified by a bracket: sigma_max(D m D^-1) for a scaling D that
# commutes with the structure bounds it from above, rho(m Q) for a unitary Q
# of the structure from below; for these structures the two meet at mu
print("== certified bracket ==")
bracket = mu_bound(m, E311)
print(
    f"{bracket.lower:.12f} <= mu_311 <= {bracket.upper:.12f}"
    f"  (gap {bracket.upper - bracket.lower:.1e}, closed: {bracket.closed})"
)
print()

print("== scaling equivariance ==")
m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
base = mu(m, E311)
print(f"mu(m)      = {base:.10f}")
print(f"mu(2.5 m)  = {mu(2.5 * m, E311):.10f}  (expect 2.5x)")
print()

# mu <= 1 is exactly membership of the coordinate tuple in the gamma domain.
print("== coordinates and membership ==")
contraction = 0.6 * m / np.linalg.norm(m, 2)
for variant in ("gamma7", "gamma5"):
    point = pi_coordinates(contraction, variant)
    structure = E311 if variant == "gamma7" else E312
    inside = in_gamma(contraction, structure)
    print(f"{variant}: {np.round(np.asarray(point.entries), 4)}")
    print(f"  mu = {mu(contraction, structure):.6f}, in domain: {inside}")
big = 3.0 * contraction / mu(contraction, E311)
print(f"rescaled to mu = 3: in domain: {in_gamma(big, E311)}")

"""From a Schur-class function to its kernel triple and back.

Builds a random 3x3 matrix Schur function, evaluates the scalar fractional
map it induces on the tridisc, assembles the three positive kernels on a
sample grid, and then reconstructs a function with the same kernels through
the isometry-fitting procedure.  The reconstruction agrees with the original
up to a torus rescaling of the state, which the fit recovers.
"""

import numpy as np

from gammapick.fractional import se_eval, se_values
from gammapick.kernels import combine_k, membership, tensor_grid, upper_e
from gammapick.lurking import right_s, torus_fit, uw_construct, verify_uw
from gammapick.realization import random_schur

f = random_schur(3, m=3, seed=42)
print(f"random Schur function: 3x3 values, state dimension {f.s.shape[0]}")
print()

print("== the scalar fractional map ==")
rng = np.random.default_rng(7)
lam, z1, z2 = (
    0.97 * np.sqrt(rng.uniform(size=4000)) * np.exp(2j * np.pi * rng.uniform(size=4000))
    for _ in range(3)
)
g, *_ = se_values(f, lam, z1, z2)
print(f"sup |G| over 4000 interior samples: {np.abs(g).max():.6f}  (stays <= 1)")
one = se_eval(f, 0.3, 0.2 + 0.1j, -0.4)
print(f"sample value  G(0.3, 0.2+0.1j, -0.4) = {one.value:.6f}")
print(f"signed value  SE = -G               = {one.se_value:.6f}")
print()

print("== kernel triple on a 16-point grid ==")
grid = tensor_grid(4, 4, radius=0.9, seed=0)
triple = upper_e(f, grid)
for name, kernel in (("N1", triple.n1), ("N2", triple.n2), ("N3", triple.n3)):
    eigs = np.linalg.eigvalsh(kernel.gram)
    print(f"{name}: min eigenvalue {eigs.min():+.3e}, rank-ish {np.sum(eigs > 1e-10)}")
k = combine_k(triple)
outer = np.outer(triple.g_values, triple.g_values.conj())
print(f"K equals the G outer product to {np.abs(k.gram - outer).max():.3e}")
print(f"membership class R1 : {membership(triple, 'R1')}")
print(f"membership class R11: {membership(triple, 'R11')}")
print()

print("== reconstruction from the kernels alone ==")
result = uw_construct(triple)
rebuilt = upper_e(result.xi, grid)
check = verify_uw(result, rebuilt.f_values)
print(f"state dimension of the reconstruction: {result.state_dim}")
print(f"reproduces the grid data to {check.max_residual:.3e}")
print(f"N1 Gram match: {np.abs(rebuilt.n1.gram - triple.n1.gram).max():.3e}")
print(f"N2 Gram match: {np.abs(rebuilt.n2.gram - triple.n2.gram).max():.3e}")

# the reconstruction is free to rotate the first column by torus phases;
# fitting those phases, on the values both triples sampled, aligns it with
# the original function exactly
fit = torus_fit(triple.f_values, rebuilt.f_values)
print(f"torus phases fitted to |eta| = {np.abs(fit.eta)}")
print(f"after the torus alignment the functions agree to {fit.max_residual:.3e}")
print()

print("== the right factor ==")
factor = right_s(triple)
ratio = factor.values / triple.g_values
print(f"|right factor| matches |G| to {np.abs(np.abs(factor.values) - np.abs(triple.g_values)).max():.3e}")
print(f"and the phase offset is one constant: spread {np.abs(ratio - ratio.mean()).max():.3e}")

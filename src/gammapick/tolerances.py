"""Every numerical threshold that decides an answer or a printed certificate.

Each threshold is written once, here, with what it bounds and why it has
its value; every check, every library default and every CLI default reads
it from this module.  Constants that only steer a search or choose between
equivalent paths (``domains._ARMIJO``, ``realization._MODAL_POINTS``, ...),
the point sets the checks run on (``hardy.INTERIOR``,
``nevanlinna._SLICE_GRID``, ...) and the rounding allowances that a proof
derives from ``eps`` (the certificates of ``linalg.Spectrum``, the Rouché
bound of ``hardy._certified``) stay with their code.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MEMBER_TOL",
    "BRACKET_RTOL",
    "KERNEL_TOL",
    "HERMITIAN_TOL",
    "STATE_CUTOFF",
    "STATE_FLOOR",
    "UW_TOL",
    "GRAM_FLOOR",
    "PHASE_ANCHOR",
    "TORUS_ANCHOR",
    "PICK_TOL",
    "TARGET_TOL",
    "SPLIT_RTOL",
    "RATIO_RTOL",
    "RATIO_ATOL",
    "DENOMINATOR_FLOOR",
    "CIRCLE_BAND",
    "PRODUCT_RTOL",
    "POLY_NOISE",
    "TRIM_RTOL",
    "BARE_ZERO",
    "DISC_SLACK",
    "UNIMODULAR_TOL",
    "SLICE_TOL",
    "CONTRACTIVE_SLACK",
    "NORM_SLACK",
    "GRAM_SLACK",
    "MODAL_KAPPA",
    "SIGMA_GAP",
    "PHASE_FLOOR",
    "TORUS_FIT_TOL",
    "SE_SUP_TOL",
]

# ---------------------------------------------------------------------------
# mu and the gamma domains

# Slack of membership: mu <= 1 + MEMBER_TOL (in_gamma, gamma-check), and of
# the tetrablock inequalities.  A point on the boundary stays a member
# through the roundoff of its bracket, about eps relative.
MEMBER_TOL = 1e-9
# A mu bracket counts as closed once its gap is at most this fraction of its
# upper end: the scale of MEMBER_TOL, far above the roundoff of sigma_max
# and rho(A Q), so the descent stops before it chases rounding.
BRACKET_RTOL = 1e-9

# ---------------------------------------------------------------------------
# sampled kernels and the lurking isometry

# Floor of the kernel PSD and rank tests, relative to max(1, top eigenvalue):
# is_psd, kernel_rank, membership, rank1_factor, right_s, and the rank
# conditions of uw_construct whatever its tol.  Kernels of an exact triple
# miss PSD and rank one only by the roundoff of their sampling.
KERNEL_TOL = 1e-9
# A sampled Gram matrix may miss hermitian symmetry by this, relative to
# max(1, largest entry), before its hermitian part is taken: the kernels of
# upper_e are hermitian up to roundoff.
HERMITIAN_TOL = 1e-9
# Eigenvalue cutoff, relative to the top eigenvalue, for the machine-rank
# factors that span a state space.  Anything coarser leaks truncation error
# into the Gram-equality defect and from there into the isometry fit.
STATE_CUTOFF = 1e-13
# The least top eigenvalue that STATE_CUTOFF scales: a factor keeps only
# eigenvalues above STATE_CUTOFF * STATE_FLOOR, so a spectrum with no
# positive value keeps no direction.
STATE_FLOOR = 1e-300
# Bound of uw_construct's Gram-equality defect and isometry fit, and of
# verify_uw's residual; the uw and verify-identities commands check at it.
# Ten times KERNEL_TOL: the construction amplifies the rounding of its
# rank-one factors by up to about 100 on 64-point grids.
UW_TOL = 1e-8
# The least tolerance of the Gram-defect and isometry-fit tests of
# uw_construct and of the Pick solver, whatever their tol: below it they
# would refuse exact data for its roundoff.
GRAM_FLOOR = 1e-9
# rank1_factor anchors the phase of its factor on the first entry of at
# least this fraction of the largest: the phase of a smaller one is mostly
# rounding.
PHASE_ANCHOR = 1e-8
# torus_fit reads no phase from a column-one correlation below this times
# max(1, max |F_i1|) ** 2: that phase would be the phase of rounding.
TORUS_ANCHOR = 1e-12

# ---------------------------------------------------------------------------
# Pick problems and slices

# Relative slack of the Pick positivity test, min eig >= -PICK_TOL max(1,
# top) (np_solve, the certify functions, the np and certify commands): the
# Pick matrix of data on the boundary of solvability is singular up to
# roundoff.
PICK_TOL = 1e-9
# An interpolant may miss a target by this in operator norm: ten times
# PICK_TOL, the lurking isometry reproducing the targets to the roundoff of
# the Pick factor.
TARGET_TOL = 1e-8
# An explicit split pair (b, c) must give b c within this of the product it
# splits, relative to max(1, |product|): a split computed in floating point
# misses its product by a few eps.
SPLIT_RTOL = 1e-9
# Two denominators are one up to a scalar when they agree entry by entry
# within RATIO_ATOL times the largest coefficient plus RATIO_RTOL times the
# entry (the test of np.allclose): curve denominators written out by JSON or
# by polynomial products agree to a few eps.
RATIO_RTOL = 1e-11
RATIO_ATOL = 1e-13
# A denominator below this modulus vanishes: the resolvent determinant of
# the fractional map, the slice denominators 1 - z x2 and 2 - z x4, and the
# denominators of psi3_eval, psi_lower3_eval and transfer_eval.  Dividing
# by less turns an eps error in a unit numerator into more than 1e-4.
DENOMINATOR_FLOOR = 1e-12
# A root within this distance of the unit circle counts as on it: a numerator
# root there is projected onto the circle, and a denominator root there is
# refused.  Next to a pole at distance d the denominator of unit scale
# 1 - lam/r is evaluated on the circle with a relative error of about 2u/d,
# u the unit roundoff: 2.2e-7 at d = 1e-9, below SLICE_TOL.
CIRCLE_BAND = 1e-9
# A certified denominator whose computed roots' product form misses it,
# relative, by more than this somewhere on the unit circle has its roots
# refined (hardy._refined): the relative error of the product form is
# largest there, and an inner-outer pair carries it into f.  On the slice
# denominators of random rational curves the companion eigenvalues miss by
# 1e-15 to 1e-12; beside a double pole they can miss by 1e-10 (1.0078125
# next to 1.125 twice), as much as the smallest tol a pair is checked to.
PRODUCT_RTOL = 1e-11
# Rounding noise of polynomial arithmetic, per unit of coefficient mass: a
# slice's f11 f22 - det vanishes identically when what is left of it is
# below this times the mass of the products.
POLY_NOISE = 1e3 * np.finfo(float).eps
# Trailing coefficients of at most this fraction of the largest are dropped:
# they are what the rounding of cancelled terms leaves, about eps times the
# coefficient mass.
TRIM_RTOL = 1e-13
# A Blaschke zero below this modulus is a bare factor lam: its factor
# (|a| / a)(a - lam) / (1 - conj(a) lam) is within about |a| of a unimodular
# multiple of lam.
BARE_ZERO = 1e-14
# blaschke_eval takes points up to this outside the closed disc: a point of
# the circle computed as exp(i theta) has a modulus 1 + a few eps.
DISC_SLACK = 1e-12
# An inner constant must have a modulus within this of 1: inner_outer
# divides its constant by its modulus, which leaves it a few eps off.
UNIMODULAR_TOL = 1e-9
# inner_outer's reconstruction tolerance, relative to max(1, max |f| on the
# circle), by default and on each slice, and the largest miss of a slice's
# determinant: above the evaluation error that CIRCLE_BAND allows next to a
# pole.
SLICE_TOL = 1e-6
# A slice's operator norm may exceed 1 by this on its contractivity grid:
# its off-diagonal values come from an inner-outer pair accurate to
# SLICE_TOL.
CONTRACTIVE_SLACK = 1e-6

# ---------------------------------------------------------------------------
# realizations

# A colligation is a contraction when its norm is at most 1 + NORM_SLACK:
# colligations built as unitaries by Procrustes have norms 1 + a few eps.
NORM_SLACK = 1e-10
# ||V* V - I||_F <= GRAM_SLACK bounds ||V||**2 by 1 + GRAM_SLACK, so ||V|| by
# 1 + NORM_SLACK: the Gram certificate accepts only what the norm test would.
GRAM_SLACK = 2.0 * NORM_SLACK
# Evaluating from the eigenpairs of S computes the transfer function of
# S + dS with ||dS|| about kappa(V) eps ||S||, where the LU path's backward
# error is about eps ||S||.  Both meet the same sensitivity of F to S,
# ||lam Q (I - lam S)^-1|| ||(I - lam S)^-1 R||, so the modal values carry at
# most about kappa(V) times the LU path's error: two more lost digits at this
# bound.  A defective or nearly defective S has kappa(V) near 1/eps or
# infinite and stays on the LU path.
MODAL_KAPPA = 100.0
# random_schur's max_sigma must stay this far below 1, so that its draw is
# a strict contraction after rounding.
SIGMA_GAP = 1e-12

# ---------------------------------------------------------------------------
# checks of the CLI reports

# right-s compares the phases of values / g only where |g| exceeds this:
# below it the ratio is rounding.
PHASE_FLOOR = 1e-8
# verify-identities' bound on the torus fit of the rebuilt function: ten
# times UW_TOL, as the fit adds the error of its phases, read from one
# column, to the construction's.
TORUS_FIT_TOL = 1e-7
# verify-identities' bound on how far the sampled |G| may exceed 1: G is a
# Schur function, so any excess is rounding.
SE_SUP_TOL = 1e-9

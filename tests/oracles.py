"""Independent reference computations used only by the tests.

The structured-singular-value oracle works straight from the definition:
``mu = 1 / inf { max_i |x_i| : det(I - A diag(x)) = 0 }`` with the diagonal
pattern of the block structure.  The determinant is multi-affine in the
scalar parameters, so fixing all but one coordinate leaves an affine (or
quadratic) equation whose exact solution closes the constraint; a dense
polar grid over the remaining coordinates plus a Nelder-Mead polish then
minimizes the max-modulus.  For the structure with a repeated scalar a
bisection on the radius then finishes the search, where Nelder-Mead can stop
on the ridge ``|x1| = |x2|``.  Nothing here calls the library's phase-sweep
path.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize, minimize_scalar

__all__ = [
    "mu_oracle",
    "mu_oracle_311",
    "mu_oracle_312",
    "mu_oracle_211",
    "svd_mu_full_2x2",
    "tetrablock_completion_mu",
]

_HUGE = 1e300


def _det_coeffs_3(a: np.ndarray):
    """Coefficients of det(I - A diag(x1,x2,x3)) as a multi-affine polynomial.

    det = 1 - sum d_i x_i + sum m_ij x_i x_j - det(A) x1 x2 x3 where d_i are
    diagonal entries and m_ij principal 2x2 minors.
    """
    a = np.asarray(a, dtype=complex)
    d = np.diag(a)
    m12 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    m13 = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    m23 = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    det = complex(np.linalg.det(a))
    return d, (m12, m13, m23), det


def _polar_grid(radius: float, n_r: int, n_t: int) -> np.ndarray:
    radii = np.linspace(0.0, radius, n_r)
    phases = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    return (radii[:, None] * phases[None, :]).ravel()


def _start_radius_311(d, m, det3) -> float:
    """Radius that certainly contains a singular point, by corner feasibility
    or by doubling until the coefficient mass admits a zero."""
    corners = [1.0 / abs(v) for v in d if abs(v) > 1e-14]
    if corners:
        return min(corners)
    # no affine corner: grow until sum |c_alpha| R^|alpha| >= 1 with slack
    mass = lambda r: (
        sum(abs(v) for v in d) * r
        + sum(abs(v) for v in m) * r * r
        + abs(det3) * r**3
    )
    r = 1.0
    for _ in range(200):
        if mass(r) >= 2.0:
            return r
        r *= 2.0
    return r


def mu_oracle_311(a, n_r: int = 20, n_t: int = 24, polish: bool = True) -> float:
    """Direct-definition mu for the three-scalar diagonal structure."""
    d, m, det3 = _det_coeffs_3(a)
    if max(np.abs(d)) < 1e-14 and max(abs(v) for v in m) < 1e-14 and abs(det3) < 1e-14:
        return 0.0

    # det with x_free isolated: det = alpha(u, v) + beta(u, v) * x_free
    # where (u, v) are the other two coordinates in index order.
    def affine_parts(free: int, u, v):
        if free == 0:
            alpha = 1.0 - d[1] * u - d[2] * v + m[2] * u * v
            beta = -d[0] + m[0] * u + m[1] * v - det3 * u * v
        elif free == 1:
            alpha = 1.0 - d[0] * u - d[2] * v + m[1] * u * v
            beta = -d[1] + m[0] * u + m[2] * v - det3 * u * v
        else:
            alpha = 1.0 - d[0] * u - d[1] * v + m[0] * u * v
            beta = -d[2] + m[1] * u + m[2] * v - det3 * u * v
        return alpha, beta

    def sweep(radius: float, keep: int = 4):
        pts = _polar_grid(radius, n_r, n_t)
        u = pts[:, None]
        v = pts[None, :]
        best = _HUGE
        starts = []
        for free in range(3):
            alpha, beta = affine_parts(free, u, v)
            with np.errstate(divide="ignore", invalid="ignore"):
                xf = np.where(np.abs(beta) > 1e-300, -alpha / beta, _HUGE)
            cost = np.maximum(np.maximum(np.abs(u), np.abs(v)), np.abs(xf))
            flat = cost.ravel()
            order = np.argpartition(flat, min(keep, flat.size - 1))[:keep]
            for j in order:
                idx = np.unravel_index(int(j), cost.shape)
                starts.append(
                    (float(cost[idx]), free, complex(u[idx[0], 0]), complex(v[0, idx[1]]))
                )
            best = min(best, float(flat.min()))
        starts.sort(key=lambda s: s[0])
        return best, starts

    # equimodular closure: along x = t (e^{i p1}, e^{i p2}, 1) the constraint
    # is a cubic in t whose smallest root modulus is a feasible max-modulus;
    # minimax points with all coordinates active live on such rays
    def eq_roots(e1, e2):
        c1 = -(d[0] * e1 + d[1] * e2 + d[2])
        c2 = m[0] * e1 * e2 + m[1] * e1 + m[2] * e2
        c3 = -det3 * e1 * e2
        shape = np.broadcast(e1, e2).shape
        out = np.full(shape + (3,), _HUGE, dtype=complex)
        if abs(det3) > 1e-14:
            comp = np.zeros(shape + (3, 3), dtype=complex)
            comp[..., 1, 0] = 1.0
            comp[..., 2, 1] = 1.0
            comp[..., 0, 2] = -1.0 / c3
            comp[..., 1, 2] = -c1 / c3
            comp[..., 2, 2] = -c2 / c3
            out = np.linalg.eigvals(comp)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                disc = np.sqrt(c1 * c1 - 4.0 * c2 + 0j)
                quad = np.abs(c2) > 1e-14
                lin = np.where(np.abs(c1) > 1e-300, -1.0 / c1, _HUGE)
                out[..., 0] = np.where(quad, (-c1 + disc) / np.where(quad, 2.0 * c2, 1.0), lin)
                out[..., 1] = np.where(quad, (-c1 - disc) / np.where(quad, 2.0 * c2, 1.0), _HUGE)
        return out

    def eq_sweep(n_phase: int = 72, keep: int = 3):
        e = np.exp(2j * np.pi * np.arange(n_phase) / n_phase)
        tmods = np.abs(eq_roots(e[:, None], e[None, :])).min(axis=-1)
        flat = tmods.ravel()
        order = np.argpartition(flat, min(keep, flat.size - 1))[:keep]
        found = []
        for j in order:
            i1, i2 = np.unravel_index(int(j), tmods.shape)
            found.append((float(flat[j]), float(2 * np.pi * i1 / n_phase), float(2 * np.pi * i2 / n_phase)))
        found.sort(key=lambda s: s[0])
        return found

    radius = _start_radius_311(d, m, det3)
    best, starts = sweep(radius)
    for _ in range(60):
        if best < _HUGE:
            break
        radius *= 2.0
        best, starts = sweep(radius)
    if best >= _HUGE:
        return 0.0
    # one zoomed pass around the promising scale
    best2, starts2 = sweep(min(best * 1.05, radius))
    if best2 < best:
        best = best2
    starts = sorted(starts + starts2, key=lambda s: s[0])[:8]

    eq_starts = eq_sweep()
    best = min(best, eq_starts[0][0])
    if polish:

        def eq_objective(t):
            r = eq_roots(np.exp(1j * t[0]), np.exp(1j * t[1]))
            return float(np.abs(r).min())

        for val, p1, p2 in eq_starts:
            res = minimize(
                eq_objective,
                [p1, p2],
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 2000},
            )
            if res.fun < best:
                best = float(res.fun)

    if polish:

        def objective_for(free):
            def objective(t):
                u = complex(t[0], t[1])
                v = complex(t[2], t[3])
                alpha, beta = affine_parts(free, u, v)
                if abs(beta) < 1e-300:
                    return _HUGE
                xf = -alpha / beta
                return max(abs(u), abs(v), abs(xf))

            return objective

        # the max-modulus objective is nonsmooth at its corners, where a
        # single simplex tends to stall; restart from several grid leaders
        # and re-run once from each local result
        for _, free, u0, v0 in starts:
            objective = objective_for(free)
            x0 = [u0.real, u0.imag, v0.real, v0.imag]
            for _ in range(2):
                res = minimize(
                    objective,
                    x0,
                    method="Nelder-Mead",
                    options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 4000},
                )
                x0 = res.x
                if res.fun < best:
                    best = float(res.fun)
    return 1.0 / best


def _bisect_radius(alpha, beta, hi: float, n_t: int = 720) -> float:
    """Smallest radius ``r <= hi`` at which ``alpha(x2) + x1 beta(x2)``
    vanishes at some ``|x1|, |x2| <= r``, by bisection.

    ``alpha`` and ``beta`` are coefficients in ``x2``, lowest degree first,
    with ``alpha(0) = 1``; ``hi`` is a radius where the constraint holds.  It
    holds in the bidisc of radius ``r`` exactly when ``alpha`` has a root in
    the disc (then ``x1 = 0``) or ``|x1| = |alpha / beta| <= r`` somewhere on
    the circle ``|x2| = r`` (minimum modulus principle).  Every radius that
    passes is witnessed by such a point, so ``1 / r`` stays a lower bound on
    mu.
    """
    roots = np.polynomial.polynomial.polyroots(np.asarray(alpha, dtype=complex))
    r_zero = float(np.abs(roots).min(initial=np.inf))
    theta = 2.0 * np.pi * np.arange(n_t) / n_t

    def modulus(r, t):
        x2 = r * np.exp(1j * np.asarray(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            x1 = np.polynomial.polynomial.polyval(x2, alpha) / np.polynomial.polynomial.polyval(
                x2, beta
            )
        return np.nan_to_num(np.abs(x1), nan=_HUGE, posinf=_HUGE)

    def passes(r):
        if r >= r_zero:
            return True
        m = modulus(r, theta)
        i = int(np.argmin(m))
        if m[i] <= r:
            return True
        step = 2.0 * np.pi / n_t
        res = minimize_scalar(
            lambda t: float(modulus(r, t)),
            bounds=(theta[i] - step, theta[i] + step),
            method="bounded",
            options={"xatol": 1e-13},
        )
        return res.fun <= r

    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def mu_oracle_312(a, n_r: int = 400, n_t: int = 360, polish: bool = True) -> float:
    """Direct-definition mu for the structure with a repeated lower scalar.

    det(I - A diag(x1, x2, x2)) = 1 - d1 x1 - (d2 + d3) x2 + (m12 + m13) x1 x2
    + m23 x2^2 - det(A) x1 x2^2; affine in x1 for fixed x2 and quadratic in
    x2 for fixed x1, giving two exact closures to scan.
    """
    d, m, det3 = _det_coeffs_3(a)
    y1 = d[1] + d[2]
    y2 = m[2]
    s1 = d[0]
    s2 = m[0] + m[1]
    s3 = det3
    if max(abs(s1), abs(y1), abs(s2), abs(y2), abs(s3)) < 1e-14:
        return 0.0

    corners = [1.0 / abs(s1)] if abs(s1) > 1e-14 else []
    if abs(y1) > 1e-14 or abs(y2) > 1e-14:
        roots = np.polynomial.polynomial.polyroots(
            np.array([1.0, -y1, y2], dtype=complex)
        )
        corners.extend(float(np.abs(r)) for r in roots if np.isfinite(r))
    radius = min(corners) if corners else 1.0

    def closure_x1(x2):
        alpha = 1.0 - y1 * x2 + y2 * x2 * x2
        beta = -s1 + s2 * x2 - s3 * x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            x1 = np.where(np.abs(beta) > 1e-300, -alpha / beta, _HUGE)
        return np.maximum(np.abs(x1), np.abs(x2))

    def closure_x2(x1):
        # quadratic (y2 - s3 x1) x2^2 - (y1 - s2 x1) x2 + (1 - s1 x1) = 0
        qa = y2 - s3 * x1
        qb = -(y1 - s2 * x1)
        qc = 1.0 - s1 * x1
        disc = np.sqrt(qb * qb - 4.0 * qa * qc + 0j)
        best = np.full(x1.shape, _HUGE)
        with np.errstate(divide="ignore", invalid="ignore"):
            for sgn in (+1.0, -1.0):
                x2 = np.where(
                    np.abs(qa) > 1e-300, (-qb + sgn * disc) / (2.0 * qa), _HUGE
                )
                best = np.minimum(best, np.maximum(np.abs(x1), np.abs(x2)))
                lin = np.where(np.abs(qb) > 1e-300, -qc / qb, _HUGE)
                best = np.minimum(
                    best, np.maximum(np.abs(x1), np.abs(np.where(np.abs(qa) > 1e-300, _HUGE, lin)))
                )
        return best

    def sweep(r):
        pts = _polar_grid(r, n_r, n_t)
        c1 = closure_x1(pts)
        c2 = closure_x2(pts)
        i1 = int(np.argmin(c1))
        i2 = int(np.argmin(c2))
        if c1[i1] <= c2[i2]:
            return float(c1[i1]), ("x1", complex(pts[i1]))
        return float(c2[i2]), ("x2", complex(pts[i2]))

    best, arg = sweep(radius)
    for _ in range(60):
        if best < _HUGE:
            break
        radius *= 2.0
        best, arg = sweep(radius)
    if best >= _HUGE:
        return 0.0
    best2, arg2 = sweep(min(best * 1.05, radius))
    if best2 < best:
        best, arg = best2, arg2

    if polish and arg is not None:
        kind, p0 = arg
        closure = closure_x1 if kind == "x1" else closure_x2

        def objective(t):
            return float(closure(np.array([complex(t[0], t[1])]))[0])

        res = minimize(
            objective,
            [p0.real, p0.imag],
            method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-13, "maxiter": 4000},
        )
        if res.fun < best:
            best = float(res.fun)
        best = _bisect_radius([1.0, -y1, y2], [-s1, s2, -s3], best)
    return 1.0 / best


def mu_oracle_211(
    a, n_r: int = 400, n_t: int = 720, polish: bool = True, bisect: bool = True
) -> float:
    """Direct-definition mu for the two-scalar diagonal structure on 2x2.

    After the polish, ``bisect`` ends with the radius bisection of
    ``mu_oracle_312``, which can only raise the value."""
    a = np.asarray(a, dtype=complex)
    d1, d2 = a[0, 0], a[1, 1]
    det2 = complex(np.linalg.det(a))
    if max(abs(d1), abs(d2), abs(det2)) < 1e-14:
        return 0.0
    if a[0, 1] * a[1, 0] == 0:
        # triangular: det(I - A X) = (1 - d1 x1)(1 - d2 x2) vanishes where x1 =
        # 1 / d1 or x2 = 1 / d2, the other coordinate free (0).  The closure
        # below, x1 as a function of x2, misses the second branch
        return float(max(abs(d1), abs(d2)))
    corners = [1.0 / abs(v) for v in (d1, d2) if abs(v) > 1e-14]
    radius = min(corners) if corners else 1.0

    def closure(x2):
        alpha = 1.0 - d2 * x2
        beta = -d1 + det2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            x1 = np.where(np.abs(beta) > 1e-300, -alpha / beta, _HUGE)
        return np.maximum(np.abs(x1), np.abs(x2))

    def sweep(r):
        pts = _polar_grid(r, n_r, n_t)
        cost = closure(pts)
        i = int(np.argmin(cost))
        return float(cost[i]), complex(pts[i])

    best, p0 = sweep(radius)
    for _ in range(60):
        if best < _HUGE:
            break
        radius *= 2.0
        best, p0 = sweep(radius)
    if best >= _HUGE:
        return 0.0

    if polish:

        def objective(t):
            return float(closure(np.array([complex(t[0], t[1])]))[0])

        res = minimize(
            objective,
            [p0.real, p0.imag],
            method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-13, "maxiter": 4000},
        )
        if res.fun < best:
            best = float(res.fun)
        if bisect:
            best = _bisect_radius([1.0, -d2], [-d1, det2], best)
    return 1.0 / best


def mu_oracle(a, label: str, **kwargs) -> float:
    if label == "E(3;3;1,1,1)":
        return mu_oracle_311(a, **kwargs)
    if label == "E(3;2;1,2)":
        return mu_oracle_312(a, **kwargs)
    if label == "E(2;2;1,1)":
        return mu_oracle_211(a, **kwargs)
    raise ValueError(f"no oracle for structure {label!r}")


def svd_mu_full_2x2(a) -> float:
    """mu against the unstructured full block E = C^{2x2} is the top singular
    value; used as a sanity bound (structured mu <= unstructured)."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[0])


def tetrablock_completion_mu(x, n_scale: int = 240) -> float:
    """Smallest mu over 2x2 completions with prescribed diagonal and determinant.

    Completions [[x1, t], [(x1 x2 - x3)/t, x2]] share diagonal and determinant
    for every t != 0; the infimum of their mu characterizes membership of
    (x1, x2, x3) in the closed coordinate domain.
    """
    x1, x2, x3 = (complex(v) for v in x)
    off = x1 * x2 - x3
    best = np.inf
    if abs(off) < 1e-16:
        a = np.array([[x1, 0.0], [0.0, x2]], dtype=complex)
        return mu_oracle_211(a)
    for t in np.geomspace(1e-4, 1e4, n_scale):
        a = np.array([[x1, t], [off / t, x2]], dtype=complex)
        best = min(best, mu_oracle_211(a, n_r=120, n_t=180, polish=True, bisect=False))
    return float(best)

"""Independent oracles the tests freeze against.

Everything here is computed from first principles (closed forms or scipy
quadrature written separately from the package), never by calling the code
under test.
"""

import numpy as np
from scipy import integrate

# normalization constants of the truncated Gaussian, frozen from a 30-digit
# mpmath radial quadrature of the quintic-smoothstep profile
C_EPS_HALF = 1.49629714443522
C_EPS_TENTH = 1.00000000934896

# planar Steiner tree for the four corners of the unit square, against the
# two diagonals it replaces
STEINER_SQUARE = 1.0 + np.sqrt(3.0)
CROSS_DIAGONALS = 2.0 * np.sqrt(2.0)


def kernel_mass_oracle(eps):
    """2D integral of the truncated kernel by radial quadrature."""

    def profile(r):
        u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u * u)

    def radial(r):
        return profile(r) * r / eps**2 * np.exp(-r * r / (2.0 * eps * eps))

    inner, _ = integrate.quad(radial, 0.0, 0.5, epsabs=1e-13, epsrel=1e-12)
    outer, _ = integrate.quad(radial, 0.5, 1.0, epsabs=1e-13, epsrel=1e-12)
    return inner + outer


def ngon_vertices(n, r=1.0):
    th = 2.0 * np.pi * np.arange(n) / n
    return r * np.column_stack([np.cos(th), np.sin(th)])


def ngon_perimeter(n, r=1.0):
    return 2.0 * n * r * np.sin(np.pi / n)


def ngon_area(n, r=1.0):
    return 0.5 * n * r * r * np.sin(2.0 * np.pi / n)


def shrinking_circle_radius(t, r0=1.0):
    """Exact curve-shortening radius for a circle."""
    return np.sqrt(r0 * r0 - 2.0 * t)


GL4_X, GL4_W = np.polynomial.legendre.leggauss(4)


def quad_nodes_loop(V, max_h):
    """Segment-by-segment Gauss-Legendre nodes, the reference for quad_nodes."""
    pts, wts, taus, sidx, tpar = [], [], [], [], []
    for i in range(len(V.length)):
        L = V.length[i]
        if L <= 0.0:
            continue
        k = max(1, int(np.ceil(L / max_h)))
        for q in range(k):
            a = q / k
            b = (q + 1) / k
            t = 0.5 * (a + b) + 0.5 * (b - a) * GL4_X
            w = 0.5 * (b - a) * GL4_W * L
            p = V.p0[i][None, :] + t[:, None] * (V.p1[i] - V.p0[i])[None, :]
            pts.append(p)
            wts.append(w)
            taus.append(np.repeat(V.tangent[i][None, :], len(t), axis=0))
            sidx.append(np.full(len(t), i))
            tpar.append(t)
    if not pts:
        return (np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)),
                np.zeros(0, dtype=int), np.zeros(0))
    return (np.concatenate(pts), np.concatenate(wts), np.concatenate(taus),
            np.concatenate(sidx), np.concatenate(tpar))

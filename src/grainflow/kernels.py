"""Truncated Gaussian smoothing kernel.

Phi_eps(x) = c(eps) * psi(|x|) * exp(-|x|^2 / (2 eps^2)) / (2 pi eps^2)

with psi a fixed radial C^2 profile equal to 1 on B_{1/2} and 0 outside B_1,
and c(eps) > 1 normalizing the integral to 1.  The profile is the quintic
smoothstep on [1/2, 1].  Note: a profile with |psi'| <= 3 and |psi''| <= 9 on a
transition of width 1/2 does not exist (|psi'| <= 9 * dist(r, {1/2, 1}) would
integrate to at most 9/16 < 1), so the achieved bounds 3.75 and ~23.1 are
recorded as constants and asserted as such.

The exact product-rule identity

    x Phi_eps(x) + eps^2 grad Phi_eps(x) = eps^2 c(eps) psi'(|x|) x/|x| PhiHat_eps(x)

holds analytically and is verified to 1e-10 in tests.

`Kernel.value_r2` and `Kernel.value_grad_r2` take squared radii and
evaluate value and gradient factor in one pass: PhiHat in place on every
r^2, the root and the quintic only where r^2 > 1/4.  Both are bit-equal to
evaluating the profile at every radius.  `Kernel.annulus_r2` gives
c (psi - 1) PhiHat, the part of Phi_eps that the curvature lattice adds to
its separable Gaussian c PhiHat.
"""

from dataclasses import dataclass

import numpy as np

# sup |psi'| = 1.875 * 2, sup |psi''| = 5.7735... * 4 for the quintic profile
PSI_GRAD_BOUND = 3.75
PSI_HESS_BOUND = 23.2


def psi(r):
    r = np.asarray(r, dtype=float)
    return _psi_u(np.clip(2.0 * r - 1.0, 0.0, 1.0))


def _psi_u(u):
    """psi at u = 2r - 1 clipped to [0, 1]."""
    return 1.0 - _psi_drop_u(u)


def _psi_drop_u(u):
    """1 - psi at u = 2r - 1 clipped to [0, 1]."""
    return u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)


def psi_prime(r):
    r = np.asarray(r, dtype=float)
    u = 2.0 * r - 1.0
    inside = (u > 0.0) & (u < 1.0)
    return _psi_prime_u(np.where(inside, u, 0.0), inside)


def _psi_prime_u(u, inside):
    """psi' at u = 2r - 1, zero off the mask `inside` of 0 < u < 1."""
    return np.where(inside, -2.0 * 30.0 * u * u * (1.0 - u) ** 2, 0.0)


def psi_second(r):
    r = np.asarray(r, dtype=float)
    u = 2.0 * r - 1.0
    inside = (u > 0.0) & (u < 1.0)
    u = np.where(inside, u, 0.0)
    return np.where(inside, -4.0 * (60.0 * u - 180.0 * u**2 + 120.0 * u**3), 0.0)


class QuadratureBudgetError(RuntimeError):
    pass


def kernel_normalize(eps):
    """Normalization constant c(eps) for curves in the plane (n = 1).

    The radial mass of psi * PhiHat is 1 - exp(-1/(8 eps^2)) on B_{1/2} plus
    the transition annulus by a fixed 64-node Gauss-Legendre rule on [1/2, 1];
    the 48-node rule's difference is the error estimate held to the budget.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    inner = -np.expm1(-1.0 / (8.0 * eps * eps))

    def tail(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        r = 0.75 + 0.25 * x
        return 0.25 * np.dot(w, psi(r) * (r / eps**2)
                             * np.exp(-(r * r) / (2.0 * eps * eps)))

    t = tail(64)
    if abs(t - tail(48)) > 1e-9:
        raise QuadratureBudgetError("normalization quadrature did not converge")
    return 1.0 / (inner + t)


@dataclass(frozen=True)
class Kernel:
    eps: float
    c_eps: float

    @classmethod
    def make(cls, eps):
        return cls(float(eps), kernel_normalize(eps))

    @property
    def tail_radius(self):
        # beyond 6 eps the Gaussian factor is below e^-18 of its peak
        return 6.0 * self.eps

    @property
    def trunc_radius(self):
        # the hard cutoff is at 1
        return min(1.0, self.tail_radius)

    def value(self, d):
        d = np.asarray(d, dtype=float)
        return self.value_r2(np.sum(d * d, axis=-1))

    def value_grad(self, d):
        """Kernel value and analytic gradient at displacements d (..., 2)."""
        d = np.asarray(d, dtype=float)
        val, factor = self.value_grad_r2(np.sum(d * d, axis=-1))
        return val, factor[..., None] * d

    def value_r2(self, r2):
        """Kernel value at squared radii r2."""
        return self._radial(r2, False)[0]

    def value_grad_r2(self, r2):
        """Kernel value and gradient factor at squared radii r2.

        The gradient at a displacement d with |d|^2 = r2 is factor * d.
        """
        return self._radial(r2, True)

    def _radial(self, r2, grad):
        """(value, gradient factor or None) at squared radii r2.

        PhiHat comes from r2 by a divide, an exp and a divide, in place.  psi
        is 1 and psi' is 0 on r <= 1/2, so the quintic and the root are
        evaluated only where r2 > 1/4: sqrt is correctly rounded, so r2 <= 1/4
        gives r <= 1/2, and an r2 above 1/4 whose root rounds to 1/2 gets
        u = min(2r - 1, 1) = 0, where psi = 1 and psi' = 0 as well.  On the
        inner disc the value is c PhiHat and the factor val / -eps^2, which is
        c psi'(r)/r PhiHat - val / eps^2 with psi' = 0, bit for bit.
        """
        r2 = np.asarray(r2, dtype=float)
        e2 = self.eps * self.eps
        val = np.divide(r2, -2.0 * e2, out=np.empty(r2.shape))
        np.exp(val, out=val)
        np.divide(val, 2.0 * np.pi * e2, out=val)
        far = np.flatnonzero(r2 > 0.25)
        flat = val.reshape(-1)
        ghat = flat[far]
        rf = np.sqrt(r2.reshape(-1)[far])
        u = np.minimum(2.0 * rf - 1.0, 1.0)
        val *= self.c_eps
        flat[far] = self.c_eps * _psi_u(u) * ghat
        if not grad:
            return val, None
        # grad = c psi'(r) d/r PhiHat - val d / eps^2
        f = np.divide(val, -e2, out=np.empty(r2.shape))
        f.reshape(-1)[far] = (self.c_eps * (_psi_prime_u(u, u < 1.0) / rf) * ghat
                              - flat[far] / e2)
        return val, f

    def annulus_r2(self, r2):
        """Value and gradient factor of c (psi - 1) PhiHat at squared radii
        r2 (an array), zero beyond tail_radius.

        Within tail_radius Phi_eps is c PhiHat plus this term, which is
        nonzero only where r > 1/2.  The value is -c (1 - psi) PhiHat, the
        factor c psi'(r)/r PhiHat - value / eps^2; psi' vanishes where
        r <= 1/2, so dividing by max(r, 1/2) there changes nothing.
        """
        e2 = self.eps * self.eps
        ghat = np.exp(r2 / (-2.0 * e2))
        ghat *= self.c_eps / (2.0 * np.pi * e2)
        ghat[r2 > self.tail_radius ** 2] = 0.0  # so value and factor are 0
        r = np.sqrt(r2)
        u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        val = _psi_drop_u(u)
        val *= ghat  # c (1 - psi) PhiHat
        f = _psi_prime_u(u, True)
        f /= np.maximum(r, 0.5)
        f *= ghat
        f += val / e2
        return np.negative(val, out=val), f

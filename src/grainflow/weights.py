"""Weight function Omega and the sampled test-function families.

The weight is either the constant 1 (growth constant c1 = 0) or the
exponential decay exp(-sqrt(1+|x|^2)) with c1 = 2, which dominates both
|grad Omega|/Omega and ||Hess Omega||/Omega with room to spare.  Torus runs
use the constant weight only.

Scalar test functions (the "A" family, parameter j) satisfy

    0 < phi <= Omega,  |grad phi| <= j phi,  ||Hess phi|| <= j phi,

vector fields (the "B" family) satisfy

    |g| <= j Omega, ||grad g|| <= j Omega, ||Hess g|| <= j Omega,
    ||g/Omega||_{L^2} <= j.

The factory produces Omega itself plus Omega-multiplied radial profiles
exp(-q*sqrt(w^2+|x-c|^2)) whose logarithmic derivatives are globally bounded
(a compactly supported bump cannot satisfy |grad phi| <= j phi at its edge).
q is the largest root of q^2 + q(2 c1 + 1/w) + (c1 - j) <= 0, which makes all
three ratio bounds hold simultaneously.  On the torus the profile is summed
over the 3x3 neighbor images, which preserves every ratio bound term by term.
"""

from dataclasses import dataclass

import numpy as np

from .domain import Domain

_EYE2 = np.eye(2)


@dataclass(frozen=True)
class WeightFunction:
    variant: str  # "const" or "exp"

    @property
    def c1(self):
        return 0.0 if self.variant == "const" else 2.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "const":
            return np.ones(x.shape[:-1])
        m = np.sqrt(1.0 + np.sum(x * x, axis=-1))
        return np.exp(-m)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "const":
            return np.zeros_like(x)
        m = np.sqrt(1.0 + np.sum(x * x, axis=-1))
        return -np.exp(-m)[..., None] * x / m[..., None]

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        if self.variant == "const":
            return np.zeros(x.shape + (2,))
        m = np.sqrt(1.0 + np.sum(x * x, axis=-1))[..., None, None]
        outer = x[..., :, None] * x[..., None, :]
        w = np.exp(-np.squeeze(m, (-1, -2)))[..., None, None]
        return w * (outer / m**2 - _EYE2 / m + outer / m**3)

    def inv_value(self, x):
        return 1.0 / self.value(x)


def const_weight():
    return WeightFunction("const")


def exp_weight():
    return WeightFunction("exp")


def weight_from_name(name):
    if name == "const":
        return const_weight()
    if name == "exp":
        return exp_weight()
    raise ValueError("unknown weight variant %r" % (name,))


class InfeasibleShapeError(ValueError):
    """Requested bump width cannot satisfy the ratio bounds."""


def _bump_rate(j, c1, w):
    """Largest q with q^2 + q(2 c1 + 1/w) + (c1 - j) <= 0 (Hessian ratio)."""
    b = 2.0 * c1 + 1.0 / w
    disc = b * b + 4.0 * (j - c1)
    if j <= c1 or disc <= 0.0:
        raise InfeasibleShapeError("j=%g too small for weight growth c1=%g" % (j, c1))
    q = 0.5 * (-b + np.sqrt(disc))
    # gradient ratio needs c1 + q <= j as well; the Hessian root already
    # implies it (q^2 >= 0), keep an explicit cap for safety
    return min(q, j - c1)


def _image_shifts(dom: Domain):
    if dom.periodic:
        k = np.array([-1.0, 0.0, 1.0])
        return np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.zeros((1, 2))


class _SoftBump:
    """exp(-q*sqrt(w^2+|x-c|^2)) summed over domain images; C^infty."""

    def __init__(self, center, w, q, dom: Domain):
        self.center = np.asarray(center, dtype=float)
        self.w = float(w)
        self.q = float(q)
        self.shifts = _image_shifts(dom)

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        d = x[..., None, :] - (self.center + self.shifts)  # (..., K, 2)
        m = np.sqrt(self.w**2 + np.sum(d * d, axis=-1))  # (..., K)
        return d, m, np.exp(-self.q * m)

    def value(self, x):
        _, _, e = self._parts(x)
        return np.sum(e, axis=-1)

    def grad(self, x):
        d, m, e = self._parts(x)
        return np.sum((-self.q * e / m)[..., None] * d, axis=-2)

    def hess(self, x):
        d, m, e = self._parts(x)
        gm = d / m[..., None]
        outer = gm[..., :, None] * gm[..., None, :]
        hm = _EYE2 / m[..., None, None] - (
            d[..., :, None] * d[..., None, :]
        ) / (m**3)[..., None, None]
        q = self.q
        per = e[..., None, None] * (q * q * outer - q * hm)
        return np.sum(per, axis=-3)


class ScalarTestFunction:
    """A-family member: Omega itself, or Omega times a scaled soft bump."""

    def __init__(self, j, omega: WeightFunction, bump=None, scale=1.0):
        self.j = j
        self.omega = omega
        self.bump = bump
        self.scale = float(scale)

    def value(self, x):
        v = self.omega.value(x)
        if self.bump is not None:
            v = v * self.scale * self.bump.value(x)
        return v

    def grad(self, x):
        gw = self.omega.grad(x)
        if self.bump is None:
            return gw
        b = self.bump.value(x)[..., None]
        gb = self.bump.grad(x)
        return self.scale * (gw * b + self.omega.value(x)[..., None] * gb)

    def hess(self, x):
        hw = self.omega.hess(x)
        if self.bump is None:
            return hw
        b = self.bump.value(x)[..., None, None]
        gb = self.bump.grad(x)
        hb = self.bump.hess(x)
        w = self.omega.value(x)[..., None, None]
        gw = self.omega.grad(x)
        cross = gw[..., :, None] * gb[..., None, :]
        return self.scale * (hw * b + cross + np.swapaxes(cross, -1, -2) + w * hb)


class VectorTestFunction:
    """B-family member: fixed direction times amplitude * bump * Omega."""

    def __init__(self, j, omega: WeightFunction, direction, amplitude, bump):
        self.j = j
        self.omega = omega
        d = np.asarray(direction, dtype=float)
        self.direction = d / np.linalg.norm(d)
        self.amplitude = float(amplitude)
        self.bump = bump

    def _scalar(self, x):
        return self.amplitude * self.bump.value(x) * self.omega.value(x)

    def value(self, x):
        return self._scalar(x)[..., None] * self.direction

    def jacobian(self, x):
        """J[i, k] = d_i g_k."""
        b = self.bump.value(x)[..., None]
        gs = self.amplitude * (
            self.bump.grad(x) * self.omega.value(x)[..., None] + b * self.omega.grad(x)
        )
        return gs[..., :, None] * self.direction


def make_test_function(j, kind, center, omega: WeightFunction, dom: Domain,
                       width=None, direction=(0.0, 1.0)):
    """Factory for sampled A_j / B_j members.

    kind "A" with width=None returns Omega itself (requires j >= max(1, c1)).
    Widths below 4/j are rejected: they cannot satisfy |grad phi| <= j phi.
    """
    c1 = omega.c1
    if kind == "A":
        if width is None:
            if j < max(1.0, c1):
                raise InfeasibleShapeError("Omega itself needs j >= max(1, c1)")
            return ScalarTestFunction(j, omega)
        if width < 4.0 / j:
            raise InfeasibleShapeError("width %g < 4/j" % width)
        q = _bump_rate(j, c1, width)
        bump = _SoftBump(center, width, q, dom)
        # phi <= Omega: normalize by the bump's max (attained at the center)
        peak = float(bump.value(np.asarray(center, dtype=float)))
        return ScalarTestFunction(j, omega, bump, scale=1.0 / (1.0000001 * peak))
    if kind == "B":
        if width is None:
            width = max(4.0 / j, 0.25)
        if width < 4.0 / j:
            raise InfeasibleShapeError("width %g < 4/j" % width)
        q = _bump_rate(j, c1, width)
        bump = _SoftBump(center, width, q, dom)
        peak = float(bump.value(np.asarray(center, dtype=float)))
        # amplitude caps: sup bound, derivative bounds, and the L2 bound
        # int b^2 = 2 pi e^{-2qw} (w/(2q) + 1/(4q^2)) per image
        l2sq = len(bump.shifts) * 2.0 * np.pi * np.exp(-2 * q * width) * (
            width / (2 * q) + 1.0 / (4 * q * q)
        )
        a_sup = j / peak
        a_der = j / ((c1 + q) * peak)
        a_l2 = j / np.sqrt(l2sq)
        amplitude = 0.95 * min(a_sup, a_der, a_l2)
        return VectorTestFunction(j, omega, direction, amplitude, bump)
    raise ValueError("kind must be 'A' or 'B'")

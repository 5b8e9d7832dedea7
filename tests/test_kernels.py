import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grainflow.kernels import (Kernel, PSI_GRAD_BOUND, PSI_HESS_BOUND,
                               kernel_normalize, psi, psi_prime, psi_second)

from oracles import (C_EPS_HALF, C_EPS_TENTH, gaussian, kernel_mass_oracle,
                     kernel_normalize_quad, kernel_value_grad_full)


def test_psi_profile_shape():
    r = np.linspace(0.0, 1.5, 601)
    v = psi(r)
    assert np.all(v[r <= 0.5] == 1.0)
    assert np.all(v[r >= 1.0] == 0.0)
    assert np.all((0.0 <= v) & (v <= 1.0))
    # monotone nonincreasing
    assert np.all(np.diff(v) <= 1e-15)


def test_psi_derivative_bounds():
    r = np.linspace(0.0, 1.0, 20001)
    assert np.max(np.abs(psi_prime(r))) <= PSI_GRAD_BOUND + 1e-12
    assert np.max(np.abs(psi_second(r))) <= PSI_HESS_BOUND + 1e-12
    # finite-difference consistency of the closed-form derivatives
    h = 1e-6
    mid = np.linspace(0.51, 0.99, 97)
    fd1 = (psi(mid + h) - psi(mid - h)) / (2 * h)
    fd2 = (psi_prime(mid + h) - psi_prime(mid - h)) / (2 * h)
    assert np.max(np.abs(fd1 - psi_prime(mid))) < 1e-7
    assert np.max(np.abs(fd2 - psi_second(mid))) < 1e-5


def test_normalization_against_oracle():
    for eps in (0.5, 0.1, 0.05, 0.02):
        c = kernel_normalize(eps)
        assert abs(c * kernel_mass_oracle(eps) - 1.0) < 1e-8


def test_normalization_matches_adaptive_quadrature():
    # the fixed Gauss-Legendre rule against the adaptive quadrature it
    # replaced: an ulp apart at most, and equal at the benchmark's eps
    for eps in np.linspace(0.005, 0.995, 199):
        c, ref = kernel_normalize(eps), kernel_normalize_quad(eps)
        assert abs(c - ref) <= 1e-15 * ref, eps
    for eps in (0.05, 0.2):
        assert kernel_normalize(eps) == kernel_normalize_quad(eps)
    assert kernel_normalize(0.05) == 1.0


def test_normalization_frozen_values():
    assert kernel_normalize(0.5) == pytest.approx(C_EPS_HALF, abs=1e-10)
    assert kernel_normalize(0.1) == pytest.approx(C_EPS_TENTH, abs=1e-10)


def test_normalization_decreasing_toward_one():
    # the excess over 1 underflows double precision near eps = 0.05
    # (it is ~exp(-50)), so strictness is only checkable down to eps = 0.1
    cs = [kernel_normalize(e) for e in (0.5, 0.2, 0.1)]
    assert all(a > b > 1.0 for a, b in zip(cs, cs[1:]))
    tail = kernel_normalize(0.05)
    assert 1.0 <= tail <= cs[-1]
    assert tail - 1.0 < 1e-9


def test_normalization_domain():
    with pytest.raises(ValueError):
        kernel_normalize(0.0)
    with pytest.raises(ValueError):
        kernel_normalize(1.0)


def test_value_at_origin_and_outside_support():
    k = Kernel.make(0.1)
    v0 = k.value(np.zeros(2))
    assert v0 == pytest.approx(k.c_eps / (2.0 * np.pi * 0.01), rel=1e-12)
    v, g = k.value_grad(np.array([1.5, 0.0]))
    assert v == 0.0 and np.all(g == 0.0)


def test_gradient_bound_inside_plateau():
    # where the profile is flat the gradient is exactly -x/eps^2 times value
    k = Kernel.make(0.1)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(200, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = (0.1 + 0.4 * rng.random((200, 1))) * u
    v, g = k.value_grad(x)
    bound = (np.linalg.norm(x, axis=1) / k.eps**2) * v + 1e-12
    assert np.all(np.linalg.norm(g, axis=1) <= bound)


def test_product_rule_identity():
    # x Phi(x) + eps^2 grad Phi(x) = eps^2 c psi'(|x|) x/|x| PhiHat(x)
    rng = np.random.default_rng(11)
    for eps in (0.5, 0.1):
        k = Kernel.make(eps)
        x = rng.uniform(-1.2, 1.2, size=(100, 2))
        v, g = k.value_grad(x)
        r = np.linalg.norm(x, axis=1)
        lhs = x * v[:, None] + eps**2 * g
        with np.errstate(invalid="ignore"):
            unit = np.where(r[:, None] > 0, x / np.where(r[:, None] > 0,
                                                         r[:, None], 1.0), 0.0)
        rhs = eps**2 * k.c_eps * psi_prime(r)[:, None] * unit * \
            gaussian(eps, x)[:, None]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.5])
def test_radial_boundary_matches_full_profile(eps):
    # value_r2 and value_grad_r2 evaluate the profile only where r^2 > 1/4;
    # at r^2 on either side of 1/4 and of 1 they equal the profile evaluated
    # at every radius, bit for bit.  Each displacement's squared length is
    # exactly the r^2 named beside it.
    k = Kernel.make(eps)
    below = np.nextafter(0.5, 0.0)
    cases = [((0.0, 0.0), 0.0),
             ((below, 0.75 * 2.0**-27), np.nextafter(0.25, 0.0)),
             ((0.5, 0.0), 0.25),
             ((0.5, 2.0**-27), np.nextafter(0.25, 1.0)),
             ((0.6, 0.0), 0.36),
             ((1.0, 0.0), 1.0),
             ((1.0, 2.0**-26), np.nextafter(1.0, 2.0)),
             ((1.5, 0.0), 2.25),
             ((2.0, 0.0), 4.0)]
    d = np.array([c[0] for c in cases])
    r2 = np.sum(d * d, axis=-1)
    assert np.array_equal(r2, [c[1] for c in cases])
    val_ref, grad_ref = kernel_value_grad_full(k, d)
    val, factor = k.value_grad_r2(r2)
    assert _bits(val) == _bits(val_ref)
    assert _bits(factor[:, None] * d) == _bits(grad_ref)
    assert _bits(k.value_r2(r2)) == _bits(val_ref)
    # 0-d input
    for i in range(len(d)):
        v0, f0 = k.value_grad_r2(r2[i])
        assert np.ndim(v0) == 0 and np.ndim(f0) == 0
        assert _bits(v0) == _bits(val_ref[i])
        assert _bits(f0 * d[i]) == _bits(grad_ref[i])
        assert _bits(k.value_r2(float(r2[i]))) == _bits(val_ref[i])
    # an (n, W, W) block of squared radii
    rng = np.random.default_rng(7)
    dd = rng.uniform(-0.7, 0.7, (3, 5, 4, 2))
    dd[0, 0, 0] = d[3]
    rr = np.sum(dd * dd, axis=-1)
    val_ref, grad_ref = kernel_value_grad_full(k, dd)
    val, factor = k.value_grad_r2(rr)
    assert val.shape == factor.shape == rr.shape
    assert _bits(val) == _bits(val_ref)
    assert _bits(factor[..., None] * dd) == _bits(grad_ref)
    assert _bits(k.value_r2(rr)) == _bits(val_ref)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.5])
def test_annulus_is_kernel_minus_gaussian(eps):
    # within tail_radius, c PhiHat plus the annulus term is Phi_eps in value
    # and gradient; the term is exactly zero on r <= 1/2 and beyond
    # tail_radius
    k = Kernel.make(eps)
    rng = np.random.default_rng(17)
    r = np.r_[0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, 1.0,
              k.tail_radius, np.nextafter(k.tail_radius, 2.0), 2.0 * k.tail_radius,
              rng.uniform(0.0, 1.5, 300)]
    th = rng.uniform(0.0, 2.0 * np.pi, len(r))
    d = r[:, None] * np.column_stack([np.cos(th), np.sin(th)])
    r2 = np.sum(d * d, axis=-1)
    val, factor = k.annulus_r2(r2)
    assert val.shape == factor.shape == r2.shape
    quiet = (r2 <= 0.25) | (r2 > k.tail_radius ** 2)
    assert np.all(val[quiet] == 0.0) and np.all(factor[quiet] == 0.0)
    assert np.all(val <= 0.0)
    ref, ref_grad = kernel_value_grad_full(k, d)
    g = k.c_eps * gaussian(eps, d)
    # the Gaussian's gradient at d is -d/eps^2 times its value
    grad = (factor - g / eps**2)[:, None] * d
    inside = r2 <= k.tail_radius ** 2
    scale = k.c_eps / (2.0 * np.pi * eps * eps)
    assert np.max(np.abs(g + val - ref)[inside]) <= 1e-15 * scale
    assert np.max(np.abs(grad - ref_grad)[inside]) <= 1e-15 * scale / eps


def test_trunc_radius():
    assert Kernel.make(0.05).trunc_radius == pytest.approx(0.3)
    assert Kernel.make(0.5).trunc_radius == 1.0
    assert Kernel.make(0.5).tail_radius == 3.0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.integers(0, 2**32 - 1))
def test_value_grad_matches_full_profile(eps, seed):
    # the profile is evaluated only beyond r = 1/2; values and gradients must
    # equal the evaluation at every radius bit for bit
    rng = np.random.default_rng(seed)
    k = Kernel.make(eps)
    r = np.r_[0.0, 0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 1.0,
              np.nextafter(1.0, 2.0), 1.3, rng.uniform(0.0, 1.5, 200)]
    th = rng.uniform(0.0, 2.0 * np.pi, len(r))
    d = np.concatenate([np.column_stack([r, np.zeros_like(r)]),
                        r[:, None] * np.column_stack([np.cos(th), np.sin(th)]),
                        rng.normal(scale=0.4, size=(100, 2))])
    val, grad = k.value_grad(d)
    val_ref, grad_ref = kernel_value_grad_full(k, d)
    assert np.array_equal(val, val_ref) and np.array_equal(grad, grad_ref)
    assert np.array_equal(k.value(d), val_ref)
    v0, g0 = k.value_grad(d[1])
    assert v0 == val_ref[1] and np.array_equal(g0, grad_ref[1])

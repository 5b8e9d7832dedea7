"""Monitoring functionals over a run trace.

Brakke-inequality residual, a truncated backward-heat (Huisken) functional,
density-ratio scans with exact segment-ball clipping, the Holder-1/2 modulus
of grain areas, and a sphere-barrier check.  Everything here is read-only
over the trace; nothing asserts, callers compare against their slacks.
"""

from dataclasses import dataclass

import numpy as np

from .deformation import length_in_ball
from .network import slab_sweep
from .varifold import build_varifold_view, weighted_first_variation_of_field

OMEGA_1 = 2.0  # volume of the unit 1-ball


def mass_weighted(net, phi, omega=None, max_h=None):
    """|V|(phi) by segment quadrature."""
    V = build_varifold_view(net, omega)
    x, w, _, _, _ = V.quad_nodes(max_h)
    if len(x) == 0:
        return 0.0
    return float(np.sum(w * phi.value(x)))


def _interp_h(net, vids, h, omega=None):
    """Quadrature nodes of net plus h linearly interpolated from vertex values."""
    V = build_varifold_view(net, omega)
    x, w, tau, sidx, tpar = V.quad_nodes()
    inv = np.full(len(net.vertices), -1, dtype=int)
    inv[vids] = np.arange(len(vids))
    h0 = h[inv[V.v0[sidx]]]
    h1 = h[inv[V.v1[sidx]]]
    hn = (1.0 - tpar)[:, None] * h0 + tpar[:, None] * h1
    return x, w, hn


def brakke_residual(trace, phi, t1, t2, omega=None):
    """R = [|V_t2|(phi) - |V_t1|(phi)] - sum_steps dt * d(V,phi)(h).

    Requires the trace to have been produced with keep_steps (per-step
    pre-move networks and vertex h fields).  The velocity pairing uses
    d(V,phi)(h) = int (-phi |h|^2 + h . grad phi) d|V|.
    """
    i1 = trace.frame_index(t1)
    i2 = trace.frame_index(t2)
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    if not trace.step_data:
        raise ValueError("trace has no per-step data (run with keep_steps)")
    m2 = mass_weighted(trace.frames[i2], phi, omega)
    m1 = mass_weighted(trace.frames[i1], phi, omega)
    total = 0.0
    for rep, (net_l, vids, h) in zip(trace.reports, trace.step_data):
        if t1 + 1e-15 < rep.t <= t2 + 1e-15:
            x, w, hn = _interp_h(net_l, vids, h, omega)
            dv = weighted_first_variation_of_field(None, phi, hn, w, x)
            total += _step_dt(trace, rep) * dv
    return float((m2 - m1) - total)


def _step_dt(trace, rep):
    idx = rep.step - 1
    if idx == 0:
        return rep.t
    return rep.t - trace.reports[idx - 1].t


def brakke_slack(trace, t1, t2, eps, quad_tol=1e-6):
    out = 0.0
    for rep in trace.reports:
        if t1 + 1e-15 < rep.t <= t2 + 1e-15:
            out += _step_dt(trace, rep) * (eps ** 0.125 + quad_tol)
    return out


# ---- Huisken-type functional ---------------------------------------------------


def eta_cutoff(r):
    """C^{1,1} radial cutoff: 1 on [0,1], 0 outside [0,2], |eta'|<=2, |eta''|<=4."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    mid = (r > 1.0) & (r <= 1.5)
    hi = (r > 1.5) & (r < 2.0)
    out = np.where(mid, 1.0 - 2.0 * (r - 1.0) ** 2, out)
    out = np.where(hi, 2.0 * (2.0 - r) ** 2, out)
    return np.where(r >= 2.0, 0.0, out)


def huisken_functional(trace, y, s, R, t, omega=None):
    """|V_t|(eta(|x-y|/R) * rho_{(y,s)}(x,t)) with the n=1 backward heat kernel."""
    if not t < s:
        raise ValueError("need t < s")
    net = trace.frames[trace.frame_index(t)]
    V = build_varifold_view(net, omega)
    width = np.sqrt(s - t)
    x, w, _, _, _ = V.quad_nodes(min(V.h_sub, width / 2.0))
    if len(x) == 0:
        return 0.0
    y = np.asarray(y, dtype=float)
    d2 = np.sum(net.domain.delta(y, x) ** 2, axis=-1)
    rho = (4.0 * np.pi * (s - t)) ** -0.5 * np.exp(-d2 / (4.0 * (s - t)))
    return float(np.sum(w * eta_cutoff(np.sqrt(d2) / R) * rho))


def huisken_slack(trace, y, R, t1, t2, c5=20.0):
    """Monotonicity allowance: c5 R^-2 (t2-t1) sup_t R^-1 |V_t|(B_2R(y))."""
    sup = 0.0
    for i, t in enumerate(trace.times):
        if t1 - 1e-15 <= t <= t2 + 1e-15:
            sup = max(sup, length_in_ball(trace.frames[i], y, 2.0 * R) / R)
    return c5 * R ** -2 * (t2 - t1) * sup


# ---- density ratios ------------------------------------------------------------


@dataclass
class DensityTable:
    points: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray  # (N, R): |V|(B_r(x)) / (omega_1 r)
    monotone_ok: np.ndarray  # (N,): exp(s r) r^-1 |V|(B_r) nondecreasing in r


def density_ratio_scan(net, radii, points=None, s=1.0, tol=1e-9):
    radii = np.asarray(radii, dtype=float)
    if points is None:
        used = np.zeros(len(net.vertices), dtype=bool)
        for e in net.edges:
            used[list(e.chain)] = True
        points = net.vertices[used]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ratios = np.empty((len(points), len(radii)))
    for i, x in enumerate(points):
        for k, r in enumerate(radii):
            ratios[i, k] = length_in_ball(net, x, r) / (OMEGA_1 * r)
    mono = np.exp(s * radii)[None, :] * ratios * OMEGA_1  # exp(sr) r^-1 mass
    monotone_ok = np.all(np.diff(mono, axis=1) >= -tol, axis=1)
    return DensityTable(points, radii, ratios, monotone_ok)


# ---- grain-area Holder modulus ---------------------------------------------------


def symmetric_difference_area(net_a, net_b, label, window_center=None,
                              window_radius=None, coarse=0.02, fine_factor=8):
    """Area of the label's region symmetric difference between two frames.

    Two-level grid: coarse cells whose centers sit farther from both carriers
    than the cell diagonal are classified wholesale; cells near either
    boundary are refined fine_factor x fine_factor.  Each frame's slab sweep
    is built once and locates every sample point.
    """
    from scipy.spatial import cKDTree
    dom = net_a.domain
    if dom.periodic:
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    else:
        lo = np.array(dom.bbox[:2], dtype=float)
        hi = np.array(dom.bbox[2:], dtype=float)
    if window_center is not None and window_radius is not None:
        c = np.asarray(window_center, dtype=float)
        lo = np.maximum(lo, c - window_radius)
        hi = np.minimum(hi, c + window_radius)
    nx = max(1, int(np.ceil((hi[0] - lo[0]) / coarse)))
    ny = max(1, int(np.ceil((hi[1] - lo[1]) / coarse)))
    sx = (hi[0] - lo[0]) / nx
    sy = (hi[1] - lo[1]) / ny
    cx = lo[0] + (np.arange(nx) + 0.5) * sx
    cy = lo[1] + (np.arange(ny) + 0.5) * sy
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])

    def carrier_points(net):
        p0, p1, _, _, _ = net.segment_arrays()
        # midpoints suffice at this resolution; segments are <= h_max long
        return np.concatenate([p0, 0.5 * (p0 + p1)]) if len(p0) else np.zeros((0, 2))

    carrier = np.concatenate([carrier_points(net_a), carrier_points(net_b)])
    if dom.periodic:
        tree = cKDTree(np.mod(carrier, 1.0), boxsize=1.0)
        q = np.mod(centers, 1.0)
    else:
        tree = cKDTree(carrier)
        q = centers
    diag = np.hypot(sx, sy)
    dist, _ = tree.query(q, k=1, distance_upper_bound=2.0 * diag)
    far = ~np.isfinite(dist)

    sweep_a, sweep_b = slab_sweep(net_a), slab_sweep(net_b)

    def xor(pts):
        return (sweep_a.labels(pts) == label) != (sweep_b.labels(pts) == label)

    area = 0.0
    cell = sx * sy
    if np.any(far):
        area += cell * float(np.sum(xor(centers[far])))
    near = centers[~far]
    if len(near):
        f = fine_factor
        ox = (np.arange(f) + 0.5) / f - 0.5
        sub = np.stack(np.meshgrid(ox * sx, ox * sy, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        pts = (near[:, None, :] + sub[None, :, :]).reshape(-1, 2)
        area += (cell / (f * f)) * float(np.sum(xor(pts)))
    return area


@dataclass
class AreaModulus:
    modulus: float
    pairs: list  # (t, s, g(t,s)) samples


def area_modulus(trace, label, window_radius=None, window_center=None,
                 t_min=0.0, t_max=np.inf, max_frames=10):
    """sup over frame pairs of g(t,s)/sqrt(|t-s|), g = symmetric-difference area."""
    idx = [i for i, t in enumerate(trace.times)
           if t_min - 1e-15 <= t <= t_max + 1e-15]
    if len(idx) > max_frames:
        pick = np.linspace(0, len(idx) - 1, max_frames).astype(int)
        idx = [idx[p] for p in np.unique(pick)]
    best = 0.0
    pairs = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            i, k = idx[a], idx[b]
            t, s = trace.times[i], trace.times[k]
            if s - t < 1e-12:
                continue
            g = symmetric_difference_area(trace.frames[i], trace.frames[k],
                                          label, window_center, window_radius)
            pairs.append((t, s, g))
            best = max(best, g / np.sqrt(s - t))
    return AreaModulus(best, pairs)


# ---- sphere barrier --------------------------------------------------------------


def sphere_barrier_check(trace, x, r, t, tol=1e-9, n=1):
    """Empty ball stays empty at the shrinking-sphere rate: pass/fail."""
    i0 = trace.frame_index(t)
    if length_in_ball(trace.frames[i0], x, r) > tol:
        raise ValueError("ball not empty at t (precondition)")
    t_end = t + r * r / (2.0 * n)
    for i, tp in enumerate(trace.times):
        if t - 1e-15 <= tp <= t_end + 1e-15:
            rr = r * r - 2.0 * n * (tp - t)
            if rr <= 0.0:
                continue
            if length_in_ball(trace.frames[i], x, np.sqrt(rr)) > tol:
                return False
    return True

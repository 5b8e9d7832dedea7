"""Monitoring functionals over a run trace.

Brakke-inequality residual, a truncated backward-heat (Huisken) functional,
density-ratio scans with exact segment-ball clipping, the Holder-1/2 modulus
of grain areas from exact symmetric-difference areas (an overlay of two
frames' slab sweeps), and a sphere-barrier check.  Everything here is
read-only over the trace; nothing asserts, callers compare against their
slacks.
"""

from dataclasses import dataclass

import numpy as np

from .deformation import length_in_ball
from .network import slab_sweep
from .varifold import build_varifold_view, weighted_first_variation_of_field

OMEGA_1 = 2.0  # volume of the unit 1-ball


def mass_weighted(net, phi, omega=None):
    """|V|(phi) by segment quadrature."""
    V = build_varifold_view(net, omega)
    x, w, _, _, _ = V.quad_nodes()
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
            dv = weighted_first_variation_of_field(phi, hn, w, x)
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
        points = net.vertices[net.used_vertices()]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ratios = np.empty((len(points), len(radii)))
    for i, x in enumerate(points):
        for k, r in enumerate(radii):
            ratios[i, k] = length_in_ball(net, x, r) / (OMEGA_1 * r)
    mono = np.exp(s * radii)[None, :] * ratios * OMEGA_1  # exp(sr) r^-1 mass
    monotone_ok = np.all(np.diff(mono, axis=1) >= -tol, axis=1)
    return DensityTable(points, radii, ratios, monotone_ok)


# ---- grain-area Holder modulus ---------------------------------------------------


def _frame_slabs(sweep, xs):
    """The sweep's slab holding each slab [xs[k], xs[k+1]] of a finer cut."""
    xm = 0.5 * (xs[:-1] + xs[1:])
    return np.clip(np.searchsorted(sweep.xs, xm, side="right") - 1,
                   0, len(sweep.xs) - 2)


def symmetric_difference_area(net_a, net_b, label):
    """Area of the label's region symmetric difference between two frames.

    Exact overlay of the two frames' slab sweeps.  The slab edges are both
    sweeps' x breakpoints plus the x of every proper crossing of a segment of
    one frame with a segment of the other, found per slab from a sign change
    of their height difference between the slab's edges (wrapped on the
    torus).  Inside a slab no two segments cross, so the gaps between both
    frames' crossings, sorted by height at the slab midpoint, are trapezoids
    of constant label in each frame: cyclic in y on the torus, closed by the
    bounding box in the plane.  A gap counts when exactly one frame labels
    its midpoint `label`.
    """
    dom = net_a.domain
    sweeps = (slab_sweep(net_a), slab_sweep(net_b))
    xs = np.union1d(sweeps[0].xs, sweeps[1].xs)
    # each frame's crossing count and heights at both edges of every slab
    edges = []
    for sw in sweeps:
        k = _frame_slabs(sw, xs)
        _, valid, left = sw.crossings(k, xs[:-1])
        edges.append((valid.sum(axis=1), left, sw.crossings(k, xs[1:])[2]))
    (na, la, ra), (nb, lb, rb) = edges
    # every (a, b) crossing pair of each slab
    c = na * nb
    slab = np.repeat(np.arange(len(c)), c)
    q = np.arange(len(slab)) - np.repeat(np.cumsum(c) - c, c)
    i, j = q // nb[slab], q % nb[slab]
    dl = la[slab, i] - lb[slab, j]
    dr = ra[slab, i] - rb[slab, j]
    if dom.periodic:
        # the frames cross where the height difference passes an integer;
        # each segment spans at most half a period in y, so it passes at
        # most one across a slab, the floor of the larger end
        off = np.floor(np.maximum(dl, dr))
        dl, dr = dl - off, dr - off
    cut = dl * dr < 0.0
    x0, x1 = xs[slab[cut]], xs[slab[cut] + 1]
    xs = np.union1d(xs, x0 + (x1 - x0) * (dl[cut] / (dl[cut] - dr[cut])))

    xm = 0.5 * (xs[:-1] + xs[1:])
    ys, n = [], 0
    for sw in sweeps:
        _, valid, y = sw.crossings(_frame_slabs(sw, xs), xm)
        if dom.periodic:
            y = np.mod(y, 1.0)
        ys.append(np.where(valid, y, np.inf))
        n = n + valid.sum(axis=1)
    ys.append(np.full((len(xm), 1), np.inf))
    y = np.sort(np.concatenate(ys, axis=1), axis=1)
    rows = np.arange(len(xm))
    if dom.periodic:
        # gap c runs from crossing c up to the next, the last one wrapping
        # round to the first; an uncovered slab is one gap of height 1
        y[n == 0, 0] = 0.0
        n = np.maximum(n, 1)
        lo, hi = y, np.roll(y, -1, axis=1)
        hi[rows, n - 1] = y[:, 0] + 1.0
        live = np.arange(y.shape[1]) < n[:, None]
    else:
        _, y_lo, _, y_hi = dom.bbox
        lo = np.concatenate([np.full((len(xm), 1), y_lo), y[:, :-1]], axis=1)
        hi = y.copy()
        hi[rows, n] = y_hi
        live = np.arange(y.shape[1]) <= n[:, None]
    k, col = np.nonzero(live)
    lo, hi = lo[k, col], hi[k, col]
    mid = np.column_stack([xm[k], 0.5 * (lo + hi)])
    xor = (sweeps[0].labels(mid) == label) != (sweeps[1].labels(mid) == label)
    return float(np.sum(np.diff(xs)[k] * (hi - lo) * xor))


@dataclass
class AreaModulus:
    modulus: float
    pairs: list  # (t, s, g(t,s)) samples


def area_modulus(trace, label, t_min=0.0, t_max=np.inf, max_frames=10):
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
                                          label)
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

"""First variation, kernel convolutions, and the smoothed mean curvature.

The boundary varifold of a network is the unit-density 1-varifold carried by
its segments.  For a C^1 vector field g the first variation is

    dV(g) = int S . grad g dV,   S . grad g = tau^T (Jg) tau

computed by per-segment Gauss-Legendre quadrature (order 4, subintervals
capped by the mesh h_max, or by eps for kernel integrands so the Gaussian
scale is resolved; GL-4 at subinterval eps resolves it to ~1e-9 relative).

Convolutions of the weight measure and of the first variation,

    (Phi_eps * |V|)(y)  = int Phi_eps(x - y) d|V|(x)
    (Phi_eps * dV)(y)   = int S(grad Phi_eps(x - y)) dV(x, S)

feed the smoothed mean curvature

    h_tilde(y) = -(Phi_eps * dV)(y) / ((Phi_eps * |V|)(y) + eps / Omega(y))
    h_eps      = Phi_eps * h_tilde

The two convolutions, and so h_tilde, are evaluated only at the cells of
one lattice, and the outer convolution is a Riemann sum over those cells.
`_separable` picks the one kernel that fills and reads the cells: products
of 1D Gaussian rows, one window per tile by matrix products, where the
cutoff profile is 1 on the window; otherwise direct sums of the kernel
truncated at min(1, 6 eps) over each point's window of the (2k + 1)^2 cells
around the cell holding it.  Beyond 6 eps the Gaussian factor is below
e^-18, which bounds how far the two kernels differ.

`_spacing` picks the lattice: spacing eps/2 in the plane, 1/m with
m = ceil(2/eps) on the torus (cell indices mod m), where the kernel is
separable on it; otherwise eps/4, or m = ceil(4/eps).  The separable sums
converge spectrally in the spacing: at eps/2, h_eps is within 4e-6 of
max|h| and the energy within 3e-7 (relative) of an eps/8 lattice on the
scenes of `scripts/lattice_error.py` and the tests.  The direct sums keep
eps/4: where the cutoff profile reaches into the window they converge only
algebraically (a torus circle at eps 0.2 is 1e-3 from its eps/8 limit).
The cells sit at global indices in S x S tiles, S the smallest power of
two >= k and at least 16, k = ceil(trunc_radius / spacing); a tile is
stored when the window [t S - k, t S + S + k) of a tile t holding
quadrature nodes touches it, so memory scales with the carrier length and
h at a point depends only on the carrier near it.  The L^2 curvature proxy
is

    energy = int |Phi_eps * dV|^2 Omega / (Phi_eps * |V| + eps/Omega) dy.

The direct sums run over chunks of at most 8,192 window cells (64 KiB per
float temporary).  Larger temporaries crossed glibc's 128 KiB threshold, so
each free handed their pages back to the OS and the next chunk faulted them
in again: 65,536-cell chunks took about 1,900 minor faults per two-line
torus step at eps 0.2.  The kernel and the chunk arithmetic work in place,
so a chunk frees four such temporaries (r^2, the value, the gradient
factor, one product) where it freed about ten; freed together at the top
of the heap they can still add up past the threshold, about 100-130 faults
per two-line torus step (170-590 with ten), by heap layout.
"""

from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .kernels import Kernel
from .weights import WeightFunction

_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)

# bound for |h_tilde| and |h_eps| (rough pointwise estimate)
def curvature_sup_bound(eps):
    return 2.0 / (eps * eps)


@dataclass
class VarifoldView:
    domain: Domain
    p0: np.ndarray  # (S,2) segment starts
    p1: np.ndarray  # (S,2) segment ends, unwrapped next to p0
    tangent: np.ndarray  # (S,2) unit
    length: np.ndarray  # (S,)
    omega: WeightFunction
    h_sub: float = 0.05  # default quadrature subinterval cap
    v0: np.ndarray = None  # (S,) vertex index of p0, if built from a network
    v1: np.ndarray = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def total_mass(self):
        return float(np.sum(self.length))

    def quad_nodes(self, max_h=None):
        """Quadrature nodes: (points, weights, tangents, seg_index, t_param).

        Each segment of length L > 0 gets Gauss-Legendre nodes on
        max(1, ceil(L / max_h)) equal subintervals; zero-length segments get
        none.
        """
        if max_h is None:
            max_h = self.h_sub
        key = ("nodes", float(max_h))
        if key in self._cache:
            return self._cache[key]
        seg = np.nonzero(self.length > 0.0)[0]
        k = np.maximum(1, np.ceil(self.length[seg] / max_h).astype(np.int64))
        sub = np.repeat(seg, k)  # segment of each subinterval
        q = np.arange(len(sub)) - np.repeat(np.cumsum(k) - k, k)
        a = q / np.repeat(k, k)
        b = (q + 1) / np.repeat(k, k)
        t = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _GL_X
        w = (0.5 * (b - a))[:, None] * _GL_W * self.length[sub][:, None]
        sidx = np.repeat(sub, len(_GL_X))
        t = t.ravel()
        pts = self.p0[sidx] + t[:, None] * (self.p1 - self.p0)[sidx]
        out = (pts, w.ravel(), self.tangent[sidx], sidx, t)
        self._cache[key] = out
        return out


def build_varifold_view(net, omega=None):
    """Unit-density varifold carried by the network's segments."""
    from .weights import const_weight
    p0, p1, _, _, _ = net.segment_arrays()
    d = p1 - p0
    length = np.linalg.norm(d, axis=1)
    keep = length > 0.0
    p0, p1, d, length = p0[keep], p1[keep], d[keep], length[keep]
    tangent = d / length[:, None]
    every, first, last = net.chain_entries()
    v0 = np.delete(every, last)[keep]
    v1 = np.delete(every, first)[keep]
    return VarifoldView(net.domain, p0, p1, tangent, length,
                        omega if omega is not None else const_weight(),
                        h_sub=net.scale.h_max, v0=v0, v1=v1)


def omega_mass(V: VarifoldView):
    """Omega-weighted total mass |V|(Omega) by segment quadrature."""
    if V.omega.variant == "const":
        return V.total_mass
    x, w, _, _, _ = V.quad_nodes()
    return float(np.sum(w * V.omega.value(x)))


def first_variation(V: VarifoldView, g, max_h=None):
    """dV(g) = int tau^T (grad g) tau along the carrier."""
    x, w, tau, _, _ = V.quad_nodes(max_h)
    if len(x) == 0:
        return 0.0
    J = g.jacobian(x)  # (Q,2,2), J[i,k] = d_i g_k
    return float(np.sum(w * np.einsum("qi,qik,qk->q", tau, J, tau)))


def weighted_first_variation(V: VarifoldView, phi, g, max_h=None):
    """d(V, phi)(g) = int phi tau^T grad g tau dV + int g . grad phi d|V|."""
    x, w, tau, _, _ = V.quad_nodes(max_h)
    if len(x) == 0:
        return 0.0
    J = g.jacobian(x)
    term1 = np.sum(w * phi.value(x) * np.einsum("qi,qik,qk->q", tau, J, tau))
    term2 = np.sum(w * np.einsum("qk,qk->q", g.value(x), phi.grad(x)))
    return float(term1 + term2)


def weighted_first_variation_of_field(phi, h_at_nodes, nodes_w, nodes_x):
    """d(V, phi)(h) = int (-phi |h|^2 + h . grad phi) d|V| for a sampled field h."""
    h2 = np.sum(h_at_nodes * h_at_nodes, axis=-1)
    val = -phi.value(nodes_x) * h2 + np.einsum(
        "qk,qk->q", h_at_nodes, phi.grad(nodes_x))
    return float(np.sum(nodes_w * val))


# ---- kernel-weighted accumulation --------------------------------------------

# window cells per chunk of the direct lattice sums: every float temporary
# stays near 64 KiB, under glibc's 128 KiB mmap and trim threshold, so a freed
# temporary is not by itself handed back to the OS and faulted in again (the
# module docstring gives the fault counts)
_WINDOW_CHUNK = 1 << 13


def _kernel_cap(V, eps):
    # GL-4 on subintervals of size eps resolves the Gaussian scale to better
    # than 1e-9 relative; no need to go finer than the mesh already is
    return min(V.h_sub, eps)


# ---- smoothing lattice --------------------------------------------------------


def _separable(kernel, sp):
    """Whether Phi_eps factors into 1D Gaussian rows on a lattice of spacing sp.

    It does where the cutoff profile is 1: on the square of half-width
    trunc_radius + 2 sp around a point when sqrt(2) (trunc_radius + 2 sp) <= 1/2.
    """
    return np.sqrt(2.0) * (kernel.trunc_radius + 2.0 * sp) <= 0.5


def _spacing(kernel, domain):
    """(sp, m): the lattice spacing, and the period in cells (0 in the plane).

    eps/2 (m = ceil(2/eps) on the torus) where the kernel is separable on
    it, else eps/4 (m = ceil(4/eps)), where `_separable` still decides the
    kernel.  The module docstring states the error budget.
    """
    for cells_per_eps in (2.0, 4.0):
        m = int(np.ceil(cells_per_eps / kernel.eps)) if domain.periodic else 0
        sp = 1.0 / m if m else kernel.eps / cells_per_eps
        if _separable(kernel, sp):
            break
    return sp, m


def _tile_key(tx, ty):
    return tx * np.int64(1 << 32) + ty


@dataclass
class Lattice:
    """Cells of spacing sp at global indices, stored in S x S tiles.

    The tile edge S is the smallest power of two >= k, and at least 16: for
    k >= 8 the (S + 2k)^2 cells of a node tile's window then stay within 4
    times the kernel's (2k)^2 footprint, and the tiles stay large enough
    that the per-tile loop costs little beside its matrix products.  On the
    torus the cell index is taken mod m; when S does not divide m the last
    tile on each axis is partial and its phantom cells stay zero.
    """
    sp: float
    k: int  # window radius in cells
    m: int  # period in cells on the torus, 0 in the plane
    keys: np.ndarray = None  # (T,) sorted keys of the stored tiles
    S: int = field(init=False)  # tile edge in cells

    def __post_init__(self):
        self.S = max(16, 1 << (self.k - 1).bit_length())

    def axis(self, t):
        """Window cells [t S - k, t S + S + k) along one axis, for tiles t (G,).

        Returns the unwrapped cell centres (G,W), the cell indices (mod m on
        the torus, (G,W)) and the tiles the window crosses in order (G,A,
        padded by repeating its first).
        """
        S = self.S
        u = t[:, None] * S - self.k + np.arange(S + 2 * self.k)
        centre = (u + 0.5) * self.sp
        if self.m:
            u = np.mod(u, self.m)
        tile = u // S
        run = np.cumsum(np.diff(tile, axis=1, prepend=tile[:, :1]) != 0, axis=1)
        hit = run[:, :, None] == np.arange(run.max(initial=0) + 1)
        return centre, u, np.take_along_axis(tile, hit.argmax(axis=1), axis=1)

    def tiles(self):
        """(tx, ty) of the stored tiles; inverts _tile_key."""
        tx = (self.keys + (1 << 31)) >> 32
        return tx, self.keys - (tx << 32)

    def cells(self):
        """Store index and centre of the real cells of the stored tiles.

        The index is a slice over the whole store unless phantom cells exist.
        """
        tx, ty = self.tiles()
        S = self.S
        o = np.arange(S)
        cx = tx[:, None, None] * S + o[:, None]
        cy = ty[:, None, None] * S + o
        pts = np.empty((len(tx), S, S, 2))
        pts[..., 0] = (cx + 0.5) * self.sp
        pts[..., 1] = (cy + 0.5) * self.sp
        pts = pts.reshape(-1, 2)
        if self.m % S == 0:
            return slice(0, len(pts)), pts
        flat = np.flatnonzero((cx < self.m) & (cy < self.m))
        return flat, pts[flat]


class _Groups:
    """Points grouped by the tile holding them, with each tile's window."""

    def __init__(self, lat, pts):
        t = np.floor(pts / lat.sp).astype(np.int64) // lat.S
        key = _tile_key(t[:, 0], t[:, 1])
        self.order = np.argsort(key, kind="stable")
        ks = key[self.order]
        self.starts = np.flatnonzero(np.diff(ks, prepend=ks[:1] - 1))
        tiles = t[self.order[self.starts]]
        self.x = lat.axis(tiles[:, 0])
        self.y = lat.axis(tiles[:, 1])
        # keys of every tile the windows touch: (G, Ax, Ay)
        self.keys = _tile_key(self.x[2][:, :, None], self.y[2][:, None, :])

    def __iter__(self):
        ends = np.append(self.starts[1:], len(self.order))
        for g, (a, b) in enumerate(zip(self.starts, ends)):
            yield g, self.order[a:b]

    def rows(self, g, pts, eps):
        """Gaussian rows of window g at points (n,2): (gx, gxd, gy, gyd)."""
        return (*_gauss_axis(eps, self.x[0][g] - pts[:, 0:1]),
                *_gauss_axis(eps, self.y[0][g] - pts[:, 1:2]))


def _store_indexer(lat):
    """Function of cell indices ux (..., Wx) and uy (..., Wy) that gives
    their flat store index (..., Wx, Wy); the zero tile where a tile is not
    stored.

    Tile slots come from a dense table over the stored tiles' bounding box
    and a one-tile border of zero tiles, so each cell costs one take, not
    a search over the tile keys.
    """
    S = lat.S
    tx, ty = lat.tiles()
    x0, y0 = (tx.min() - 1, ty.min() - 1) if len(tx) else (0, 0)
    X, Y = tx.max(initial=x0) - x0 + 2, ty.max(initial=y0) - y0 + 2
    table = np.full((X, Y), len(lat.keys))
    table[tx - x0, ty - y0] = np.arange(len(lat.keys))
    table = table.ravel() * (S * S)

    def index(ux, uy):
        bx = np.clip(ux // S - x0, 0, X - 1) * Y
        by = np.clip(uy // S - y0, 0, Y - 1)
        base = table.take(bx[..., :, None] + by[..., None, :])
        return base + (ux % S * S)[..., :, None] + (uy % S)[..., None, :]
    return index


def _windows(lat, pts, r):
    """Each point's window of lattice cells, in chunks, for the direct sums.

    The window is the cell holding the point and k cells either side of it
    on each axis (mod m on the torus), so it holds every cell within
    r <= k sp.  When 2k + 1 > m it is the whole period instead, every cell
    once, ascending: all points share it, so its store index and cell
    centres are built once.  Yields, per chunk of at most _WINDOW_CHUNK
    window cells: the chunk's slice of the points; the store index of each
    window cell (n, Wx, Wy), or (Wx, Wy) for the shared window (the zero
    tile where its tile is not stored); the per-axis displacements
    cell - point (n, Wx) and (n, Wy), minimum image on the torus; their r^2
    (n, Wx, Wy); and the mask of cells within r, or None where every cell
    is: on the shared window when r^2 >= 1/2, since minimum-image
    displacements are at most 1/2 per axis.  Chunks and points are
    node-major, so a scatter keeps each cell's sum in point order.
    """
    k, m = lat.k, lat.m
    store_index = _store_indexer(lat)
    shared = m and 2 * k + 1 > m
    if shared:
        u = np.arange(m)
        idx = store_index(u, u)
        centre = (u + 0.5) * lat.sp
    every = shared and r * r >= 0.5
    side = m if shared else 2 * k + 1
    step = max(1, _WINDOW_CHUNK // (side * side))
    for lo in range(0, len(pts), step):
        p = pts[lo:lo + step]
        if not shared:
            c = np.floor((np.mod(p, 1.0) if m else p) / lat.sp).astype(np.int64)
            u = c[:, :, None] + np.arange(-k, k + 1)  # (n, 2, W)
            if m:
                u = np.mod(u, m)
            idx = store_index(u[:, 0], u[:, 1])
            centre = (u + 0.5) * lat.sp
        d = centre - p[:, :, None]
        if m:
            d = d - np.round(d)
        dx, dy = d[:, 0], d[:, 1]
        r2 = (dx * dx)[:, :, None] + (dy * dy)[:, None, :]
        yield slice(lo, lo + step), idx, dx, dy, r2, None if every else r2 <= r * r


def _accumulate_windows(lat, kernel, x, w, tau):
    """Phi*|V| and Phi*dV on the stored tiles by direct sums over node windows.

    Every node adds its kernel value and projected gradient into the cells of
    its window within trunc_radius, in the (3, tiles * S^2) store (rows:
    mass, fv_x, fv_y); the stored tiles hold every node window.  Per-node
    windows go in by np.add.at; the shared whole-period window writes each
    chunk's terms behind its running sums, sums them by an axis-0 reduce
    and is written into the store once.  Both add row after row, so each
    cell sums its nodes in ascending order across chunks.  The chunk
    arithmetic reuses the kernel's arrays in place, in the order
    (tx (f -dx) + ty (f -dy)) w, then times tx and ty.
    """
    store = np.zeros((3, len(lat.keys) * lat.S * lat.S))
    # the shared window's running sums (row 0) and one chunk's terms behind
    # them, (3, 1 + points, Wx, Wy)
    acc = None
    for sel, idx, dx, dy, r2, ok in _windows(lat, x, kernel.trunc_radius):
        val, f = kernel.value_grad_r2(r2)
        if ok is not None:
            np.copyto(val, 0.0, where=~ok)
            np.copyto(f, 0.0, where=~ok)
        # the kernel gradient at node - cell is f * (node - cell)
        tx, ty = tau[sel, 0, None, None], tau[sel, 1, None, None]
        wq = w[sel, None, None]
        fy = f * -dy[:, None, :]
        fy *= ty
        f *= -dx[:, :, None]
        f *= tx
        f += fy  # the projected gradient
        f *= wq
        if idx.ndim == 2:
            n = len(val) + 1
            if acc is None:  # the first chunk is the largest
                acc = np.zeros((3, n) + idx.shape)
            np.multiply(val, wq, out=acc[0, 1:n])
            np.multiply(f, tx, out=acc[1, 1:n])
            np.multiply(f, ty, out=acc[2, 1:n])
            for a in acc:
                a[0] = np.add.reduce(a[:n], axis=0)
        else:
            val *= wq
            parts = (val, np.multiply(f, tx, out=fy), np.multiply(f, ty, out=f))
            flat = idx.ravel()
            for row, v in zip(store, parts):
                np.add.at(row, flat, v.ravel())
    if acc is not None:
        store[:, idx.ravel()] = acc[:, 0].reshape(3, -1)
    return store


@dataclass
class SmoothingGrid:
    points: np.ndarray  # (G,2) real lattice cells of the stored tiles
    cell: float  # cell area
    mass: np.ndarray  # Phi*|V| at grid points
    fv: np.ndarray  # Phi*dV at grid points
    denom: np.ndarray  # Phi*|V| + eps/Omega at grid points
    h_tilde: np.ndarray  # (G,2)
    lattice: Lattice
    flat: object  # store index of the points (array or slice)
    separable: bool  # which kernel filled the lattice


def _gauss_axis(eps, dx):
    """Separable Gaussian rows and the rows for the (node - grid) gradient."""
    e2 = eps * eps
    g = np.exp(dx * dx / (-2.0 * e2))
    return g, (dx / e2) * g


def _accumulate_blocks(lat, grp, xq, w, tau, eps, cconst):
    """Phi*|V| and Phi*dV on the stored tiles by separable Gaussian windows.

    Each tile's nodes fill its window with two matrix products, added into
    the (3, tiles * S^2) store (rows: mass, fv_x, fv_y) by one np.add.at.
    """
    n = len(lat.keys) * lat.S * lat.S
    store = np.zeros(3 * n)
    idx = _store_indexer(lat)(grp.x[1], grp.y[1])  # (G, W, W)
    W = lat.S + 2 * lat.k
    rows = n * np.arange(3)[:, None]
    for g, sel in grp:
        gx, gxd, gy, gyd = grp.rows(g, xq[sel], eps)
        wq = (w[sel] * cconst)[:, None]
        tx, ty = tau[sel, 0:1], tau[sel, 1:2]
        # rows of mass, fv_x, fv_y against gy, and of fv_x, fv_y against gyd
        a = np.concatenate([wq * gx, wq * tx * tx * gxd, wq * tx * ty * gxd],
                           axis=1).T @ gy
        b = np.concatenate([wq * tx * ty * gx, wq * ty * ty * gx], axis=1).T @ gyd
        a[W:] += b
        # one flat index array keeps np.add.at on its fast path
        np.add.at(store, (idx[g].ravel() + rows).ravel(), a.ravel())
    return store.reshape(3, n)


def smoothing_grid(V: VarifoldView, kernel: Kernel, omega: WeightFunction):
    """h_tilde on the cells of the stored lattice tiles (cached on the view).

    `_spacing` picks the spacing (eps/2 where the kernel is separable on
    it, else eps/4) and `Lattice` its tile edge.  A tile is stored when the window of a tile holding quadrature
    nodes touches it, so memory scales with the carrier length.
    `_separable` decides which kernel fills the cells: separable Gaussian
    windows scattered per node tile, or the direct truncated-kernel sums
    over each node's window of cells within trunc_radius.
    """
    key = ("grid", kernel.eps, omega.variant)
    if key in V._cache:
        return V._cache[key]
    eps = kernel.eps
    x, w, tau, _, _ = V.quad_nodes(_kernel_cap(V, eps))
    sp, m = _spacing(kernel, V.domain)
    lat = Lattice(sp, int(np.ceil(kernel.trunc_radius / sp)), m)
    xq = np.mod(x, 1.0) if m else x
    grp = _Groups(lat, xq)
    lat.keys = np.unique(grp.keys)
    flat, points = lat.cells()
    separable = bool(_separable(kernel, sp))
    if separable:
        cconst = kernel.c_eps / (2.0 * np.pi * eps * eps)
        store = _accumulate_blocks(lat, grp, xq, w, tau, eps, cconst)
    else:
        store = _accumulate_windows(lat, kernel, x, w, tau)
    mass, fv = store[0, flat], store[1:, flat].T
    denom = mass + eps * omega.inv_value(points)
    out = SmoothingGrid(points, sp * sp, mass, fv, denom, -fv / denom[:, None],
                        lat, flat, separable)
    V._cache[key] = out
    return out


def _gather_blocks(sg, kernel, points, want_jacobian):
    """Separable Phi_eps * h_tilde at points, and its Jacobian, per tile.

    The points of one tile read that tile's window of h_tilde (tiles not
    stored read zero): a matrix product with the x rows, then a row dot with
    the y rows.  J[:, a, b] = d h_b / d x_a.
    """
    lat = sg.lattice
    eps = kernel.eps
    q = np.mod(points, 1.0) if lat.m else points
    grp = _Groups(lat, q)
    idx = _store_indexer(lat)(grp.x[1], grp.y[1])  # (G, W, W)
    H = np.zeros(((len(lat.keys) + 1) * lat.S * lat.S, 2))
    H[sg.flat] = sg.h_tilde
    W = lat.S + 2 * lat.k
    scale = kernel.c_eps / (2.0 * np.pi * eps * eps) * sg.cell
    h = np.zeros((len(q), 2))
    J = np.zeros((len(q), 2, 2)) if want_jacobian else None
    for g, sel in grp:
        gx, gxd, gy, gyd = grp.rows(g, q[sel], eps)
        block = H[idx[g]].reshape(W, 2 * W)
        rows = (gx @ block).reshape(-1, W, 2)
        h[sel] = np.einsum("njc,nj->nc", rows, gy) * scale
        if want_jacobian:
            drows = (gxd @ block).reshape(-1, W, 2)
            J[sel, 0] = np.einsum("njc,nj->nc", drows, gy) * scale
            J[sel, 1] = np.einsum("njc,nj->nc", rows, gyd) * scale
    return h, J


def _gather_windows(sg, kernel, points, want_jacobian):
    """Direct Phi_eps * h_tilde at points over their windows of lattice cells.

    Each point sums the truncated kernel against h_tilde at the cells of its
    window within trunc_radius (tiles not stored read zero).  Returns (h, J),
    J = None unless requested; J[:, a, b] = d h_b / d x_a.
    """
    lat = sg.lattice
    H = np.zeros((2, (len(lat.keys) + 1) * lat.S * lat.S))
    H[:, sg.flat] = sg.h_tilde.T
    h = np.zeros((len(points), 2))
    J = np.zeros((len(points), 2, 2)) if want_jacobian else None
    ti = hb = None
    for sel, idx, dx, dy, r2, ok in _windows(lat, points, kernel.trunc_radius):
        if ti is None:  # the first chunk is the largest
            ti = np.repeat(np.arange(len(r2)), r2[0].size)
        t = ti[:r2.size]
        if hb is None or idx.ndim == 3:  # the shared window reads H once
            hb = (H[0][idx], H[1][idx])
        if want_jacobian:
            val, f = kernel.value_grad_r2(r2)
        else:
            val = kernel.value_r2(r2)
        if ok is not None:
            np.copyto(val, 0.0, where=~ok)
        if want_jacobian:
            if ok is not None:
                np.copyto(f, 0.0, where=~ok)
            # d/dx Phi(g - x) = -(grad Phi)(g - x)
            grad = (f * -dx[:, :, None], f * -dy[:, None, :])
        for b in range(2):
            v = np.multiply(val, hb[b])
            v *= sg.cell
            h[sel, b] = np.bincount(t, weights=v.ravel(), minlength=len(r2))
            if want_jacobian:
                for a in range(2):
                    v = np.multiply(grad[a], hb[b], out=v)
                    v *= sg.cell
                    J[sel, a, b] = np.bincount(t, weights=v.ravel(),
                                               minlength=len(r2))
    return h, J


def h_eps_at(V, kernel, omega, points, want_jacobian=False):
    """h_eps = Phi_eps * h_tilde at the given points (optionally its Jacobian)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sg = smoothing_grid(V, kernel, omega)
    if len(sg.points) == 0 or len(points) == 0:
        h, J = np.zeros((len(points), 2)), np.zeros((len(points), 2, 2))
    elif sg.separable:
        h, J = _gather_blocks(sg, kernel, points, want_jacobian)
    else:
        h, J = _gather_windows(sg, kernel, points, want_jacobian)
    return (h, J) if want_jacobian else h


def l2_energy(V: VarifoldView, kernel: Kernel, omega: WeightFunction, phi=None):
    """int phi |Phi*dV|^2 / (Phi*|V| + eps/Omega) dy (phi defaults to Omega)."""
    sg = smoothing_grid(V, kernel, omega)
    if len(sg.points) == 0:
        return 0.0
    weight = omega.value(sg.points) if phi is None else phi.value(sg.points)
    fv2 = np.sum(sg.fv * sg.fv, axis=1)
    return float(np.sum(weight * fv2 / sg.denom) * sg.cell)


def curvature_and_energy(V: VarifoldView, kernel: Kernel, omega: WeightFunction,
                         points):
    """(h_eps at points, L^2 energy), both from the view's cached lattice.

    The kernel the lattice uses, separable or direct, is decided once in
    `_separable`; every scene, eps and domain takes this one path.
    """
    h = h_eps_at(V, kernel, omega, points)
    return h, l2_energy(V, kernel, omega)


@dataclass
class CurvatureField:
    """h_eps at the given points, and h_tilde on the cells of the lattice
    that h_eps = Phi_eps * h_tilde sums over (`SmoothingGrid.points`).

    sup |h_tilde| over those cells bounds sup |h_eps| everywhere, since the
    lattice sum of Phi_eps is 1 up to quadrature error."""
    points: np.ndarray
    h_tilde: np.ndarray
    h_eps: np.ndarray
    energy: float
    eps: float

    @property
    def sup_bound(self):
        return curvature_sup_bound(self.eps)

    def bound_violations(self):
        out = []
        b = self.sup_bound
        if len(self.h_tilde) and np.max(np.linalg.norm(self.h_tilde, axis=1)) > b:
            out.append("h_tilde exceeds 2/eps^2")
        if len(self.h_eps) and np.max(np.linalg.norm(self.h_eps, axis=1)) > b:
            out.append("h_eps exceeds 2/eps^2")
        return out


def smoothed_mean_curvature(V: VarifoldView, kernel: Kernel,
                            omega: WeightFunction, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    h, energy = curvature_and_energy(V, kernel, omega, points)
    return CurvatureField(points, smoothing_grid(V, kernel, omega).h_tilde, h,
                          energy, kernel.eps)


# ---- motion-law consistency terms ----------------------------------------------


@dataclass
class MotionLawTerms:
    """Constituents of the smoothed-motion-law inequalities.

    Tests recombine these (including with deliberately flipped signs for
    mutation checks) rather than this module asserting anything.
    """
    pairing_measure: float  # int h_eps . g d|V|
    pairing_space: float  # int (Phi*dV) . g dy
    first_variation_g: float  # dV(g)
    smoothed_fv_weighted: float  # dV(phi h_eps)
    weighted_energy: float  # int phi |Phi*dV|^2/(den) dy
    curvature_sq_weighted: float  # int |h_eps|^2 phi d|V|
    energy: float  # weighted_energy with phi = Omega


def motion_law_terms(V, kernel, omega, g=None, phi=None):
    x, w, tau, _, _ = V.quad_nodes(_kernel_cap(V, kernel.eps))
    sg = smoothing_grid(V, kernel, omega)
    h_nodes, J_nodes = h_eps_at(V, kernel, omega, x, want_jacobian=True)
    energy = l2_energy(V, kernel, omega)

    pairing_measure = pairing_space = fvg = 0.0
    if g is not None:
        gx = g.value(x)
        pairing_measure = float(np.sum(w * np.einsum("qk,qk->q", h_nodes, gx)))
        g_grid = g.value(sg.points)
        pairing_space = float(np.sum(np.einsum("qk,qk->q", sg.fv, g_grid)) * sg.cell)
        fvg = first_variation(V, g, max_h=_kernel_cap(V, kernel.eps))

    smoothed_fv_weighted = weighted_energy = curvature_sq_weighted = 0.0
    if phi is not None:
        phix = phi.value(x)
        gphix = phi.grad(x)
        # dV(phi h) = int phi tau^T J_h tau + (tau . grad phi)(tau . h)
        core = phix * np.einsum("qi,qik,qk->q", tau, J_nodes, tau)
        core = core + np.einsum("qk,qk->q", tau, gphix) * np.einsum(
            "qk,qk->q", tau, h_nodes)
        smoothed_fv_weighted = float(np.sum(w * core))
        weighted_energy = l2_energy(V, kernel, omega, phi=phi)
        curvature_sq_weighted = float(np.sum(
            w * phix * np.sum(h_nodes * h_nodes, axis=1)))
    return MotionLawTerms(pairing_measure, pairing_space, fvg,
                          smoothed_fv_weighted, weighted_energy,
                          curvature_sq_weighted, energy)

"""Labeled polyline networks encoding open partitions of the plane/torus.

A network is a vertex array plus polyline edges carrying (label_left,
label_right) as seen walking the chain from its first to its last vertex.
Regions are implicit: they are whatever the labeled boundary cuts out.
Interior boundaries (same label on both sides) are first-class since the
deformation step must delete them.

Degree-1 endpoints are allowed only on interior-boundary edges; every other
chain terminates at a junction (degree >= 3) or closes into a loop.  At each
junction the labels must be cyclically consistent: walking the outgoing
edge-ends in angular order, the left label of one end equals the right label
of the next.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .domain import Domain, torus


@dataclass(frozen=True)
class Edge:
    chain: tuple  # vertex indices, len >= 2; closed loop iff chain[0]==chain[-1]
    left: int
    right: int


@dataclass(frozen=True)
class MeshScale:
    h_min: float = 0.01
    h_max: float = 0.05

    @property
    def weld(self):
        # delta_weld = h_min / 4 keeps junction resolution unambiguous
        return self.h_min / 4.0


@dataclass
class LabeledNetwork:
    domain: Domain
    n_labels: int
    vertices: np.ndarray  # (V, 2)
    edges: list  # of Edge
    scale: MeshScale = field(default_factory=MeshScale)

    def copy(self):
        return LabeledNetwork(self.domain, self.n_labels,
                              self.vertices.copy(), list(self.edges), self.scale)

    # ---- derived segment arrays -------------------------------------------

    def segment_arrays(self):
        """(p0, p1, edge_id) with p1 unwrapped next to p0 on the torus."""
        p0s, p1s, eids, lefts, rights = [], [], [], [], []
        for ei, e in enumerate(self.edges):
            idx = np.asarray(e.chain)
            a = self.vertices[idx[:-1]]
            b = self.vertices[idx[1:]]
            d = self.domain.delta(a, b)
            p0s.append(a)
            p1s.append(a + d)
            eids.append(np.full(len(idx) - 1, ei))
            lefts.append(np.full(len(idx) - 1, e.left))
            rights.append(np.full(len(idx) - 1, e.right))
        if not p0s:
            z = np.zeros((0, 2))
            zi = np.zeros(0, dtype=int)
            return z, z, zi, zi, zi
        return (np.concatenate(p0s), np.concatenate(p1s),
                np.concatenate(eids), np.concatenate(lefts), np.concatenate(rights))

    def segment_lengths(self):
        p0, p1, _, _, _ = self.segment_arrays()
        return np.linalg.norm(p1 - p0, axis=1)

    def total_length(self):
        return float(np.sum(self.segment_lengths()))

    # ---- incidence ---------------------------------------------------------

    def outgoing_ends(self):
        """Map vertex -> list of (direction, left_label, right_label, edge_id, forward).

        One entry per edge-end.  Labels are as seen walking outward from the
        vertex; forward is True for the chain-start end.
        """
        ends = {}
        for ei, e in enumerate(self.edges):
            c = e.chain
            d0 = self.domain.delta(self.vertices[c[0]], self.vertices[c[1]])
            d1 = self.domain.delta(self.vertices[c[-1]], self.vertices[c[-2]])
            ends.setdefault(c[0], []).append((d0, e.left, e.right, ei, True))
            ends.setdefault(c[-1], []).append((d1, e.right, e.left, ei, False))
        return ends

    def vertex_degrees(self):
        deg = np.zeros(len(self.vertices), dtype=int)
        for ei, e in enumerate(self.edges):
            c = np.asarray(e.chain)
            deg[c[0]] += 1
            deg[c[-1]] += 1
            interior = c[1:-1]
            if len(interior):
                np.add.at(deg, interior, 2)
        return deg

    def junctions(self):
        return np.nonzero(self.vertex_degrees() >= 3)[0]


# ---- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations


def _segments_properly_cross(a0, a1, b0, b1, tol=1e-12):
    """True if open segments cross at an interior point of both."""
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < tol:
        return False
    r = b0 - a0
    t = (r[0] * d2[1] - r[1] * d2[0]) / den
    s = (r[0] * d1[1] - r[1] * d1[0]) / den
    return tol < t < 1 - tol and tol < s < 1 - tol


def validate_partition(net: LabeledNetwork):
    """Check the partition invariants; violations are data, not faults."""
    v = []
    nv = len(net.vertices)
    for ei, e in enumerate(net.edges):
        if len(e.chain) < 2:
            v.append(("edge", ei, "chain too short"))
        if not (1 <= e.left <= net.n_labels and 1 <= e.right <= net.n_labels):
            v.append(("edge", ei, "label out of range"))
        if any(not 0 <= i < nv for i in e.chain):
            v.append(("edge", ei, "vertex index out of range"))
    if v:
        return ValidationReport(v)

    if not np.all(np.isfinite(net.vertices)):
        v.append(("vertices", None, "non-finite coordinates"))
    if net.domain.periodic:
        if len(net.vertices) and not np.all(
                (net.vertices >= -1e-12) & (net.vertices < 1.0 + 1e-12)):
            v.append(("vertices", None, "outside fundamental cell"))
    else:
        x0, y0, x1, y1 = net.domain.bbox
        if len(net.vertices) and not (
                np.all(net.vertices[:, 0] >= x0) and np.all(net.vertices[:, 0] <= x1)
                and np.all(net.vertices[:, 1] >= y0) and np.all(net.vertices[:, 1] <= y1)):
            v.append(("vertices", None, "outside bounding box"))

    deg = net.vertex_degrees()
    ends = net.outgoing_ends()

    # free ends only on interior boundaries, or on the plane bounding box
    # (partitions of the whole plane are truncated there)
    def on_bbox(p):
        if net.domain.periodic:
            return False
        x0, y0, x1, y1 = net.domain.bbox
        tol = 1e-9
        return (abs(p[0] - x0) < tol or abs(p[0] - x1) < tol
                or abs(p[1] - y0) < tol or abs(p[1] - y1) < tol)

    for ei, e in enumerate(net.edges):
        for vi in (e.chain[0], e.chain[-1]):
            if deg[vi] == 1 and e.left != e.right and not on_bbox(net.vertices[vi]):
                v.append(("vertex", int(vi), "free end on non-interior edge"))

    # cyclic label consistency at junctions
    for vi, lst in ends.items():
        if len(lst) < 3:
            continue
        angles = [np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst]
        order = np.argsort(angles)
        k = len(lst)
        for a in range(k):
            cur = lst[order[a]]
            nxt = lst[order[(a + 1) % k]]
            # sector ccw of cur = left label of cur = right label of nxt
            if cur[1] != nxt[2]:
                v.append(("vertex", int(vi), "inconsistent labels around junction"))
                break

    # minimum vertex separation (used vertices only)
    used = np.zeros(nv, dtype=bool)
    for e in net.edges:
        used[list(e.chain)] = True
    pts = net.vertices[used]
    if len(pts) > 1:
        if net.domain.periodic:
            tree = cKDTree(np.mod(pts, 1.0), boxsize=1.0)
        else:
            tree = cKDTree(pts)
        pairs = tree.query_pairs(net.scale.weld)
        if pairs:
            # graph-near vertices may sit close legitimately (short bridges,
            # freshly split junctions, shrinking grains); the tolerance only
            # flags near-duplicates whose connecting path is long, i.e. a
            # genuine near self-touch rather than a single small feature
            import heapq
            cap_len = 4.0 * net.scale.h_min
            nbr = {}
            for e in net.edges:
                for a, b in zip(e.chain[:-1], e.chain[1:]):
                    w = float(np.linalg.norm(net.domain.delta(
                        net.vertices[a], net.vertices[b])))
                    nbr.setdefault(a, []).append((b, w))
                    nbr.setdefault(b, []).append((a, w))

            def near_in_graph(a, b):
                # shortest-path search bounded by cap_len
                dist = {a: 0.0}
                heap = [(0.0, a)]
                while heap:
                    d, x = heapq.heappop(heap)
                    if x == b:
                        return True
                    if d > dist.get(x, np.inf):
                        continue
                    for y, w in nbr.get(x, ()):
                        nd = d + w
                        if nd <= cap_len and nd < dist.get(y, np.inf):
                            dist[y] = nd
                            heapq.heappush(heap, (nd, y))
                return False

            ids = np.nonzero(used)[0]
            for i, j in pairs:
                a, b = int(ids[i]), int(ids[j])
                if near_in_graph(a, b):
                    continue
                v.append(("vertex", a,
                          "closer than weld tolerance to vertex %d" % b))
                break

    # no proper segment crossings
    p0, p1, eid, _, _ = net.segment_arrays()
    if len(p0) > 1:
        mid = 0.5 * (p0 + p1)
        half = 0.5 * np.linalg.norm(p1 - p0, axis=1)
        r = float(np.max(half)) if len(half) else 0.0
        tree = cKDTree(np.mod(mid, 1.0) if net.domain.periodic else mid,
                       boxsize=1.0 if net.domain.periodic else None)
        for i, j in tree.query_pairs(2.0 * r + 1e-12):
            # translate segment j to its minimum image next to segment i
            off = net.domain.delta(mid[j], mid[i])
            shift = (mid[i] - off) - mid[j]
            b0 = p0[j] + shift
            b1 = p1[j] + shift
            if _segments_properly_cross(p0[i], p1[i], b0, b1):
                v.append(("edge", int(eid[i]),
                          "segment crossing with edge %d" % eid[j]))
    return ValidationReport(v)


# ---- vertical slab sweep: region areas and point location --------------------


@dataclass
class SlabSweep:
    """Vertical slabs between consecutive segment endpoint x values.

    Segments run left to right (on the torus split at x=1).  The segments
    crossing slab k's open interior are `seg[start[k]:start[k+1]]`, sorted by
    height `ym` at the slab midpoint (mod 1 on the torus), an order that holds
    across the open slab since segments never cross."""
    net: LabeledNetwork
    a: np.ndarray  # (S, 2) oriented segment starts
    b: np.ndarray  # (S, 2) oriented segment ends
    above: np.ndarray
    below: np.ndarray
    xs: np.ndarray  # slab k is [xs[k], xs[k+1]]
    start: np.ndarray
    seg: np.ndarray
    ym: np.ndarray

    def labels(self, points):
        """Label of each point's region; see label_at_points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(len(points), dtype=int)
        if len(self.a) == 0:
            return out
        dom = self.net.domain
        x, y = points[:, 0], points[:, 1]
        if dom.periodic:
            x, y = np.mod(x, 1.0), np.mod(y, 1.0)
        k = np.clip(np.searchsorted(self.xs, x, side="right") - 1,
                    0, len(self.xs) - 2)
        n = self.start[k + 1] - self.start[k]
        hit = np.nonzero(n > 0)[0]
        if len(hit):
            # each point's slab crossings, padded to the widest such slab
            slot = np.arange(n[hit].max())
            valid = slot[None, :] < n[hit, None]
            s = self.seg[np.where(valid, self.start[k[hit], None] + slot, 0)]
            a, b = self.a[s], self.b[s]
            t = (x[hit, None] - a[..., 0]) / (b[..., 0] - a[..., 0])
            yc = a[..., 1] + t * (b[..., 1] - a[..., 1])
            gap = y[hit, None] - yc
            if dom.periodic:
                gap = np.mod(gap, 1.0)
            gap = np.where(valid & (gap >= 0.0), gap, np.inf)
            rows, pick = np.arange(len(hit)), np.argmin(gap, axis=1)
            lab = self.above[s[rows, pick]]
            if not dom.periodic:  # below every crossing: the lowest one's
                low = np.argmin(np.where(valid, yc, np.inf), axis=1)
                lab = np.where(np.isfinite(gap[rows, pick]), lab,
                               self.below[s[rows, low]])
            out[hit] = lab
        # an uncovered slab is one region: locate it once at a probe point
        empty = np.unique(k[n == 0])
        if len(empty):
            y_mid = 0.5 if dom.periodic else 0.5 * (dom.bbox[1] + dom.bbox[3])
            xm = 0.5 * (self.xs[empty] + self.xs[empty + 1])
            probe = _nearest_boundary_labels(
                self.net, np.column_stack([xm, np.full_like(xm, y_mid)]))
            out[n == 0] = probe[np.searchsorted(empty, k[n == 0])]
        return out


def slab_sweep(net: LabeledNetwork):
    """Build the SlabSweep of a network in one vectorised pass."""
    p0, p1, _, lefts, rights = net.segment_arrays()
    flip = p1[:, 0] < p0[:, 0]
    a = np.where(flip[:, None], p1, p0)
    b = np.where(flip[:, None], p0, p1)
    above = np.where(flip, rights, lefts)
    below = np.where(flip, lefts, rights)
    if net.domain.periodic:
        # shift each segment so its left end is in [0,1), then split any
        # piece that pokes over x=1; each second piece follows its first
        sx = np.floor(a[:, 0])
        a[:, 0] -= sx
        b[:, 0] -= sx
        cut = np.nonzero((b[:, 0] > 1.0 + 1e-15) & (b[:, 0] - 1.0 > 1e-15))[0]
        t = (1.0 - a[cut, 0]) / (b[cut, 0] - a[cut, 0])
        m = a[cut] + t[:, None] * (b[cut] - a[cut])
        a2, b2 = m - [1.0, 0.0], b[cut] - [1.0, 0.0]
        b[cut] = m
        order = np.argsort(np.r_[np.arange(len(a)), cut], kind="stable")
        a, b, above, below = (np.concatenate(pair)[order] for pair in (
            (a, a2), (b, b2), (above, above[cut]), (below, below[cut])))
        xs = np.unique(np.concatenate([[0.0, 1.0], a[:, 0], b[:, 0]]))
        xs = xs[(xs >= -1e-15) & (xs <= 1.0 + 1e-15)]
    else:
        x0, _, x1, _ = net.domain.bbox
        xs = np.unique(np.concatenate([[x0, x1], a[:, 0], b[:, 0]]))
    xm = 0.5 * (xs[:-1] + xs[1:])
    # segment i covers the slabs whose midpoint lies strictly inside it
    lo = np.searchsorted(xm, a[:, 0], side="right")
    cnt = np.maximum(np.searchsorted(xm, b[:, 0], side="left") - lo, 0)
    seg = np.repeat(np.arange(len(a)), cnt)
    slab = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(len(seg))
    t = (xm[slab] - a[seg, 0]) / (b[seg, 0] - a[seg, 0])
    ym = a[seg, 1] + t * (b[seg, 1] - a[seg, 1])
    if net.domain.periodic:
        ym = np.mod(ym, 1.0)
    order = np.lexsort((ym, slab))  # stable: ties keep segment order
    start = np.r_[0, np.cumsum(np.bincount(slab, minlength=len(xm)))]
    return SlabSweep(net, a, b, above, below, xs, start, seg[order], ym[order])


@dataclass
class RegionAreaTable:
    areas: dict  # label -> area (clipped to bbox in plane mode)
    residual: float
    infinite: set  # labels with unbounded regions (plane mode)


class UnboundedRegionError(RuntimeError):
    pass


def region_areas(net: LabeledNetwork, allow_infinite=True):
    """Exact per-label areas by trapezoids over slab_sweep's slabs.

    label_at_points locates points with the same sweep.  Within a slab
    consecutive crossings in y bound a constant-label trapezoid.  On the torus
    the crossing order is cyclic in y mod 1 and the slabs tile [0,1).  In the
    plane the strips below the lowest and above the highest crossing belong to
    unbounded regions; they are clipped to the bounding box and their labels
    flagged infinite.  Slabs without crossings, and gaps whose two labels
    disagree, go to `residual`.
    """
    dom = net.domain
    sw = slab_sweep(net)
    if len(sw.a) == 0 and net.n_labels == 1:
        return RegionAreaTable({1: dom.area}, 0.0, set())
    w = np.diff(sw.xs)
    first, stop = sw.start[:-1], sw.start[1:]
    ks = np.repeat(np.arange(len(w)), stop - first)  # slab of each crossing
    rank = np.arange(len(ks)) - first[ks]
    last = rank == (stop - first - 1)[ks]
    up, dn, y = sw.above[sw.seg], sw.below[sw.seg], sw.ym
    # the gap above each crossing, up to the next (cyclically on the torus)
    nxt = np.where(last, first[ks], np.arange(len(ks)) + 1)
    gap = np.where(last, 1.0 - y + y[nxt], y[nxt] - y)
    j = np.arange(len(ks)) if dom.periodic else np.nonzero(~last)[0]
    lab = np.where(up[j] == dn[nxt[j]], up[j], 0)  # label 0: residual
    empty = np.nonzero(stop == first)[0]
    infinite = set()
    # terms (slab, position in slab, label, area) in the per-slab loop order
    if dom.periodic:
        terms = [(ks[j], rank[j], lab, w[ks[j]] * gap[j]),
                 (empty, 0, 0, w[empty])]
    else:
        _, y_lo, _, y_hi = dom.bbox
        full = np.nonzero(stop > first)[0]
        bot, top = first[full], stop[full] - 1
        terms = [(full, 0, dn[bot], w[full] * np.maximum(0.0, y[bot] - y_lo)),
                 (full, 1, up[top], w[full] * np.maximum(0.0, y_hi - y[top])),
                 (ks[j], 2 + rank[j], lab, w[ks[j]] * gap[j]),
                 (empty, 0, 0, w[empty] * (y_hi - y_lo))]
        live = w[full] > 1e-15
        infinite = {int(v) for v in np.concatenate([dn[bot[live]],
                                                    up[top[live]]])}
    slab, pos, lab, val = (np.concatenate(
        [np.broadcast_to(term[i], np.shape(term[0])) for term in terms])
        for i in range(4))
    # summing slab by slab in that order keeps the areas bit-identical to
    # the loop; slabs of width <= 1e-15 carry no area
    keep = w[slab] > 1e-15
    order = np.lexsort((pos[keep], slab[keep]))
    sums = np.bincount(lab[keep][order], weights=val[keep][order],
                       minlength=net.n_labels + 1)
    if infinite and not allow_infinite:
        raise UnboundedRegionError("unbounded regions: %s" % sorted(infinite))
    return RegionAreaTable({lab: float(sums[lab])
                            for lab in range(1, net.n_labels + 1)},
                           float(sums[0]), infinite)


# ---- face tracing -------------------------------------------------------------


def region_loops(net: LabeledNetwork, label):
    """Boundary loops of a label's region as unwrapped coordinate arrays.

    Each loop keeps the region on its left; in the plane a positively oriented
    (counterclockwise) loop is an outer boundary and a negative one a hole.
    """
    ends = net.outgoing_ends()
    # successor lookup: at each vertex sort outgoing ends by angle
    by_vertex = {}
    for vi, lst in ends.items():
        angles = np.array([np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst])
        order = np.argsort(angles)
        by_vertex[vi] = [lst[o] for o in order]

    def successor(vi, d_in):
        """Next outgoing end continuing the face left of the arrival direction."""
        lst = by_vertex[vi]
        rev = np.arctan2(-d_in[1], -d_in[0])
        angs = [np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst]
        # first end strictly clockwise of the reversal (cyclically)
        best, best_gap = None, None
        for cand, a in zip(lst, angs):
            gap = (rev - a) % (2.0 * np.pi)
            if gap < 1e-12:
                gap = 2.0 * np.pi  # the reversal itself: only if nothing else
            if best_gap is None or gap < best_gap:
                best, best_gap = cand, gap
        return best

    pending = set()
    for ei, e in enumerate(net.edges):
        if e.left == label:
            pending.add((ei, True))
        if e.right == label:
            pending.add((ei, False))

    loops = []
    while pending:
        key = next(iter(pending))
        loop_pts = []
        cur = key
        while True:
            if cur not in pending:
                break  # arrived at an already-consumed branch; degenerate input
            pending.discard(cur)
            ei, forward = cur
            chain = net.edges[ei].chain if forward else tuple(reversed(net.edges[ei].chain))
            pts = net.vertices[list(chain)]
            # unwrap relative to the running end point
            if loop_pts:
                base = loop_pts[-1]
            else:
                base = pts[0]
            unwrapped = [np.asarray(base, dtype=float)]
            for a, b in zip(chain[:-1], chain[1:]):
                step = net.domain.delta(net.vertices[a], net.vertices[b])
                unwrapped.append(unwrapped[-1] + step)
            if not loop_pts:
                loop_pts.extend(unwrapped)
            else:
                loop_pts.extend(unwrapped[1:])
            v_end = chain[-1]
            d_in = unwrapped[-1] - unwrapped[-2]
            nxt = successor(v_end, d_in)
            d, _, _, nei, nfwd = nxt
            cur = (nei, nfwd)
            if cur == key:
                break
        if len(loop_pts) >= 3:
            loops.append(np.asarray(loop_pts))
    return loops


def shoelace(points):
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _nearest_boundary_labels(net: LabeledNetwork, points):
    """Label by the side of the nearest segment; N x S work, for probes."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p0, p1, _, lefts, rights = net.segment_arrays()
    d = p1 - p0  # (S,2)
    ll = np.sum(d * d, axis=1)
    # displacement of each point from each segment start (torus aware)
    rel = net.domain.delta(p0[None, :, :], points[:, None, :])  # (N,S,2)
    t = np.clip(np.einsum("nsk,sk->ns", rel, d) / ll[None, :], 0.0, 1.0)
    closest = t[..., None] * d[None, :, :]
    off = rel - closest
    dist = np.sqrt(np.sum(off * off, axis=-1))
    cross = d[None, :, 0] * off[..., 1] - d[None, :, 1] * off[..., 0]
    # prefer the most transversal segment among near-ties (junction vicinity)
    near = dist <= (np.min(dist, axis=1, keepdims=True) + 1e-12)
    score = np.where(near, np.abs(cross), -1.0)
    pick = np.argmax(score, axis=1)
    side = cross[np.arange(len(points)), pick] > 0.0
    return np.where(side, lefts[pick], rights[pick])


def label_at_points(net: LabeledNetwork, points):
    """Label of the region containing each point, from the slab sweep.

    region_areas sums over the same slab_sweep.  Each point takes the label
    above the nearest crossing below it in its slab (cyclically in y on the
    torus; in the plane, below the lowest crossing it takes that crossing's
    lower label).  A point on a boundary gets the label above it; a point on
    a slab edge belongs to the slab on its right.
    """
    return slab_sweep(net).labels(points)


# ---- remesh -------------------------------------------------------------------


class RemeshCollisionError(RuntimeError):
    pass


def remesh(net: LabeledNetwork, h_min=None, h_max=None):
    """Split long segments at midpoints, merge short interior chains.

    Splitting is exact (area and length preserved); merging drops interior
    chain vertices, moving the boundary by at most h_min and never touching
    junction vertices.  A junction-to-junction chain that is a single short
    segment is left alone (welding junctions is a separate, explicit event).
    """
    scale = net.scale
    if h_min is None:
        h_min = scale.h_min
    if h_max is None:
        h_max = scale.h_max
    dom = net.domain
    verts = [v for v in net.vertices]
    new_edges = []
    deg = net.vertex_degrees()

    for e in net.edges:
        chain = list(e.chain)
        closed = chain[0] == chain[-1]
        # pass 1: merge runs of short segments by dropping interior vertices
        out = [chain[0]]
        acc = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            step = float(np.linalg.norm(dom.delta(net.vertices[out[-1]], net.vertices[b])))
            seg = float(np.linalg.norm(dom.delta(net.vertices[a], net.vertices[b])))
            is_last = b == chain[-1]
            # keep once the accumulated step reaches h_min, or the segment
            # itself is long enough; dropping whole runs of short segments
            # would move the boundary without bound
            keep = seg >= h_min or step >= h_min or is_last or deg[b] != 2
            if keep:
                out.append(b)
            # else: drop b, merging its two segments
        chain = out
        if closed and len(chain) < 4 and len(set(chain)) < 3:
            # do not let a loop degenerate below a triangle
            chain = list(e.chain)
        # pass 2: recursive midpoint split of long segments
        final = [chain[0]]
        for a, b in zip(chain[:-1], chain[1:]):
            pa = np.asarray(verts[a], dtype=float)
            step = dom.delta(pa, net.vertices[b])
            length = float(np.linalg.norm(step))
            pieces = 1
            # relative slack: a segment of length h_max up to roundoff stays whole
            while length / pieces > h_max * (1.0 + 1e-12):
                pieces *= 2
            for k in range(1, pieces):
                p = dom.wrap(pa + step * (k / pieces))
                verts.append(p)
                final.append(len(verts) - 1)
            final.append(b)
        new_edges.append(Edge(tuple(final), e.left, e.right))

    out_net = LabeledNetwork(net.domain, net.n_labels,
                             np.asarray(verts, dtype=float), new_edges, net.scale)
    return compact(out_net)


def compact(net: LabeledNetwork):
    """Drop unused vertices and reindex chains."""
    used = np.zeros(len(net.vertices), dtype=bool)
    for e in net.edges:
        used[list(e.chain)] = True
    idx = np.cumsum(used) - 1
    verts = net.vertices[used]
    edges = [Edge(tuple(int(idx[i]) for i in e.chain), e.left, e.right)
             for e in net.edges]
    return LabeledNetwork(net.domain, net.n_labels, verts, edges, net.scale)


def weld_junctions(net: LabeledNetwork):
    """Collapse junction-to-junction chains shorter than the weld tolerance.

    Two triple junctions colliding produce a degree-4 vertex which the next
    deformation step breaks up again; this is how network grains disappear.
    """
    deg = net.vertex_degrees()
    for ei, e in enumerate(net.edges):
        c = e.chain
        if c[0] == c[-1]:
            continue
        if deg[c[0]] >= 3 and deg[c[-1]] >= 3:
            length = 0.0
            for a, b in zip(c[:-1], c[1:]):
                length += float(np.linalg.norm(net.domain.delta(
                    net.vertices[a], net.vertices[b])))
            if length < net.scale.weld:
                keep, drop = c[0], c[-1]
                mid = net.domain.wrap(net.vertices[keep] + 0.5 * net.domain.delta(
                    net.vertices[keep], net.vertices[drop]))
                verts = net.vertices.copy()
                verts[keep] = mid
                edges = []
                for fj, f in enumerate(net.edges):
                    if fj == ei:
                        continue
                    chain = tuple(keep if i == drop else i for i in f.chain)
                    edges.append(Edge(chain, f.left, f.right))
                merged = compact(LabeledNetwork(net.domain, net.n_labels,
                                                verts, edges, net.scale))
                return weld_junctions(merged)  # handle cascades
    return net

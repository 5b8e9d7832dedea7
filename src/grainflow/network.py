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

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import Domain, torus


@dataclass(frozen=True)
class Edge:
    chain: tuple  # vertex indices, len >= 2; closed loop iff chain[0]==chain[-1]
    left: int
    right: int


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class MeshScale:
    h_min: float = 0.01
    h_max: float = 0.05

    @property
    def weld(self):
        # delta_weld = h_min / 4 keeps junction resolution unambiguous
        return self.h_min / 4.0


class LabeledNetwork:
    """An immutable value.  It stores its chains once, as read-only arrays:
    every chain's vertex indices laid end to end, each chain's first and
    last position in that array, and the (E, 2) labels.  `vertices` is made
    read-only too, so the derived arrays (segment arrays, lengths, the
    junction ring) are computed once per network, cached and returned
    read-only.  `edges`, the chains as Edge tuples, is a view built on first
    read, for scene output and tests.  To change a network, build a new one.
    """

    def __init__(self, domain: Domain, n_labels: int, vertices, edges,
                 scale: MeshScale = MeshScale()):
        n = np.array([len(e.chain) for e in edges], dtype=int)
        last = np.cumsum(n) - 1
        self._hold(domain, n_labels, vertices,
                   (np.fromiter(itertools.chain.from_iterable(
                       e.chain for e in edges), dtype=int), last - n + 1, last),
                   np.array([(e.left, e.right) for e in edges],
                            dtype=int).reshape(-1, 2), scale)

    def _hold(self, domain, n_labels, vertices, chains, labels, scale):
        self.domain, self.n_labels, self.scale = domain, n_labels, scale
        self.vertices = _read_only(np.asarray(vertices, dtype=float))[0]
        self._chains = _read_only(*chains)
        self._labels = _read_only(labels)[0]
        return self

    @classmethod
    def _of_chains(cls, domain, n_labels, vertices, chains, labels, scale):
        """A network holding the given chain and label arrays, not copied."""
        return cls.__new__(cls)._hold(domain, n_labels, vertices, chains,
                                      labels, scale)

    def with_vertices(self, vertices):
        """The same chains on new vertex coordinates.  The chain and label
        arrays are shared with this network; the derived caches are not."""
        return LabeledNetwork._of_chains(self.domain, self.n_labels, vertices,
                                         self._chains, self._labels, self.scale)

    def copy(self):
        return self.with_vertices(self.vertices)

    @cached_property
    def edges(self):
        """The chains as Edge tuples, in edge order (built on first read)."""
        every, first, last = self._chains
        flat = every.tolist()
        return [Edge(tuple(flat[a:b + 1]), left, right)
                for a, b, (left, right) in zip(first.tolist(), last.tolist(),
                                               self._labels.tolist())]

    # ---- derived arrays, cached -------------------------------------------

    @cached_property
    def _segments(self):
        """(p0, p1, edge_id, left, right, d) in one pass over the chains, where
        d = delta(p0, next vertex) and p1 = p0 + d."""
        every, first, last = self._chains
        p0 = self.vertices[np.delete(every, last)]
        d = self.domain.delta(p0, self.vertices[np.delete(every, first)])
        n = last - first  # segments per edge
        return _read_only(p0, p0 + d, np.repeat(np.arange(len(n)), n),
                          np.repeat(self._labels[:, 0], n),
                          np.repeat(self._labels[:, 1], n), d)

    @cached_property
    def _lengths(self):
        # the batched matmul gives np.linalg.norm's bits on each displacement,
        # and bincount adds each chain's segments in order, as a running sum
        d = self._segments[5]
        seg = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        edge = np.bincount(self._segments[2], seg, minlength=len(self._labels))
        return _read_only(seg, edge.astype(float, copy=False))

    @cached_property
    def _ring(self):
        """Edge-ends around their vertices.  End 2e leaves edge e's first
        vertex along the chain, end 2e + 1 its last vertex against it.
        Returns (order, vertex, direction, cw): the ends sorted by vertex and
        counterclockwise around each (ascending atan2, ties in end order),
        each end's vertex and outgoing direction, and for each end the next
        end clockwise around its vertex."""
        every, first, last = self._chains
        v = self.vertices
        vertex = np.column_stack([every[first], every[last]]).ravel()
        d = np.stack([self.domain.delta(v[every[first]], v[every[first + 1]]),
                      self.domain.delta(v[every[last]], v[every[last - 1]])],
                     axis=1).reshape(-1, 2)
        order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), vertex))
        # in sorted order the clockwise neighbour is the previous end, or
        # the ring's last for its first
        start = np.flatnonzero(np.diff(vertex[order], prepend=-1))
        prev = np.arange(len(order)) - 1
        prev[start] = np.r_[start[1:], len(order)] - 1
        cw = np.empty_like(order)
        cw[order] = order[prev]
        return _read_only(order, vertex, d, cw)

    def edge_labels(self):
        """(E, 2) array of each edge's (left, right)."""
        return self._labels

    def segment_arrays(self):
        """(p0, p1, edge_id, left, right) per segment, chains in edge order,
        with p1 unwrapped next to p0 on the torus."""
        return self._segments[:5]

    def segment_lengths(self):
        """|delta| of each segment, in segment_arrays order."""
        return self._lengths[0]

    def edge_lengths(self):
        """Length of each edge's chain, summed segment by segment."""
        return self._lengths[1]

    def total_length(self):
        return float(np.sum(self.segment_lengths()))

    # ---- incidence ---------------------------------------------------------

    def outgoing_ends(self):
        """Map vertex -> list of (direction, left_label, right_label, edge_id, forward).

        One entry per edge-end, keys ascending, each list counterclockwise
        (ascending atan2 of the direction; ties keep edge order, chain start
        first).  Labels are as seen walking outward from the vertex; forward
        is True for the chain-start end.
        """
        order, vertex, d, _ = self._ring
        lab = self.edge_labels().ravel().tolist()
        ends = {}
        for k, vi in zip(order.tolist(), vertex[order].tolist()):
            ends.setdefault(vi, []).append(
                (d[k], lab[k], lab[k ^ 1], k >> 1, not k & 1))
        return ends

    def used_vertices(self):
        """Sorted indices of the vertices some chain uses."""
        return np.flatnonzero(np.bincount(self._chains[0],
                                          minlength=len(self.vertices)))

    def chain_entries(self):
        """Every chain's vertex indices concatenated in edge order, and the
        positions of each chain's first and last entry in that array."""
        return self._chains

    def vertex_degrees(self):
        """Edge-ends per vertex: chain ends count 1 each, interior vertices 2."""
        n = len(self.vertices)
        every, first, last = self.chain_entries()
        return (2 * np.bincount(every, minlength=n)
                - np.bincount(every[first], minlength=n)
                - np.bincount(every[last], minlength=n))

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
    """True where open segments a0a1 and b0b1 (rows) cross at an interior
    point of both."""
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = b0 - a0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
        s = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / den
    return ((np.abs(den) >= tol) & (tol < t) & (t < 1 - tol)
            & (tol < s) & (s < 1 - tol))


def _pairs_within(pts, r, periodic):
    """Index pairs (i, j), i < j, with |p_j - p_i| <= r (minimum image on
    the unit torus), sorted.

    Points are binned into square cells of side >= r, so a pair lies in one
    cell or in two neighbouring ones.  Each occupied cell is matched with
    itself and four of its eight neighbours by searchsorted on the sorted
    cell keys, so every pair of cells is visited once.
    """
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    # the 1e-6 margin keeps pairs at distance r in neighbouring cells through
    # the roundoff of the cell index; 2^20 cells a side keep keys in int64
    if periodic:
        pts = np.mod(pts, 1.0)
        m = int(min(1.0 / max(r * (1.0 + 1e-6), 2.0**-20), 2.0**20))
        m = m if m >= 3 else 1  # below 3 cells a side, neighbours repeat
        c = np.floor(pts * m).astype(np.int64) % m
    else:
        lo = pts.min(axis=0)
        side = max(r * (1.0 + 1e-6),
                   float(np.max(pts.max(axis=0) - lo)) * 2.0**-20) or 1.0
        c = np.floor((pts - lo) / side).astype(np.int64) + 1
        m = int(c[:, 1].max()) + 2  # row width: neighbour keys stay unique
    key = c[:, 0] * m + c[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    edge = np.flatnonzero(key[1:] != key[:-1]) + 1
    first = np.concatenate(([0], edge))
    count = np.concatenate((edge, [n])) - first
    cells = key[first]
    offsets = np.array([[0, 0], [1, -1], [1, 0], [1, 1], [0, 1]] if m > 1
                       else [[0, 0]])
    cx, cy = np.divmod(cells, m)
    nx = cx + offsets[:, :1]
    ny = cy + offsets[:, 1:]
    if periodic:
        nx, ny = nx % m, ny % m
    want = (nx * m + ny).ravel()
    pos = np.minimum(np.searchsorted(cells, want), len(cells) - 1)
    hit = cells[pos] == want
    a = (np.arange(len(want)) % len(cells))[hit]
    b = pos[hit]
    # every point of cell a against every point of cell b, each pair of
    # points once inside one cell
    ca = count[a]
    row = np.repeat(np.arange(len(a)), ca)
    s = np.repeat(first[a] - np.cumsum(ca) + ca, ca) + np.arange(len(row))
    k = count[b][row]
    t = np.repeat(first[b][row] - np.cumsum(k) + k, k) + np.arange(k.sum())
    s = np.repeat(s, k)
    keep = np.repeat(a[row] != b[row], k) | (s < t)
    i, j = order[s[keep]], order[t[keep]]
    i, j = np.minimum(i, j), np.maximum(i, j)
    d = pts[j] - pts[i]
    if periodic:
        d -= np.round(d)
    keep = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r
    i, j = i[keep], j[keep]
    order = np.lexsort((j, i))
    return np.column_stack([i[order], j[order]])


_EDGE_FAULTS = ("chain too short", "label out of range",
                "vertex index out of range")


def validate_partition(net: LabeledNetwork):
    """Check the partition invariants; violations are data, not faults."""
    nv = len(net.vertices)
    every, first, last = net.chain_entries()
    n = last - first + 1
    lab = net.edge_labels()
    # per-edge checks, rows in edge order
    bad = np.column_stack([
        n < 2, np.any((lab < 1) | (lab > net.n_labels), axis=1),
        np.bincount(np.repeat(np.arange(len(n)), n),
                    (every < 0) | (every >= nv), minlength=len(n)) > 0])
    rows, cols = np.nonzero(bad)
    v = [("edge", ei, _EDGE_FAULTS[c])
         for ei, c in zip(rows.tolist(), cols.tolist())]
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

    # free ends only on interior boundaries, or on the plane bounding box
    # (partitions of the whole plane are truncated there)
    _, vertex, _, cw = net._ring
    lab = lab.ravel()
    free = ((net.vertex_degrees()[vertex] == 1)
            & np.repeat(lab[0::2] != lab[1::2], 2))
    if not net.domain.periodic:  # (x0, y0, x1, y1) against (x, y, x, y)
        free &= ~np.any(np.abs(net.vertices[vertex][:, [0, 1, 0, 1]]
                               - net.domain.bbox) < 1e-9, axis=1)
    v.extend(("vertex", vi, "free end on non-interior edge")
             for vi in vertex[free].tolist())

    # cyclic label consistency at junctions: the sector counterclockwise of
    # each end is its left label and the right label of the next end
    k = np.arange(len(vertex))
    bad = ((lab[cw] != lab[k ^ 1])
           & (np.bincount(vertex, minlength=nv)[vertex] >= 3))
    v.extend(("vertex", vi, "inconsistent labels around junction")
             for vi in np.unique(vertex[bad]).tolist())

    # minimum vertex separation (used vertices only)
    ids = net.used_vertices()
    if len(ids) > 1:
        pairs = _pairs_within(net.vertices[ids], net.scale.weld,
                              net.domain.periodic)
        if len(pairs):
            # graph-near vertices may sit close legitimately (short bridges,
            # freshly split junctions, shrinking grains); the tolerance only
            # flags near-duplicates whose connecting path is long, i.e. a
            # genuine near self-touch rather than a single small feature
            import heapq
            cap_len = 4.0 * net.scale.h_min
            nbr = {}
            for a, b, w in zip(np.delete(every, last).tolist(),
                               np.delete(every, first).tolist(),
                               net.segment_lengths().tolist()):
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

            for a, b in ids[pairs].tolist():
                if not near_in_graph(a, b):
                    v.append(("vertex", a,
                              "closer than weld tolerance to vertex %d" % b))
                    break

    # no proper segment crossings
    p0, p1, eid, _, _ = net.segment_arrays()
    if len(p0) > 1:
        mid = 0.5 * (p0 + p1)
        r = 0.5 * float(np.max(net.segment_lengths()))
        i, j = _pairs_within(mid, 2.0 * r + 1e-12, net.domain.periodic).T
        # translate each segment j to its minimum image next to segment i
        shift = (mid[i] - net.domain.delta(mid[j], mid[i])) - mid[j]
        hit = _segments_properly_cross(p0[i], p1[i], p0[j] + shift,
                                       p1[j] + shift)
        v.extend(("edge", a, "segment crossing with edge %d" % b)
                 for a, b in zip(eid[i[hit]].tolist(), eid[j[hit]].tolist()))
    return ValidationReport(v)


# ---- vertical slab sweep: region areas and point location --------------------


# heights closer than this at a slab edge count as one vertex's crossings
_TIE = 1e-12


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

    def crossings(self, k, x):
        """Segments crossing slabs k (G,) and their heights at x (G,), each x
        within its slab: (seg, valid, y), padded to the widest slab (G, n).

        Heights are unwrapped (not taken mod 1) on the torus."""
        n = self.start[k + 1] - self.start[k]
        slot = np.arange(n.max(initial=0))
        valid = slot[None, :] < n[:, None]
        s = self.seg[np.where(valid, self.start[k, None] + slot, 0)]
        a, b = self.a[s], self.b[s]
        t = (x[:, None] - a[..., 0]) / (b[..., 0] - a[..., 0])
        return s, valid, a[..., 1] + t * (b[..., 1] - a[..., 1])

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
        # a slab of width <= 1e-15 can miss crossings (its midpoint rounds
        # onto an edge): its points go to the next wider slab
        w = np.diff(self.xs)
        k = np.minimum.accumulate(np.where(
            w > 1e-15, np.arange(len(w)), len(w) - 1)[::-1])[::-1][k]
        n = self.start[k + 1] - self.start[k]
        hit = np.nonzero(n > 0)[0]
        if len(hit):
            s, valid, yc = self.crossings(k[hit], x[hit])
            gap = y[hit, None] - yc
            if dom.periodic:
                gap = np.mod(gap, 1.0)
            gap = np.where(valid & (gap >= 0.0), gap, np.inf)
            # crossings that meet at one vertex on a slab edge tie there up
            # to roundoff; inside the slab the steepest lies highest next to
            # the left edge and lowest next to the right edge
            xh = x[hit]
            side = np.where(xh - self.xs[k[hit]] <= self.xs[k[hit] + 1] - xh,
                            1.0, -1.0)
            slope = side[:, None] * (self.b[s, 1] - self.a[s, 1]) / (
                self.b[s, 0] - self.a[s, 0])
            near = gap <= gap.min(axis=1, keepdims=True) + _TIE
            rows = np.arange(len(hit))
            pick = np.argmax(np.where(near, slope, -np.inf), axis=1)
            lab = self.above[s[rows, pick]]
            if not dom.periodic:  # below every crossing: the lowest one's
                yv = np.where(valid, yc, np.inf)
                near = yv <= yv.min(axis=1, keepdims=True) + _TIE
                low = np.argmin(np.where(near, slope, np.inf), axis=1)
                lab = np.where(np.isfinite(gap[rows, pick]), lab,
                               self.below[s[rows, low]])
            out[hit] = lab
        empty = np.unique(k[n == 0])
        if len(empty):
            out[n == 0] = self.uncovered_labels(empty)[
                np.searchsorted(empty, k[n == 0])]
        return out

    def uncovered_labels(self, slabs):
        """Label of each slab without crossings: such a slab is one region,
        located once at a probe point, its middle.  Needs segments."""
        dom = self.net.domain
        y_mid = 0.5 if dom.periodic else 0.5 * (dom.bbox[1] + dom.bbox[3])
        xm = 0.5 * (self.xs[slabs] + self.xs[slabs + 1])
        return _nearest_boundary_labels(
            self.net, np.column_stack([xm, np.full_like(xm, y_mid)]))


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


def region_areas(net: LabeledNetwork):
    """Exact per-label areas by trapezoids over slab_sweep's slabs.

    label_at_points locates points with the same sweep.  Within a slab
    consecutive crossings in y bound a constant-label trapezoid.  On the torus
    the crossing order is cyclic in y mod 1 and the slabs tile [0,1).  In the
    plane the strips below the lowest and above the highest crossing belong to
    unbounded regions; they are clipped to the bounding box.  A torus slab
    without crossings is one region, labelled as SlabSweep.labels locates it.
    Plane slabs without crossings, and gaps whose two labels disagree, go to
    `residual`.
    """
    dom = net.domain
    sw = slab_sweep(net)
    if len(sw.a) == 0 and net.n_labels == 1:
        return RegionAreaTable({1: dom.area}, 0.0)
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
    # terms (slab, position in slab, label, area) in the per-slab loop order
    if dom.periodic:
        empty = empty[w[empty] > 1e-15]  # only slabs that carry area
        fill = sw.uncovered_labels(empty) if len(empty) and len(sw.a) else 0
        terms = [(ks[j], rank[j], lab, w[ks[j]] * gap[j]),
                 (empty, 0, fill, w[empty])]
    else:
        _, y_lo, _, y_hi = dom.bbox
        full = np.nonzero(stop > first)[0]
        bot, top = first[full], stop[full] - 1
        terms = [(full, 0, dn[bot], w[full] * np.maximum(0.0, y[bot] - y_lo)),
                 (full, 1, up[top], w[full] * np.maximum(0.0, y_hi - y[top])),
                 (ks[j], 2 + rank[j], lab, w[ks[j]] * gap[j]),
                 (empty, 0, 0, w[empty] * (y_hi - y_lo))]
    slab, pos, lab, val = (np.concatenate(
        [np.broadcast_to(term[i], np.shape(term[0])) for term in terms])
        for i in range(4))
    # summing slab by slab in that order keeps the areas bit-identical to
    # the loop; slabs of width <= 1e-15 carry no area
    keep = w[slab] > 1e-15
    order = np.lexsort((pos[keep], slab[keep]))
    sums = np.bincount(lab[keep][order], weights=val[keep][order],
                       minlength=net.n_labels + 1)
    return RegionAreaTable({lab: float(sums[lab])
                            for lab in range(1, net.n_labels + 1)},
                           float(sums[0]))


# ---- face tracing -------------------------------------------------------------


def region_loops(net: LabeledNetwork, label):
    """Boundary loops of a label's region as unwrapped coordinate arrays.

    Each loop keeps the region on its left; in the plane a positively oriented
    (counterclockwise) loop is an outer boundary and a negative one a hole.
    A walk leaves each vertex by the end clockwise of the one it arrived
    through, and its points are the running sum of the segment
    displacements from its first vertex.
    """
    _, _, _, cw = net._ring
    every, first, last = net.chain_entries()
    d = net._segments[5]
    # edge by edge, the left end before the right: the insertion order
    # decides where each loop starts
    pending = {(k >> 1, not k & 1)
               for k in np.flatnonzero(net.edge_labels().ravel() == label).tolist()}

    loops = []
    while pending:
        key = cur = next(iter(pending))
        steps = []
        while cur in pending:  # else a consumed branch: degenerate input
            pending.discard(cur)
            ei, forward = cur
            seg = d[first[ei] - ei:last[ei] - ei]
            steps.append(seg if forward else -seg[::-1])
            k = int(cw[2 * ei + forward])  # the end it arrives through
            cur = (k >> 1, not k & 1)
            if cur == key:
                break
        ei, forward = key
        start = every[first[ei] if forward else last[ei]]
        loop = np.cumsum(np.concatenate([net.vertices[start][None]] + steps),
                         axis=0)
        if len(loop) >= 3:
            loops.append(loop)
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
    rel = net.domain.delta(p0[None, :, :], points[:, None, :])[:, :, None]
    if net.domain.periodic:
        # the point's image nearest a segment need not be the one nearest
        # its start: try the neighbouring images and keep the nearest
        rel = rel + np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
                             axis=-1).reshape(-1, 2)
    t = np.clip(np.einsum("nsik,sk->nsi", rel, d) / ll[None, :, None], 0.0, 1.0)
    off = rel - t[..., None] * d[None, :, None, :]  # (N,S,images,2)
    dist = np.sqrt(np.sum(off * off, axis=-1))
    best = np.argmin(dist, axis=2)[..., None]
    dist = np.take_along_axis(dist, best, axis=2)[..., 0]
    off = np.take_along_axis(off, best[..., None], axis=2)[:, :, 0]
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
    a slab edge belongs to the slab on its right (the nearest one wider than
    1e-15), where the crossings leaving a vertex on that edge are ordered by
    slope.
    """
    return slab_sweep(net).labels(points)


# ---- edits: every change to an existing network's chains ----------------------


def rebuild(net: LabeledNetwork, vertices, entries, counts, labels):
    """A network on net's domain, labels and scale with the given chains.

    `entries` is every chain's vertex indices laid end to end, `counts` each
    chain's length and `labels` each chain's (left, right).  Vertices no chain
    uses are dropped and the rest renumbered in index order.
    """
    used = np.zeros(len(vertices), dtype=bool)
    used[entries] = True
    stop = np.cumsum(counts)
    return LabeledNetwork._of_chains(
        net.domain, net.n_labels, np.asarray(vertices, dtype=float)[used],
        ((np.cumsum(used) - 1)[entries], stop - counts, stop - 1),
        np.array(labels, dtype=int).reshape(-1, 2), net.scale)


def drop_edges(net: LabeledNetwork, ids):
    """net without the edges `ids` and the vertices only they used."""
    every, first, last = net.chain_entries()
    counts = last - first + 1
    keep = np.ones(len(counts), dtype=bool)
    keep[ids] = False
    return rebuild(net, net.vertices, every[np.repeat(keep, counts)],
                   counts[keep], net.edge_labels()[keep])


def remesh(net: LabeledNetwork, h_min=None, h_max=None):
    """Split long segments at midpoints, merge short interior chains.

    Splitting is exact (area and length preserved); merging drops interior
    chain vertices, moving the boundary by at most h_min and never touching
    junction vertices.  A junction-to-junction chain that is a single short
    segment is left alone (welding junctions is a separate, explicit event).
    """
    h_min = net.scale.h_min if h_min is None else h_min
    h_max = net.scale.h_max if h_max is None else h_max
    dom = net.domain
    V = net.vertices
    every, first, last = net.chain_entries()
    counts = last - first + 1
    chain_of = np.repeat(np.arange(len(counts)), counts)
    # pass 1: an interior degree-2 entry behind a short segment is dropped
    # while the step from the last kept entry stays below h_min (dropping
    # whole runs of short segments would move the boundary without bound);
    # only such entries need the sequential walk
    cand = np.zeros(len(every), dtype=bool)
    cand[np.delete(np.arange(len(every)), first)] = (
        net.segment_lengths() < h_min)
    cand[last] = False
    cand &= net.vertex_degrees()[every] == 2
    drop = np.zeros(len(every), dtype=bool)
    anchor = -1
    for p in np.flatnonzero(cand).tolist():
        if not drop[p - 1]:  # the step from p - 1 is the short segment
            anchor = p - 1
            drop[p] = True
        else:
            drop[p] = float(np.linalg.norm(
                dom.delta(V[every[anchor]], V[every[p]]))) < h_min
    # do not let a loop degenerate below a triangle
    kept = counts - np.bincount(chain_of[drop], minlength=len(counts))
    drop &= ~((every[first] == every[last]) & (kept < 4))[chain_of]
    kept = counts - np.bincount(chain_of[drop], minlength=len(counts))
    every = every[~drop]
    last = np.cumsum(kept) - 1
    # pass 2: halve each long segment until its pieces fit h_max (relative
    # slack: a segment of length h_max up to roundoff stays whole)
    a, b = np.delete(every, last), np.delete(every, last - kept + 1)
    step = dom.delta(V[a], V[b])
    length = np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0])
    pieces = np.ones(len(a), dtype=int)
    while (split := length / pieces > h_max * (1.0 + 1e-12)).any():
        pieces[split] *= 2
    s = np.repeat(np.arange(len(a)), pieces - 1)  # the segment of each new vertex
    k = np.arange(len(s)) - (np.cumsum(pieces - 1) - pieces + 1)[s] + 1
    new = dom.wrap(V[a[s]] + step[s] * (k / pieces[s])[:, None])
    starts = np.delete(np.arange(len(every)), last)
    entries = np.insert(every, starts[s] + 1, len(V) + np.arange(len(s)))
    seg_chain = np.repeat(np.arange(len(kept)), kept - 1)
    return rebuild(net, np.concatenate([V, new]), entries,
                   kept + np.bincount(seg_chain[s], minlength=len(kept)),
                   net.edge_labels())


def weld_junctions(net: LabeledNetwork):
    """Collapse junction-to-junction chains shorter than the weld tolerance.

    Two triple junctions colliding produce a degree-4 vertex which the next
    deformation step breaks up again; this is how network grains disappear.
    Each round welds the first short chain in edge order and rescans, so a
    cascade of welds resolves without recursion.
    """
    while True:
        every, first, last = net.chain_entries()
        deg = net.vertex_degrees()
        a, b = every[first], every[last]
        short = np.flatnonzero((a != b) & (deg[a] >= 3) & (deg[b] >= 3)
                               & (net.edge_lengths() < net.scale.weld))
        if not len(short):
            return net
        ei = int(short[0])
        keep, drop = int(a[ei]), int(b[ei])
        verts = net.vertices.copy()
        verts[keep] = net.domain.wrap(verts[keep] + 0.5 * net.domain.delta(
            verts[keep], verts[drop]))
        counts = last - first + 1
        other = np.arange(len(counts)) != ei
        net = rebuild(net, verts,
                      np.where(every == drop, keep, every)[
                          np.repeat(other, counts)],
                      counts[other], net.edge_labels()[other])

"""Scene files: a line-oriented grammar for initial partitions.

Directives (one per line, '#' comments):

    domain torus
    domain plane [bbox=(x0,y0,x1,y1)]
    labels N
    line y=0.25 left=1 right=2        (torus only; also x=... for vertical)
    circle center=(0.5,0.5) r=0.25 n=64 inside=2 outside=1
    cross at=(0,0) arms=1             (four sector labels 1..4, plane)
    edge left=1 right=2 points=(0,0);(1,0);(1,1)
    generator voronoi seeds=8 rng=42  (torus grain scene)
    generator honeycomb cols=3 rows=2 (stationary 120-degree network, torus)

Parse errors carry (line, column) positions.  Generators are deterministic
given their parameters.
"""

import re

import numpy as np

from .domain import plane, torus
from .network import (Edge, LabeledNetwork, MeshScale, rebuild, remesh,
                      weld_junctions)


class SceneParseError(ValueError):
    def __init__(self, msg, line, column=1):
        super().__init__("line %d, column %d: %s" % (line, column, msg))
        self.line = line
        self.column = column


def _parse_kv(tokens, lineno, line_text):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SceneParseError("expected key=value, got %r" % tok, lineno,
                                  line_text.find(tok) + 1)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _num(v, key, lineno):
    try:
        return float(v)
    except ValueError:
        raise SceneParseError("expected number for %s, got %r" % (key, v), lineno)


def _intval(v, key, lineno):
    try:
        return int(v)
    except ValueError:
        raise SceneParseError("expected integer for %s, got %r" % (key, v), lineno)


def _point(v, key, lineno):
    m = re.match(r"^\(([^,()]+),([^,()]+)\)$", v.strip())
    if not m:
        raise SceneParseError("expected (x,y) for %s, got %r" % (key, v), lineno)
    return np.array([float(m.group(1)), float(m.group(2))])


def _points(v, key, lineno):
    return [_point(p, key, lineno) for p in v.split(";") if p.strip()]


class _Builder:
    def __init__(self):
        self.domain = None
        self.n_labels = None
        self.vertices = []
        self.edges = []
        self.edge_lines = []
        self.cur_line = 1
        self.scale = MeshScale()

    def add_chain(self, pts, left, right, closed=False):
        base = len(self.vertices)
        self.vertices.extend(np.asarray(p, dtype=float) for p in pts)
        chain = tuple(range(base, base + len(pts)))
        if closed:
            chain = chain + (base,)
        self.add_edge(Edge(chain, left, right))

    def add_edge(self, edge):
        self.edges.append(edge)
        self.edge_lines.append(self.cur_line)

    def finish(self, lineno):
        if self.domain is None:
            self.domain = plane()
        if self.n_labels is None:
            raise SceneParseError("missing 'labels' directive", lineno)
        for e, ln in zip(self.edges, self.edge_lines):
            for lab in (e.left, e.right):
                if not 1 <= lab <= self.n_labels:
                    raise SceneParseError(
                        "label %d outside 1..%d" % (lab, self.n_labels), ln)
        verts = (np.asarray(self.vertices, dtype=float)
                 if self.vertices else np.zeros((0, 2)))
        if self.domain.periodic:
            verts = np.mod(verts, 1.0)
        return LabeledNetwork(self.domain, self.n_labels, verts, self.edges,
                              self.scale)


def parse_scene(text, h_max=0.05):
    b = _Builder()
    lines = text.splitlines()
    last = 1
    for lineno, raw in enumerate(lines, start=1):
        last = lineno
        b.cur_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "domain":
            if not rest or rest[0] not in ("torus", "plane"):
                raise SceneParseError("expected 'torus' or 'plane'", lineno,
                                      len("domain ") + 1)
            if rest[0] == "torus":
                b.domain = torus()
            else:
                kv = _parse_kv(rest[1:], lineno, raw)
                if "bbox" in kv:
                    m = re.match(r"^\(([^()]+)\)$", kv["bbox"])
                    if not m:
                        raise SceneParseError("expected bbox=(x0,y0,x1,y1)", lineno)
                    vals = [float(s) for s in m.group(1).split(",")]
                    if len(vals) != 4:
                        raise SceneParseError("bbox needs 4 numbers", lineno)
                    b.domain = plane(tuple(vals))
                else:
                    b.domain = plane()
        elif head == "labels":
            if not rest:
                raise SceneParseError("expected label count", lineno)
            b.n_labels = _intval(rest[0], "labels", lineno)
        elif head == "line":
            kv = _parse_kv(rest, lineno, raw)
            if b.domain is None or not b.domain.periodic:
                raise SceneParseError("'line' needs the torus domain", lineno)
            left = _intval(kv.get("left", ""), "left", lineno)
            right = _intval(kv.get("right", ""), "right", lineno)
            k = max(2, int(np.ceil(1.0 / h_max)))
            ts = np.arange(k) / k
            if "y" in kv:
                c = _num(kv["y"], "y", lineno)
                pts = np.column_stack([ts, np.full(k, c)])
            elif "x" in kv:
                c = _num(kv["x"], "x", lineno)
                pts = np.column_stack([np.full(k, c), ts])
            else:
                raise SceneParseError("line needs y= or x=", lineno)
            b.add_chain(pts, left, right, closed=True)
        elif head == "circle":
            kv = _parse_kv(rest, lineno, raw)
            c = _point(kv.get("center", "(0,0)"), "center", lineno)
            r = _num(kv.get("r", ""), "r", lineno)
            n = _intval(kv.get("n", "256"), "n", lineno)
            inside = _intval(kv.get("inside", ""), "inside", lineno)
            outside = _intval(kv.get("outside", ""), "outside", lineno)
            ang = 2.0 * np.pi * np.arange(n) / n
            pts = c + r * np.column_stack([np.cos(ang), np.sin(ang)])
            # chord subdivision keeps the requested n-gon geometry while
            # meeting the mesh bound
            chord = 2.0 * r * np.sin(np.pi / n)
            sub = max(1, int(np.ceil(chord / h_max)))
            if sub > 1:
                nxt = np.roll(pts, -1, axis=0)
                ts = (np.arange(sub) / sub)[None, :, None]
                pts = (pts[:, None, :] * (1.0 - ts)
                       + nxt[:, None, :] * ts).reshape(-1, 2)
            # counterclockwise: the disk is on the left of the traversal
            b.add_chain(pts, inside, outside, closed=True)
        elif head == "cross":
            kv = _parse_kv(rest, lineno, raw)
            at = _point(kv.get("at", "(0,0)"), "at", lineno)
            arms = _num(kv.get("arms", "1"), "arms", lineno)
            if b.domain is None:
                b.domain = plane((at[0] - arms, at[1] - arms,
                                  at[0] + arms, at[1] + arms))
            if b.n_labels is None:
                b.n_labels = 4
            base = len(b.vertices)
            b.vertices.append(at)
            dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                    np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
            # sector between arm i and arm i+1 (ccw) carries label i+1
            for i, d in enumerate(dirs):
                b.vertices.append(at + arms * d)
                left = i + 1
                right = (i - 1) % 4 + 1
                b.add_edge(Edge((base, base + 1 + i), left, right))
        elif head == "edge":
            kv = _parse_kv(rest, lineno, raw)
            left = _intval(kv.get("left", ""), "left", lineno)
            right = _intval(kv.get("right", ""), "right", lineno)
            pts = _points(kv.get("points", ""), "points", lineno)
            if len(pts) < 2:
                raise SceneParseError("edge needs at least 2 points", lineno)
            closed = len(pts) > 2 and np.allclose(pts[0], pts[-1])
            if closed:
                pts = pts[:-1]
            b.add_chain(pts, left, right, closed=closed)
        elif head == "generator":
            if not rest:
                raise SceneParseError("expected generator name", lineno)
            kv = _parse_kv(rest[1:], lineno, raw)
            if rest[0] == "voronoi":
                seeds = _intval(kv.get("seeds", "8"), "seeds", lineno)
                rng = _intval(kv.get("rng", "0"), "rng", lineno)
                return voronoi_scene(seeds, rng, h_max=h_max)
            if rest[0] == "honeycomb":
                cols = _intval(kv.get("cols", "3"), "cols", lineno)
                rows = _intval(kv.get("rows", "2"), "rows", lineno)
                return honeycomb_scene(cols, rows, h_max=h_max)
            raise SceneParseError("unknown generator %r" % rest[0], lineno)
        else:
            raise SceneParseError("unknown directive %r" % head, lineno)
    net = b.finish(last)
    # merge endpoints that coincide across directives (shared junctions)
    return _weld_coincident(net)


def _weld_coincident(net, tol=1e-9):
    """Identify vertices with identical coordinates (exact junction sharing):
    each takes the first vertex on its tol-grid point, and unused vertices
    are dropped."""
    if len(net.vertices) == 0:
        return net
    _, rep, inverse = np.unique(np.round(net.vertices / tol), axis=0,
                                return_index=True, return_inverse=True)
    every, first, last = net.chain_entries()
    return rebuild(net, net.vertices, rep[inverse.ravel()][every],
                   last - first + 1, net.edge_labels())


def emit_scene(net):
    """Canonical explicit text form (parse . emit_scene is identity)."""
    out = []
    if net.domain.periodic:
        out.append("domain torus")
    else:
        out.append("domain plane bbox=(%.17g,%.17g,%.17g,%.17g)" % net.domain.bbox)
    out.append("labels %d" % net.n_labels)
    for e in net.edges:
        pts = ";".join("(%.17g,%.17g)" % (net.vertices[v][0], net.vertices[v][1])
                       for v in e.chain)
        out.append("edge left=%d right=%d points=%s" % (e.left, e.right, pts))
    return "\n".join(out) + "\n"


# ---- generators ----------------------------------------------------------------


def voronoi_scene(n_seeds, seed, h_max=0.05):
    """Periodic Voronoi grain scene on the torus (one label per seed)."""
    from scipy.spatial import Voronoi, cKDTree  # only this generator needs qhull

    rng = np.random.default_rng(seed)
    seeds = rng.random((n_seeds, 2))
    shifts = np.array([[i, jj] for i in (-1, 0, 1) for jj in (-1, 0, 1)],
                      dtype=float)
    tiled = np.concatenate([seeds + s for s in shifts])
    vor = Voronoi(tiled)
    raw_pts = []
    segs = []
    for (pa, pb), rv in zip(vor.ridge_points, vor.ridge_vertices):
        if -1 in rv:
            continue
        v0, v1 = vor.vertices[rv[0]], vor.vertices[rv[1]]
        mid = 0.5 * (v0 + v1)
        if not (0.0 <= mid[0] < 1.0 and 0.0 <= mid[1] < 1.0):
            continue  # keep exactly one periodic copy of each ridge
        la = int(pa % n_seeds) + 1
        lb = int(pb % n_seeds) + 1
        d = v1 - v0
        side = d[0] * (tiled[pa][1] - v0[1]) - d[1] * (tiled[pa][0] - v0[0])
        left, right = (la, lb) if side > 0 else (lb, la)
        # ridges longer than the half-period must be subdivided before the
        # endpoints are wrapped, or the minimum-image segment flips direction
        pieces = max(1, int(np.ceil(np.linalg.norm(d) / 0.4)))
        chain = []
        for q in range(pieces + 1):
            chain.append(len(raw_pts))
            raw_pts.append(np.mod(v0 + (q / pieces) * d, 1.0))
        segs.append((tuple(chain), left, right))

    # periodic copies of the same junction land on the same torus point only
    # up to qhull roundoff; cluster and merge before building the network
    raw = np.asarray(raw_pts)
    tree = cKDTree(raw, boxsize=1.0)
    parent = list(range(len(raw)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, jj in tree.query_pairs(1e-7):
        parent[find(i)] = find(jj)
    reps = {}
    verts = []
    idx = np.empty(len(raw), dtype=int)
    for i in range(len(raw)):
        r = find(i)
        if r not in reps:
            reps[r] = len(verts)
            verts.append(raw[r])
        idx[i] = reps[r]
    edges = []
    for chain, left, right in segs:
        ch = tuple(int(idx[a]) for a in chain)
        if ch[0] != ch[-1] or len(ch) > 2:
            edges.append(Edge(ch, left, right))

    net = LabeledNetwork(torus(), n_seeds, np.asarray(verts, dtype=float),
                         edges, MeshScale())
    return remesh(weld_junctions(net), h_max=h_max)


def honeycomb_scene(cols=3, rows=2, h_max=0.05):
    """Exactly stationary honeycomb on the torus: straight edges, 120 degrees.

    cols zigzag periods across x (multiple of 3 so three colors wrap), rows
    zigzag chains (even so the brick offset wraps).  Slant length 1/(3 sqrt 3)
    scaled to the column count; the vertical edge takes up the remaining row
    height.  Every junction is a symmetric 120-degree triple point, so the
    first variation vanishes identically.
    """
    if cols % 3 != 0 or cols <= 0:
        raise ValueError("cols must be a positive multiple of 3")
    if rows % 2 != 0 or rows <= 0:
        raise ValueError("rows must be a positive even number")
    a = 1.0 / (2.0 * cols)  # half of the x-period of one zigzag unit
    ell = 2.0 * a / np.sqrt(3.0)  # slant length at 30 degrees
    H = 1.0 / rows
    v_len = H - ell / 2.0
    if v_len <= 0:
        raise ValueError("rows too dense for 120-degree geometry")

    low = {}
    high = {}
    verts = []

    def add(p):
        verts.append(np.mod(np.asarray(p, dtype=float), 1.0))
        return len(verts) - 1

    for r in range(rows):
        off = (r % 2) * a
        y = r * H
        for i in range(cols):
            low[(r, i)] = add((off + 2 * a * i, y))
            high[(r, i)] = add((off + 2 * a * i + a, y + ell / 2.0))

    # hexagon centers and a proper 3-coloring found by exhaustive search
    centers = []
    for r in range(rows):
        off = (r % 2) * a
        for i in range(cols):
            centers.append(((off + 2 * a * i) % 1.0,
                            (r * H + (H + ell / 2.0) / 2.0) % 1.0))
    centers = np.asarray(centers)
    dom = torus()

    def nearest_center(p):
        d = dom.delta(p, centers)
        return int(np.argmin(np.sum(d * d, axis=1)))

    segs = []
    for r in range(rows):
        for i in range(cols):
            segs.append((high[(r, i)], low[(r, i)]))  # slant down-left
            segs.append((high[(r, i)], low[(r, (i + 1) % cols)]))  # down-right
            j = (i if r % 2 == 0 else (i + 1) % cols)
            segs.append((high[(r, i)], low[((r + 1) % rows, j)]))  # vertical up

    # the hexagon on each side of each segment, by probing past the midpoint
    faces = []
    probe_len = 0.3 * ell
    for i0, i1 in segs:
        p0 = verts[i0]
        d = dom.delta(p0, verts[i1])
        mid = p0 + 0.5 * d
        n_left = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        cl = nearest_center(np.mod(mid + probe_len * n_left, 1.0))
        cr = nearest_center(np.mod(mid - probe_len * n_left, 1.0))
        faces.append((cl, cr))

    color = _three_color(len(centers), faces)
    edges = [Edge((i0, i1), color[cl] + 1, color[cr] + 1)
             for (i0, i1), (cl, cr) in zip(segs, faces)]
    net = LabeledNetwork(dom, 3, np.asarray(verts, dtype=float), edges,
                         MeshScale())
    return remesh(net, h_max=h_max)


def _three_color(n, adjacent_pairs):
    adj = [set() for _ in range(n)]
    for a, b in adjacent_pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    color = [-1] * n

    def solve(i):
        if i == n:
            return True
        for c in range(3):
            if all(color[k] != c for k in adj[i]):
                color[i] = c
                if solve(i + 1):
                    return True
                color[i] = -1
        return False

    if not solve(0):
        raise ValueError("hexagon layout not 3-colorable")
    return color

"""Independent oracles the tests freeze against.

Everything here is computed from first principles (closed forms or scipy
quadrature written separately from the package), never by calling the code
under test, or is the plain loop that array code in the package replaced,
kept as its reference.
"""

import numpy as np
from scipy import integrate, optimize
from scipy.spatial import cKDTree

from grainflow.deformation import (C2_SMALLNESS, C3_AREA,
                                   DeformationOutcome, DominanceAmbiguityError,
                                   Move, NotADiskError, _golden_min,
                                   identity_outcome, length_in_ball)
from grainflow.network import (Edge, LabeledNetwork, region_loops, shoelace,
                               slab_sweep)

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


def kernel_normalize_quad(eps):
    """c(eps) with the transition annulus by adaptive quadrature, the
    reference for the fixed Gauss-Legendre rule in kernels.kernel_normalize."""

    def radial(r):
        u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        p = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u * u)
        return p * (r / eps**2) * np.exp(-(r * r) / (2.0 * eps * eps))

    inner = -np.expm1(-1.0 / (8.0 * eps * eps))
    tail, _ = integrate.quad(radial, 0.5, 1.0, epsabs=1e-14, epsrel=1e-12,
                             limit=200)
    return 1.0 / (inner + tail)


def golden_min_scipy(f, lo, hi):
    """SciPy's bracketed golden search as the junction split called it, the
    reference for deformation._golden_min; raises ValueError without a
    bracket."""
    res = optimize.minimize_scalar(
        lambda t: f(min(max(t, lo), hi)), bracket=(lo, 0.5 * (lo + hi), hi),
        method="golden", options={"xtol": 1e-12})
    t = float(min(max(res.x, lo), hi))
    return t, float(f(t))


def pairs_within_tree(pts, r, periodic):
    """KD-tree pair query, the reference for network._pairs_within."""
    if periodic:
        return cKDTree(np.mod(pts, 1.0), boxsize=1.0).query_pairs(r)
    return cKDTree(pts).query_pairs(r)


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


def kernel_value_grad_full(kernel, d):
    """Kernel value and gradient with the profile evaluated at every radius,
    the reference for Kernel.value_grad."""
    d = np.asarray(d, dtype=float)
    r2 = np.sum(d * d, axis=-1)
    r = np.sqrt(r2)
    e2 = kernel.eps * kernel.eps
    ghat = np.exp(-r2 / (2.0 * e2)) / (2.0 * np.pi * e2)
    u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    val = kernel.c_eps * (1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u * u)) * ghat
    u = 2.0 * r - 1.0
    inside = (u > 0.0) & (u < 1.0)
    u = np.where(inside, u, 0.0)
    dpsi = np.where(inside, -2.0 * 30.0 * u * u * (1.0 - u) ** 2, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        radial = np.where(r > 0.0, dpsi / np.where(r > 0.0, r, 1.0), 0.0)
    grad = (kernel.c_eps * radial * ghat - val / e2)[..., None] * d
    return val, grad


_TREE_PAIR_CHUNK = 4_000_000


def _tree_pairs(domain, pts, queries, r):
    """(query, point) index pairs within r by KD-tree, in chunks of queries,
    each query's points ascending."""
    if domain.periodic:
        tree = cKDTree(np.mod(pts, 1.0), boxsize=1.0)
        q = np.mod(queries, 1.0)
    else:
        tree = cKDTree(pts)
        q = queries
    step = max(16, _TREE_PAIR_CHUNK // max(1, int(len(pts) * min(1.0, 8 * r * r))))
    for lo in range(0, len(q), step):
        lists = tree.query_ball_point(q[lo:lo + step], r)
        counts = [len(l) for l in lists]
        if sum(counts):
            yield (np.repeat(np.arange(lo, lo + len(lists)), counts),
                   np.concatenate([np.asarray(l, dtype=int) for l in lists if l]))


def direct_lattice_sums_tree(V, kernel, cells):
    """Phi*|V| and Phi*dV at lattice cells by KD-tree pair lists, the
    reference for the direct branch of varifold.smoothing_grid.

    Each cell sums its nodes within trunc_radius in ascending order.
    """
    cap = min(V.h_sub, kernel.eps)
    x, w, tau, _, _ = V.quad_nodes(cap)
    m = len(cells)
    mass, fv = np.zeros(m), np.zeros((m, 2))
    if len(x) == 0 or m == 0:
        return mass, fv
    for ti, ni in _tree_pairs(V.domain, x, cells, kernel.trunc_radius):
        d = V.domain.delta(cells[ti], x[ni])  # node - cell
        val, grad = kernel_value_grad_full(kernel, d)
        proj = np.einsum("pk,pk->p", tau[ni], grad)
        contrib = (w[ni] * proj)[:, None] * tau[ni]
        fv[:, 0] += np.bincount(ti, weights=contrib[:, 0], minlength=m)
        fv[:, 1] += np.bincount(ti, weights=contrib[:, 1], minlength=m)
        mass += np.bincount(ti, weights=w[ni] * val, minlength=m)
    return mass, fv


def direct_gather_tree(V, kernel, sg, points):
    """Phi_eps * h_tilde and its Jacobian J[:, a, b] = d h_b / d x_a at
    points by KD-tree pair lists over the lattice cells, the reference for
    the direct gather of varifold.h_eps_at."""
    m = len(points)
    h, J = np.zeros((m, 2)), np.zeros((m, 2, 2))
    for ti, gi in _tree_pairs(V.domain, sg.points, points, kernel.trunc_radius):
        d = V.domain.delta(points[ti], sg.points[gi])  # cell - point
        val, grad = kernel_value_grad_full(kernel, d)
        # d/dx Phi(g - x) = -(grad Phi)(g - x)
        contrib_j = -grad[:, :, None] * sg.h_tilde[gi][:, None, :] * sg.cell
        for a in range(2):
            for b in range(2):
                J[:, a, b] += np.bincount(ti, weights=contrib_j[:, a, b],
                                          minlength=m)
        contrib = val[:, None] * sg.h_tilde[gi] * sg.cell
        h[:, 0] += np.bincount(ti, weights=contrib[:, 0], minlength=m)
        h[:, 1] += np.bincount(ti, weights=contrib[:, 1], minlength=m)
    return h, J


# ---- reference loops for the deformation pass and the network helpers ----------


def segment_arrays_loop(net):
    """(p0, p1, edge_id, left, right) one edge at a time, the reference for
    LabeledNetwork.segment_arrays."""
    p0s, p1s, eids, lefts, rights = [], [], [], [], []
    for ei, e in enumerate(net.edges):
        idx = np.asarray(e.chain)
        a = net.vertices[idx[:-1]]
        b = net.vertices[idx[1:]]
        d = net.domain.delta(a, b)
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


def _ends_by_edge(net):
    """vertex -> edge-end list, lists and keys in the order the edges list
    them."""
    ends = {}
    for ei, e in enumerate(net.edges):
        c = e.chain
        d0 = net.domain.delta(net.vertices[c[0]], net.vertices[c[1]])
        d1 = net.domain.delta(net.vertices[c[-1]], net.vertices[c[-2]])
        ends.setdefault(c[0], []).append((d0, e.left, e.right, ei, True))
        ends.setdefault(c[-1], []).append((d1, e.right, e.left, ei, False))
    return ends


def outgoing_ends_loop(net):
    """vertex -> edge-end list one edge at a time, keys ascending and each
    list sorted counterclockwise (stable), the reference for
    LabeledNetwork.outgoing_ends."""
    return {vi: sorted(lst, key=lambda end: np.arctan2(end[0][1], end[0][0]))
            for vi, lst in sorted(_ends_by_edge(net).items())}


def edge_lengths_loop(net):
    """Each chain's length as a running sum of per-segment norms."""
    out = []
    for e in net.edges:
        length = 0.0
        for a, b in zip(e.chain[:-1], e.chain[1:]):
            length += float(np.linalg.norm(net.domain.delta(
                net.vertices[a], net.vertices[b])))
        out.append(length)
    return np.asarray(out, dtype=float)


def _segments_properly_cross_scalar(a0, a1, b0, b1, tol=1e-12):
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < tol:
        return False
    r = b0 - a0
    t = (r[0] * d2[1] - r[1] * d2[0]) / den
    s = (r[0] * d1[1] - r[1] * d1[0]) / den
    return tol < t < 1 - tol and tol < s < 1 - tol


def validate_partition_loop(net):
    """Partition check one edge, end and pair at a time with KD-tree pair
    queries, the reference for network.validate_partition (junctions in
    ascending vertex order)."""
    import heapq
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
        return v

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

    deg = vertex_degrees_loop(net)
    ends = _ends_by_edge(net)

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

    for vi, lst in sorted(ends.items()):
        if len(lst) < 3:
            continue
        angles = [np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst]
        order = np.argsort(angles, kind="stable")
        k = len(lst)
        for a in range(k):
            cur = lst[order[a]]
            nxt = lst[order[(a + 1) % k]]
            if cur[1] != nxt[2]:
                v.append(("vertex", int(vi), "inconsistent labels around junction"))
                break

    ids = used_vertices_loop(net)
    if len(ids) > 1:
        pairs = sorted(pairs_within_tree(net.vertices[ids], net.scale.weld,
                                         net.domain.periodic))
        if pairs:
            cap_len = 4.0 * net.scale.h_min
            nbr = {}
            for e in net.edges:
                for a, b in zip(e.chain[:-1], e.chain[1:]):
                    w = float(np.linalg.norm(net.domain.delta(
                        net.vertices[a], net.vertices[b])))
                    nbr.setdefault(a, []).append((b, w))
                    nbr.setdefault(b, []).append((a, w))

            def near_in_graph(a, b):
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

            for i, j in pairs:
                a, b = int(ids[i]), int(ids[j])
                if near_in_graph(a, b):
                    continue
                v.append(("vertex", a,
                          "closer than weld tolerance to vertex %d" % b))
                break

    p0, p1, eid, _, _ = segment_arrays_loop(net)
    if len(p0) > 1:
        mid = 0.5 * (p0 + p1)
        r = 0.5 * float(np.max(np.linalg.norm(p1 - p0, axis=1)))
        for i, j in sorted(pairs_within_tree(mid, 2.0 * r + 1e-12,
                                             net.domain.periodic)):
            off = net.domain.delta(mid[j], mid[i])
            shift = (mid[i] - off) - mid[j]
            if _segments_properly_cross_scalar(p0[i], p1[i], p0[j] + shift,
                                               p1[j] + shift):
                v.append(("edge", int(eid[i]),
                          "segment crossing with edge %d" % eid[j]))
    return v


def region_loops_walk(net, label):
    """Face tracing by an angle search at every vertex and per-segment
    unwrapping, the reference for network.region_loops."""
    by_vertex = {}
    for vi, lst in _ends_by_edge(net).items():
        angles = np.array([np.arctan2(d[1], d[0]) for d, _, _, _, _ in lst])
        by_vertex[vi] = [lst[o] for o in np.argsort(angles, kind="stable")]

    def successor(vi, d_in):
        """Next outgoing end continuing the face left of the arrival direction."""
        lst = by_vertex[vi]
        rev = np.arctan2(-d_in[1], -d_in[0])
        best, best_gap = None, None
        for cand in lst:
            a = np.arctan2(cand[0][1], cand[0][0])
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
                break
            pending.discard(cur)
            ei, forward = cur
            chain = net.edges[ei].chain if forward else tuple(reversed(net.edges[ei].chain))
            base = loop_pts[-1] if loop_pts else net.vertices[chain[0]]
            unwrapped = [np.asarray(base, dtype=float)]
            for a, b in zip(chain[:-1], chain[1:]):
                step = net.domain.delta(net.vertices[a], net.vertices[b])
                unwrapped.append(unwrapped[-1] + step)
            loop_pts.extend(unwrapped if not loop_pts else unwrapped[1:])
            _, _, _, nei, nfwd = successor(chain[-1], unwrapped[-1] - unwrapped[-2])
            cur = (nei, nfwd)
            if cur == key:
                break
        if len(loop_pts) >= 3:
            loops.append(np.asarray(loop_pts))
    return loops


def vertex_degrees_loop(net):
    """Edge-ends per vertex, one chain at a time."""
    deg = np.zeros(len(net.vertices), dtype=int)
    for e in net.edges:
        c = np.asarray(e.chain)
        deg[c[0]] += 1
        deg[c[-1]] += 1
        interior = c[1:-1]
        if len(interior):
            np.add.at(deg, interior, 2)
    return deg


def kink_candidates_loop(net, cos_threshold=0.9):
    """Per-vertex kink scan, the reference for deformation._kink_candidates."""
    deg = vertex_degrees_loop(net)
    out = []
    seen = set()
    for e in net.edges:
        c = list(e.chain)
        closed = c[0] == c[-1]
        positions = range(1, len(c) - 1)
        if closed:
            positions = range(0, len(c) - 1)
        for m in positions:
            vi = c[m]
            if deg[vi] != 2 or vi in seen:
                continue
            prev = c[m - 1] if m > 0 else c[-2]
            nxt = c[m + 1]
            a = net.domain.delta(net.vertices[prev], net.vertices[vi])
            b = net.domain.delta(net.vertices[vi], net.vertices[nxt])
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na < 1e-12 or nb < 1e-12:
                continue
            cosang = float(np.dot(a, b) / (na * nb))
            if cosang < cos_threshold:
                seen.add(vi)
                out.append((cosang, vi, prev, nxt))
    out.sort()
    return out


def label_boundary_lengths_loop(net):
    """label -> boundary length, for the labels that have a boundary edge."""
    out = {}
    for label in range(1, net.n_labels + 1):
        bedges = [e for e in net.edges if label in (e.left, e.right)]
        if bedges:
            out[label] = sum(
                float(np.linalg.norm(net.domain.delta(
                    net.vertices[a], net.vertices[b])))
                for e in bedges for a, b in zip(e.chain[:-1], e.chain[1:]))
    return out


def weld_junctions_recursive(net):
    """Weld the first short junction-to-junction chain, then recurse."""
    deg = vertex_degrees_loop(net)
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
                merged = compact_loop(LabeledNetwork(
                    net.domain, net.n_labels, verts, edges, net.scale))
                return weld_junctions_recursive(merged)
    return net


def segment_vertex_ids_loop(net):
    """(v0, v1) of the nonzero-length segments, one chain at a time, the
    reference for VarifoldView.v0 and v1."""
    p0, p1, _, _, _ = net.segment_arrays()
    keep = np.linalg.norm(p1 - p0, axis=1) > 0.0
    v0s, v1s = [], []
    for e in net.edges:
        c = list(e.chain)
        v0s.extend(c[:-1])
        v1s.extend(c[1:])
    return (np.asarray(v0s, dtype=int)[keep], np.asarray(v1s, dtype=int)[keep])


def used_vertices_loop(net):
    """Sorted indices of the vertices some chain uses."""
    used = np.zeros(len(net.vertices), dtype=bool)
    for e in net.edges:
        used[list(e.chain)] = True
    return np.nonzero(used)[0]


# ---- reference loops for the network edits --------------------------------------


def compact_loop(net):
    """Drop unused vertices and reindex every chain tuple, the reference for
    network.rebuild on a network's own chains."""
    used = np.zeros(len(net.vertices), dtype=bool)
    for e in net.edges:
        used[list(e.chain)] = True
    idx = np.cumsum(used) - 1
    edges = [Edge(tuple(int(idx[i]) for i in e.chain), e.left, e.right)
             for e in net.edges]
    return LabeledNetwork(net.domain, net.n_labels, net.vertices[used], edges,
                          net.scale)


def remesh_loop(net, h_min=None, h_max=None):
    """Remesh one chain and one segment at a time, the reference for
    network.remesh."""
    h_min = net.scale.h_min if h_min is None else h_min
    h_max = net.scale.h_max if h_max is None else h_max
    dom = net.domain
    verts = [v for v in net.vertices]
    new_edges = []
    deg = vertex_degrees_loop(net)
    for e in net.edges:
        chain = list(e.chain)
        closed = chain[0] == chain[-1]
        # pass 1: merge runs of short segments by dropping interior vertices
        out = [chain[0]]
        for a, b in zip(chain[:-1], chain[1:]):
            step = float(np.linalg.norm(dom.delta(net.vertices[out[-1]],
                                                  net.vertices[b])))
            seg = float(np.linalg.norm(dom.delta(net.vertices[a],
                                                 net.vertices[b])))
            if seg >= h_min or step >= h_min or b == chain[-1] or deg[b] != 2:
                out.append(b)
        chain = out
        if closed and len(chain) < 4 and len(set(chain)) < 3:
            chain = list(e.chain)  # not below a triangle
        # pass 2: recursive midpoint split of long segments
        final = [chain[0]]
        for a, b in zip(chain[:-1], chain[1:]):
            pa = np.asarray(verts[a], dtype=float)
            step = dom.delta(pa, net.vertices[b])
            length = float(np.linalg.norm(step))
            pieces = 1
            while length / pieces > h_max * (1.0 + 1e-12):
                pieces *= 2
            for k in range(1, pieces):
                verts.append(dom.wrap(pa + step * (k / pieces)))
                final.append(len(verts) - 1)
            final.append(b)
        new_edges.append(Edge(tuple(final), e.left, e.right))
    return compact_loop(LabeledNetwork(net.domain, net.n_labels,
                                       np.asarray(verts, dtype=float),
                                       new_edges, net.scale))


def weld_coincident_loop(net, tol=1e-9):
    """Vertex identification by a dict of rounded coordinates, the reference
    for scenes._weld_coincident."""
    if len(net.vertices) == 0:
        return net
    keys = {}
    remap = np.arange(len(net.vertices))
    for i, p in enumerate(net.vertices):
        k = (round(p[0] / tol), round(p[1] / tol))
        if k in keys:
            remap[i] = keys[k]
        else:
            keys[k] = i
    edges = [Edge(tuple(int(remap[v]) for v in e.chain), e.left, e.right)
             for e in net.edges]
    return compact_loop(LabeledNetwork(net.domain, net.n_labels, net.vertices,
                                       edges, net.scale))


def _length_of_ids(net, edge_ids):
    """Running sum of the given edges' segment lengths, in the given order."""
    _, first, last = net.chain_entries()
    seg = np.concatenate([np.arange(first[e] - e, last[e] - e)
                          for e in edge_ids])
    return float(np.cumsum(net.segment_lengths()[seg])[-1])


def _without(net, edges, vertices=None):
    return compact_loop(LabeledNetwork(
        net.domain, net.n_labels,
        net.vertices.copy() if vertices is None else vertices, edges,
        net.scale))


def remove_interior_boundary_loop(net, edge_index):
    """Interior-boundary removal with the prune as sweeps over Edge tuples and
    the removed edges in set order, the reference for
    deformation.remove_interior_boundary."""
    e = net.edges[edge_index]
    if e.left != e.right:
        raise ValueError("edge %d separates distinct labels" % edge_index)
    removed = {edge_index}
    affected = {e.chain[0], e.chain[-1]}
    changed = True
    while changed:
        changed = False
        deg = np.zeros(len(net.vertices), dtype=int)
        for fi, f in enumerate(net.edges):
            if fi not in removed:
                deg[f.chain[0]] += 1
                deg[f.chain[-1]] += 1
        for fi, f in enumerate(net.edges):
            if fi in removed or f.left != f.right or f.chain[0] == f.chain[-1]:
                continue
            for vi in (f.chain[0], f.chain[-1]):
                if vi in affected and deg[vi] == 1:
                    removed.add(fi)
                    affected.update((f.chain[0], f.chain[-1]))
                    changed = True
                    break
    pts = np.concatenate([net.vertices[list(net.edges[fi].chain)]
                          for fi in removed])
    rel = net.domain.delta(pts[0], pts)
    center = net.domain.wrap(pts[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    radius = float(np.max(np.linalg.norm(
        net.domain.delta(center, pts), axis=1))) + 1e-9
    removed_length = _length_of_ids(net, removed)
    out = _without(net, [f for fi, f in enumerate(net.edges)
                         if fi not in removed])
    lb = length_in_ball(net, center, radius)
    move = Move("interior-boundary-removal", center, radius,
                displacement=2.0 * radius, length_before=lb,
                length_after=lb - removed_length)
    return DeformationOutcome(out, removed_length, {}, [move])


def collapse_small_region_loop(net, label, j):
    """Island collapse over Edge tuples, the reference for
    deformation.collapse_small_region."""
    bedges = [ei for ei, e in enumerate(net.edges)
              if label in (e.left, e.right)]
    if not bedges:
        raise NotADiskError("label %d has no boundary" % label)
    loops = region_loops(net, label)
    if len(loops) != 1:
        raise NotADiskError("label %d region is not a topological disk" % label)
    surrounding = set()
    for ei in bedges:
        e = net.edges[ei]
        other = e.right if e.left == label else e.left
        if other != label:
            surrounding.add(other)
    if len(surrounding) != 1:
        raise DominanceAmbiguityError(
            "no single surrounding label for %d: %s" % (label, sorted(surrounding)))
    i0 = surrounding.pop()
    deg = vertex_degrees_loop(net)
    if any(deg[vi] != 2 for ei in bedges for vi in net.edges[ei].chain):
        return identity_outcome(net)
    loop = loops[0]
    rel = loop - loop[0]
    center = net.domain.wrap(loop[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    diam = float(np.max(np.linalg.norm(rel[:, None, :] - rel[None, :, :], axis=-1)))
    R = 1.0 / (2.0 * j * j)
    if diam > R:
        return identity_outcome(net)
    ell = _length_of_ids(net, bedges)
    mass_ball = length_in_ball(net, center, R)
    if ell > C2_SMALLNESS * R or mass_ball > ell + 1e-9:
        return identity_outcome(net)
    area = abs(shoelace(loop))
    if area > 0.5 * np.pi * R * R:
        raise DominanceAmbiguityError("region fills half its enclosing ball")
    if area > C3_AREA * ell * ell + 1e-12:
        return identity_outcome(net)
    out = _without(net, [f for fi, f in enumerate(net.edges)
                         if fi not in set(bedges)])
    move = Move("small-region-collapse", center, R, displacement=diam,
                length_before=mass_ball, length_after=mass_ball - ell)
    return DeformationOutcome(out, ell, {label: -area, i0: area}, [move])


def split_high_order_junction_loop(net, junction, j):
    """Junction split that appends vertices one at a time and edits the arm
    tuples, the reference for deformation.split_high_order_junction."""
    ends = outgoing_ends_loop(net)[junction]
    d = len(ends)
    if d < 4:
        raise ValueError("junction degree %d < 4" % d)
    dirs = np.array([e[0] for e in ends], dtype=float)
    slen = np.linalg.norm(dirs, axis=1)
    units = dirs / slen[:, None]
    v = net.vertices[junction]
    rho = min(0.005 / j, 1.0 / (4.0 * j * j), 0.45 * float(np.min(slen)))
    cuts = rho * units
    best = None
    if d == 4:
        base = 4.0 * rho
        for k in range(2):
            iu = [k, (k + 1) % 4]
            iw = [(k + 2) % 4, (k + 3) % 4]
            bu = units[iu[0]] + units[iu[1]]
            bw = units[iw[0]] + units[iw[1]]
            nu, nw = np.linalg.norm(bu), np.linalg.norm(bw)
            if nu < 1e-9 or nw < 1e-9:
                continue
            bu, bw = bu / nu, bw / nw

            def local_len(t, bu=bu, bw=bw, iu=iu, iw=iw):
                u = t * bu
                w = t * bw
                L = np.linalg.norm(u - w)
                for i in iu:
                    L += np.linalg.norm(cuts[i] - u)
                for i in iw:
                    L += np.linalg.norm(cuts[i] - w)
                return L

            t, L = _golden_min(local_len, 0.0, 0.49 * rho)
            if L < base - 1e-12 and (best is None or L < best[0] - 1e-15):
                best = (L, k, t, True)
    else:
        base = d * rho
        for k in range(d):
            iu = [k, (k + 1) % d]
            bu = units[iu[0]] + units[iu[1]]
            nu = np.linalg.norm(bu)
            if nu < 1e-9:
                continue
            bu = bu / nu

            def local_len(t, bu=bu, iu=iu):
                u = t * bu
                L = np.linalg.norm(u)
                for i in range(d):
                    L += np.linalg.norm(cuts[i] - (u if i in iu else 0.0))
                return L

            t, L = _golden_min(local_len, 0.0, 0.49 * rho)
            if L < base - 1e-12 and (best is None or L < best[0] - 1e-15):
                best = (L, k, t, False)
    if best is None:
        return identity_outcome(net)
    L, k, t, symmetric = best
    verts = [p for p in net.vertices]

    def add_vertex(p):
        verts.append(net.domain.wrap(np.asarray(p, dtype=float)))
        return len(verts) - 1

    cut_idx = [add_vertex(v + cuts[i]) for i in range(d)]
    iu = [k, (k + 1) % d]
    bu = units[iu[0]] + units[iu[1]]
    bu /= np.linalg.norm(bu)
    u_idx = add_vertex(v + t * bu)
    if symmetric:
        iw = [(k + 2) % 4, (k + 3) % 4]
        bw = units[iw[0]] + units[iw[1]]
        bw /= np.linalg.norm(bw)
        w_idx = add_vertex(v + t * bw)
        group_of = {i: (u_idx if i in iu else w_idx) for i in range(d)}
        bridge = Edge((u_idx, w_idx), ends[iu[0]][2], ends[iu[1]][1])
    else:
        group_of = {i: (u_idx if i in iu else junction) for i in range(d)}
        bridge = Edge((u_idx, junction), ends[iu[0]][2], ends[iu[1]][1])
    edges = list(net.edges)
    for i, (_, _, _, ei, fwd) in enumerate(ends):
        nj = group_of[i]
        ch = edges[ei].chain
        if fwd:
            edges[ei] = Edge((nj, cut_idx[i]) + ch[1:], edges[ei].left,
                             edges[ei].right)
        else:
            edges[ei] = Edge(ch[:-1] + (cut_idx[i], nj), edges[ei].left,
                             edges[ei].right)
    edges.append(bridge)
    out = _without(net, edges, np.asarray(verts, dtype=float))
    radius = rho + t + 1e-9
    lb = length_in_ball(net, v, radius)
    move = Move("junction-split", np.asarray(v, dtype=float), radius,
                displacement=t, length_before=lb,
                length_after=lb - (d * rho - L))
    return DeformationOutcome(out, d * rho - L, {}, [move])


# ---- reference for the exact symmetric-difference overlay ----------------------


def symmetric_difference_grid(net_a, net_b, label, coarse=0.02, fine_factor=8):
    """Area of the label's region symmetric difference by point sampling.

    Two-level grid: coarse cells whose centers sit farther from both carriers
    than twice the cell diagonal are classified wholesale; cells near either
    boundary are refined fine_factor x fine_factor.  Each frame's slab sweep
    locates every sample point.  Every misclassified point lies within one
    fine-cell diagonal of a boundary.
    """
    dom = net_a.domain
    if dom.periodic:
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    else:
        lo = np.array(dom.bbox[:2], dtype=float)
        hi = np.array(dom.bbox[2:], dtype=float)
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


def convex_intersection_area(p, q):
    """Area of the intersection of two counterclockwise convex polygons
    (vertex arrays), by clipping p against each edge of q."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    out = [np.asarray(v, dtype=float) for v in p]
    for a, b in zip(q, np.roll(q, -1, axis=0)):
        inp, out = out, []
        for s, e in zip(inp, inp[1:] + inp[:1]):
            s_in, e_in = cross(b - a, s - a) >= 0.0, cross(b - a, e - a) >= 0.0
            # an edge parallel to the clip line can straddle it only by
            # roundoff; it adds no intersection point
            if s_in != e_in and cross(b - a, e - s) != 0.0:
                t = cross(b - a, a - s) / cross(b - a, e - s)
                out.append(s + t * (e - s))
            if e_in:
                out.append(e)
        if not out:
            return 0.0
    x, y = np.asarray(out).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

"""Area-reducing Lipschitz deformations: move catalog and admissibility.

A move is local: it changes the network only inside a support disk C.  It is
admissible at level j when

  (a) no point moves farther than 1/j^2,
  (b) every per-label area change is at most 1/j,
  (c) the boundary mass inside C drops by the factor exp(-j diam C),

with the identity always admissible.  (c) is a sufficient localized criterion;
it is what makes the composite of disjointly supported moves admissible, so we
enforce support disjointness within a pass instead of certifying the universal
test-function statement by sampling (sampling cannot certify it).

The catalog: interior-boundary removal, small-region collapse by radial
projection (islands only: a grain whose boundary is a single loop of degree-2
vertices; grains pinned by junctions disappear through junction welding in the
engine instead), high-order junction splitting toward the local Steiner
configuration, and kink relaxation.  The exp(-j diam C) criterion is scale
sensitive: the symmetric 4-cross split saves only the factor
(1+sqrt(3))/(2 sqrt(2)) ~ 0.966 regardless of scale, so the split is performed
inside an adaptively small disk (cut radius <= 0.015/j) where the exponential
allowance is weaker than the saving.
"""

from dataclasses import dataclass, field

import numpy as np

from .network import (LabeledNetwork, drop_edges, rebuild, region_areas,
                      region_loops, shoelace, validate_partition)
from .varifold import build_varifold_view, omega_mass
from .weights import WeightFunction, const_weight


@dataclass
class Move:
    kind: str  # junction-split | interior-boundary-removal |
    #            small-region-collapse | local-relaxation | identity
    center: np.ndarray = None
    radius: float = 0.0
    displacement: float = 0.0
    length_before: float = 0.0  # unweighted boundary length inside the support
    length_after: float = 0.0

    @property
    def is_identity(self):
        return self.kind == "identity"


@dataclass
class DeformationOutcome:
    network: LabeledNetwork
    length_decrease_omega: float  # achieved decrease of the Omega-weighted mass
    volume_changes: dict  # label -> signed area change
    accepted_moves: list = field(default_factory=list)


def identity_outcome(net):
    return DeformationOutcome(net, 0.0, {}, [Move("identity")])


class NotADiskError(ValueError):
    pass


class DominanceAmbiguityError(ValueError):
    pass


# small-region collapse constants (the originals are existential); the
# smallness gate mass(B_R) <= C2 R comes from requiring the enclosed area
# c3 mass^2 to stay below a quarter of the ball, so C2 = sqrt(pi / (8 c3))
C3_AREA = 1.0
C2_SMALLNESS = float(np.sqrt(np.pi / (8.0 * C3_AREA)))


def length_in_ball(net: LabeledNetwork, center, radius):
    """Exact length of the network inside the closed ball B_radius(center)."""
    p0, p1, _, _, _ = net.segment_arrays()
    if len(p0) == 0:
        return 0.0
    center = np.asarray(center, dtype=float)
    # minimum-image segment coordinates relative to the ball center
    a = net.domain.delta(center, 0.5 * (p0 + p1)) - 0.5 * (p1 - p0)
    d = p1 - p0
    # |a + t d|^2 = r^2
    A = np.sum(d * d, axis=1)
    B = 2.0 * np.sum(a * d, axis=1)
    C = np.sum(a * a, axis=1) - radius * radius
    disc = B * B - 4.0 * A * C
    total = 0.0
    ok = (disc > 0.0) & (A > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t0 = np.clip(np.where(ok, (-B - sq) / (2.0 * A), 1.0), 0.0, 1.0)
    t1 = np.clip(np.where(ok, (-B + sq) / (2.0 * A), 0.0), 0.0, 1.0)
    total = np.sum(np.maximum(t1 - t0, 0.0) * np.sqrt(A))
    return float(total)


@dataclass
class Admissibility:
    accepted: bool
    reason: str = ""


def verify_admissible(net_before, net_after, move: Move, j):
    """Accept or reject a localized move at level j (reject is data)."""
    if move.is_identity:
        return Admissibility(True)
    if move.displacement > 1.0 / (j * j) + 1e-12:
        return Admissibility(False, "displacement bound")
    before = region_areas(net_before)
    after = region_areas(net_after)
    for lab in before.areas:
        dv = after.areas.get(lab, 0.0) - before.areas[lab]
        if abs(dv) > 1.0 / j + 1e-12:
            return Admissibility(False, "volume bound (label %d)" % lab)
    diam = 2.0 * move.radius
    lb = length_in_ball(net_before, move.center, move.radius)
    la = length_in_ball(net_after, move.center, move.radius)
    if la > np.exp(-j * diam) * lb + 1e-12:
        return Admissibility(False, "insufficient local decrease")
    return Admissibility(True)


def _length_of(net, edges):
    """Total length of the edges a mask picks: a running sum over their
    segments in edge order."""
    _, first, last = net.chain_entries()
    return float(np.cumsum(net.segment_lengths()[
        np.repeat(edges, last - first)])[-1])


# ---- interior boundary removal -------------------------------------------------


def remove_interior_boundary(net: LabeledNetwork, edge_index):
    """Delete a same-label edge and recursively prune what it leaves dangling."""
    lab = net.edge_labels()
    if lab[edge_index, 0] != lab[edge_index, 1]:
        raise ValueError("edge %d separates distinct labels" % edge_index)
    every, first, last = net.chain_entries()
    a, b = every[first], every[last]
    nv = len(net.vertices)
    removed = np.zeros(len(lab), dtype=bool)
    removed[edge_index] = True
    affected = np.zeros(nv, dtype=bool)
    affected[[a[edge_index], b[edge_index]]] = True
    # prune interior open edges left as the only edge at an affected endpoint,
    # until none is
    prunable = (lab[:, 0] == lab[:, 1]) & (a != b)
    while True:
        live = ~removed
        deg = (np.bincount(a[live], minlength=nv)
               + np.bincount(b[live], minlength=nv))
        hit = live & prunable & ((affected[a] & (deg[a] == 1))
                                 | (affected[b] & (deg[b] == 1)))
        if not hit.any():
            break
        removed |= hit
        affected[a[hit]] = affected[b[hit]] = True

    pts = net.vertices[every[np.repeat(removed, last - first + 1)]]
    # tight enclosing ball of the deleted geometry (unwrap about first point)
    rel = net.domain.delta(pts[0], pts)
    center = net.domain.wrap(pts[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    radius = float(np.max(np.linalg.norm(
        net.domain.delta(center, pts), axis=1))) + 1e-9
    removed_length = _length_of(net, removed)

    out = drop_edges(net, removed)
    lb = length_in_ball(net, center, radius)
    move = Move("interior-boundary-removal", center, radius,
                displacement=2.0 * radius,  # crush of the piece to a point
                length_before=lb, length_after=lb - removed_length)
    return DeformationOutcome(out, removed_length, {}, [move])


# ---- small region collapse -----------------------------------------------------


def collapse_small_region(net: LabeledNetwork, label, j):
    """Absorb a tiny island grain into its surrounding label.

    Realizes the radial-projection collapse for the only case it discretely
    applies to: a grain whose boundary is a single closed loop of degree-2
    vertices with nothing else in its enclosing ball.  Non-qualifying smallness
    returns the identity outcome; non-disk or ambiguous surroundings raise.
    """
    lab = net.edge_labels()
    bedges = np.any(lab == label, axis=1)
    if not bedges.any():
        raise NotADiskError("label %d has no boundary" % label)
    loops = region_loops(net, label)
    if len(loops) != 1:
        raise NotADiskError("label %d region is not a topological disk" % label)
    other = np.where(lab[:, 0] == label, lab[:, 1], lab[:, 0])[bedges]
    surrounding = np.unique(other[other != label]).tolist()
    if len(surrounding) != 1:
        raise DominanceAmbiguityError(
            "no single surrounding label for %d: %s" % (label, surrounding))
    i0 = surrounding[0]

    every, first, last = net.chain_entries()
    if np.any(net.vertex_degrees()[
            every[np.repeat(bedges, last - first + 1)]] != 2):
        return identity_outcome(net)  # pinned by junctions; welding handles it

    loop = loops[0]
    rel = loop - loop[0]
    center = net.domain.wrap(loop[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    diam = float(np.max(np.linalg.norm(rel[:, None, :] - rel[None, :, :], axis=-1)))
    R = 1.0 / (2.0 * j * j)
    if diam > R:
        return identity_outcome(net)
    ell = _length_of(net, bedges)
    mass_ball = length_in_ball(net, center, R)
    if ell > C2_SMALLNESS * R or mass_ball > ell + 1e-9:
        return identity_outcome(net)  # smallness relation fails
    area = abs(shoelace(loop))
    if area > 0.5 * np.pi * R * R:
        raise DominanceAmbiguityError("region fills half its enclosing ball")
    if area > C3_AREA * ell * ell + 1e-12:
        return identity_outcome(net)  # isoperimetrically impossible; defensive

    out = drop_edges(net, bedges)
    move = Move("small-region-collapse", center, R,
                displacement=diam, length_before=mass_ball,
                length_after=mass_ball - ell)
    return DeformationOutcome(out, ell, {label: -area, i0: area}, [move])


# ---- junction split ------------------------------------------------------------


def _golden_min(f, lo, hi):
    """Golden-section minimum of f on [lo, hi] from the bracket (lo, mid, hi).

    The steps, constant and stopping rule of SciPy's bracketed golden search,
    so t and f(t) match it bit for bit.  Where f(mid) is not below both ends
    there is no bracket; the least of f(lo), f(mid), f(hi) is returned, lo
    first on ties.
    """
    def g(t):
        return f(min(max(t, lo), hi))

    mid = 0.5 * (lo + hi)
    fa, fb, fc = g(lo), g(mid), g(hi)
    if not (fb < fa and fb < fc):
        t = (lo, mid, hi)[int(np.argmin([fa, fb, fc]))]
        return float(t), float(f(t))
    gr = 0.61803399
    gc = 1.0 - gr
    x0, x3 = lo, hi
    if abs(hi - mid) > abs(mid - lo):
        x1, x2 = mid, mid + gc * (hi - mid)
    else:
        x1, x2 = mid - gc * (mid - lo), mid
    f1, f2 = g(x1), g(x2)
    for _ in range(5000):  # SciPy's maxiter; xtol is 1e-12
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, gr * x2 + gc * x3
            f1, f2 = f2, g(x2)
        else:
            x3, x2, x1 = x2, x1, gr * x1 + gc * x0
            f2, f1 = f1, g(x1)
    x = x1 if f1 < f2 else x2
    t = float(min(max(x, lo), hi))
    return t, float(f(t))


def split_high_order_junction(net: LabeledNetwork, junction, j):
    """Break a degree >= 4 junction into degree-3 junctions with a short bridge.

    Arms are cut at an adaptive radius, the two new junctions slide along the
    group bisectors, and the bridge half-opening is optimized by golden-section
    search on local length.  If no adjacent pairing strictly decreases length
    the identity outcome is returned.
    """
    ends = net.outgoing_ends()[junction]  # counterclockwise
    d = len(ends)
    if d < 4:
        raise ValueError("junction degree %d < 4" % d)
    dirs = np.array([e[0] for e in ends], dtype=float)
    slen = np.linalg.norm(dirs, axis=1)
    units = dirs / slen[:, None]
    v = net.vertices[junction]

    # the local length ratio is scale invariant (~0.974 for the square cross),
    # so the support diameter must keep exp(-2 j radius) above it: radius
    # ~1.5 rho, hence the 0.005/j cap
    rho = min(0.005 / j, 1.0 / (4.0 * j * j), 0.45 * float(np.min(slen)))
    cuts = rho * units  # relative to v

    best = None  # (L, pairing k, t, symmetric?)
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
                L = np.linalg.norm(u)  # bridge back to the old junction
                for i in range(d):
                    L += np.linalg.norm(cuts[i] - (u if i in iu else 0.0))
                return L

            t, L = _golden_min(local_len, 0.0, 0.49 * rho)
            if L < base - 1e-12 and (best is None or L < best[0] - 1e-15):
                best = (L, k, t, False)

    if best is None:
        return identity_outcome(net)
    L, k, t, symmetric = best

    # new vertices: cut i is n + i, then u at n + d (and w at n + d + 1); the
    # arms of u's group join u, the others the bridge's far end (w or the
    # old junction)
    n = len(net.vertices)
    iu = [k, (k + 1) % d]
    bu = units[iu[0]] + units[iu[1]]
    bu /= np.linalg.norm(bu)
    new = [v + cuts, v + t * bu]
    if symmetric:
        bw = units[(k + 2) % 4] + units[(k + 3) % 4]
        bw /= np.linalg.norm(bw)
        new.append(v + t * bw)
        bridge = [n + d, n + d + 1]
    else:
        bridge = [n + d, junction]
    join = np.where(np.isin(np.arange(d), iu), *bridge)

    # each arm leaves its new junction through its cut vertex; the bridge
    # takes its labels from the sectors it separates (keeps junctions cyclic)
    every, first, last = net.chain_entries()
    ei, fwd = np.array([e[3:] for e in ends]).T
    at = np.where(fwd, first[ei], last[ei])
    entries = every.copy()
    entries[at] = join
    entries = np.insert(entries, at + fwd, n + np.arange(d))
    counts = last - first + 1 + np.bincount(ei, minlength=len(first))
    out = rebuild(net, np.vstack([net.vertices,
                                  net.domain.wrap(np.vstack(new))]),
                  np.r_[entries, bridge], np.r_[counts, 2],
                  np.vstack([net.edge_labels(),
                             [ends[iu[0]][2], ends[iu[1]][1]]]))
    radius = rho + t + 1e-9
    lb = length_in_ball(net, v, radius)
    move = Move("junction-split", np.asarray(v, dtype=float), radius,
                displacement=t, length_before=lb,
                length_after=lb - (d * rho - L))
    return DeformationOutcome(out, d * rho - L, {}, [move])


# ---- kink relaxation -----------------------------------------------------------


def _kink_candidates(net, cos_threshold=0.9):
    """Interior degree-2 vertices whose turning angle exceeds the threshold.

    Returns (cos, vertex, prev, next) tuples in ascending order, the first
    hit per vertex.  The scan takes every chain's (prev, vertex, next)
    triples from the chain entries; a closed chain contributes positions
    0..n-2 with chain[-2] before position 0.  Dots and norms use a batched matmul over
    the pairs because it rounds as np.dot and np.linalg.norm do on one pair;
    einsum or an explicit sum differ by an ulp or two on some pairs, which
    reorders the tied cosines of a regular polygon at threshold 1.
    """
    every, first, last = net.chain_entries()
    pos = net.vertex_degrees()[every] == 2
    pos[last] = False
    pos[first[every[first] != every[last]]] = False
    p = np.flatnonzero(pos)
    if not len(p):
        return []
    back = np.arange(len(every)) - 1
    back[first] = last - 1
    prev, mid, nxt = every[back[p]], every[p], every[p + 1]
    a = net.domain.delta(net.vertices[prev], net.vertices[mid])
    b = net.domain.delta(net.vertices[mid], net.vertices[nxt])
    na = np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])
    nb = np.sqrt((b[:, None, :] @ b[:, :, None])[:, 0, 0])
    ok = (na >= 1e-12) & (nb >= 1e-12)
    cosang = np.full(len(mid), np.inf)
    cosang[ok] = ((a[ok, None, :] @ b[ok, :, None])[:, 0, 0]
                  / (na[ok] * nb[ok]))
    hit = np.nonzero(cosang < cos_threshold)[0]
    hit = hit[np.unique(mid[hit], return_index=True)[1]]
    order = hit[np.lexsort((nxt[hit], prev[hit], mid[hit], cosang[hit]))]
    return [(float(cosang[i]), int(mid[i]), int(prev[i]), int(nxt[i]))
            for i in order]


def relax_kink(net: LabeledNetwork, vertex, prev, nxt, j):
    """Move a kink vertex toward the chord midpoint (displacement capped)."""
    v = net.vertices[vertex]
    a = net.domain.delta(v, net.vertices[prev])
    b = net.domain.delta(v, net.vertices[nxt])
    target = 0.5 * (a + b)  # relative displacement to the chord midpoint
    disp = float(np.linalg.norm(target))
    cap = 1.0 / (j * j)
    if disp > cap:
        target = target * (cap / disp)
        disp = cap
    verts = net.vertices.copy()
    verts[vertex] = net.domain.wrap(v + target)
    out = net.with_vertices(verts)
    radius = max(np.linalg.norm(a), np.linalg.norm(b)) + disp + 1e-9
    lb = length_in_ball(net, v, radius)
    la = length_in_ball(out, v, radius)
    move = Move("local-relaxation", np.asarray(v, dtype=float), radius,
                displacement=disp, length_before=lb, length_after=la)
    return DeformationOutcome(out, lb - la, {}, [move])


# ---- greedy pass ----------------------------------------------------------------


def _label_boundary_lengths(net):
    """Boundary length of each label (index 0 unused), inf where it has none.

    One segment_arrays pass: a segment counts for its left label, and for its
    right label when that differs, so a same-label segment counts once.
    """
    _, _, _, left, right = net.segment_arrays()
    seg = net.segment_lengths()
    n = net.n_labels + 1
    other = left != right
    total = (np.bincount(left, seg, minlength=n)
             + np.bincount(right[other], seg[other], minlength=n))
    count = np.bincount(left, minlength=n) + np.bincount(right, minlength=n)
    return np.where(count > 0, total, np.inf)


def _supports_disjoint(move, accepted, domain):
    for m in accepted:
        if m.is_identity:
            continue
        gap = domain.distance(move.center, m.center)  # minimum image on the torus
        if gap <= move.radius + m.radius:
            return False
    return True


def lipschitz_step(net: LabeledNetwork, j, omega: WeightFunction = None):
    """One greedy area-reducing pass over the move catalog.

    Order: interior-boundary removal, small-region collapse, junction splits,
    kink relaxation.  Moves in one pass have pairwise disjoint supports and
    each is individually verified admissible; anything rejected is skipped, so
    the Omega-weighted mass never increases.
    """
    if omega is None:
        omega = const_weight()
    current = net
    accepted = []
    volume = {}
    mass_net = None  # Omega-weighted mass of net, once a move reaches the test
    mass = None  # Omega-weighted mass of current

    def attempt(outcome):
        nonlocal current, mass_net, mass
        move = outcome.accepted_moves[0]
        if move.is_identity:
            return False
        if not _supports_disjoint(move, accepted, net.domain):
            return False
        ok = verify_admissible(current, outcome.network, move, j)
        if not ok.accepted:
            return False
        if not validate_partition(outcome.network).ok:
            return False
        m_new = omega_mass(build_varifold_view(outcome.network, omega))
        if mass is None:  # current is still net: nothing accepted yet
            mass_net = mass = omega_mass(build_varifold_view(current, omega))
        if m_new > mass:  # weighted measure must not increase
            return False
        current = outcome.network
        mass = m_new
        accepted.append(move)
        for lab, dv in outcome.volume_changes.items():
            volume[lab] = volume.get(lab, 0.0) + dv
        return True

    # interior boundaries (edge indices shift as the net changes; rescan)
    progress = True
    while progress:
        progress = False
        lab = current.edge_labels()
        for ei in np.flatnonzero(lab[:, 0] == lab[:, 1]).tolist():
            if attempt(remove_interior_boundary(current, ei)):
                progress = True
                break

    blen = None  # per-label boundary lengths of current
    for label in range(1, net.n_labels + 1):
        if blen is None:
            blen = _label_boundary_lengths(current)
        if blen[label] > C2_SMALLNESS / (2.0 * j * j):
            continue
        try:
            if attempt(collapse_small_region(current, label, j)):
                blen = None
        except (NotADiskError, DominanceAmbiguityError):
            continue

    progress = True
    while progress:
        progress = False
        for vi in np.nonzero(current.vertex_degrees() >= 4)[0]:
            if attempt(split_high_order_junction(current, vi, j)):
                progress = True
                break

    for _, vi, prev, nxt in _kink_candidates(current):
        if vi >= len(current.vertices):
            continue
        attempt(relax_kink(current, vi, prev, nxt, j))

    if not accepted:
        return identity_outcome(net)
    return DeformationOutcome(current, mass_net - mass, volume, accepted)

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
from scipy import optimize

from .network import (Edge, LabeledNetwork, compact, region_areas,
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

    @property
    def delta_j_estimate(self):
        # paper sign convention: the estimator is a non-positive decrease
        return -self.length_decrease_omega


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


def verify_admissible(net_before, net_after, move: Move, j, omega=None):
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


# ---- interior boundary removal -------------------------------------------------


def remove_interior_boundary(net: LabeledNetwork, edge_index):
    """Delete a same-label edge and recursively prune what it leaves dangling."""
    e = net.edges[edge_index]
    if e.left != e.right:
        raise ValueError("edge %d separates distinct labels" % edge_index)
    removed = {edge_index}
    affected = {e.chain[0], e.chain[-1]}
    # prune interior edges that lose their anchor at an affected endpoint
    changed = True
    while changed:
        changed = False
        deg = np.zeros(len(net.vertices), dtype=int)
        for fi, f in enumerate(net.edges):
            if fi in removed:
                continue
            deg[f.chain[0]] += 1
            deg[f.chain[-1]] += 1
        for fi, f in enumerate(net.edges):
            if fi in removed or f.left != f.right:
                continue
            if f.chain[0] == f.chain[-1]:
                continue
            for vi in (f.chain[0], f.chain[-1]):
                if vi in affected and deg[vi] == 1:
                    removed.add(fi)
                    affected.update((f.chain[0], f.chain[-1]))
                    changed = True
                    break

    pts = np.concatenate([net.vertices[list(net.edges[fi].chain)]
                          for fi in removed])
    # tight enclosing ball of the deleted geometry (unwrap about first point)
    rel = net.domain.delta(pts[0], pts)
    center = net.domain.wrap(pts[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    radius = float(np.max(np.linalg.norm(
        net.domain.delta(center, pts), axis=1))) + 1e-9
    removed_length = 0.0
    for fi in removed:
        c = net.edges[fi].chain
        for a, b in zip(c[:-1], c[1:]):
            removed_length += float(np.linalg.norm(
                net.domain.delta(net.vertices[a], net.vertices[b])))

    edges = [f for fi, f in enumerate(net.edges) if fi not in removed]
    out = compact(LabeledNetwork(net.domain, net.n_labels,
                                 net.vertices.copy(), edges, net.scale))
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

    deg = net.vertex_degrees()
    if any(deg[vi] != 2 for ei in bedges for vi in net.edges[ei].chain):
        return identity_outcome(net)  # pinned by junctions; welding handles it

    loop = loops[0]
    rel = loop - loop[0]
    center = net.domain.wrap(loop[0] + 0.5 * (rel.min(axis=0) + rel.max(axis=0)))
    diam = float(np.max(np.linalg.norm(rel[:, None, :] - rel[None, :, :], axis=-1)))
    R = 1.0 / (2.0 * j * j)
    if diam > R:
        return identity_outcome(net)
    ell = 0.0
    for ei in bedges:
        c = net.edges[ei].chain
        for a, b in zip(c[:-1], c[1:]):
            ell += float(np.linalg.norm(net.domain.delta(
                net.vertices[a], net.vertices[b])))
    mass_ball = length_in_ball(net, center, R)
    if ell > C2_SMALLNESS * R or mass_ball > ell + 1e-9:
        return identity_outcome(net)  # smallness relation fails
    area = abs(shoelace(loop))
    if area > 0.5 * np.pi * R * R:
        raise DominanceAmbiguityError("region fills half its enclosing ball")
    if area > C3_AREA * ell * ell + 1e-12:
        return identity_outcome(net)  # isoperimetrically impossible; defensive

    edges = [f for fi, f in enumerate(net.edges) if fi not in set(bedges)]
    out = compact(LabeledNetwork(net.domain, net.n_labels,
                                 net.vertices.copy(), edges, net.scale))
    move = Move("small-region-collapse", center, R,
                displacement=diam, length_before=mass_ball,
                length_after=mass_ball - ell)
    return DeformationOutcome(out, ell, {label: -area, i0: area}, [move])


# ---- junction split ------------------------------------------------------------


def _golden_min(f, lo, hi):
    res = optimize.minimize_scalar(
        lambda t: f(min(max(t, lo), hi)), bracket=(lo, 0.5 * (lo + hi), hi),
        method="golden", options={"xtol": 1e-12})
    t = float(min(max(res.x, lo), hi))
    return t, float(f(t))


def split_high_order_junction(net: LabeledNetwork, junction, j):
    """Break a degree >= 4 junction into degree-3 junctions with a short bridge.

    Arms are cut at an adaptive radius, the two new junctions slide along the
    group bisectors, and the bridge half-opening is optimized by golden-section
    search on local length.  If no adjacent pairing strictly decreases length
    the identity outcome is returned.
    """
    ends = net.outgoing_ends()[junction]
    d = len(ends)
    if d < 4:
        raise ValueError("junction degree %d < 4" % d)
    dirs = np.array([e[0] for e in ends], dtype=float)
    angles = np.arctan2(dirs[:, 1], dirs[:, 0])
    order = np.argsort(angles)
    ends = [ends[o] for o in order]
    dirs = dirs[order]
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

    verts = [p for p in net.vertices]

    def add_vertex(p):
        verts.append(net.domain.wrap(np.asarray(p, dtype=float)))
        return len(verts) - 1

    cut_idx = [add_vertex(v + cuts[i]) for i in range(d)]
    if symmetric:
        iu = [k, (k + 1) % 4]
        iw = [(k + 2) % 4, (k + 3) % 4]
        bu = units[iu[0]] + units[iu[1]]
        bw = units[iw[0]] + units[iw[1]]
        bu /= np.linalg.norm(bu)
        bw /= np.linalg.norm(bw)
        u_idx = add_vertex(v + t * bu)
        w_idx = add_vertex(v + t * bw)
        group_of = {}
        for i in iu:
            group_of[i] = u_idx
        for i in iw:
            group_of[i] = w_idx
        # bridge labels from the sectors it separates (keeps junctions cyclic)
        bridge = Edge((u_idx, w_idx), ends[iu[0]][2], ends[iu[1]][1])
    else:
        iu = [k, (k + 1) % d]
        bu = units[iu[0]] + units[iu[1]]
        bu /= np.linalg.norm(bu)
        u_idx = add_vertex(v + t * bu)
        group_of = {i: (u_idx if i in iu else junction) for i in range(d)}
        bridge = Edge((u_idx, junction), ends[iu[0]][2], ends[iu[1]][1])

    edges = list(net.edges)
    for i, (dd, L_out, R_out, ei, fwd) in enumerate(ends):
        nj = group_of[i]
        ch = edges[ei].chain
        if fwd:
            edges[ei] = Edge((nj, cut_idx[i]) + ch[1:], edges[ei].left,
                             edges[ei].right)
        else:
            edges[ei] = Edge(ch[:-1] + (cut_idx[i], nj), edges[ei].left,
                             edges[ei].right)
    edges.append(bridge)
    out = compact(LabeledNetwork(net.domain, net.n_labels,
                                 np.asarray(verts, dtype=float), edges, net.scale))
    radius = rho + t + 1e-9
    lb = length_in_ball(net, v, radius)
    move = Move("junction-split", np.asarray(v, dtype=float), radius,
                displacement=t, length_before=lb,
                length_after=lb - (d * rho - L))
    return DeformationOutcome(out, d * rho - L, {}, [move])


# ---- kink relaxation -----------------------------------------------------------


def _kink_candidates(net, cos_threshold=0.9):
    """Interior degree-2 vertices whose turning angle exceeds the threshold."""
    deg = net.vertex_degrees()
    out = []
    seen = set()
    for ei, e in enumerate(net.edges):
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
    out = LabeledNetwork(net.domain, net.n_labels, verts, list(net.edges),
                         net.scale)
    radius = max(np.linalg.norm(a), np.linalg.norm(b)) + disp + 1e-9
    lb = length_in_ball(net, v, radius)
    la = length_in_ball(out, v, radius)
    move = Move("local-relaxation", np.asarray(v, dtype=float), radius,
                displacement=disp, length_before=lb, length_after=la)
    return DeformationOutcome(out, lb - la, {}, [move])


# ---- greedy pass ----------------------------------------------------------------


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
    mass0 = omega_mass(build_varifold_view(net, omega))

    def attempt(outcome):
        nonlocal current
        move = outcome.accepted_moves[0]
        if move.is_identity:
            return False
        if not _supports_disjoint(move, accepted, net.domain):
            return False
        ok = verify_admissible(current, outcome.network, move, j, omega)
        if not ok.accepted:
            return False
        if not validate_partition(outcome.network).ok:
            return False
        m_new = omega_mass(build_varifold_view(outcome.network, omega))
        m_old = omega_mass(build_varifold_view(current, omega))
        if m_new > m_old:  # weighted measure must not increase
            return False
        current = outcome.network
        accepted.append(move)
        for lab, dv in outcome.volume_changes.items():
            volume[lab] = volume.get(lab, 0.0) + dv
        return True

    # interior boundaries (edge indices shift as the net changes; rescan)
    progress = True
    while progress:
        progress = False
        for ei, e in enumerate(current.edges):
            if e.left == e.right:
                if attempt(remove_interior_boundary(current, ei)):
                    progress = True
                    break

    for label in range(1, net.n_labels + 1):
        try:
            bedges = [e for e in current.edges if label in (e.left, e.right)]
            if not bedges:
                continue
            blen = sum(
                float(np.linalg.norm(current.domain.delta(
                    current.vertices[a], current.vertices[b])))
                for e in bedges for a, b in zip(e.chain[:-1], e.chain[1:]))
            if blen > C2_SMALLNESS / (2.0 * j * j):
                continue
            attempt(collapse_small_region(current, label, j))
        except (NotADiskError, DominanceAmbiguityError):
            continue

    progress = True
    while progress:
        progress = False
        for vi in current.junctions():
            if current.vertex_degrees()[vi] >= 4:
                if attempt(split_high_order_junction(current, vi, j)):
                    progress = True
                    break

    for _, vi, prev, nxt in _kink_candidates(current):
        if vi >= len(current.vertices):
            continue
        attempt(relax_kink(current, vi, prev, nxt, j))

    if not accepted:
        return identity_outcome(net)
    mass1 = omega_mass(build_varifold_view(current, omega))
    return DeformationOutcome(current, mass0 - mass1, volume, accepted)

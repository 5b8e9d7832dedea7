"""Two-step time loop: area-reducing deformation, then motion by h_eps.

Two scheduling modes share the loop.  The faithful mode uses the constants the
construction actually demands: c_a = 3n + 20 (= 23 for curves), eps < j^-6,
j <= eps^(-1/6)/2, and the dyadic step dt = 2^-p in (eps^23/2, eps^23].  For
any eps with observable smoothing these dt are below 2^-250: representable,
and the step assertions all hold, but nothing visibly moves.  The practical
mode takes user (eps, dt) with dt <= kappa eps^2 and eps >= 4 h_max and
produces actual evolution.  The gap between the two is the central distance
between the existence proof's scheme and a usable simulator; both are exposed.

Per step l the engine records and checks:
  - the deformation never increases the Omega-weighted mass (exact, since
    every accepted move shortens in the same arithmetic),
  - (L' - L)/dt + energy/4 <= 3 eps^(1/4) + tol after the curvature step,
    where tol includes an explicit floating-point budget: at dt ~ 2^-276 the
    mass quantization mass * 2^-52 / dt dominates any analytic slack,
  - the cumulative bound mass(l) <= mass(0) + eps^(1/8) * l * dt (the
    constant-weight limit form of the mass growth estimate).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import network
from .deformation import lipschitz_step
from .kernels import Kernel
from .network import LabeledNetwork, remesh, validate_partition, weld_junctions
from .varifold import build_varifold_view, curvature_and_energy, omega_mass
from .weights import WeightFunction, const_weight

PAPER = "paper"
PRACTICAL = "practical"
KAPPA = 0.05  # practical mode: dt <= KAPPA eps^2
EXTINCTION_THRESHOLD = 1e-3  # run stops once the weighted mass is below it


class InfeasibleParametersError(ValueError):
    """Raised with the violated scheduling relation named."""


class StepTooLargeError(RuntimeError):
    pass


@dataclass(frozen=True)
class Schedule:
    mode: str
    j: int
    eps: float
    c_a: int
    dt: float
    p: int = None  # dyadic exponent, faithful mode only
    steps: int = 0
    remesh_cadence: int = 10


def schedule_params(mode, j, eps=None, dt=None, steps=0, h_max=0.05, c1=0.0,
                    remesh_cadence=10):
    c_a = 23  # 3n + 20 for curves (n = 1)
    if mode == PAPER:
        if j < max(1.0, c1):
            raise InfeasibleParametersError("j >= max{1, c1} violated")
        if eps is None:
            raise InfeasibleParametersError("eps required in faithful mode")
        if not eps < float(j) ** -6:
            raise InfeasibleParametersError("eps < j^-6 violated")
        # pow() rounding must not reject exact dyadic eps (e.g. 2^-12, j=2)
        if not j <= 0.5 * eps ** (-1.0 / 6.0) * (1.0 + 1e-12):
            raise InfeasibleParametersError("j <= eps^(-1/6)/2 violated")
        target = eps ** c_a
        p = int(math.ceil(-c_a * math.log2(eps)))
        while 2.0 ** (-p) > target:
            p += 1
        while p > 1 and 2.0 ** (-(p - 1)) <= target:
            p -= 1
        dt = 2.0 ** (-p)
        if not (target / 2.0 < dt <= target):
            raise InfeasibleParametersError("no representable dyadic dt in "
                                            "(eps^c_a/2, eps^c_a]")
        return Schedule(PAPER, int(j), float(eps), c_a, dt, p, steps,
                        remesh_cadence)
    if mode == PRACTICAL:
        if eps is None or dt is None:
            raise InfeasibleParametersError("practical mode needs eps and dt")
        if not dt <= KAPPA * eps * eps:
            raise InfeasibleParametersError("dt <= kappa*eps^2 violated")
        if not eps >= 4.0 * h_max:
            raise InfeasibleParametersError("eps >= 4*h_max violated")
        return Schedule(PRACTICAL, int(j), float(eps), c_a, float(dt), None,
                        steps, remesh_cadence)
    raise InfeasibleParametersError("unknown mode %r" % (mode,))


@dataclass
class StepReport:
    step: int
    t: float
    mass_pre: float  # Omega-weighted mass before the deformation
    mass_mid: float  # after the deformation, before the curvature step
    mass_post: float
    energy: float
    deformation_decrease: float
    max_displacement: float
    areas: dict
    violations: list = field(default_factory=list)


@dataclass
class FlowState:
    net: LabeledNetwork
    kernel: Kernel
    omega: WeightFunction
    t: float = 0.0
    step: int = 0
    mass0: float = None  # Omega-weighted initial mass, for the cumulative bound
    # Omega-weighted mass of net; advance keeps it current
    mass: float = field(init=False)

    def __post_init__(self):
        self.mass = omega_mass(build_varifold_view(self.net, self.omega))
        if self.mass0 is None:
            self.mass0 = self.mass


def curvature_step(net, kernel, omega, dt):
    """Move every vertex by dt * h_eps; returns (net', report fragment)."""
    V = build_varifold_view(net, omega)
    vids = net.used_vertices()
    h, energy = curvature_and_energy(V, kernel, omega, net.vertices[vids])
    hmax = float(np.max(np.linalg.norm(h, axis=1))) if len(h) else 0.0
    if dt * hmax > net.scale.h_min / 2.0:
        raise StepTooLargeError(
            "dt*max|h| = %g exceeds h_min/2 = %g" % (dt * hmax, net.scale.h_min / 2))
    verts = net.vertices.copy()
    verts[vids] = net.domain.wrap(verts[vids] + dt * h)
    out = net.with_vertices(verts)
    mass_before = omega_mass(V)
    mass_after = omega_mass(build_varifold_view(out, omega))
    # (L' - L)/dt + energy/4 <= 3 eps^(1/4) + tol, tol with a roundoff budget
    eps = kernel.eps
    roundoff = 8.0 * mass_before * 2.0 ** -52 / dt
    tol = 1e-6 * max(1.0, energy) + roundoff
    lhs = (mass_after - mass_before) / dt + 0.25 * energy
    violations = []
    if lhs > 3.0 * eps ** 0.25 + tol:
        violations.append("mass-dissipation inequality (weighted rate %g)" % lhs)
    frag = {
        "energy": energy,
        "max_displacement": dt * hmax,
        "mass_before": mass_before,
        "mass_after": mass_after,
        "h_vertices": h,
        "vertex_ids": vids,
        "violations": violations,
    }
    return out, frag


def advance(state: FlowState, sched: Schedule):
    """One deformation + curvature step (plus cadenced remesh) in place."""
    net = state.net
    omega = state.omega
    violations = []

    mass_pre = state.mass
    outcome = lipschitz_step(net, sched.j, omega)
    net1 = outcome.network

    net2, frag = curvature_step(net1, state.kernel, omega, sched.dt)
    frag["pre_step_net"] = net1
    mass_mid = frag["mass_before"]
    if mass_mid > mass_pre:
        violations.append("deformation increased weighted mass")
    violations.extend(frag["violations"])

    state.step += 1
    state.t += sched.dt

    mass_post = frag["mass_after"]
    if sched.remesh_cadence and state.step % sched.remesh_cadence == 0:
        net2 = weld_junctions(remesh(net2))
        rep = validate_partition(net2)
        if not rep.ok:
            violations.append("post-remesh validation: %r" % rep.violations[:3])
        mass_post = omega_mass(build_varifold_view(net2, omega))
    # cumulative growth bound, constant-weight limit form
    bound = state.mass0 + sched.eps ** 0.125 * state.step * sched.dt
    if mass_post > bound + 1e-9 * max(1.0, state.mass0):
        violations.append("cumulative mass bound exceeded")

    # looked up on the module, so that a rebinding of network.region_areas
    # (perfbench's tracer) still sees this call
    areas = network.region_areas(net2).areas

    state.net = net2
    state.mass = mass_post
    report = StepReport(state.step, state.t, mass_pre, mass_mid, mass_post,
                        frag["energy"], mass_pre - mass_mid,
                        frag["max_displacement"], areas, violations)
    return state, report, frag


@dataclass
class RunTrace:
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)  # LabeledNetwork snapshots
    reports: list = field(default_factory=list)
    # per-step (pre-move network, vertex ids, h at those vertices); populated
    # when the run keeps step data for the Brakke-residual diagnostic
    step_data: list = field(default_factory=list)

    def frame_index(self, t):
        times = np.asarray(self.times)
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > 1e-12 + 1e-9 * max(1.0, abs(t)):
            raise KeyError("no frame at t=%g" % t)
        return i


def run(net: LabeledNetwork, sched: Schedule, kernel=None, omega=None,
        sinks=None, frame_every=1, keep_steps=False):
    """Iterate advance; returns the trace (frames kept on the frame cadence).

    Stops at sched.steps or extinction (total weighted mass below threshold).
    sinks, if given, is an object with on_frame(net, t) / on_report(report).
    """
    if omega is None:
        omega = const_weight()
    if kernel is None:
        kernel = Kernel.make(sched.eps)
    state = FlowState(net, kernel, omega)
    trace = RunTrace()

    def record():
        trace.times.append(state.t)
        # the copy shares the network's arrays but not its derived caches
        # (segments, lengths, junction ring), which the step fills: kept on
        # every frame, they would hold several times the frame's own memory
        trace.frames.append(state.net.copy())
        if sinks is not None:
            sinks.on_frame(state.net, state.t)

    record()
    for l in range(sched.steps):
        state, report, frag = advance(state, sched)
        trace.reports.append(report)
        if keep_steps:
            trace.step_data.append(
                (frag["pre_step_net"], frag["vertex_ids"], frag["h_vertices"]))
        if sinks is not None:
            sinks.on_report(report)
        if (l + 1) % frame_every == 0 or report.mass_post < EXTINCTION_THRESHOLD:
            record()
        if report.mass_post < EXTINCTION_THRESHOLD:
            break
    if trace.times[-1] != state.t:
        record()
    return trace

"""Span tracing for the benchmark's traced run.

The tracer rebinds module attributes of `grainflow` to timing wrappers.  A
function is rebound in its defining module and in every module that imported
it by name, so each call is attributed to the binding its caller used: the
`region_areas` that `verify_admissible` calls is `deformation.region_areas`,
the one the engine calls for the step report is `network.region_areas`.
Per-vertex helpers (`Domain.delta` and the like) are never wrapped.

Spans (name, start, end, parent) stay in memory; `write_spans` dumps them at
the end of the run.  `layer_metrics` turns the spans that fall inside the op
window into per-op busy times, self times and call counts.
"""

import functools
import json
import time

# (module the caller looks the name up in, attribute, span name).  The span
# name is the layer the per-layer metrics are reported under; a module appears
# more than once when several modules imported the same function by name.
WRAPPED = [
    ("engine", "advance", "engine.advance"),
    ("engine", "schedule_params", "engine.schedule_params"),
    ("engine", "lipschitz_step", "deformation.lipschitz_step"),
    ("engine", "curvature_and_energy", "varifold.curvature_and_energy"),
    ("engine", "build_varifold_view", "varifold.build_varifold_view"),
    ("engine", "omega_mass", "varifold.omega_mass"),
    ("engine", "remesh", "network.remesh"),
    ("engine", "weld_junctions", "network.weld_junctions"),
    ("engine", "validate_partition", "network.validate_partition"),
    ("deformation", "build_varifold_view", "varifold.build_varifold_view"),
    ("deformation", "omega_mass", "varifold.omega_mass"),
    ("deformation", "verify_admissible", "deformation.verify_admissible"),
    ("deformation", "region_areas", "deformation.region_areas"),
    ("deformation", "validate_partition", "deformation.validate_partition"),
    ("deformation", "remove_interior_boundary",
     "deformation.remove_interior_boundary"),
    ("deformation", "collapse_small_region", "deformation.collapse_small_region"),
    ("deformation", "split_high_order_junction",
     "deformation.split_high_order_junction"),
    ("deformation", "relax_kink", "deformation.relax_kink"),
    ("diagnostics", "build_varifold_view", "varifold.build_varifold_view"),
    ("diagnostics", "symmetric_difference_area",
     "diagnostics.symmetric_difference_area"),
    ("diagnostics", "area_modulus", "diagnostics.area_modulus"),
    ("diagnostics", "density_ratio_scan", "diagnostics.density_ratio_scan"),
    ("diagnostics", "huisken_functional", "diagnostics.huisken_functional"),
    # engine.advance and diagnostics._membership import these two at call time
    ("network", "region_areas", "network.region_areas"),
    ("network", "label_at_points", "network.label_at_points"),
    ("frames", "emit_frame", "frames.emit_frame"),
    ("frames", "report_record", "frames.report_record"),
    ("scenes", "parse_scene", "scenes.parse_scene"),
    ("scenes", "voronoi_scene", "scenes.voronoi_scene"),
    ("scenes", "honeycomb_scene", "scenes.honeycomb_scene"),
]

MOVE_KINDS = {
    "deformation.remove_interior_boundary": "interior-boundary-removal",
    "deformation.collapse_small_region": "small-region-collapse",
    "deformation.split_high_order_junction": "junction-split",
    "deformation.relax_kink": "local-relaxation",
}

# why lipschitz_step's greedy pass dropped a candidate move
REJECT_REASONS = ["identity", "support-overlap", "displacement-bound",
                  "volume-bound", "insufficient-local-decrease",
                  "invalid-partition", "mass-increase", "not-a-disk",
                  "dominance-ambiguity", "other"]

_RAISED = {"NotADiskError": "not-a-disk",
           "DominanceAmbiguityError": "dominance-ambiguity"}


def reason_slug(text):
    """'volume bound (label 3)' -> 'volume-bound'; unknown text -> 'other'."""
    slug = text.split("(")[0].strip().lower().replace(" ", "-")
    return slug if slug in REJECT_REASONS else "other"


class Tracer:
    """Records spans and the deformation pass's candidate fates in memory."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.extra = {}  # span index -> {"pairs"|"bytes"|"nodes"|"segments": n}
        self.moves = []  # finished candidates: (kind, reason or "accepted")
        self.passes = []  # moves accepted by each lipschitz_step call
        self._pass = None  # candidates of the lipschitz_step in progress
        self._restore = []

    # ---- installation -----------------------------------------------------

    def install(self, modules):
        """Rebind every WRAPPED attribute in `modules` (name -> module)."""
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            setattr(mod, attr, self._wrap(span, orig))
            self._restore.append((mod, attr, orig))
        kernel_cls = modules["kernels"].Kernel
        make = kernel_cls.make
        self._restore.append((kernel_cls, "make", kernel_cls.__dict__["make"]))
        kernel_cls.make = staticmethod(self._wrap("kernels.Kernel.make", make))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore = []

    def _wrap(self, span, fn):
        post = getattr(self, "_post_" + span.split(".")[-1], None)
        kind = MOVE_KINDS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(span)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ends.append(None)
            self.stack.append(i)
            if span == "deformation.lipschitz_step":
                self._pass = []
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if kind is not None and self._pass is not None:
                    self._pass.append(
                        [kind, _RAISED.get(type(exc).__name__, "other")])
                raise
            finally:
                self.ends[i] = time.perf_counter()
                self.stack.pop()
            if kind is not None and self._pass is not None:
                move = out.accepted_moves[0]
                self._pass.append([kind, "identity" if move.is_identity
                                   else "support-overlap"])
            elif post is not None:
                post(i, args, out)
            return out

        return wrapper

    # ---- per-call bookkeeping (run after the call, outside its span) --------

    def _post_curvature_and_energy(self, i, args, out):
        V, kernel = args[0], args[1]
        # the curvature path's nodes are cached on the view: a lookup, no work
        nodes = V.quad_nodes(min(V.h_sub, kernel.eps))[0]
        self.extra[i] = {"nodes": len(nodes), "segments": len(V.length)}

    def _post_label_at_points(self, i, args, out):
        # label_at_points recurses on point blocks; count the outer call only
        parent = self.parents[i]
        if parent >= 0 and self.names[parent] == "network.label_at_points":
            return
        segments = sum(len(e.chain) - 1 for e in args[0].edges)
        self.extra[i] = {"pairs": len(out) * segments}  # one label per point

    def _post_weld_junctions(self, i, args, out):
        # each weld merges two junctions and drops one vertex
        self.extra[i] = {"welds": len(args[0].vertices) - len(out.vertices)}

    def _post_emit_frame(self, i, args, out):
        self.extra[i] = {"bytes": len(out)}

    def _post_verify_admissible(self, i, args, out):
        if self._pass:
            self._pass[-1][1] = ("verified" if out.accepted
                                 else reason_slug(out.reason))

    def _post_validate_partition(self, i, args, out):
        if (self.names[i] == "deformation.validate_partition" and self._pass
                and self._pass[-1][1] == "verified"):
            self._pass[-1][1] = "valid" if out.ok else "invalid-partition"

    def _post_lipschitz_step(self, i, args, out):
        accepted = {}
        for move in out.accepted_moves:
            if not move.is_identity:
                accepted[move.kind] = accepted.get(move.kind, 0) + 1
        for cand in self._pass:
            if cand[1] == "valid":
                # passed every check: accepted unless the mass test refused it
                left = accepted.get(cand[0], 0)
                cand[1] = "accepted" if left else "mass-increase"
                accepted[cand[0]] = left - 1 if left else 0
            self.moves.append(tuple(cand))
        self.passes.append(sum(1 for m in out.accepted_moves
                               if not m.is_identity))
        self._pass = None

    # ---- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"name": name, "start": self.starts[i],
                                    "end": self.ends[i],
                                    "parent": self.parents[i],
                                    **self.extra.get(i, {})}) + "\n")

    def layer_metrics(self, t0, t1, ops, setup_end):
        """Per-op layer metrics over spans inside [t0, t1], setup spans before."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        busy, self_t, calls, extra = {}, {}, {}, {}
        setup = {}
        covered = 0.0
        for i, name in enumerate(self.names):
            if self.ends[i] <= setup_end and self.parents[i] < 0:
                setup[name] = setup.get(name, 0.0) + dur[i]
            if not (t0 <= self.starts[i] and self.ends[i] <= t1):
                continue
            calls[name] = calls.get(name, 0) + 1
            self_i = dur[i] - child[i]
            self_t[name] = self_t.get(name, 0.0) + self_i
            covered += self_i
            # nested calls of the same function are counted once in busy time
            p = self.parents[i]
            if p < 0 or self.names[p] != name:
                busy[name] = busy.get(name, 0.0) + dur[i]
            for k, v in self.extra.get(i, {}).items():
                extra.setdefault(name, {}).setdefault(k, []).append(v)
        return {"busy_s": busy, "self_s": self_t, "calls": calls,
                "extra": extra, "setup_s": setup, "covered_s": covered,
                "window_s": t1 - t0, "ops": ops}

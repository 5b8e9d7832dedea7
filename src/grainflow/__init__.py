"""Desk-scale simulator for multiphase curve networks moving by mean curvature.

The scheme alternates an area-reducing Lipschitz deformation of the labeled
partition with motion by a kernel-smoothed mean curvature of the boundary
varifold; diagnostics monitor the inequalities the construction rests on.
"""

from .domain import Domain, plane, torus
from .engine import (FlowState, RunTrace, Schedule, StepReport, advance,
                     curvature_step, run, schedule_params)
from .kernels import Kernel, kernel_normalize
from .network import (Edge, LabeledNetwork, MeshScale, region_areas, remesh,
                      validate_partition)
from .scenes import emit_scene, parse_scene
from .varifold import (VarifoldView, build_varifold_view, first_variation,
                       l2_energy, smoothed_mean_curvature,
                       weighted_first_variation)
from .weights import WeightFunction, const_weight, exp_weight, make_test_function

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"

"""numpy is the engine's only import-time and per-step dependency.

A subprocess imports grainflow, runs practical steps through a remesh on a
plane and a torus scene, builds a honeycomb and runs the diagnostics, then
looks for scipy in sys.modules: a stray top-level import fails here instead
of adding its load time to every run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SCRIPT = r"""
import sys

import grainflow
from grainflow import diagnostics, engine
from grainflow.scenes import honeycomb_scene, parse_scene

validations = []
validate = engine.validate_partition


def counted(net):
    validations.append(1)
    return validate(net)


engine.validate_partition = counted
CIRCLE = ("domain plane bbox=(-1.5,-1.5,1.5,1.5)\nlabels 2\n"
          "circle center=(0,0) r=0.5 n=64 inside=1 outside=2\n")
BANDS = ("domain torus\nlabels 2\n"
         "line y=0.25 left=1 right=2\nline y=0.75 left=2 right=1\n")
traces = []
for text in (CIRCLE, BANDS):
    sched = engine.schedule_params("practical", 2, eps=0.2, dt=0.002,
                                   steps=11, h_max=0.05)
    before = len(validations)
    traces.append(engine.run(parse_scene(text, h_max=0.05), sched,
                             frame_every=5))
    assert len(validations) > before, "no remesh validation ran"

hc = honeycomb_scene(3, 2)
diagnostics.density_ratio_scan(hc, [0.02, 0.04])
diagnostics.area_modulus(traces[0], 1)
diagnostics.huisken_functional(traces[0], (0.0, 0.5), 0.05, 0.3, 0.0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, "scipy modules loaded: %s" % loaded[:5]
"""


def test_engine_and_diagnostics_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_bindings_resolve():
    # a traced benchmark run rebinds every (module, attribute) the tracer
    # lists; a renamed or unimported function would only fail in that run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod, attr) for mod, attr, _ in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(
                   "grainflow." + mod), attr, None))]
    assert not missing
    assert callable(importlib.import_module("grainflow.kernels").Kernel.make)

"""Cost of one curvature evaluation per scene.

    PYTHONPATH=src python3 scripts/curvature_cost.py [--repeat 20]

For each scene of a fixed set it prints the lattice `varifold.smoothing_grid`
picks (spacing sp, the period m on the torus, the window radius k, the tile
edge S), the annulus correction's stencil cells per point (0 where
6 eps <= 1/2), the best time of `--repeat` calls of `curvature_and_energy`,
each on a fresh view so that no lattice is cached, and the minor page faults
per call over those calls.  One warm-up call runs before the timed ones.
Nothing is written.  A run on a shared 2-core x86-64 host while it was
busy (the first row takes about 8 ms when it is quiet):

    scene             eps       sp    m   k   S stencil   best_ms faults/call
    512-gon plane    0.05  0.02500    0  13  16       0     11.02       716.4
    512-gon plane     0.1  0.02500    0  25  32     716    177.91      1764.8
    two-line torus    0.2  0.05000   20  25  32     123      4.14         0.0
    torus 64-gon      0.1  0.02500   40  25  32     354     24.18       373.4
"""

import argparse
import resource
import time

import grainflow.varifold as vf
from grainflow.kernels import Kernel
from grainflow.scenes import parse_scene
from grainflow.weights import const_weight

NGON = """domain plane bbox=(-1.5,-1.5,1.5,1.5)
labels 2
circle center=(0,0) r=1 n=512 inside=1 outside=2
"""

TORUS_LINES = """domain torus
labels 2
line y=0.25 left=1 right=2
line y=0.75 left=2 right=1
"""

TORUS_NGON = """domain torus
labels 2
circle center=(0.5,0.5) r=0.3 n=64 inside=1 outside=2
"""


def scenes():
    """(name, network, eps) of the fixed scene set."""
    return [
        ("512-gon plane", parse_scene(NGON, h_max=0.0125), 0.05),
        ("512-gon plane", parse_scene(NGON, h_max=0.025), 0.1),
        ("two-line torus", parse_scene(TORUS_LINES, h_max=0.05), 0.2),
        ("torus 64-gon", parse_scene(TORUS_NGON, h_max=0.025), 0.1),
    ]


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(net, kernel, repeat):
    """(SmoothingGrid, best ms, minor faults per call) over `repeat` calls."""
    om = const_weight()
    V = vf.build_varifold_view(net, om)
    vf.curvature_and_energy(V, kernel, om, net.vertices)
    best, faults = float("inf"), 0
    for _ in range(repeat):
        V = vf.build_varifold_view(net, om)
        f0 = minor_faults()
        t0 = time.perf_counter()
        vf.curvature_and_energy(V, kernel, om, net.vertices)
        best = min(best, time.perf_counter() - t0)
        faults += minor_faults() - f0
    return vf.smoothing_grid(V, kernel, om), 1e3 * best, faults / repeat


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    print("%-15s %5s %8s %4s %3s %3s %7s %9s %11s"
          % ("scene", "eps", "sp", "m", "k", "S", "stencil", "best_ms",
             "faults/call"))
    for name, net, eps in scenes():
        kernel = Kernel.make(eps)
        sg, ms, faults = measure(net, kernel, args.repeat)
        lat = sg.lattice
        print("%-15s %5.3g %8.5f %4d %3d %3d %7d %9.2f %11.1f"
              % (name, eps, lat.sp, lat.m, lat.k, lat.S, len(sg.stencil[0]),
                 ms, faults))


if __name__ == "__main__":
    main()

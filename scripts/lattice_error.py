"""Error of the curvature lattice against an eps/8 lattice, per scene.

    PYTHONPATH=src python3 scripts/lattice_error.py

For each scene of a fixed set it prints the lattice `varifold.smoothing_grid`
picks (spacing as eps/sp, the period m on the torus, the window radius k,
the tile edge S, the stored cells, the annulus correction's stencil cells
per point, 0 where 6 eps <= 1/2), and two errors of that lattice against
one of spacing eps/8 (m = ceil(8/eps) on the torus), the same scene and
kernel otherwise:

    h_err  max |h_eps - h_ref| over the network's vertices, divided by
           max |h_ref| or by 1 where that is smaller
    e_err  |energy - energy_ref|, divided by energy_ref or by 1 where that
           is smaller

The floor of 1 serves the two-line torus, where h and the energy vanish
by symmetry.  A run of this tree (numpy 2.4, 2-core x86-64 host) prints:

    scene                  eps eps/sp     m   k   S    cells stencil     h_err     e_err
    512-gon plane         0.05      2     0  13  16    15360       0  5.06e-08  2.05e-09
    32-grain torus        0.05      2    40  13  16     1600       0  1.20e-06  7.78e-09
    512-gon plane          0.1      4     0  25  32    32768     716  7.77e-10  4.10e-10
    torus circle r 0.3     0.1      4    40  25  32     1600     354  1.41e-07  1.31e-07
    torus circle r 0.3     0.2      4    20  25  32      400     123  7.72e-04  4.31e-06
    two-line torus         0.2      4    20  25  32      400     123  6.27e-05  7.73e-05

At spacing eps/2 the rows with a stencil would read 5.0e-8, 2.6e-5, 2.9e-3
and 6.3e-5 in h_err: the correction's profile is only finitely smooth at
r = 1/2, so it converges algebraically, and `varifold._spacing` takes eps/4
where it runs.  On the torus at eps 0.1 and 0.2 the minimum-image kernel is
cut at half the period, where it is not small; that cut dominates those
rows (the two lines read 2.7e-8 in h at m = 20 and 6.3e-5 at m = 40), and
nothing here reduces it.
"""

import numpy as np

import grainflow.varifold as vf
from grainflow.kernels import Kernel
from grainflow.scenes import parse_scene, voronoi_scene
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

TORUS_CIRCLE = """domain torus
labels 2
circle center=(0.5,0.5) r=0.3 n=256 inside=1 outside=2
"""


def scenes():
    """(name, network, eps) of the fixed scene set."""
    return [
        ("512-gon plane", parse_scene(NGON, h_max=0.0125), 0.05),
        ("32-grain torus", voronoi_scene(32, 42, h_max=0.0125), 0.05),
        ("512-gon plane", parse_scene(NGON, h_max=0.025), 0.1),
        ("torus circle r 0.3", parse_scene(TORUS_CIRCLE, h_max=0.025), 0.1),
        ("torus circle r 0.3", parse_scene(TORUS_CIRCLE, h_max=0.05), 0.2),
        ("two-line torus", parse_scene(TORUS_LINES, h_max=0.05), 0.2),
    ]


def evaluate(net, kernel):
    """(h at the vertices, energy, SmoothingGrid) on a fresh view."""
    om = const_weight()
    V = vf.build_varifold_view(net, om)
    h, energy = vf.curvature_and_energy(V, kernel, om, net.vertices)
    return h, energy, vf.smoothing_grid(V, kernel, om)


def eighth(kernel, domain):
    m = int(np.ceil(8.0 / kernel.eps)) if domain.periodic else 0
    return (1.0 / m if m else kernel.eps / 8.0), m


def main():
    print("%-20s %5s %6s %5s %3s %3s %8s %7s %9s %9s"
          % ("scene", "eps", "eps/sp", "m", "k", "S", "cells", "stencil",
             "h_err", "e_err"))
    chosen = vf._spacing
    for name, net, eps in scenes():
        kernel = Kernel.make(eps)
        h, energy, sg = evaluate(net, kernel)
        vf._spacing = eighth
        try:
            h_ref, e_ref, _ = evaluate(net, kernel)
        finally:
            vf._spacing = chosen
        lat = sg.lattice
        h_err = np.max(np.abs(h - h_ref)) / max(np.max(np.abs(h_ref)), 1.0)
        e_err = abs(energy - e_ref) / max(e_ref, 1.0)
        print("%-20s %5.3g %6.3g %5d %3d %3d %8d %7d %9.2e %9.2e"
              % (name, eps, eps / lat.sp, lat.m, lat.k, lat.S, len(sg.points),
                 len(sg.stencil[0]), h_err, e_err))


if __name__ == "__main__":
    main()

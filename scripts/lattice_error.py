"""Error of the curvature lattice against an eps/8 lattice, per scene.

    PYTHONPATH=src python3 scripts/lattice_error.py

For each scene of a fixed set it prints the path `varifold.smoothing_grid`
takes (separable or direct), the lattice it picks (spacing as eps/sp, the
period m on the torus, the window radius k and the tile edge S, the stored
cells), and two errors of that lattice against one of spacing eps/8
(m = ceil(8/eps) on the torus), the same scene and kernel otherwise:

    h_err  max |h_eps - h_ref| / max |h_ref| over the network's vertices
    e_err  |energy - energy_ref| / energy_ref

The direct path keeps spacing eps/4.  Its torus circle at eps 0.2 (the
lines-kdtree eps) is about 1e-3 from its eps/8 limit already: the kernel's
cutoff lies inside the window, so the error falls only algebraically with
the spacing.  The table states that error; nothing here reduces it.
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
    print("%-20s %5s %-9s %6s %5s %3s %3s %8s %9s %9s"
          % ("scene", "eps", "path", "eps/sp", "m", "k", "S", "cells",
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
        h_err = np.max(np.abs(h - h_ref)) / np.max(np.abs(h_ref))
        e_err = abs(energy - e_ref) / e_ref
        print("%-20s %5.3g %-9s %6.3g %5d %3d %3d %8d %9.2e %9.2e"
              % (name, eps, "separable" if sg.separable else "direct",
                 eps / lat.sp, lat.m, lat.k, lat.S, len(sg.points), h_err,
                 e_err))


if __name__ == "__main__":
    main()

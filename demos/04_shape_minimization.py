"""Minimize lambda_2 over fixed-volume cell sets by simulated annealing.

The minimizer splits into two equal clusters, the discrete signature of
dichotomy; replaying the two-cluster geometry at growing separations
makes the trajectory detector return that verdict. Minimizing lambda_1
instead keeps a single contiguous cluster whose constant tail the
detector classifies as compactness.
"""

from fracshape import (DomainMask, assemble_stiffness, ball_mask, build_grid,
                       connected_components, detect_dichotomy,
                       make_functional, minimize_shape)

grid = build_grid(1, 8.0, 128)
op = assemble_stiffness(grid, 0.5)
volume = 24 * grid.cell_volume

spec2 = make_functional("l2", 2, "l2")
traj = minimize_shape(spec2, op, volume, iterations=10000, seed=0)
sizes = sorted(c.size for c in connected_components(traj.masks[-1]))
print(f"minimize l2: J = {traj.values[-1]:.5f}, cluster sizes {sizes}")


def two_clusters(d_cells):
    off = (d_cells * grid.h) / 2 + 6 * grid.h
    a = ball_mask(grid, [-off], 12 * grid.h)
    b = ball_mask(grid, [off], 12 * grid.h)
    return DomainMask(grid, a.cells | b.cells)


receding = [two_clusters(d) for d in (4, 8, 16, 32)]
print(f"receding-pair trajectory verdict: "
      f"'{detect_dichotomy(receding, op).verdict}'")

spec1 = make_functional("l1", 1, "l1")
traj = minimize_shape(spec1, op, volume, iterations=10000, seed=0)
comps = connected_components(traj.masks[-1])
tail = [traj.masks[-1]] * 4
print(f"minimize l1: J = {traj.values[-1]:.5f}, {len(comps)} cluster(s), "
      f"constant-tail verdict '{detect_dichotomy(tail, op).verdict}'")

"""Cross-check the assembled energy against its Fourier-side expression.

The seminorm of a smooth decaying function can be computed two ways: from
the pairwise kernel sum, or from the normalized |xi|^(2s)-weighted power
spectrum. The two agree up to discretization error that shrinks as the
box and resolution grow together.
"""

import numpy as np

from fracshape import (FracParams, GridFunction, assemble_stiffness,
                       build_grid, fourier_seminorm_sq, gagliardo_sq)

for s in (0.3, 0.5, 0.7):
    print(f"s = {s}")
    for half_width, resolution in ((8.0, 256), (16.0, 512)):
        grid = build_grid(1, half_width, resolution)
        u = GridFunction(grid, np.exp(-grid.cell_centers[:, 0] ** 2))
        gag = gagliardo_sq(assemble_stiffness(grid, s), u)
        fou = fourier_seminorm_sq(grid, FracParams(s, 1), u)
        print(f"  box {2 * half_width:5.1f}, {resolution} cells: "
              f"kernel {gag:.6f}, fourier {fou:.6f}, "
              f"rel diff {abs(fou - gag) / gag:.2e}")

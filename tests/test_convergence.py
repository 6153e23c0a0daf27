"""Continuum anchors: the discrete spectrum against an exact value of the
fractional Laplacian, not against another discretization.

A / h^dim approximates (-Delta)^s / C_{s,N}, so eigenvalues come out as
lambda / C_{s,N}.  The anchor is lambda_1 of (-Delta)^{1/2} on (-1, 1),
1.1577738836977 (Kulczycki, Kwasnicki, Malecki & Stos, Proc. LMS 2010;
Kwasnicki, J. Funct. Anal. 2012, arXiv:1012.1133).  On a box of half
width 4 the relative error halves with h, -7.00e-3, -3.48e-3, -1.73e-3 and
-8.63e-4 at 256 to 2,048 cells, and one Richardson step on the last two
lands 4.6e-6 from the published value.

The second anchor is the torsion function of (-1, 1), Getoor's closed form
w(x) = Gamma(1/2) / (4^s Gamma(1 + s) Gamma(1/2 + s)) (1 - x^2)^s (Getoor,
Trans. AMS 101, 1961); `solve_torsion` returns C_{s,1} w.  In a box of half
width 2 its sup error falls by 2^s per halving of h, the rate of the
(1 - x^2)^s edge, and its L2 error by 2^min(1, s + 1/2).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracshape.forms import assemble_stiffness, normalization_constant
from fracshape.grid import DomainMask, build_grid
from fracshape.solvers import eigenpairs, restrict, solve_torsion

KWASNICKI_LAMBDA1 = 1.1577738836977
LADDER = (256, 512, 1024, 2048)   # box cells; (-1, 1) holds a quarter of them


def _lambda1_ladder(assemble=assemble_stiffness) -> list:
    """C_{1/2,1} lambda_1 of the mask (-1, 1) in a box of half width 4, at
    each resolution of LADDER."""
    values = []
    for n in LADDER:
        g = build_grid(1, 4.0, n)
        mask = DomainMask(g, np.abs(g.cell_centers[:, 0]) < 1.0)
        lam = eigenpairs(restrict(assemble(g, 0.5), mask), 1).eigenvalues[0]
        values.append(lam * normalization_constant(0.5, 1))
    return values


def _anchor_misses(values: list) -> list:
    """The anchor's failed conditions: first-order error ratios outside
    [1.9, 2.1], and a Richardson value more than 1e-5 (relative) from the
    published lambda_1."""
    errors = [v / KWASNICKI_LAMBDA1 - 1.0 for v in values]
    misses = [f"error ratio {a / b:.3f} at {n} cells"
              for a, b, n in zip(errors, errors[1:], LADDER[1:])
              if not 1.9 <= a / b <= 2.1]
    richardson = 2.0 * values[-1] - values[-2]
    miss = richardson / KWASNICKI_LAMBDA1 - 1.0
    if not abs(miss) <= 1e-5:
        misses.append(f"Richardson value misses by {miss:.3e}")
    return misses


def test_lambda1_converges_to_published_value():
    assert _anchor_misses(_lambda1_ladder()) == []


def _tail_free(grid, s):
    """The stiffness form with rho = A 1 zeroed: d_i = sum_j k_ij."""
    op = assemble_stiffness(grid, s)
    return replace(op, diag=op.diag - op.tail)


def test_lambda1_anchor_fails_without_exterior_tail():
    # negative control: with the exterior tail zeroed the Richardson value
    # misses by -13.9%, and the error stops halving
    misses = _anchor_misses(_lambda1_ladder(_tail_free))
    assert len(misses) == 4    # three error ratios near 1, and the Richardson value
    assert misses[-1].startswith("Richardson value misses by -1.39")


TORSION_LADDER = (512, 1024, 2048)   # box cells; (-1, 1) holds half of them


def _torsion_misses(s, assemble=assemble_stiffness) -> list:
    """The torsion anchor's failed conditions at order s: a sup-error ratio
    per halving of h more than 0.05 from 2^s, and an L2-error ratio more
    than 0.05 from 2^min(1, s + 1/2), or under 1.8 at s = 1/2, where the
    rate 2 is reached slowly (1.914 and 1.921 on this ladder)."""
    getoor = math.gamma(0.5) / (4.0 ** s * math.gamma(1.0 + s) * math.gamma(0.5 + s))
    errors = []
    for n in TORSION_LADDER:
        g = build_grid(1, 2.0, n)
        x = g.cell_centers[:, 0]
        mask = DomainMask(g, np.abs(x) < 1.0)
        w = solve_torsion(restrict(assemble(g, s), mask)).values.values
        edge = np.where(mask.cells, 1.0 - x * x, 0.0) ** s
        exact = normalization_constant(s, 1) * getoor * edge
        d = w - exact
        errors.append((np.abs(d).max(), math.sqrt(g.h * (d @ d))))
    misses = []
    for (sup_a, l2_a), (sup_b, l2_b), n in zip(errors, errors[1:], TORSION_LADDER[1:]):
        if not abs(sup_a / sup_b - 2.0 ** s) <= 0.05:
            misses.append(f"s = {s}: sup-error ratio {sup_a / sup_b:.3f} at {n} cells")
        l2_ok = (l2_a / l2_b >= 1.8 if s == 0.5
                 else abs(l2_a / l2_b - 2.0 ** min(1.0, s + 0.5)) <= 0.05)
        if not l2_ok:
            misses.append(f"s = {s}: L2-error ratio {l2_a / l2_b:.3f} at {n} cells")
    return misses


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_torsion_converges_to_getoor(s):
    assert _torsion_misses(s) == []


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_torsion_anchor_fails_without_exterior_tail(s):
    # negative control: with the exterior tail zeroed the error ratios read
    # 1.000-1.030, and every bound fails
    assert len(_torsion_misses(s, _tail_free)) == 4

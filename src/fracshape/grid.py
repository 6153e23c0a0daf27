"""Uniform lattices over a bounded box, cell masks, and grid functions.

The box [-half_width, half_width]^dim is split into resolution^dim equal
cells; functions live on cell centers and are extended by zero outside the
box (homogeneous Dirichlet exterior condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructuralError

# Grid construction budget.  Grids that are only sampled (`classify`, up to
# concentration.max_length) may exceed forms.MAX_DENSE_CELLS, the assembly budget.
MAX_CELLS = 16384
# Box half widths whose assembly, torsion and lambda_1 stay finite with room
# to spare: they are finite on [1e-150, 1e70] in 1D and 2D for s in
# {0.1, 0.5, 0.9}; 2D overflows at 1e80, and at 1e-200 a solve fails or
# divides by zero.
MIN_HALF_WIDTH, MAX_HALF_WIDTH = 1e-6, 1e6
# entries of one block of `row_blocks`, which sizes every row-blocked pass:
# pair distances, stiffness gathers and ball masses
_ROW_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [-half_width, half_width]^dim."""

    dim: int
    half_width: float
    resolution: int

    @property
    def h(self) -> float:
        """Cell width."""
        return 2.0 * self.half_width / self.resolution

    @property
    def n_cells(self) -> int:
        return self.resolution ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def axis_centers(self) -> np.ndarray:
        """1D coordinates of cell centers along one axis."""
        h = self.h
        return -self.half_width + h * (np.arange(self.resolution) + 0.5)

    @property
    def shape(self) -> tuple:
        """Lattice shape of the C-ordered cell arrays."""
        return (self.resolution,) * self.dim

    @property
    def cell_centers(self) -> np.ndarray:
        """(n_cells, dim) array of cell-center coordinates, C-ordered."""
        return lattice_points(self.axis_centers, self.dim)

    def multi_index(self, flat: np.ndarray) -> np.ndarray:
        """(k, dim) integer lattice coordinates of flat cell indices."""
        return np.column_stack(np.unravel_index(np.asarray(flat), self.shape))


def lattice_points(axis: np.ndarray, dim: int) -> np.ndarray:
    """(len(axis)^dim, dim) C-ordered points of the product lattice axis^dim."""
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def distances_from(grid: Grid, center) -> np.ndarray:
    """Euclidean distance of every cell center from `center`."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dim,):
        raise ParameterError(f"center must have {grid.dim} components")
    return np.sqrt(((grid.cell_centers - center) ** 2).sum(axis=1))


def row_blocks(n_rows: int, n_cols: int):
    """Slices of at most _ROW_BLOCK_ENTRIES / n_cols rows covering n_rows rows."""
    step = max(1, _ROW_BLOCK_ENTRIES // n_cols)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def min_pair_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Smallest Euclidean distance between a point of p (m, dim) and one of
    q (n, dim).

    The squared distances are summed axis by axis, as `cdist` sums d * d,
    and the square root is taken of their minimum; sqrt is monotone, so the
    result equals `cdist(p, q).min()` to the bit.  Rows of p go in chunks
    so that no m x n array exists for large supports.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if not (len(p) and len(q)):
        raise ParameterError("min_pair_distance needs two nonempty point sets")
    best = np.inf
    for rows in row_blocks(len(p), len(q)):
        block = p[rows]
        sq = np.zeros((len(block), len(q)))
        for axis in range(p.shape[1]):
            d = block[:, axis, None] - q[None, :, axis]
            sq += d * d
        best = min(best, sq.min())
    return float(np.sqrt(best))


def _is_int(x) -> bool:
    # a bool is an int to isinstance; a JSON true must not pass as 1
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def build_grid(dim: int, half_width: float, resolution: int) -> Grid:
    """Construct a uniform grid, validating each field and the grid budget.

    A rejected field raises ParameterError with `field` set to its name.
    """
    if not (_is_int(dim) and dim in (1, 2)):
        raise ParameterError(f"dim must be 1 or 2, got {dim!r}", field="dim")
    if not ((_is_int(half_width) or isinstance(half_width, (float, np.floating)))
            and MIN_HALF_WIDTH <= half_width <= MAX_HALF_WIDTH):
        raise ParameterError(f"half_width must be a number in [{MIN_HALF_WIDTH:g}, "
                             f"{MAX_HALF_WIDTH:g}], got {half_width!r}",
                             field="half_width")
    if not (_is_int(resolution) and resolution >= 2):
        raise ParameterError(f"resolution must be an integer >= 2, got "
                             f"{resolution!r}", field="resolution")
    if resolution ** dim > MAX_CELLS:
        raise ParameterError(
            f"resolution {resolution} gives {resolution ** dim} cells, "
            f"over the budget of {MAX_CELLS}", field="resolution"
        )
    return Grid(dim=int(dim), half_width=float(half_width), resolution=int(resolution))


@dataclass(frozen=True)
class DomainMask:
    """Boolean cell subset of a grid; the discrete analogue of an open set."""

    grid: Grid
    cells: np.ndarray = field(repr=False)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=bool)
        if cells.shape != (self.grid.n_cells,):
            raise StructuralError(
                f"mask has {cells.shape[0] if cells.ndim == 1 else 'bad'} cells, "
                f"grid has {self.grid.n_cells}"
            )
        object.__setattr__(self, "cells", cells)

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.cells))

    @property
    def is_empty(self) -> bool:
        return self.n_active == 0

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.cells)

    def is_subset_of(self, other: "DomainMask") -> bool:
        if other.grid != self.grid:
            raise StructuralError("masks live on different grids")
        return bool(np.all(other.cells[self.cells]))


def full_mask(grid: Grid) -> DomainMask:
    return DomainMask(grid, np.ones(grid.n_cells, dtype=bool))


def empty_mask(grid: Grid) -> DomainMask:
    return DomainMask(grid, np.zeros(grid.n_cells, dtype=bool))


def mask_from_indices(grid: Grid, indices) -> DomainMask:
    cells = np.zeros(grid.n_cells, dtype=bool)
    cells[np.asarray(indices, dtype=int)] = True
    return DomainMask(grid, cells)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function on grid cells, zero outside the box."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise StructuralError(
                f"function has {values.size} values, grid has {self.grid.n_cells} cells"
            )
        object.__setattr__(self, "values", values)

    def l2_norm_sq(self) -> float:
        """Squared L2 norm with the cell-volume weight."""
        return float(self.grid.cell_volume * np.dot(self.values, self.values))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq()))


def l2_distance(u: GridFunction, v: GridFunction) -> float:
    if u.grid != v.grid:
        raise StructuralError("functions live on different grids")
    return GridFunction(u.grid, u.values - v.values).l2_norm()


# --- JSON-friendly serialization -------------------------------------------

def grid_to_json(grid: Grid) -> dict:
    return {"dim": grid.dim, "half_width": grid.half_width, "resolution": grid.resolution}


def grid_from_json(obj: dict) -> Grid:
    return build_grid(obj["dim"], obj["half_width"], obj["resolution"])


def _rle_encode(bits: np.ndarray) -> str:
    """Run-length encoding: alternating run lengths, starting with zeros."""
    bits = np.asarray(bits, dtype=bool)
    edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    runs = np.diff(np.concatenate([[0], edges, [bits.size]])).tolist()
    return ",".join(str(r) for r in ([0] if bits[0] else []) + runs)


def _rle_decode(text: str, length: int) -> np.ndarray:
    """Inverse of `_rle_encode`: each comma-separated token must be a
    nonnegative decimal integer, and the runs must add up to `length`."""
    bits = np.zeros(length, dtype=bool)
    pos, value = 0, False
    for token in text.split(","):
        if not (token.isascii() and token.isdigit()):
            raise ParameterError(f"cells run length {token[:20]!r} is not a "
                                 f"nonnegative decimal integer")
        run = int(token)
        bits[pos:pos + run] = value
        pos += run
        value = not value
    if pos != length:
        raise ParameterError(f"cells run-length string decodes to {pos} bits, expected {length}")
    return bits


def mask_to_json(mask: DomainMask) -> dict:
    return {"grid": grid_to_json(mask.grid), "cells": _rle_encode(mask.cells)}


def mask_from_json(obj: dict) -> DomainMask:
    grid = grid_from_json(obj["grid"])
    return DomainMask(grid, _rle_decode(obj["cells"], grid.n_cells))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from fracshape import grid as grid_mod
from fracshape.errors import ParameterError, StructuralError
from fracshape.grid import (MAX_HALF_WIDTH, MIN_HALF_WIDTH, DomainMask, GridFunction,
                            build_grid, empty_mask, full_mask, grid_from_json, grid_to_json,
                            mask_from_indices, mask_from_json, mask_to_json,
                            min_pair_distance)


def test_build_grid_basic():
    g = build_grid(1, 4.0, 64)
    assert g.h == pytest.approx(0.125)
    assert g.n_cells == 64
    assert g.cell_volume == pytest.approx(0.125)
    centers = g.cell_centers
    assert centers.shape == (64, 1)
    assert centers[0, 0] == pytest.approx(-4.0 + 0.0625)
    assert centers[-1, 0] == pytest.approx(4.0 - 0.0625)


def test_build_grid_2d_ordering():
    g = build_grid(2, 1.0, 4)
    assert g.n_cells == 16
    centers = g.cell_centers
    # C order: second axis varies fastest
    assert centers[0, 0] == centers[1, 0]
    assert centers[0, 1] != centers[1, 1]
    flat = np.ravel_multi_index(tuple(g.multi_index(np.arange(16)).T), g.shape)
    assert np.array_equal(flat, np.arange(16))


@pytest.mark.parametrize("kwargs", [
    dict(dim=3, half_width=1.0, resolution=4),
    dict(dim=1, half_width=0.0, resolution=4),
    dict(dim=1, half_width=1.0, resolution=1),
    dict(dim=2, half_width=1.0, resolution=200),
])
def test_build_grid_rejects(kwargs):
    with pytest.raises(ParameterError):
        build_grid(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("dim", True), ("dim", 1.0), ("dim", None), ("dim", "1"),
    ("half_width", True), ("half_width", None), ("half_width", "4"),
    ("half_width", [4.0]), ("half_width", float("nan")),
    ("half_width", float("inf")), ("half_width", 1e300), ("half_width", 1e-200),
    ("resolution", True), ("resolution", 8.0),
    ("resolution", None),
])
def test_build_grid_rejects_non_numbers_naming_the_field(field, value):
    # at the parent True passed as 1 and None or a string raised TypeError
    kwargs = dict(dim=1, half_width=4.0, resolution=8)
    kwargs[field] = value
    with pytest.raises(ParameterError) as info:
        build_grid(**kwargs)
    assert info.value.field == field


def test_build_grid_accepts_numpy_scalars():
    g = build_grid(np.int64(2), np.float64(1.5), np.int32(4))
    assert (g.dim, g.half_width, g.resolution) == (2, 1.5, 4)
    assert build_grid(1, 4, 8).half_width == 4.0


def test_build_grid_half_width_range_ends():
    # at the parent 1e300 passed, and a 2D torsion solve returned NaN
    for half_width in (MIN_HALF_WIDTH, MAX_HALF_WIDTH):
        assert build_grid(2, half_width, 8).half_width == half_width
    for half_width in (MIN_HALF_WIDTH * 0.999, MAX_HALF_WIDTH * 1.001):
        with pytest.raises(ParameterError, match="half_width"):
            build_grid(1, half_width, 8)


def test_min_pair_distance_is_cdist_min_to_the_bit():
    rng = np.random.default_rng(23)
    for dim, res in ((1, 128), (2, 64)):
        centers = build_grid(dim, 2.0, res).cell_centers
        for _ in range(150):
            m, n = rng.integers(1, min(200, len(centers) // 2), 2)
            cells = rng.permutation(len(centers))
            p, q = centers[cells[:m]], centers[cells[m:m + n]]
            assert min_pair_distance(p, q) == cdist(p, q).min()
        # off-lattice points
        p, q = rng.normal(size=(50, dim)), 3.0 + rng.normal(size=(70, dim))
        assert min_pair_distance(p, q) == cdist(p, q).min()
    # 2D supports of 1,500 and 2,000 cells: 46 row blocks
    cells = rng.permutation(len(centers))
    p, q = centers[cells[:1500]], centers[cells[1500:3500]]
    assert len(p) * len(q) > 40 * grid_mod._ROW_BLOCK_ENTRIES
    assert min_pair_distance(p, q) == cdist(p, q).min()
    assert min_pair_distance(p[:1], q[:1]) == cdist(p[:1], q[:1]).min()
    with pytest.raises(ParameterError):
        min_pair_distance(p[:0], q)


def test_mask_volume_and_subset():
    g = build_grid(1, 4.0, 64)
    inner = mask_from_indices(g, [10, 11, 12])
    outer = mask_from_indices(g, [9, 10, 11, 12, 13])
    assert inner.n_active == 3
    assert inner.is_subset_of(outer)
    assert not outer.is_subset_of(inner)
    assert empty_mask(g).is_empty
    assert full_mask(g).n_active == 64


@pytest.mark.parametrize("indices, match", [
    # at the parent: cells {0, 7}; cell 0; cells {0, 1}; a bare IndexError
    pytest.param([-1, 0], ">= 0", id="negative"),
    pytest.param([0.5], "integers", id="float"),
    pytest.param([True, False], "integers", id="bool"),
    pytest.param([8], "off the grid", id="past-the-end"),
])
def test_mask_from_indices_rejects_malformed_indices(indices, match):
    g = build_grid(1, 4.0, 8)
    with pytest.raises(ParameterError, match=match):
        mask_from_indices(g, indices)


def test_mask_from_indices_accepts_every_cell_and_none():
    g = build_grid(2, 1.0, 4)
    assert mask_from_indices(g, []).is_empty
    assert mask_from_indices(g, np.arange(16, dtype=np.uint8)).n_active == 16
    assert mask_from_indices(g, range(15, 16)).active_indices.tolist() == [15]


def test_mask_grid_mismatch():
    g1 = build_grid(1, 4.0, 64)
    g2 = build_grid(1, 4.0, 32)
    with pytest.raises(StructuralError):
        mask_from_indices(g1, [0]).is_subset_of(mask_from_indices(g2, [0]))


def test_grid_function_l2():
    g = build_grid(1, 2.0, 16)
    u = GridFunction(g, np.ones(16))
    assert u.l2_norm_sq() == pytest.approx(4.0)


def test_grid_function_shape_check():
    g = build_grid(1, 2.0, 16)
    with pytest.raises(StructuralError):
        GridFunction(g, np.ones(8))


def test_grid_json_roundtrip():
    g = build_grid(2, 3.0, 12)
    assert grid_from_json(grid_to_json(g)) == g


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=0, max_size=40))
def test_mask_json_roundtrip(indices):
    g = build_grid(1, 4.0, 64)
    m = mask_from_indices(g, indices) if indices else empty_mask(g)
    back = mask_from_json(mask_to_json(m))
    assert np.array_equal(back.cells, m.cells)


@pytest.mark.parametrize("cells", ["-5,69", "10,-3,57", "10,,54", "1e1,54"])
def test_mask_from_json_rejects_malformed_runs(cells):
    # at the parent "-5,69" decoded to cells 59-63, "10,-3,57" to the empty
    # mask, and the other two raised a bare ValueError
    with pytest.raises(ParameterError, match="nonnegative decimal integer"):
        mask_from_json({"grid": grid_to_json(build_grid(1, 4.0, 64)), "cells": cells})

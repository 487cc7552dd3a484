import numpy as np
import pytest

from delayed_oco import Box
from delayed_oco.geometry import as_decision


def test_project_clamps_outside_point():
    box = Box(2, 1.0)
    assert np.array_equal(box.project([2.0, -0.5]), [1.0, -0.5])


def test_project_fixes_interior_point():
    box = Box(2, 1.0)
    assert np.array_equal(box.project([0.0, 0.0]), [0.0, 0.0])


def test_project_clamps_corner():
    box = Box(2, 1.0)
    assert np.array_equal(box.project([3.0, 3.0]), [1.0, 1.0])


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        Box(2, 1.0).project([1.0, 2.0, 3.0])


def test_project_refuses_a_stack_of_points_and_non_finite_entries():
    box = Box(2, 1.0)
    stack = np.array([[2.0, -0.5], [0.0, 0.0], [3.0, -3.0]])
    for bad in (stack, np.zeros((3, 3)), np.zeros((2, 2, 2)),
                np.array([[0.0, 0.0], [np.nan, 0.0]]), np.array([0.0, np.nan])):
        with pytest.raises(ValueError):
            box.project(bad)


@pytest.mark.parametrize("dim,half,expected", [(1, 1.0, 2.0), (4, 0.5, 2.0)])
def test_diameter(dim, half, expected):
    assert Box(dim, half).diameter == pytest.approx(expected, abs=0.0)


def test_from_diameter_roundtrip():
    box = Box.from_diameter(4, 4.0)
    assert box.half_width == pytest.approx(1.0)
    assert box.diameter == pytest.approx(4.0)


def test_projection_is_closest_point():
    # against random candidates: no feasible q is closer to p than project(p)
    rng = np.random.default_rng(0)
    box = Box.from_diameter(3, 2.5)
    for _ in range(200):
        p = rng.normal(scale=2.0, size=3)
        proj = box.project(p)
        assert np.all(np.abs(proj) <= box.half_width)
        for _ in range(20):
            q = box.random_point(rng)
            assert np.linalg.norm(proj - p) <= np.linalg.norm(q - p) + 1e-12


def test_projection_idempotent_bitwise():
    rng = np.random.default_rng(1)
    box = Box(5, 0.7)
    for _ in range(100):
        proj = box.project(rng.normal(scale=3.0, size=5))
        assert np.array_equal(box.project(proj), proj)


def test_pairwise_distances_below_diameter():
    rng = np.random.default_rng(2)
    box = Box.from_diameter(4, 3.0)
    for _ in range(200):
        p, q = box.random_point(rng), box.random_point(rng)
        assert np.linalg.norm(p - q) <= box.diameter + 1e-12


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Box(0, 1.0)
    with pytest.raises(ValueError):
        Box(2, 0.0)
    with pytest.raises(ValueError):
        as_decision([np.nan, 0.0])


def test_vertices_enumeration():
    box = Box(2, 0.5)
    verts = {tuple(v) for v in box.vertices()}
    assert verts == {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delayed_oco import Box
from delayed_oco.geometry import _WALK_ROWS, as_decision, clamp, clamped_walk


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


def test_a_box_holds_its_bounds_as_read_only_0d_float64():
    box = Box.from_diameter(3, 2.5)
    for bound, value in ((box.lo, -box.half_width), (box.hi, box.half_width)):
        assert bound.shape == () and bound.dtype == np.float64 and bound == value
        assert not bound.flags.writeable
    assert box == Box.from_diameter(3, 2.5) and "lo" not in repr(box)


@settings(max_examples=300, deadline=None)
@given(h=st.sampled_from([5e-324, 1e-310, 2.0**-1022, 5e-201, 0.5, 1.0, 1e308]) |
       st.floats(min_value=5e-324, max_value=1e308), full=st.booleans(), data=st.data())
def test_clamp_is_the_two_call_clamp_bitwise(h, full, data):
    # geometry.clamp is NumPy's private clip ufunc, pinned here: on NaN (of either sign),
    # +-inf, +-0.0, subnormals and the faces themselves, against 0-d bounds as a Box's and
    # full-shape ones, and with out= aliasing the input as a walk's stretch commits
    shape = data.draw(st.sampled_from([(1,), (7,), (3, 5)]))
    faces = [h, -h, np.nextafter(h, np.inf), np.nextafter(-h, -np.inf), np.nextafter(h, 0.0)]
    v = data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, *faces]) | st.floats()))
    lo, hi = (np.full(shape, -h), np.full(shape, h)) if full else (np.array(-h), np.array(h))
    expected = np.minimum(np.maximum(v, lo), hi).tobytes()
    assert clamp(v, lo, hi).tobytes() == expected
    w = v.copy()
    assert clamp(w, lo, hi, out=w) is w and w.tobytes() == expected


def test_vertices_enumeration():
    box = Box(2, 0.5)
    verts = {tuple(v) for v in box.vertices()}
    assert verts == {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(1,), (3,), (2, 4)]),
       K=st.integers(0, 64) | st.integers(_WALK_ROWS - 4, _WALK_ROWS + 40),
       flips=st.sampled_from([None, 0.02, 0.3]), special=st.sampled_from([0.0, 0.05]),
       size=st.sampled_from([0.05, 1.0, 1e308]), tiny=st.booleans(), full=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_clamped_walk_keeps_every_position_of_the_per_step_loop(shape, K, flips, special,
                                                                 size, tiny, full, seed):
    # the whole path, as the drift walk keeps it, bitwise; steps that keep a coordinate's
    # sign for a while pin it to a face, and +-0.0, +-inf and NaN steps are sprinkled in.
    # In a tiny box (h 5e-201) a step times a position underflows to 0.  The bounds are a
    # Box's 0-d ones or arrays of the walk's shape.
    rng, h = np.random.default_rng(seed), 5e-201 if tiny else 0.5
    steps = 2 * h * size * rng.uniform(-1.0, 1.0, (K, *shape))
    if flips is not None and K:
        steps = np.abs(steps[0]) * np.where(np.logical_xor.accumulate(
            rng.random(steps.shape) < flips, axis=0), -1.0, 1.0)
    at = rng.random(steps.shape) < special
    steps[at] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(at.sum()))
    y = rng.choice([-h, h, 0.0, -0.0, 0.6 * h], size=shape)
    path, expected = np.full((K + 1, *shape), 7.0), [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in steps:
            expected.append(np.clip(expected[-1] - step, -h, h))
        box = Box(1, h)
        lo, hi = (np.full(shape, -h), np.full(shape, h)) if full else (box.lo, box.hi)
        end = clamped_walk(y, steps, lo, hi, path)
    assert path.tobytes() == np.array(expected).tobytes()
    assert end.tobytes() == expected[-1].tobytes()

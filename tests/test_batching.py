"""The batching law, one table: an evaluator or oracle gives a point the same
bits in any batch.

ENTRIES maps a name to (call, inputs, bound): call(x, d) evaluates the entry
at x = inputs(z, d), or at the disk points z when inputs is None, and
returns one output or a tuple of them.  One test per law, on every entry and
surface: batch (each of 12 points has the bits of its 1-element call),
shape (a 3 x 4 reshape or the reversed batch gives the outputs reshaped or
reversed), empty (shapes (0,) and (2, 0) give outputs of those shapes, of
the batch's dtype) and scalar (a Python complex gives a 0-d result with the
batch's bits, or within the relative bound where there is one).  A change
to how points are batched adds an entry here.
"""

from functools import cache

import numpy as np
import pytest

from scherk import (dilatation, g_prime, gauss_curvature, gauss_map_q, h_prime,
                    harmonic_map, height_T, jacobian, kernel_K, map_and_height,
                    newton_invert, numeric_residue, poisson_extension,
                    step_boundary)
from scherk.oracles import kernel_contour_height
from conftest import SEED, assert_same_bits, build_case, disk_points

SURFACES = {name: build_case(*mst)[3] for name, mst in (
    ("case1", (0.3, 1.0, 0.3)), ("case2", (0.3, 1.0, -0.3)),
    ("k7", (0.7, 7.5, 6.5)))}
# 12 points in |z| < 0.9; none is 0, where gauss_curvature reads the record
Z = disk_points(np.random.default_rng(SEED), 12, 0.9)

# Each bound is about 4x the worst gap seen over 153 surfaces (these and the
# 150 sweep_cases) x 192 points in |z| < 0.9: on a Python complex, jacobian
# takes a numpy scalar's abs and the others the numpy-free arithmetic that
# analyze needs.
ENTRIES = {
    "h_prime": (h_prime, None, None),
    "g_prime": (g_prime, None, None),
    "dilatation": (dilatation, None, None),
    "jacobian": (jacobian, None, 1e-13),   # worst 2.5e-14
    "kernel_K": (kernel_K, None, 4e-15),   # worst 8.8e-16
    "harmonic_map": (harmonic_map, None, None),
    "height_T": (height_T, None, None),
    "map_and_height": (map_and_height, None, None),
    "gauss_map_q": (gauss_map_q, None, 4e-15),   # worst 8.6e-16
    "gauss_curvature": (gauss_curvature, None, 1.5e-14),   # worst 3.6e-15
    "poisson_extension": (lambda z, d: poisson_extension(z, step_boundary(d)),
                          None, None),
    "kernel_contour_height": (kernel_contour_height, None, None),
    "numeric_residue": (
        lambda z, d: numeric_residue(lambda u: kernel_K(u, d), z), None, None),
    # targets f(z), so that every root is a disk point
    "newton_invert": (lambda t, d: newton_invert(d, t), harmonic_map, None),
}
CASES = [pytest.param(name, surface, id=f"{name}-{surface}")
         for name in ENTRIES for surface in SURFACES]


def _outputs(value):
    return value if isinstance(value, tuple) else (value,)   # map_and_height


@cache
def _batch(name, surface):
    """(call, d, inputs, outputs) of the entry's 12-point batch."""
    call, inputs, _ = ENTRIES[name]
    d = SURFACES[surface]
    x = Z if inputs is None else inputs(Z, d)
    return call, d, x, _outputs(call(x, d))


@pytest.mark.parametrize("name, surface", CASES)
def test_batch_law(name, surface):
    call, d, x, want = _batch(name, surface)
    for i in range(x.size):
        for got, out in zip(_outputs(call(x[i:i + 1], d)), want):
            assert_same_bits(got, out[i:i + 1])


@pytest.mark.parametrize("name, surface", CASES)
def test_shape_law(name, surface):
    call, d, x, want = _batch(name, surface)
    for got, out in zip(_outputs(call(x.reshape(3, 4), d)), want):
        assert_same_bits(got, out.reshape(3, 4))
    for got, out in zip(_outputs(call(x[::-1], d)), want):
        assert_same_bits(got, out[::-1])


@pytest.mark.parametrize("name, surface", CASES)
def test_empty_law(name, surface):
    call, d, _, want = _batch(name, surface)
    for shape in ((0,), (2, 0)):
        for got, out in zip(_outputs(call(np.empty(shape, complex), d)), want):
            assert (type(got), got.shape, got.dtype) == (np.ndarray, shape, out.dtype)


@pytest.mark.parametrize("name, surface", CASES)
def test_scalar_law(name, surface):
    call, d, x, want = _batch(name, surface)
    bound = ENTRIES[name][2]
    for i, v in enumerate(x):
        for got, out in zip(_outputs(call(complex(v), d)), want):
            assert np.ndim(got) == 0, type(got)
            if bound is None:
                assert_same_bits(got, out[i])
            else:
                assert abs(got - out[i]) <= bound * abs(out[i]), i

import math

import numpy as np
import pytest

from scherk import (DegenerateRightAngle, construct_quad, height_T,
                    hyperbolic_coordinates, newton_invert, normalize,
                    scherk_data)

SEED = 20260825


def build_case(m, s, t):
    """Full pipeline for a canonical quadrilateral: (quad, frame, coords, data)."""
    q = construct_quad(m, s, t)
    frame, _, _ = normalize(q)
    coords = hyperbolic_coordinates(frame.z, frame.w)
    return q, frame, coords, scherk_data(coords)


def graph_height_function(d):
    """The graph's height as a callable w -> T(f^-1(w)) by Newton inversion,
    for a point w of the normalized frame or an array of them."""
    return lambda w: height_T(newton_invert(d, w), d)


def sample_triples(rng, n, m_range=(0.05, 1.5), tau=2.5, gap=(0.05, 2.5)):
    """(m, s, t) samples kept clear of the degenerate boundaries."""
    ms = rng.uniform(*m_range, n)
    ts = rng.uniform(-tau, tau, n)
    ss = ts + rng.uniform(*gap, n) * rng.choice([-1.0, 1.0], n)
    return np.column_stack([ms, ss, ts])


@pytest.fixture(scope="session")
def case1():
    return build_case(0.3, 1.0, 0.3)


@pytest.fixture(scope="session")
def case2():
    return build_case(0.3, 1.0, -0.3)


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def sweep_cases():
    """150 random nondegenerate cases shared by the identity sweeps."""
    gen = np.random.default_rng(SEED + 1)
    return [build_case(m, s, t) for m, s, t in sample_triples(gen, 150)]


@pytest.fixture(scope="session")
def near_edge_cases():
    """Surfaces off the sampling box, near m = pi/2: pi/2 - m log-uniform in
    [1e-4, 1e-1], s, t = k +- j with j log-uniform in [0.02, 4] and k in
    [-8, 8].  Of 44 draws, the 3 the construction refuses are left out:
    DegenerateRightAngle, below pi/2 - m ~ 1.4e-4."""
    gen = np.random.default_rng(SEED + 2)
    n = 44
    eps = 10.0 ** gen.uniform(-4.0, -1.0, n)
    js = np.exp(gen.uniform(math.log(0.02), math.log(4.0), n))
    ks = gen.uniform(-8.0, 8.0, n)
    cases = []
    for e, j, k in zip(eps, js, ks):
        try:
            cases.append(build_case(math.pi / 2 - e, k + j, k - j))
        except DegenerateRightAngle:
            continue
    return cases

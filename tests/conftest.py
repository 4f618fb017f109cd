import importlib
import math
import pkgutil

import numpy as np
import pytest

import scherk
from scherk import (DegenerateRightAngle, construct_quad, height_T,
                    hyperbolic_coordinates, newton_invert, normalize,
                    scherk_data)

SEED = 20260825

LARGE_K_PARAMS = ((1.3310895653591717, 7.8739001972487195, 7.274288713826383),
                  (1.4404645653591717, 7.315722958976075, 5.78446595209903),
                  (1.3693708153591715, 8.036090585012234, 7.931298326062872))


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


class Spy:
    """A callable wrapper that records the positional arguments of each call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        return self.fn(*args, **kwargs)

    @property
    def points(self):
        """Points per call: the size of its first argument, or that argument
        when it is itself a count (mesh._labels(n) formats n labels)."""
        return [a[0] if isinstance(a[0], int) else np.size(a[0])
                for a in self.calls]


def spy(monkeypatch, target):
    """A Spy on scherk.<target> ("module.name") put at every binding of a
    scherk module that holds it, private names and imported copies included;
    monkeypatch undoes it.  Every scherk module is imported first, so that a
    command's lazy import reads the Spy and keeps no copy after the undo."""
    modules = {info.name: importlib.import_module(f"scherk.{info.name}")
               for info in pkgutil.iter_modules(scherk.__path__)}
    module, name = target.rsplit(".", 1)
    original = getattr(modules[module], name)
    wrapper = Spy(original)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)
    return wrapper


def assert_same_text(got, want):
    """got == want for two strings or byte strings, failing with the first
    differing lines: pytest's own diff of two megabyte strings takes minutes."""
    if got != want:
        got, want = got.splitlines(), want.splitlines()
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        pytest.fail(f"{len(bad)} of {len(got)} and {len(want)} lines differ, "
                    f"first {bad[:3]}")


def stereographic(w):
    """Unit vector of the inverse stereographic projection of the point w."""
    den = 1.0 + abs(w) ** 2
    return (2.0 * w.real / den, 2.0 * w.imag / den, (1.0 - abs(w) ** 2) / den)


def disk_points(rng, n, r_max):
    """n points uniform by area in the disk |z| < r_max, drawn from rng."""
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


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

"""Surface sampling, OBJ export, and the radial traces of asymptotics --out."""

import math
from fractions import Fraction

import numpy as np
import pytest

from scherk import (SurfaceMesh, export_obj, height_T, normalize,
                    sample_disk, validate_quadrilateral)
import scherk.mesh
from scherk.checks import growth_rays
from scherk.cli import main
from scherk.mesh import _int_fields, obj_text
from conftest import assert_same_text, spy


def _winding_contains(poly, pt, tol=1e-6):
    """Point-in-polygon by summing principal argument increments."""
    verts = np.array(list(poly) + [poly[0]]) - complex(*pt)
    if np.min(np.abs(verts)) < tol:
        return True   # on the boundary, close enough
    total = np.sum(np.angle(verts[1:] / verts[:-1]))
    return abs(total) > math.pi


def test_vertex_and_face_counts(case1):
    _, _, _, d = case1
    mesh = sample_disk(d, n_r=2, n_theta=8)
    assert len(mesh.vertices) == 1 + 2 * 8
    assert len(mesh.faces) == 8 + 2 * 8
    used = {i for f in mesh.faces for i in f}
    assert used == set(range(len(mesh.vertices)))


def test_faces_match_ring_loop(case1):
    _, _, _, d = case1
    for n_r, n_theta in ((1, 3), (4, 7)):
        def vid(ring, a):
            return 1 + ring * n_theta + a % n_theta

        want = [(0, vid(0, a), vid(0, a + 1)) for a in range(n_theta)]
        for ring in range(n_r - 1):
            for a in range(n_theta):
                want.append((vid(ring, a), vid(ring + 1, a), vid(ring + 1, a + 1)))
                want.append((vid(ring, a), vid(ring + 1, a + 1), vid(ring, a + 1)))
        mesh = sample_disk(d, n_r=n_r, n_theta=n_theta)
        assert mesh.faces.tolist() == [list(f) for f in want]


def test_center_vertex_and_metadata(case1):
    _, _, c, d = case1
    mesh = sample_disk(d, n_r=3, n_theta=12, r_max=0.9, h_max=2.5)
    x0, y0, t0 = mesh.vertices[0]
    c0 = d.h0
    assert abs(complex(x0, y0) - c0) < 1e-15
    assert t0 == 0.0
    assert mesh.metadata["m"] == c.m
    assert mesh.metadata["n_r"] == 3 and mesh.metadata["n_theta"] == 12
    assert mesh.metadata["r_max"] == 0.9 and mesh.metadata["h_max"] == 2.5


def test_projection_stays_inside_quadrilateral(case1):
    q, _, _, d = case1
    mesh = sample_disk(d, n_r=10, n_theta=24)
    for x, y, _ in mesh.vertices:
        assert _winding_contains(q.vertices, (x, y))


def test_heights_clamped_and_counted(case1):
    _, _, _, d = case1
    mesh = sample_disk(d, n_r=12, n_theta=16, r_max=0.9999, h_max=0.8)
    tops = [v[2] for v in mesh.vertices]
    assert max(np.abs(tops)) <= 0.8
    assert mesh.metadata["clamped"] > 0
    # both clamp signs occur: the surface dives and climbs at the rim
    assert min(tops) == -0.8 and max(tops) == 0.8


def test_radial_trace_values_and_signs(case1):
    # T on the rays r zeta_j, all four from one height_T call, as asymptotics
    # evaluates them: each equals T at its own point, and heights run
    # monotonically toward the blow-up sign of their pole
    _, _, _, d = case1
    rs = np.array([0.9, 0.99, 0.999])
    rays = height_T(np.outer(rs, d.poles), d)
    for ts, zeta, sign in zip(rays.T, d.poles, (-1.0, 1.0, -1.0, 1.0)):
        for r, t in zip(rs, ts):
            assert t == height_T(r * zeta, d)
        assert sign * (ts[-1] - ts[0]) > 0
        assert sign * ts[-1] > 0


def test_mesh_in_original_coordinates(case1):
    q, _, _, d = case1
    a, b = 2.0 - 1.0j, 0.5 + 3.0j
    moved = validate_quadrilateral([a * v + b for v in q.vertices])
    frame, _, _ = normalize(moved)
    plain = sample_disk(d, n_r=2, n_theta=6)
    framed = sample_disk(d, frame, n_r=2, n_theta=6)
    for (x, y, t), (xo, yo, to) in zip(plain.vertices, framed.vertices):
        assert abs(complex(xo, yo) - (a * complex(x, y) + b)) < 1e-12
        assert abs(to - t * abs(a)) < 1e-12


def test_obj_export_round_trip(case1, tmp_path):
    _, _, _, d = case1
    mesh = sample_disk(d, n_r=2, n_theta=8)
    path = tmp_path / "surface.obj"
    export_obj(mesh, path)
    vs, fs = [], []
    for line in path.read_text().splitlines():
        kind, *rest = line.split()
        if kind == "v":
            vs.append(tuple(float(x) for x in rest))
        elif kind == "f":
            fs.append(tuple(int(x) for x in rest))
    assert len(vs) == len(mesh.vertices) and len(fs) == len(mesh.faces)
    assert min(i for f in fs for i in f) == 1   # OBJ indices are 1-based
    for got, want in zip(vs, mesh.vertices):
        assert got == tuple(want)   # .17g round-trips float64 exactly
    for got, want in zip(fs, mesh.faces):
        assert got == tuple(i + 1 for i in want)


def _percent_formatted(mesh):
    """The OBJ text as Python's %-formatting writes it: the reference."""
    v, f = mesh.vertices, mesh.faces + 1
    return (("v %.17g %.17g %.17g\n" * len(v)) % tuple(v.ravel().tolist())
            + ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))


def _assert_obj_text_is_percent_format(values, faces=()):
    values = np.asarray(values, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    mesh = SurfaceMesh(np.resize(values, (-(-len(values) // 3), 3)),
                       np.resize(faces, (-(-len(faces) // 3), 3)))
    assert_same_text("".join(obj_text(mesh)), _percent_formatted(mesh))


def test_obj_text_matches_percent_format_over_the_double_range():
    rng = np.random.default_rng(20261018)
    # every bit pattern: subnormals, huge values, inf and nan included
    bits = rng.integers(0, 2 ** 64, 30000, dtype=np.uint64).view(np.float64)
    # every decade the numpy digits cover, and the ones around them
    decades = 10.0 ** rng.uniform(-7.0, 17.0, 30000) \
        * rng.choice([-1.0, 1.0], 30000)
    _assert_obj_text_is_percent_format(np.concatenate((bits, decades)))


def test_obj_text_rounds_ties_at_the_17th_digit_half_to_even():
    # x = M 2^-(17 - E) with M odd and 10^E <= x < 10^(E + 1): the exact
    # x 10^(16 - E) lies halfway between two 17-digit significands
    rng = np.random.default_rng(7)
    ties = []
    for e10 in range(-5, 15):
        scale = Fraction(2) ** (17 - e10)
        lo = math.ceil(Fraction(10) ** e10 * scale)
        hi = min(math.ceil(Fraction(10) ** (e10 + 1) * scale), 2 ** 53)
        odd = rng.integers(lo, hi, 500) | 1
        x = np.ldexp(odd[odd < hi].astype(float), e10 - 17)
        assert all((Fraction(v) * 10 ** (16 - e10)).denominator == 2
                   and 10 ** e10 <= Fraction(v) < 10 ** (e10 + 1)
                   for v in x.tolist())
        ties.append(x)
    ties = np.concatenate(ties)
    _assert_obj_text_is_percent_format(np.concatenate((ties, -ties)))


def test_no_double_rounds_up_to_the_next_power_of_ten_at_17_digits():
    # obj_text relies on it: its 17 digits never carry into an 18th
    for k in range(-4, 16):
        below = max(x for x in (float(f"1e{k}"), np.nextafter(float(f"1e{k}"), 0))
                    if Fraction(x) < Fraction(10) ** k)
        assert Fraction(below) * Fraction(10) ** (17 - k) < 10 ** 17 - 8


def test_obj_text_at_powers_of_ten_and_special_values():
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    near = np.concatenate((powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308]
    _assert_obj_text_is_percent_format(np.concatenate((near, -near, special)))


def test_obj_text_of_integral_values_and_face_indices():
    rng = np.random.default_rng(11)
    ints = np.concatenate((np.arange(-3000, 3000), [2 ** 53, 2 ** 53 - 1],
                           rng.integers(0, 2 ** 53, 3000)))
    # 3 001 vertices: every index once, then 9 000 drawn (written 1-based)
    n = -(-len(ints) // 3)
    faces = np.concatenate((np.arange(n), rng.integers(0, n, 9000)))
    _assert_obj_text_is_percent_format(ints, faces)


def test_int_fields_match_percent_d():
    rng = np.random.default_rng(11)
    # both sides of each power of ten up to 10^18, and draws below 2^62
    edges = [10 ** k + d for k in range(19) for d in (-1, 0, 1)]
    values = np.concatenate((edges, np.arange(9000),
                             rng.integers(0, 2 ** 62, 3000)))
    fields = _int_fields(values)
    got = [bytes(row).replace(b"\0", b"").decode() for row in fields]
    assert got == ["%d" % v for v in values.tolist()]


def test_obj_text_of_a_large_mesh_and_of_no_faces(case1):
    _, _, _, d = case1
    # 12 001 vertices: 4- and 5-digit labels share the face blocks
    mesh = sample_disk(d, n_r=30, n_theta=400)
    assert len(mesh.vertices) == 12001
    assert_same_text("".join(obj_text(mesh)), _percent_formatted(mesh))
    no_faces = SurfaceMesh(mesh.vertices[:5], np.zeros((0, 3), np.int64))
    assert_same_text("".join(obj_text(no_faces)), _percent_formatted(no_faces))
    empty = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int64))
    assert list(obj_text(empty)) == []


def test_default_metadata_is_empty_and_read_only():
    # two default-built meshes share no mutable metadata dict: each one's is
    # an empty read-only mapping, and a write to it raises
    one = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), np.int64))
    two = SurfaceMesh(np.zeros((1, 3)), np.zeros((0, 3), np.int64))
    for mesh in (one, two):
        assert not isinstance(mesh.metadata, dict)
        with pytest.raises(TypeError):
            mesh.metadata["clamped"] = 0
        with pytest.raises(AttributeError):
            mesh.metadata = {}
    assert dict(one.metadata) == dict(two.metadata) == {}


@pytest.mark.parametrize("n", [10 ** k + extra for k in range(6) for extra in (0, 1)])
def test_obj_text_labels_at_their_exact_width(n, monkeypatch):
    # the largest label " %d" % n is 2 to 7 bytes; a face block whose labels
    # are all that wide holds no NUL, and the others are stripped of theirs
    rng = np.random.default_rng(n)
    full = np.flatnonzero(np.arange(1, n + 1) >= 10 ** (len(str(n)) - 1))
    faces = np.concatenate((rng.choice(full, (scherk.mesh._OBJ_BLOCK, 3)),
                            rng.integers(0, n, (1000, 3)), [[0, n - 1, 0]]))
    mesh = SurfaceMesh(rng.normal(size=(n, 3)), faces)
    text = spy(monkeypatch, "mesh._text")
    assert_same_text("".join(obj_text(mesh)), _percent_formatted(mesh))
    # the two face blocks; below 10 vertices every label is as wide as n's
    assert [bool((out == 0).any()) for (out,) in text.calls[-2:]] == [False, n >= 10]


def test_csv_export(case1, tmp_path, capsys):
    # asymptotics --out writes the ray toward its pole as CSV: a header, then
    # "%.17g,%.17g" of r and T(r zeta) per growth radius
    _, _, _, d = case1
    path = tmp_path / "trace.csv"
    assert main(["asymptotics", "--params", "0.3,1.0,0.3", "--pole", "2",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "r,T"
    radii = growth_rays(d)[0]
    assert len(lines) == 1 + radii.size
    for line, r in zip(lines[1:], radii):
        assert line == f"{r:.17g},{height_T(r * d.poles[1], d):.17g}"
    assert capsys.readouterr().out.startswith("pole 2: fitted slope ")


@pytest.mark.parametrize("n_theta", [4, 48, 400])
def test_sample_disk_outer_ring_within_height_bound(case1, n_theta):
    """r_max is checked against the height's bound |z| <= 1 - 1e-9 up
    front, by the outer ring's own points, with the value named."""
    _, _, _, d = case1
    inside = 1.0 - 1.001e-9
    mesh = sample_disk(d, n_r=2, n_theta=n_theta, r_max=inside)
    assert mesh.metadata["r_max"] == inside
    for outside in (1.0 - 0.999e-9, 0.9999999999):
        with pytest.raises(ValueError, match=f"r_max={outside!r}"):
            sample_disk(d, n_r=2, n_theta=n_theta, r_max=outside)

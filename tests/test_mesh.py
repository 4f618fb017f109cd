"""Surface sampling, OBJ/CSV export, radial traces."""

import math

import numpy as np
import pytest

from scherk import (IoError, export_csv, export_obj, height_T, normalize,
                    radial_trace, sample_disk, validate_quadrilateral)


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
    _, _, _, d = case1
    rs = [0.9, 0.99, 0.999]
    for idx, sign in ((1, -1.0), (2, 1.0), (3, -1.0), (4, 1.0)):
        trace = radial_trace(d, idx, rs)
        assert [r for r, _ in trace] == rs
        zeta = d.poles[idx - 1]
        for r, t in trace:
            assert t == float(height_T(r * zeta, d))
        # heights run monotonically toward the blow-up sign
        ts = [t for _, t in trace]
        assert sign * (ts[-1] - ts[0]) > 0
        assert sign * ts[-1] > 0
    with pytest.raises(ValueError):
        radial_trace(d, 5, rs)


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


def test_csv_export(case1, tmp_path):
    _, _, _, d = case1
    trace = radial_trace(d, 2, [0.5, 0.9, 0.99])
    path = tmp_path / "trace.csv"
    export_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,T"
    assert len(lines) == 4
    r, t = lines[2].split(",")
    assert float(r) == 0.9 and float(t) == trace[1][1]


def test_export_io_error(case1, tmp_path):
    _, _, _, d = case1
    mesh = sample_disk(d, n_r=1, n_theta=3)
    with pytest.raises(IoError):
        export_obj(mesh, tmp_path / "missing_dir" / "x.obj")
    with pytest.raises(IoError):
        export_csv([(0.5, 1.0)], tmp_path / "missing_dir" / "x.csv")


def test_sample_disk_argument_validation(case1):
    _, _, _, d = case1
    with pytest.raises(ValueError):
        sample_disk(d, n_r=0)
    with pytest.raises(ValueError):
        sample_disk(d, n_theta=2)
    with pytest.raises(ValueError):
        sample_disk(d, r_max=1.0)

"""Triangulated samples of the surface and radial boundary traces."""

from dataclasses import dataclass, field

import numpy as np

from .errors import IoError
from .harmonic import harmonic_map
from .weierstrass import height_T

# Lines of OBJ text formatted per block: bounds the text held in memory.
_OBJ_BLOCK = 4096


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangle mesh: an (n, 3) float array of vertices (x, y, height), an
    (m, 3) integer array of 0-based faces, and sampling metadata."""
    vertices: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)


def sample_disk(d, frame=None, n_r=24, n_theta=48, r_max=0.995, h_max=5.0):
    """Sample the surface over concentric rings of the unit disk.

    Radii follow r_i = r_max sin(pi i / (2 n_r)), clustering rings near the
    rim where the height varies fastest.  Heights are clamped to
    [-h_max, h_max] (the surface is unbounded near the four boundary
    poles); the number of clamped vertices is recorded in the metadata.
    With a NormalizedFrame, vertices are mapped back to the original
    quadrilateral (positions by frame.invert, heights by 1/|frame.scale|).
    """
    if n_r < 1 or n_theta < 3:
        raise ValueError("need n_r >= 1 and n_theta >= 3")
    if not 0.0 < r_max < 1.0:
        raise ValueError("r_max must lie in (0, 1)")

    radii = r_max * np.sin(np.pi * np.arange(1, n_r + 1) / (2.0 * n_r))
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    zs = np.concatenate(
        [[0.0 + 0.0j]] + [r * np.exp(1j * thetas) for r in radii])

    fz = harmonic_map(zs, d)
    hs = height_T(zs, d)
    if frame is not None:
        fz, hs = frame.invert(fz), hs / abs(frame.scale)
    clamped = int(np.count_nonzero(np.abs(hs) > h_max))
    hs = np.clip(hs, -h_max, h_max)
    vertices = np.column_stack((np.real(fz), np.imag(fz), hs))

    # Ring i (from 0) holds vertices 1 + i n_theta + a, a = 0 .. n_theta - 1.
    a = np.arange(n_theta)
    a_next = (a + 1) % n_theta
    fan = np.column_stack((np.zeros_like(a), 1 + a, 1 + a_next))
    inner = 1 + n_theta * np.arange(n_r - 1)[:, None]
    i0, i1 = inner + a, inner + a_next
    o0, o1 = i0 + n_theta, i1 + n_theta
    quads = np.stack((i0, o0, o1, i0, o1, i1), axis=-1).reshape(-1, 3)
    faces = np.concatenate((fan, quads))

    c = d.coords
    metadata = {
        "m": c.m, "s": c.s, "t": c.t, "p": d.p,
        "n_r": n_r, "n_theta": n_theta, "r_max": r_max, "h_max": h_max,
        "clamped": clamped,
    }
    return SurfaceMesh(vertices=vertices, faces=faces, metadata=metadata)


def radial_trace(d, pole_index, r_list):
    """Heights along the ray toward one boundary pole.

    pole_index is 1..4 for the poles (1, e^{ip}, -1, -e^{ip}); returns a
    list of (r, height) pairs.  Along these rays the height grows like
    a multiple of -log(1 - r).
    """
    if pole_index not in (1, 2, 3, 4):
        raise ValueError("pole_index must be 1, 2, 3, or 4")
    zeta = d.poles[pole_index - 1]
    return [(float(r), float(height_T(r * zeta, d))) for r in r_list]


def obj_text(mesh):
    """Wavefront OBJ text of the mesh (1-based face indices), yielded in
    blocks of _OBJ_BLOCK lines with one %-format call each."""
    for fmt, rows in (("v %.17g %.17g %.17g\n", mesh.vertices),
                      ("f %d %d %d\n", mesh.faces + 1)):
        for i in range(0, len(rows), _OBJ_BLOCK):
            block = rows[i:i + _OBJ_BLOCK]
            yield fmt * len(block) % tuple(block.ravel().tolist())


def export_obj(mesh, path):
    """Write the mesh as a Wavefront OBJ file (1-based face indices)."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(obj_text(mesh))
    except OSError as exc:
        raise IoError(f"cannot write OBJ file {path}: {exc}") from exc


def export_csv(trace, path):
    """Write a radial trace as CSV with header r,T."""
    lines = ["r,T"]
    for r, t in trace:
        lines.append(f"{r:.17g},{t:.17g}")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write CSV file {path}: {exc}") from exc

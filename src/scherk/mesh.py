"""Triangulated samples of the surface, and OBJ text whose bytes equal
Python's %.17g and %d, with digits from numpy."""

from collections import namedtuple
from types import MappingProxyType

import numpy as np

from .errors import IoError, OutOfDomain
from .harmonic import R_HEIGHT
from .weierstrass import map_and_height

# Lines of OBJ text formatted per block: bounds the text held in memory.
_OBJ_BLOCK = 4096


class SurfaceMesh(namedtuple("SurfaceMesh", "vertices faces metadata",
                             defaults=(MappingProxyType({}),))):
    """Triangle mesh, an immutable named tuple: an (n, 3) float array of
    vertices (x, y, height), an (m, 3) integer array of 0-based faces, and
    sampling metadata (by default an empty read-only mapping)."""
    __slots__ = ()


def sample_disk(d, frame=None, n_r=24, n_theta=48, r_max=0.995, h_max=5.0):
    """Sample the surface over concentric rings of the unit disk.

    Radii follow r_i = r_max sin(pi i / (2 n_r)), clustering rings near the
    rim where the height varies fastest.  Heights are clamped to
    [-h_max, h_max] (the surface is unbounded near the four boundary
    poles); the number of clamped vertices is recorded in the metadata.
    With a NormalizedFrame, vertices are mapped back to the original
    quadrilateral (positions by frame.invert, heights by 1/|frame.scale|).
    Ring i (from 0) holds vertices 1 + i n_theta + a after the center 0; the
    faces, a fan about 0 and then two per quad, fill one preallocated array.
    """
    if n_r < 1 or n_theta < 3:
        raise OutOfDomain("need n_r >= 1 and n_theta >= 3")
    if not 0.0 < r_max < 1.0:
        raise OutOfDomain(f"r_max must lie in (0, 1), got {r_max!r}")
    if not 0.0 < h_max < np.inf:
        raise OutOfDomain(f"h_max must be a finite positive number, got {h_max!r}")
    radii = r_max * np.sin(np.pi * np.arange(1, n_r + 1) / (2.0 * n_r))
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    zs = np.concatenate(([0j], np.outer(radii, np.exp(1j * thetas)).ravel()))
    if np.abs(zs[-n_theta:]).max() > R_HEIGHT:
        raise OutOfDomain(f"r_max={r_max!r} puts samples past |z| = 1 - 1e-9")

    fz, hs = map_and_height(zs, d)
    if frame is not None:
        with np.errstate(over="ignore"):  # a height past the double range is clamped
            fz, hs = frame.invert(fz), hs / abs(frame.scale)
    clamped = int(np.count_nonzero(np.abs(hs) > h_max))
    hs = np.clip(hs, -h_max, h_max)
    vertices = np.column_stack((np.real(fz), np.imag(fz), hs))

    a = np.arange(n_theta)
    a_next = (a + 1) % n_theta
    o, o_next = a + n_theta, a_next + n_theta
    faces = np.empty((n_theta * (2 * n_r - 1), 3), np.int64)
    faces[:n_theta] = np.column_stack((0 * a, 1 + a, 1 + a_next))  # the fan
    quad = np.column_stack((a, o, o_next, a, o_next, a_next))  # two per a, on ring i
    np.add(1 + n_theta * np.arange(n_r - 1)[:, None, None], quad,
           out=faces[n_theta:].reshape(n_r - 1, n_theta, 6))

    c = d.coords
    metadata = {
        "m": c.m, "s": c.s, "t": c.t, "p": d.p,
        "n_r": n_r, "n_theta": n_theta, "r_max": r_max, "h_max": h_max,
        "clamped": clamped,
    }
    return SurfaceMesh(vertices=vertices, faces=faces, metadata=metadata)


# "0000" .. "9999" as one little-endian 4-byte word each; _WORDS adds them
# again with their leading zeros as NUL (0 all NUL); 10^k for k = 0 .. 22
# (exact doubles) and its halves of 26 bits (Veltkamp's split).
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                                indexing="ij"), -1).view("<u4").ravel()
_WORDS = _DIGITS4.view(np.uint8).reshape(-1, 4).copy()
_WORDS[np.logical_and.accumulate(_WORDS == 48, axis=1)] = 0
_WORDS = np.concatenate((_DIGITS4, _WORDS.view("<u4").ravel()))
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_ROWS = np.arange(20, dtype=np.int8)[:, None]
_SHIFTS = np.array([0, 8, 16, 24], np.uint32)[:, None]  # byte b: word >> 8b


def _digits(n, n_words):
    """The 4 n_words digits of each 0 <= n < 10^(4 n_words), a column each."""
    words = np.empty((n_words, len(n)), np.int64)
    for k in range(n_words - 1, -1, -1):
        q = n // 10000
        words[k], n = n - q * 10000, q
    return (_DIGITS4[words][:, None] >> _SHIFTS).astype(np.uint8).reshape(
        4 * n_words, -1)


def _float_fields(x):
    """%.17g of each double in x, as 28 bytes (sign, "0.000", digits and
    point, "e-05") on a new last axis, NUL where %g prints nothing.  numpy
    computes those with 1e-5 <= |x| < 1e15: with E the decimal exponent,
    Dekker's two-product gives p + err = |x| 10^(16 - E) exactly; p >= 2^53
    is even, so p + rint(err) rounds half to even.  Python formats the rest."""
    shape, x = x.shape, x.ravel()
    a = np.abs(x)
    fast = (a >= 1e-5) & (a < 1e15)
    a = np.where(fast, a, 1.0)
    a_lo = a - (a_hi := a * 134217729.0 - (a * 134217729.0 - a))  # Veltkamp
    e10 = np.floor(np.log10(a)).astype(np.int64)
    while True:  # log10 may miss E by one next to a power of ten
        k = 16 - e10
        p = a * _POW10[k]
        err = (((a_hi * _POW10_HI[k] - p) + a_hi * _POW10_LO[k])
               + a_lo * _POW10_HI[k]) + a_lo * _POW10_LO[k]
        step = ((p > 1e17) | (p == 1e17) & (err >= 0)).astype(np.int64) \
            - ((p < 1e16) | (p == 1e16) & (err < 0))
        if not step.any():
            break
        e10 += step
    # no carry to 10^17: each double below 10^(E + 1) is 8 units off it
    sig = p.astype(np.int64) + np.rint(err).astype(np.int64)
    x10 = e10.astype(np.int8)
    digits = np.zeros((19, len(x)), np.uint8)  # NUL, 17 digits, NUL
    digits[1:18] = _digits(sig, 5)[3:]
    # %g drops the zeros that end the digits after the point, and the point
    # if no digit follows it; the point follows digit n_int.
    n_sig = ((digits[1:18] != 48) * _ROWS[1:18]).max(axis=0)
    n_int = np.where(x10 < -4, 1, x10 + 1)
    digits[1:18] *= _ROWS[:17] < np.maximum(n_sig, n_int)
    point = np.where((n_sig > n_int) & (n_int > 0), n_int, 18)
    fields = np.empty((28, len(x)), np.uint8)
    fields[0] = (x < 0) * np.uint8(45)
    fields[1:6] = (_ROWS[:5] <= np.where((x10 < 0) & (x10 > -5), -x10, -1)) \
        * np.frombuffer(b"0.000", np.uint8)[:, None]
    lo, hi = digits[:-1], digits[1:]  # a blend, exact in uint8 arithmetic
    fields[6:24] = lo + (_ROWS[:18] < point).view(np.uint8) * (hi - lo) \
        + (_ROWS[:18] == point).view(np.uint8) * (46 - lo)
    fields[24:] = (x10 == -5) * np.frombuffer(b"e-05", np.uint8)[:, None]
    slow = np.flatnonzero(~fast)  # Python formats the rest
    text = np.array(["%.17g" % v for v in x[slow].tolist()], "S28")
    fields[:, slow] = text.view(np.uint8).reshape(-1, 28).T
    return fields.T.reshape(*shape, 28)


def _int_fields(v):
    """%d of each 0 <= v < 2^63 in the 1-d v: a row of bytes each, right-aligned
    after at least one NUL, built row-major a word of four digits at a time;
    a word with no digit before it takes _WORDS' NUL-led half."""
    n_words = len(str(int(v.max(initial=0)))) // 4 + 1
    words, n = np.empty((len(v), n_words), np.intp), v
    for k in range(n_words - 1, -1, -1):
        q = n // 10000
        words[:, k], n = n - q * 10000 + 10000 * (q == 0), q
    fields = _WORDS[words].view(np.uint8)
    fields[v == 0, -1] = 48  # %d of 0 is 0, where its word is all NUL
    return fields


def _labels(n):
    """" %d" of 1 .. n, one void item each, as wide as n's; NUL fills the
    place of each digit a smaller label does not have."""
    width = len(str(n)) + 1
    labels = np.ascontiguousarray(_int_fields(np.arange(1, n + 1))[:, -width:])
    labels[:, 0] = 32  # over a NUL: every label is below 10^(width - 1)
    return labels.view(f"V{width}").ravel()


def _text(out):
    """The bytes of out as text, less the NULs of a block that holds any."""
    text = out.tobytes()
    if b"\0" in text:
        text = text.translate(None, b"\0")
    return text.decode("ascii")


def _vertex_lines(vertices):
    """Line j: "v", " %.17g" of each value of vertices[j], newline."""
    fields = _float_fields(vertices)
    n, ncols, width = fields.shape
    out = np.empty((n, 2 + ncols * (width + 1)), np.uint8)
    out[:, 0], out[:, -1] = ord("v"), 10
    body = out[:, 1:-1].reshape(n, ncols, width + 1)
    body[:, :, 0] = 32
    body[:, :, 1:] = fields
    return _text(out)


def _face_lines(labels, faces):
    """Line j: "f", the labels of faces[j] gathered in place, newline; a
    block whose labels are all as wide as the largest holds no NUL."""
    out = np.empty((len(faces), 2 + faces.shape[1] * labels.itemsize), np.uint8)
    out[:, 0], out[:, -1] = ord("f"), 10
    np.take(labels, faces, out=out[:, 1:-1].view(labels.dtype))
    return _text(out)


def obj_text(mesh):
    """Wavefront OBJ text of the mesh (1-based face indices) in blocks of
    _OBJ_BLOCK lines, the bytes of "v %.17g %.17g %.17g" and "f %d %d %d"
    lines with digits from numpy; each vertex label is formatted once.  A
    face index that is not a vertex raises OutOfDomain at the call."""
    vertices, faces = np.asarray(mesh.vertices, float), np.asarray(mesh.faces)
    if (bad := faces[(faces < 0) | (faces >= len(vertices))]).size:
        raise OutOfDomain(f"face index {bad[0]} outside the {len(vertices)} vertices")
    labels = _labels(len(vertices))
    return (to_text(rows[i:i + _OBJ_BLOCK])
            for rows, to_text in ((vertices, _vertex_lines),
                                  (faces, lambda f: _face_lines(labels, f)))
            for i in range(0, len(rows), _OBJ_BLOCK))


def export_obj(mesh, path):
    """Write the mesh as a Wavefront OBJ file (1-based face indices)."""
    text = obj_text(mesh)  # checks the faces before the file is opened
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise IoError(f"cannot write OBJ file {path}: {exc}") from exc

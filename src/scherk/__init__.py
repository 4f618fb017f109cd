"""Saddle-type minimal graphs over Pitot quadrilaterals.

Given a quadrilateral whose opposite side-length sums agree, this package
builds the harmonic diffeomorphism of the unit disk onto it, the analytic
Weierstrass data of the minimal graph above it, the height function with
its four logarithmic growth laws, and the curvature/normal/bending data at
the harmonic center — all in closed form, each formula cross-checked
against independent numeric oracles.
"""

from .analysis import (aligning_rotation, center_mixed_derivative,
                       center_normal, center_report, curvature_bound,
                       gauss_curvature, graph_normal, rotated_mixed_derivative)
from .errors import (DegenerateRightAngle, DegenerateVertices,
                     EqualRapidities, FociCoincide, IoError, NewtonDiverged,
                     NotPitot, OutOfDomain, PoleProximity, ScherkError,
                     SelfIntersecting, ToleranceNotMet, ZeroArea)
from .geometry import (HyperbolicCoords, NormalizedFrame, PitotQuad,
                       construct_quad, hyperbola_point,
                       hyperbolic_coordinates, normalize,
                       validate_quadrilateral)
from .harmonic import (AnalyticParts, analytic_parts, dilatation, g_prime,
                       h_prime, harmonic_map, jacobian, step_boundary)
from .mesh import SurfaceMesh, export_csv, export_obj, radial_trace, sample_disk
from .oracles import (adaptive_quad, contour_height, fd_laplacian, fd_mixed,
                      newton_invert, numeric_residue, poisson_extension, taylor)
from .params import (ScherkData, angle_parameter, moebius_center,
                     scherk_data, unimodular_factor)
from .weierstrass import (HeightKernel, gauss_map_q, height_T, kernel_K,
                          map_and_height, residues)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

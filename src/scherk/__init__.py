"""Saddle-type minimal graphs over Pitot quadrilaterals.

Given a quadrilateral whose opposite side-length sums agree, this package
builds the harmonic diffeomorphism of the unit disk onto it, the analytic
Weierstrass data of the minimal graph above it, the height function with
its four logarithmic growth laws, and the curvature/normal/bending data at
the harmonic center — all in closed form, each formula cross-checked
against independent numeric oracles.

The namespace is lazy (PEP 562): a public name is looked up in its home
module when first read, so numpy loads only with the array layers.
"""

import importlib

_MODULES = {
    "analysis": "aligning_rotation center_mixed_derivative center_normal "
                "curvature_bound gauss_curvature graph_normal "
                "rotated_mixed_derivative",
    "errors": "DegenerateRightAngle DegenerateVertices EqualRapidities IoError "
              "NewtonDiverged NotPitot OutOfDomain PoleProximity ScherkError "
              "SelfIntersecting ToleranceNotMet ZeroArea",
    "geometry": "HyperbolicCoords NormalizedFrame PitotQuad construct_quad "
                "hyperbola_point hyperbolic_coordinates normalize "
                "validate_quadrilateral",
    "harmonic": "AnalyticParts analytic_parts dilatation g_prime h_prime "
                "harmonic_map jacobian step_boundary",
    "mesh": "SurfaceMesh export_obj sample_disk",
    "oracles": "adaptive_quad contour_height fd_laplacian fd_mixed "
               "newton_invert numeric_residue poisson_extension taylor",
    "params": "ScherkData angle_parameter gauss_map_q scherk_data",
    "weierstrass": "HeightKernel height_T kernel_K map_and_height residues",
}
# public name -> home module, each module's own name included
_HOME = {n: m for m, names in _MODULES.items() for n in [m, *names.split()]}
__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})

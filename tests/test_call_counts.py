"""The call-count table: each surface is built once per command, and f, T, h'
and g' are evaluated once per command or record.  An entry is (label, action,
{target: expected}): the action runs with a spy on each target, at every
scherk binding of it, and expected is the number of calls or, as a list, the
points of each call (Spy.points)."""

import numpy as np
import pytest

from scherk import checks, harmonic, mesh, oracles
from scherk.cli import main
from conftest import build_case, spy

CASE = ("--params", "0.3,1.0,0.3")
D1, D2 = build_case(0.3, 1.0, 0.3)[3], build_case(0.3, 1.0, -0.3)[3]
ZS = 0.9 * np.exp(1j * np.arange(9.0))
MESH = mesh.sample_disk(D1, n_r=10, n_theta=40)   # 401 vertices
NEWTON_TARGET = harmonic.harmonic_map(0.4 - 0.3j, D1)

BUILD = {"params.scherk_data": 1, "geometry.normalize": 1,
         "geometry.hyperbolic_coordinates": 1}
# one f/T call on 908 points (its last 2 x 64 give the Taylor jet), one h'/g'
# call on the 40 spiral points that the dilatation and Jacobian rows share,
# and the oracles' batches: K on one circle per pole, then on the contour's
# root panels and their halves; nothing inverts the map
EVALUATION = {"weierstrass.map_and_height": [908], "harmonic._log_sums": [908],
              "harmonic._derivatives": [40],
              "harmonic._guard_poles": [40, 256, 90],
              "weierstrass.kernel_K": [256, 90], "harmonic.step_boundary": 1,
              "checks.growth_rays": 1, "oracles.numeric_residue": 1,
              "oracles.poisson_extension": [3], "oracles.contour_height": [3],
              "oracles.taylor": 0, "oracles.newton_invert": 0}
# asymptotics reads T on the 13 x 4 growth-ray points and nothing of verify's
ASYMPTOTICS = {**BUILD, "harmonic._log_sums": [52], "checks.growth_rays": 1,
               "harmonic._derivatives": 0}


def _cli(*argv):
    """An action running `scherk argv`, "{tmp}" read as the test's tmp_path."""
    def action(tmp_path):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 0
    return action


TABLE = [
    ("analyze", _cli("analyze", *CASE),
     {**BUILD, "harmonic._log_sums": 0, "harmonic._derivatives": 0,
      "weierstrass.map_and_height": 0, "weierstrass.kernel_K": 0}),
    # the second and third lie far out, at k = 8 and k = 7
    *((f"verify {params}", _cli("verify", "--params", params),
       {**BUILD, **EVALUATION})
      for params in ("0.3,1.0,0.3", "1.4,8.02,7.98", "0.7,7.5,6.5")),
    # one label per vertex, not one per face corner
    *((label, _cli("mesh", *CASE, "--nr", "2", "--ntheta", "6", *out),
       {**BUILD, "weierstrass.map_and_height": [13], "harmonic._log_sums": [13],
        "mesh._labels": [13]})
      for label, out in (("mesh", ()), ("mesh --out", ("--out", "{tmp}/m.obj")))),
    ("obj_text twice", lambda _: ["".join(mesh.obj_text(MESH)) for _ in "12"],
     {"mesh._labels": [401, 401]}),
    # --out writes the column it fits, with no second evaluation
    *((label, _cli("asymptotics", *CASE, *extra), ASYMPTOTICS)
      for label, extra in (
          ("asymptotics", ("--pole", "1")),
          ("asymptotics --out", ("--pole", "4", "--out", "{tmp}/t.csv")))),
    # nothing is kept between records: each gets its own evaluation
    ("run_checks on d1, d2, d1",
     lambda _: [checks.run_checks(d) for d in (D1, D2, D1)],
     {target: 3 * want for target, want in EVALUATION.items()}),
    ("taylor", lambda _: oracles.taylor(D1), {"weierstrass.map_and_height": [128]}),
    # one pole guard per h'/g' pair
    *((name, lambda _, fn=getattr(harmonic, name): fn(ZS, D1),
       {"harmonic._derivatives": [9], "harmonic._guard_poles": [9]})
      for name in ("jacobian", "dilatation")),
    # one guard per Newton step
    ("newton_invert", lambda _: oracles.newton_invert(D1, NEWTON_TARGET),
     {"harmonic._derivatives": [1] * 5, "harmonic._guard_poles": [1] * 5}),
]


@pytest.mark.parametrize("label, action, expected", TABLE,
                         ids=[entry[0] for entry in TABLE])
def test_call_counts(label, action, expected, monkeypatch, tmp_path):
    spies = {target: spy(monkeypatch, target) for target in expected}
    action(tmp_path)
    got = {target: len(s.calls) if isinstance(expected[target], int) else s.points
           for target, s in spies.items()}
    assert got == expected

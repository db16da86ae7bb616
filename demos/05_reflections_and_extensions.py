"""Extensions to the 3L cube: continuing a problem past its cube.

``extend`` reads the rule from the domain's boundary condition and returns
the extended solution, the extended coefficients as a validated
``CoefficientField`` on the 3L cube, and the extended residual bound.  A
periodic problem is tiled.  A Dirichlet solution continues to the
neighboring cubes by odd reflection; the coefficients follow parity rules
that keep the extended function a solution of the same differential
inequality.  Diagonal and tangential entries reflect evenly, mixed entries
oddly (they vanish on the faces, which is exactly the Dirichlet
compatibility condition), and the drift component normal to the face flips
sign with the orientation.  ``extension_check`` measures both halves of
that claim for an eigenpair: the jump across the seams and the residual
inequality on every cell of the 3L cube.

Run:  python demos/05_reflections_and_extensions.py
"""

import math

import numpy as np

from uclab.discretization import assemble, extend, extension_check
from uclab.fields import synthesize_dir_cross_field, synthesize_random_field
from uclab.geometry import CubeDomain, tiling_identity_defect
from uclab.spectral import eigensolve

L, h = 3.0, 1 / 16

print("=" * 70)
print("1d: the first Dirichlet mode extends to a globally smooth sine")
print("=" * 70)
dom = CubeDomain(1, L, h, "dirichlet")
x = dom.centers_1d()
psi = np.sin(math.pi * (x + L / 2) / L)
fld = synthesize_random_field(0, dom)  # A = I, no b, c or V
psi3, fld3, _ = extend(psi, fld)
x3 = fld3.domain.centers_1d()
err = np.abs(psi3 - np.sin(math.pi * (x3 + L / 2) / L)).max()
print(f"extension vs global sine: max deviation = {err:.2e}")

print()
print("=" * 70)
print("2d: mixed coefficients survive the reflection with their spectrum")
print("=" * 70)
dom2 = CubeDomain(2, L, 1 / 16, "dirichlet")
fld2 = synthesize_dir_cross_field(3, dom2, theta1=1.5)
sl = eigensolve(assemble(fld2), count=1)
print(f"off-diagonal magnitude in the base block : "
      f"{np.abs(fld2.A[..., 0, 1]).max():.4f}")
res = extension_check(fld2, sl.grid_vector(0), float(sl.eigenvalues[0]))
print(f"interface jump on the seams: {res['interface_jump_rel']:.3f} of the "
      f"allowance 10 h |grad psi|_sup")
print(f"differential-inequality excess on the whole 3L cube, over max(|lam|, 1): "
      f"{res['residual']:.3e}  (<= 0 means preserved)")

print()
print("=" * 70)
print("Resummation identity on periodic extensions")
print("=" * 70)
domp = CubeDomain(1, 5.0, 1 / 8, "periodic")
rng = np.random.default_rng(1)
base = rng.standard_normal(domp.shape)
psi3, _, _ = extend(base, synthesize_random_field(0, domp))
for T in (2, 3, 7):
    defect = tiling_identity_defect(psi3, T, 5, 1 / 8)
    print(f"window side T={T}: relative resummation defect = {defect:.2e}")
print()
print("Summing the T-window masses over all integer sites returns exactly")
print("T^d times the base-cube mass -- the bookkeeping identity behind the")
print("dominating/weak site decomposition.")

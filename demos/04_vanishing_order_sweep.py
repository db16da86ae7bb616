"""Vanishing order: how the captured mass scales with the ball radius.

Shrinking delta shrinks the observation set; the captured mass fraction
decays like a power of delta.  The exponent of the theoretical bound is an
upper estimate of that vanishing order, while simple volume counting floors
it at the dimension.  For the constant function the floor is attained
exactly in the fine-grid limit.

Run:  python demos/04_vanishing_order_sweep.py
"""

import numpy as np

from uclab.constants import FreeConstants, ModelParams
from uclab.discretization import assemble
from uclab.fields import synthesize_random_field
from uclab.geometry import CubeDomain
from uclab.spectral import eigensolve
from uclab.verifier import delta_sweep

FC = FreeConstants()
DELTAS = [0.125, 0.175, 0.25, 0.35, 0.45]

print("=" * 70)
print("Constant function: slope equals the dimension")
print("=" * 70)
for d in (1, 2):
    dom = CubeDomain(d, 3.0, 1 / 128, "periodic")
    p = ModelParams(d=d, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=3.0)
    res = delta_sweep(np.ones(dom.shape), dom, 1.0, DELTAS, p, FC,
                      seq_mode="uniform_random", seq_seeds=range(5))
    print(f"d={d}: slope = {res.slope:.4f}  (floor {d}, "
          f"bound exponent {res.exponent_bound:.3e}), R^2 = {res.r_squared:.6f}")

print()
print("=" * 70)
print("Ground state of the Dirichlet operator, d=1")
print("=" * 70)
L = 3.0
dom = CubeDomain(1, L, 1 / 128, "dirichlet")
fld = synthesize_random_field(0, dom)  # A = I, no b, c or V
psi = eigensolve(assemble(fld), count=1).grid_vector(0)
p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=L)
res = delta_sweep(psi, dom, 1.0, DELTAS, p, FC,
                  seq_mode="uniform_random", seq_seeds=range(5))
print(f"{'delta':>8} {'mean ratio':>12}")
for dd, rr in zip(res.deltas, res.ratios):
    print(f"{dd:>8.3f} {rr:>12.6f}")
print(f"slope = {res.slope:.4f}  within [1, {res.exponent_bound:.3e}]")
print()
print("The measured order sits at the volume floor: these low eigenfunctions")
print("spread their mass, nowhere near the worst case the bound allows.")

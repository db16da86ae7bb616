"""Walk through the explicit-constant chain for one model configuration.

The chain starts from the admissibility margin (how far the product of
lattice scale and Lipschitz constant stays below its critical threshold) and
ends at two headline quantities: the local mass-fraction constant and the
scale-free sampling constant.  Both are so small that only their logarithms
are representable (the float forms would underflow to zero), so the report
carries the logs alone.

Run:  python demos/01_constants_report.py
"""

import math

from uclab.constants import FreeConstants, ModelParams, sampling_report

print("=" * 70)
print("Canonical configuration: d=1, theta1=1, theta2=0, G=1, delta=1/4")
print("=" * 70)

p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25)
rep = sampling_report(p, FreeConstants())

print(f"admissibility margin epsilon      = {rep.epsilon}")
print(f"comparison-window side T           = {rep.T}")
print(f"weight parameters: mu = {rep.mu:.12f}, mu1 = {rep.mu1:.12f}")
print(f"ball radius rho                    = {rep.rho:.12f}")
print(f"weighted-inequality constant C     = {rep.carleman_C:.6e}")
print(f"admissible exponent floor alpha0   = {rep.carleman_alpha0:.6e}")
print(f"exponent budget alpha*             = {rep.alpha_star:.6e}")
print(f"log local constant  (ln C_qUC)     = {rep.log_c_quc:.6e}")
print(f"log sampling constant (ln C_sfUC)  = {rep.log_c_sfuc:.6e}")

print()
print("How small are the constants?  Their base-10 exponents are")
print(f"  log10 C_qUC  = {rep.log_c_quc / math.log(10.0):.4e}")
print(f"  log10 C_sfUC = {rep.log_c_sfuc / math.log(10.0):.4e}")
print("far below the smallest double (about 1e-308).  The bound is")
print("astronomically conservative; the laboratory verifies consistency")
print("(measured mass fractions always clear it), not sharpness.")

print()
print("=" * 70)
print("Charting the admissibility boundary in the Lipschitz constant")
print("=" * 70)
print(f"{'theta2':>12} {'epsilon':>12}  admissible")
for t2 in (0.0, 1e-3, 5e-3, 1e-2, 1.108e-2, 1.2e-2, 2e-2):
    r = sampling_report(ModelParams(d=1, theta2=t2, delta=0.25))
    print(f"{t2:>12.4g} {r.epsilon:>12.6f}  {r.admissible}")
print()
print("epsilon <= 0 is a flagged report, not an exception: sweeps chart the")
print("boundary where the second-order coefficients vary too fast per cell.")

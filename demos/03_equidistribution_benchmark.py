"""Observability of eigenfunctions on a union of equidistributed balls.

One ball of radius delta sits inside each cell of the G-lattice; the
observation set is their union.  For eigenfunctions (and spectral-projector
samples) of the assembled operator, the mass fraction captured by the
observation set must clear an explicit lower bound that does not depend on
the cube side, survives random shifts of the balls within their cells, and
degrades polynomially as delta shrinks.

Run:  python demos/03_equidistribution_benchmark.py
"""

from dataclasses import replace

from uclab.verifier import TrialConfig, run_trial, solve_field

print("=" * 70)
print("One field (d=2, periodic, potential bound 1), one solve, two radii")
print("=" * 70)
tc = TrialConfig(d=2, bc="periodic", L_over_G=3, norm_V=1.0,
                 delta_over_G=0.25, seed=0)
solved = solve_field(tc)
for delta_over_G in (0.125, 0.25):
    for rec in run_trial(replace(tc, delta_over_G=delta_over_G), solved):
        print(f"delta={rec.delta:.3f} kind={rec.psi_kind:<17} "
              f"energy={rec.energy:+.4f} ratio={rec.ratio:.4f}")
        print(f"    log bound = {rec.log_bound:.4e}  margin = {rec.margin:.4e} "
              f"(log headroom; positive = bound cleared)")
        print(f"    residual term delta^2 G^2 |zeta|^2 = {rec.zeta_term:.3e} "
              f"(dominates: {rec.zeta_dominates})")

print()
print("=" * 70)
print("Shift stability: five random ball placements, same model")
print("=" * 70)
print(f"{'seed':>5} {'ratio':>10} {'margin > 0':>11}")
for seed in range(5):
    tc = TrialConfig(d=1, bc="dirichlet", L_over_G=5, norm_V=0.0,
                     delta_over_G=0.125, seed=seed)
    rec = run_trial(tc, solve_field(tc))[0]
    print(f"{seed:>5} {rec.ratio:>10.5f} {str(rec.margin > 0):>11}")


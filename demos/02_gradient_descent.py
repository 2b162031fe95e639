"""Joint gradient descent with self-scaling step sizes.

The smoothed amplitude loss is a quartic-like function of the pair (z, v),
so a fixed step size cannot work at every scale.  The rule used here takes

    mu_t = min( 1/B(z,v),  (15d/4)^(-1/3) ||grad_z J||^(-2/3),
                            (15d/4)^(-1/3) ||grad_v J||^(-2/3) )

with B the norm-dependent curvature bound.  Under it the loss decreases at
every single iteration by at least mu_t ||grad_z J||^2 + nu_t ||grad_v J||^2,
which this script verifies along a real run.
"""

import numpy as np

from blindptycho import (SolverConfig, fit_decay_slope, initial_guess,
                         reconstruction_error, run, synthesize_problem)

problem = synthesize_problem(16, seed=3, epsilon=1e-8, alpha=1e-3, beta=1e-3)
z0, v0 = initial_guess(16, seed=11)
result = run(problem, z0, v0,
             SolverConfig(algorithm="gd", max_iters=2000, seed=0))
trace = result.trace

worst = 0.0
for now, nxt in zip(trace, trace[1:]):
    guaranteed = now.J - now.mu_t * now.grad_z_norm ** 2 \
        - now.nu_t * now.grad_v_norm ** 2
    worst = max(worst, nxt.J - guaranteed)
print(f"J: {trace[0].J:10.2f} -> {trace[-1].J:10.4f} over {len(trace)-1} iterations")
print(f"worst violation of the per-step decrease guarantee: {worst:.2e}")

grad_sq = [r.grad_z_norm ** 2 + r.grad_v_norm ** 2 for r in trace]
print(f"squared gradient norm: {grad_sq[0]:.2e} -> min {min(grad_sq):.2e}")

fit = fit_decay_slope(trace, t_min=10)
print(f"decay slope of the running-min squared gradient: {fit.slope:.2f} "
      f"(the guarantee only promises about -1; steeper is better)")

err = reconstruction_error(result.z, result.v, *problem.truth)
print(f"ambiguity-corrected reconstruction error: {err:.3f}")
print("step sizes adapt: first/median/last =",
      f"{trace[0].mu_t:.2e} / {np.median([r.mu_t for r in trace[:-1]]):.2e}"
      f" / {trace[-2].mu_t:.2e}")

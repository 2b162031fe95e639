"""The iterative engine is a stochastic gradient method in disguise.

One engine iteration projects a single region's exit wave onto the
measured magnitudes and decouples the correction into object and window
updates.  Written out, that is exactly one importance-weighted stochastic
gradient step on the unsmoothed loss with step sizes

    mu_t = alpha_t p_r / (d ||v||_inf^2),   nu_t = beta_t p_r / (d ||z||_inf^2).

The engine computes its update as that step, through the same residual
kernel, so this script runs both solvers with a shared sampling stream and
shows the trajectories coincide bit for bit; it then runs the bounded
decaying step rule, under which the loss trace settles instead of
oscillating.
"""

import numpy as np

from blindptycho import SolverConfig, initial_guess, run, synthesize_problem

problem = synthesize_problem(8, seed=5, epsilon=0.0, alpha=0.0, beta=0.0)
z0, v0 = initial_guess(8, seed=21)

shared = dict(max_iters=2000, seed=42, epie_alpha=0.5, epie_beta=0.5)
engine = run(problem, z0, v0, SolverConfig(algorithm="epie", **shared),
             record_iterates=True)
mapped = run(problem, z0, v0,
             SolverConfig(algorithm="sgd", sgd_step_rule="epie_scaled",
                          **shared), record_iterates=True)

worst = max(max(np.max(np.abs(za - zb)), np.max(np.abs(va - vb)))
            for (za, va), (zb, vb) in zip(engine.iterates, mapped.iterates))
print(f"engine vs mapped-step SGD, {shared['max_iters']} shared-stream steps:")
print(f"  worst per-coordinate iterate difference: {worst:.2e}")
print(f"  final J: engine {engine.trace[-1].J:.6f}, sgd {mapped.trace[-1].J:.6f}")

# the bounded decaying rule on the regularized, smoothed objective
reg = synthesize_problem(8, seed=5, epsilon=1e-8, alpha=1e-3, beta=1e-3)
bounded = run(reg, z0, v0,
              SolverConfig(algorithm="sgd", max_iters=5000, seed=42,
                           theta=0.5, kappa=0.2))
J = np.array([r.J for r in bounded.trace])
tail = J[-500:]
print("bounded-step SGD on the regularized objective:")
print(f"  J {J[0]:.2f} -> {J[-1]:.4f}; trailing-500 relative range "
      f"{(tail.max() - tail.min()) / tail.mean():.2e}")
print(f"  step sizes decay: {bounded.trace[0].mu_t:.2e} -> "
      f"{bounded.trace[-2].mu_t:.2e}")

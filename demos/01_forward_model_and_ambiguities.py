"""Forward model walkthrough: intensities, noise, and the three ambiguities.

A blind-ptychography measurement set collects, for every shift r of the
window, the far-field intensity of the exit wave:

    y[r, k] = |dft(x * S_r w)[k]|^2

Because only magnitudes are kept, several distinct (object, window) pairs
generate identical data.  This script synthesizes a small instance and
checks the three classical transformations that the measurements cannot
distinguish.
"""

import numpy as np

from blindptycho import (NoiseModel, Rng, add_noise, forward_intensities,
                         loss, reconstruction_error, synthesize_problem)

d = 16
problem = synthesize_problem(d, seed=7, epsilon=0.0, alpha=0.0, beta=0.0)
x, w = problem.truth
print(f"instance: d={d}, {problem.n_regions} circular shifts, "
      f"measurement mass {problem.y_total:.1f}")
print(f"loss at the generating pair: {loss(problem, x, w)[0]:.3e}  (exact data)")

base = problem.y
shifts = problem.shifts

# 1. global phase: independent unit factors on object and window
moved = forward_intensities(np.exp(0.9j) * x, np.exp(-1.7j) * w, shifts).values
print(f"global phase   max |delta y| = {np.max(np.abs(moved - base)):.2e}")

# 2. scaling: any nonzero factor moved between the two
gamma = 2.0 - 1.0j
moved = forward_intensities(gamma * x, w / gamma, shifts).values
print(f"scaling        max |delta y| = {np.max(np.abs(moved - base)):.2e}")

# 3. linear phase: opposite entrywise ramps; circular shifts need the ramp
#    frequency on the 2 pi / d grid so the wrap-around stays consistent
rho = 2 * np.pi * 3 / d
k = np.arange(d)
moved = forward_intensities(np.exp(-1j * rho * k) * x,
                            np.exp(1j * rho * k) * w, shifts).values
print(f"linear phase   max |delta y| = {np.max(np.abs(moved - base)):.2e}")

# the error metric divides out phase and scaling before comparing
err = reconstruction_error(np.exp(0.5j) * 3 * x, w / (np.exp(0.5j) * 3), x, w)
print(f"corrected reconstruction error of a phase+scale copy: {err:.2e}")

# detectors count photons: a poisson model is one click away
noisy = add_noise(forward_intensities(x, w, shifts), NoiseModel("poisson"), Rng(1))
rel = np.linalg.norm(noisy.values - base) / np.linalg.norm(base)
print(f"poisson noise  relative perturbation {rel:.3f}")

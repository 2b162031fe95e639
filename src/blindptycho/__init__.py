"""Blind ptychography by gradient methods.

A small numpy library for joint object/window recovery from shifted
diffraction intensities: forward model, smoothed amplitude loss with
Wirtinger gradients, four solvers with certified step-size rules (joint
gradient descent, stochastic gradient descent, the ptychographic iterative
engine, interval descent), and a checker suite that numerically certifies
the inequalities the step-size rules are built on.
"""

from .fourier import (CIRCULAR, MODES, ZERO_PADDED, ShiftSet, dft, dft_direct,
                      dft_adjoint, q_apply, shift, shift_stack)
from .harness import (ExperimentConfig, Summary, aggregate_summaries,
                      fit_decay_slope, initial_guess, reconstruction_error,
                      run_experiment, summarize, summary_to_json)
from .model import (MeasurementSet, NoiseModel, Problem, add_noise,
                    forward_intensities, load_problem, problem_from_json,
                    problem_to_json, save_problem, synthesize_problem)
from .objective import (GradientPair, gradient, gradient_region, loss,
                        loss_and_gradient, partial_lipschitz)
from .rng import Rng
from .solvers import (ALGORITHMS, DivergenceError, IntervalStep, SolverConfig,
                      SolverRun, TraceRecord, gd_step_sizes, read_trace, run,
                      sample_indices, sgd_max_step, step_curvature_bound,
                      stochastic_gradient, stochastic_gradient_bounds,
                      trace_to_csv, write_trace)
from .verify import (CheckReport, check_bilinear_bound, check_descent_lemma,
                     check_gradient_bounds, check_gradient_fd, check_lipschitz,
                     check_unbiasedness, descent_upper_bound,
                     fd_wirtinger_gradient, reports_to_json, run_suite)

__version__ = "0.1.0"

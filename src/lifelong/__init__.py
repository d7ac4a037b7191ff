"""Lifelong multi-task learning with a self-growing library of
representative task models over a learned encoder/decoder pair."""

from .assignment import (Assignment, outlier_weight, representative_distances,
                         solve_assignment)
from .baselines import run_stl
from .datasets import (TaskCorpus, generate_disjoint, load_corpus, save_corpus,
                       split_corpus, standardize_targets)
from .engine import (EngineState, HyperParams, TaskOutcome, init_state,
                     learn_task, load_state, predict, predict_labels,
                     reconstruct_model, reconstructed_weights, save_state)
from .experiment import ExperimentConfig, run_experiment
from .libraries import (FeatureLibrary, admit_representative, init_libraries,
                        update_decoder, update_encoder)
from .metrics import (MetricReport, accuracy, auc, model_correlation_matrix, rmse,
                      timeline_to_csv)
from .sparse_code import (CodeProblem, Representative, composite_objective,
                          encode_task, smooth_gradient, smooth_objective,
                          soft_threshold)
from .tasks import (ConvergenceError, SingleTaskModel, TaskData,
                    fit_single_task, hessian_at, loss_gradient, loss_value)

__all__ = [name for name in dir() if not name.startswith("_")]

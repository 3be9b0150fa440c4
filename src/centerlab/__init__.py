"""centerlab: a desk-scale lab for studying embedding collapse in SSL.

Nine self-supervised objectives over a minimal reverse-mode autodiff engine,
center-vector diagnostics, and a seeded experiment harness with a CLI.
"""

from .autodiff import Tensor, backward
from .data import gen_blobs, gen_gaussian_points, gen_moons
from .diagnostics import (collapse_verdict, delta_dist, estimate_center,
                          knn_eval, residual_stats)
from .harness import (ExperimentConfig, Trainer, experiment_names,
                      named_experiment, run_experiment)
from .layers import (EmaTwin, EncoderStack, PrototypeBank, init_encoder,
                     init_predictor, init_prototypes, sgd_step)
from .losses import (DinoCenterState, LossConfig, barlow_twins_loss, byol_loss,
                     dino_loss, infonce_loss, invariance_loss, simple_objective,
                     simsiam_loss, sinkhorn_knopp, swav_loss, triplet_loss)

__version__ = "0.1.0"

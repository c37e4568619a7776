"""Desk-scale laboratory for an open-vocabulary classification head that
learns background prompts: latent background categories are discovered by
clustering, represented with learnable context vectors, mined online via
pseudo-labels, and reconciled with revealed novel categories at inference
through probability rectification. Every formula is backed by brute-force
oracles and gradient checks over synthetic embedding scenarios."""

from .core import cosine, softmax_probs
from .discovery import Box, Proposal, estimate_category_count, iou, kmeans
from .encoder import MockTextEncoder, init_context_vectors
from .metrics import AblationSpec, EvalReport, evaluate, run_ablation
from .losses import (
    LossBreakdown,
    ProposalBatch,
    background_mass,
    switched_background_loss,
)
from .pseudo import (
    BackgroundPartition,
    PseudoLabel,
    assign_pseudo_label,
    center_probs,
    generate_pseudo_labels,
)
from .rectify import (
    PartialSums,
    RectifiedScores,
    inference_probs,
    partial_sums,
)
from .synth import Scenario, ScenarioConfig, generate_scenario, load_dataset, write_dataset
from .trainer import (
    Checkpoint,
    Gradients,
    TrainConfig,
    TrainHistory,
    compute_gradients,
    finite_diff_gradients,
    loss_final,
    sgd_step,
    train,
)
from .vocab import CategoryId, Kind, Vocabulary, build_inference_vocab, build_training_vocab

__version__ = "0.1.0"

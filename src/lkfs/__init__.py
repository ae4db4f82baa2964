"""Latent kernel feature selection.

Learns a denoised latent representation of a sample-by-feature matrix with an
autoencoder, then selects an explicit feature subset by greedily maximizing
kernel alignment between per-feature Gaussian kernels and the latent-space
target kernel. Selections are evaluated by redundancy (mean absolute pairwise
correlation) and by k-means clustering agreement with ground-truth classes,
against sparse k-means and spectral-scoring baselines.
"""

from .autoencoder import (
    AeArchitecture,
    AeHyperparams,
    AeModel,
    LatentRepresentation,
    encode,
    gradient_check,
    init_model,
    train,
)
from .baselines import SkmResult, SpecResult, sparse_kmeans, spec_scores
from .clustering import ClusterAssignment, adjusted_rand_index, kmeans, rand_index
from .dataio import (
    ExpressionMatrix,
    LabelVector,
    PreprocessConfig,
    derive_seed,
    generate_synthetic,
    load_labels,
    load_matrix,
    minmax_scale,
    subsample,
    variance_filter,
)
from .errors import ConfigError, DataValidationError, LkfsError, NumericalError
from .evaluation import EvaluationReport, aggregate, pca_2d, red_score
from .kernel import (
    KernelMatrix,
    StackedKernels,
    alignment,
    feature_kernels,
    frobenius_inner,
    gaussian_kernel,
    median_bandwidth,
)
from .mkl import MklConfig, MklSolution, combined_kernel, greedy_select, solve_pair_weights
from .pipeline import RunConfig, emit_outputs, run_experiment, run_lkfs_once

__version__ = "0.1.0"

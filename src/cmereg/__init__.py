"""Conditional mean embeddings as vector-valued ridge regressors, with sparse
approximation (FISTA), an incomplete-Cholesky baseline, exact finite-alphabet
risk oracles, and a pendulum swing-up policy-iteration experiment."""

from .embedding import EmbeddingModel, TrainingSet, cross_validate, fit
from .kernels import KernelSpec, cross_gram, gram
from .lowrank import IncompleteCholesky, incomplete_cholesky, subset_refit
from .ratecheck import DiscreteDistribution, RateResult, rate_experiment, rate_slope
from .sparse import SparseProblem, SparseSolution, fista_solve, sparsity_sweep

__all__ = [
    "DiscreteDistribution",
    "EmbeddingModel",
    "IncompleteCholesky",
    "KernelSpec",
    "RateResult",
    "SparseProblem",
    "SparseSolution",
    "TrainingSet",
    "cross_gram",
    "cross_validate",
    "fista_solve",
    "fit",
    "gram",
    "incomplete_cholesky",
    "rate_experiment",
    "rate_slope",
    "sparsity_sweep",
    "subset_refit",
]

__version__ = "0.1.0"

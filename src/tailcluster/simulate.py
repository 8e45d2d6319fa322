"""Synthetic heavy-tailed data generators.

Seven models over a g-groups-of-q-columns design with group tail
indices gamma_l = (1 - delta)^(l-1):

  A            independent absolute Student-t(1/gamma_j) columns
  B            multivariate Cauchy copula, scale 0.5^|i-j|, absolute
               Student-t(1/gamma_j) marginals
  C            as B with equicorrelation 0.5 scale
  D            as B with alternating (-0.5)^|i-j| scale
  A_F          independent Frechet(1/gamma_j) columns
  B_F          Cauchy copula as B, Frechet marginals
  EXACT_PARETO U^(-gamma_j) columns: the tail function is exactly a
               power law at every threshold, so threshold-based
               procedures face no approximation error. Reference model
               for oracle tests; not part of the comparative suite.

Reproducibility contract: generation is a pure function of the spec.
The stream is Philox (counter based) keyed by SeedSequence([seed]), and
the draw order is fixed: first the n x p base block, then any auxiliary
block. Harnesses derive per-replication seeds; see bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, GroundTruth, ValidationError, truth_from_design
from .distributions import cauchy_cdf, frechet_quantile, student_t_quantile

__all__ = [
    "MODELS",
    "SimModelSpec",
    "build_scale_matrix",
    "sample_mv_cauchy",
    "generate",
]

MODELS = ("A", "B", "C", "D", "A_F", "B_F", "EXACT_PARETO")

# keep uniforms inside the open interval so quantile transforms stay finite
_U_EPS = 1e-15


@dataclass(frozen=True)
class SimModelSpec:
    """Full description of one synthetic dataset draw."""

    model: str
    g: int
    q: int
    delta: float
    n: int
    seed: int

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"model must be one of {MODELS}, got {self.model!r}")
        truth_from_design(self.g, self.q, self.delta)  # its g, q and delta checks
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def p(self) -> int:
        return self.g * self.q


def build_scale_matrix(model: str, p: int) -> np.ndarray:
    """Scale matrix sigma of a copula model: B/B_F use 0.5^|i-j|, C uses
    equicorrelation 0.5, D uses (-0.5)^|i-j|."""
    if p < 1:
        raise ValidationError(f"p must be positive, got {p}")
    idx = np.arange(p)
    gap = np.abs(idx[:, None] - idx[None, :])
    if model in ("B", "B_F"):
        sigma = 0.5 ** gap
    elif model == "C":
        sigma = np.where(gap == 0, 1.0, 0.5)
    elif model == "D":
        sigma = (-0.5) ** gap
    else:
        raise ValidationError(f"model {model!r} has no scale matrix")
    return sigma


def sample_mv_cauchy(sigma: np.ndarray, n: int, rng_stream) -> np.ndarray:
    """Draw n rows of a multivariate Cauchy with scale matrix sigma.

    Each row is Z / |W| with Z = L * (iid standard normals), L the
    Cholesky factor of sigma, and an independent scalar W ~ N(0, 1): a
    multivariate t with one degree of freedom. Draw order is pinned for
    reproducibility and stubbing: the n x p normal block for Z first,
    then the n-vector for W. Every marginal is standard Cauchy (diagonal
    of sigma is 1).

    The scale families of build_scale_matrix are positive definite for
    every p, so a Cholesky failure signals an implementation bug and is
    allowed to escape as numpy's LinAlgError.

    Args:
        rng_stream: anything exposing standard_normal(size), e.g. a
            numpy Generator or a deterministic stub.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    chol = np.linalg.cholesky(sigma)
    z = rng_stream.standard_normal((n, sigma.shape[0]))
    w = rng_stream.standard_normal(n)
    return (z @ chol.T) / np.abs(w)[:, None]


def generate(spec: SimModelSpec) -> tuple[DataMatrix, GroundTruth]:
    """Draw one dataset and its ground truth from a model spec.

    Pure function of the spec: the same spec (seed included) yields a
    bit-identical matrix. Columns with equal gamma are transformed in
    one block, which does not change the per-column values. Model A
    folds its uniforms to (1+u)/2 and so shares the |Student-t| quantile
    line of B/C/D.
    """
    truth = truth_from_design(spec.g, spec.q, spec.delta)
    col_gammas = truth.column_gammas()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(spec.seed)])))
    n, p = spec.n, spec.p

    if spec.model in ("A", "A_F", "EXACT_PARETO"):
        u = rng.uniform(size=(n, p))
    else:
        base = sample_mv_cauchy(build_scale_matrix(spec.model, p), n, rng)
        u = cauchy_cdf(base)
    u = np.clip(u, _U_EPS, 1.0 - _U_EPS)
    if spec.model == "A":
        u = 0.5 * (1.0 + u)  # |T| has its u-quantile where T has its (1+u)/2-quantile
    x = np.empty((n, p), order="F")
    for gamma in np.unique(col_gammas):
        cols = col_gammas == gamma
        if spec.model in ("A_F", "B_F"):
            x[:, cols] = frechet_quantile(u[:, cols], gamma)
        elif spec.model == "EXACT_PARETO":
            x[:, cols] = u[:, cols] ** (-gamma)
        else:
            x[:, cols] = np.abs(student_t_quantile(u[:, cols], 1.0 / gamma))

    labels = tuple(f"V{j}" for j in range(1, p + 1))
    return DataMatrix(values=x, column_labels=labels), truth

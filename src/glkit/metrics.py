"""Support-recovery metrics and evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, BadParameter
from .graphcore import as_matrix, edge_index

DEFAULT_SUPPORT_THRESHOLD = 1e-6  # times the largest |entry|


@dataclass(frozen=True)
class EvalReport:
    """Precision/recall/F over edge supports plus scale-aligned error
    and a top-k recovery curve."""

    precision: float
    recall: float
    f_score: float
    scale_error: float
    topk_curve: tuple = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "scale_aligned_error": self.scale_error,
            "topk_curve": [[int(k), float(f)] for k, f in self.topk_curve],
        }


def _support(M: np.ndarray, threshold: float) -> np.ndarray:
    iu, ju = edge_index(M.shape[0])
    return np.abs(M[iu, ju]) > threshold


def edge_prf(S_hat, S_true, threshold: float = 0.0):
    """Precision, recall and F-score of the off-diagonal support of
    ``S_hat`` against that of ``S_true`` (entries above ``threshold``
    in magnitude, unordered pairs).

    An empty prediction scores precision 0 unless the truth is also
    empty, in which case everything is 1.
    """
    A = as_matrix(S_hat)
    B = as_matrix(S_true)
    if A.shape != B.shape:
        raise BadDimension("estimate/truth shape mismatch")
    if threshold < 0:
        raise BadParameter("threshold must be nonnegative")
    est = _support(A, threshold)
    true = _support(B, threshold)
    tp = int((est & true).sum())
    if not true.any() and not est.any():
        return 1.0, 1.0, 1.0
    precision = tp / est.sum() if est.any() else 0.0
    recall = tp / true.sum() if true.any() else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 \
        else 0.0
    return float(precision), float(recall), float(f)


def topk_recovery_curve(S_hat, S_true, ks):
    """Fraction of true edges (nonzero pairs of ``S_true``) found among
    the k largest-weight predicted pairs, for each k in the ascending
    list ``ks``.

    Pairs are ranked by |predicted weight| with lexicographic (i, j)
    tie-breaks, so the curve is deterministic.
    """
    A = as_matrix(S_hat)
    B = as_matrix(S_true)
    if A.shape != B.shape:
        raise BadDimension("estimate/truth shape mismatch")
    ks = list(ks)
    if any(k2 < k1 for k1, k2 in zip(ks, ks[1:])):
        raise BadParameter("ks must be ascending")
    n = A.shape[0]
    iu, ju = edge_index(n)
    weights = np.abs(A[iu, ju])
    order = np.lexsort((ju, iu, -weights))
    true = np.abs(B[iu, ju]) > 0
    n_true = max(int(true.sum()), 1)
    found = np.cumsum(true[order])
    curve = []
    for k in ks:
        if not (1 <= k <= iu.size):
            raise BadParameter(f"k={k} outside 1..{iu.size}")
        curve.append((int(k), float(found[k - 1] / n_true)))
    return curve


def scale_aligned_error(S_hat, S_true) -> float:
    """Relative Frobenius error after the optimal scalar rescaling
    c = trace(S_hat' S_true) / ||S_hat||_F^2 of the estimate.

    Invariant to the arbitrary normalization of recovered shifts; a
    zero estimate scores 1 by convention.
    """
    A = as_matrix(S_hat)
    B = as_matrix(S_true)
    if A.shape != B.shape:
        raise BadDimension("estimate/truth shape mismatch")
    nb = np.linalg.norm(B)
    na2 = float((A * A).sum())
    if na2 == 0.0 or nb == 0.0:
        return 1.0
    c = float((A * B).sum()) / na2
    return float(np.linalg.norm(c * A - B) / nb)


def evaluate(S_hat, S_true, threshold: float | None = None) -> EvalReport:
    """Full evaluation report; default support threshold is
    1e-6 times the largest magnitude in the estimate. The top-k curve
    is taken at k = 1, 5, 10, 25, 50, 100 and every pair, each capped
    at the number of pairs; it is empty for a graph with no pairs."""
    A = as_matrix(S_hat)
    if threshold is None:
        threshold = DEFAULT_SUPPORT_THRESHOLD * float(np.abs(A).max(initial=0.0))
    p, r, f = edge_prf(S_hat, S_true, threshold)
    m = A.shape[0] * (A.shape[0] - 1) // 2
    ks = sorted({min(k, m) for k in (1, 5, 10, 25, 50, 100, m)}) if m else []
    curve = topk_recovery_curve(S_hat, S_true, ks)
    return EvalReport(p, r, f, scale_aligned_error(S_hat, S_true), tuple(curve))

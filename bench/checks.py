"""Output checks and scores shared by every workload."""

from __future__ import annotations

import numpy as np

from glkit import metrics


def structural(kind, M):
    """Problem text, or None when ``M`` is a valid output of this kind.

    Every output must be a finite square matrix. ``adjacency``: symmetric,
    zero diagonal, nonnegative. ``laplacian``: symmetric, zero row sums,
    nonpositive off-diagonals. ``precision``: symmetric. ``directed``:
    zero diagonal.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return f"not a square matrix: shape {M.shape}"
    if not np.all(np.isfinite(M)):
        return "non-finite entries"
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    diag = float(np.abs(np.diag(M)).max(initial=0.0))
    if kind == "directed":
        return None if diag == 0.0 else f"nonzero diagonal ({diag:.2e})"
    asym = float(np.abs(M - M.T).max(initial=0.0))
    if asym > 1e-10 * scale:
        return f"not symmetric ({asym:.2e})"
    if kind == "adjacency":
        if diag > 1e-12 * scale:
            return f"nonzero diagonal ({diag:.2e})"
        if M.min(initial=0.0) < -1e-12 * scale:
            return "negative weights"
    elif kind == "laplacian":
        rows = float(np.abs(M.sum(axis=1)).max(initial=0.0))
        if rows > 1e-9 * scale:
            return f"nonzero row sums ({rows:.2e})"
        if (M - np.diag(np.diag(M))).max(initial=0.0) > 1e-12 * scale:
            return "positive off-diagonal entries"
    elif kind != "precision":
        raise ValueError(f"unknown output kind {kind!r}")
    return None


def _bipartite(W):
    """Symmetric embedding whose upper triangle holds every entry of W."""
    n = W.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = W
    out[n:, :n] = W.T
    return out


def score(estimate, truth, directed=False):
    """(edge F-score, scale-aligned error) with glkit's default support
    threshold; directed graphs are scored over all ordered pairs."""
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if directed:
        est, ref = _bipartite(est), _bipartite(ref)
    report = metrics.evaluate(est, ref)
    return report.f_score, report.scale_error

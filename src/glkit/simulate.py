"""Seeded synthetic data generation.

Random graphs, Gaussian Markov random field samples, diffusion processes,
smooth-signal factor models, and structural-equation cascades. Every
generator takes an int seed or a numpy Generator (None draws fresh
entropy) and reproduces bit-identical output for identical seeds.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    BadDimension,
    BadParameter,
    CannotConnect,
    NotPositiveDefinite,
    UnstableSEM,
)
from .graphcore import (
    ShiftKind,
    ShiftOperator,
    SignalSet,
    apply_filter,
    as_matrix,
    eigendecompose,
    filter_matrix,
    sqrt_psd,
    weights_from_edge_vector,
)


def make_rng(rng) -> np.random.Generator:
    """Accept an int seed, a Generator (returned as is) or None."""
    return np.random.default_rng(rng)


def is_connected(W) -> bool:
    """One connected component, with every nonzero W_ij or W_ji an edge."""
    A = np.asarray(W) != 0
    A = A | A.T
    reached = np.zeros(A.shape[0], dtype=bool)
    reached[:1] = True
    frontier = reached.copy()
    while frontier.any():  # grow the component of vertex 0 by one hop
        frontier = A[frontier].any(axis=0) & ~reached
        reached |= frontier
    return A.shape[0] > 0 and bool(reached.all())


def gen_er_graph(n: int, p_edge: float, rng=None, require_connected: bool = False,
                 max_tries: int = 1000) -> ShiftOperator:
    """Erdos-Renyi adjacency with Uniform(0.5, 1.5) weights, which keep
    shifts well conditioned while exercising non-binary weights.

    Each of the N(N-1)/2 vertex pairs is an edge independently with
    probability ``p_edge``. With ``require_connected`` the draw is
    repeated (up to ``max_tries``) until one connected graph appears.
    """
    if not (0.0 <= p_edge <= 1.0):
        raise BadParameter("edge probability must lie in [0, 1]")
    rng = make_rng(rng)
    m = n * (n - 1) // 2
    for _ in range(max_tries):
        mask = rng.random(m) < p_edge
        w = np.where(mask, rng.uniform(0.5, 1.5, m), 0.0)
        W = weights_from_edge_vector(w, n)
        if not require_connected or is_connected(W):
            return ShiftOperator(W, ShiftKind.ADJACENCY)
    raise CannotConnect(
        f"no connected draw in {max_tries} tries (n={n}, p={p_edge})")


def gen_er_digraph(n: int, p_edge: float, radius: float = 0.5,
                   rng=None) -> ShiftOperator:
    """Directed Erdos-Renyi network-effect matrix with Uniform(0.5, 1.5)
    weights, rescaled so its spectral radius equals ``radius`` (stable
    for SEM generation)."""
    if not (0.0 <= p_edge <= 1.0):
        raise BadParameter("edge probability must lie in [0, 1]")
    if not (0.0 <= radius < 1.0):
        raise BadParameter("spectral radius must lie in [0, 1)")
    rng = make_rng(rng)
    W = np.where(rng.random((n, n)) < p_edge,
                 rng.uniform(0.5, 1.5, (n, n)), 0.0)
    np.fill_diagonal(W, 0.0)
    rho = spectral_radius(W)
    if rho > 0 and radius > 0:
        W = W * (radius / rho)
    elif radius == 0:
        W = np.zeros((n, n))
    return ShiftOperator(W, ShiftKind.GENERIC, directed=True)


def sample_gmrf(Theta, p: int, rng=None) -> SignalSet:
    """i.i.d. zero-mean Gaussian columns with precision matrix Theta."""
    Theta = as_matrix(Theta)
    rng = make_rng(rng)
    vals, vecs = np.linalg.eigh(0.5 * (Theta + Theta.T))
    if vals.min() <= 0:
        raise NotPositiveDefinite("precision matrix must be positive definite")
    half = (vecs / np.sqrt(vals)) @ vecs.T  # covariance square root
    X = half @ rng.standard_normal((Theta.shape[0], p))
    return SignalSet(X)


def diffusion_covariance(S, h, input_cov="white") -> np.ndarray:
    """Exact ensemble covariance H Sigma_w H^T of a diffused signal."""
    H = filter_matrix(S, h)
    if isinstance(input_cov, str) and input_cov == "white":
        return H @ H.T
    return H @ as_matrix(input_cov) @ H.T


def gen_diffusion(S, h, p: int, input_cov="white", rng=None) -> SignalSet:
    """Draw p samples of x = H w, with w Gaussian of the given covariance."""
    rng = make_rng(rng)
    M = as_matrix(S)
    n = M.shape[0]
    if isinstance(input_cov, str):
        if input_cov != "white":
            raise BadParameter(f"unknown input covariance {input_cov!r}")
        w = rng.standard_normal((n, p))
    else:
        C = as_matrix(input_cov)
        if C.shape[0] != n:
            raise BadDimension("input covariance size mismatch")
        w = sqrt_psd(C) @ rng.standard_normal((n, p))
    return SignalSet(apply_filter(M, h, w))


def gen_smooth(L, p: int, noise_var: float = 0.0, rng=None) -> SignalSet:
    """Factor-model smooth signals x = V chi + eps on a Laplacian L.

    Loadings are independent with variance 1/lambda_k on the nonzero
    Laplacian modes and exactly zero on the null mode(s), so the
    expected per-sample Dirichlet energy equals the number of nonzero
    eigenvalues. A disconnected graph has several suppressed modes and
    triggers a warning.
    """
    if not (isinstance(L, ShiftOperator) and L.kind is ShiftKind.LAPLACIAN):
        raise BadParameter("gen_smooth needs a Laplacian shift")
    if noise_var < 0:
        raise BadParameter("noise variance must be nonnegative")
    rng = make_rng(rng)
    basis = eigendecompose(L)
    lam = np.maximum(basis.vals, 0.0)
    zero = lam <= 1e-10 * max(1.0, lam.max(initial=0.0))
    if zero.sum() > 1:
        warnings.warn(f"{int(zero.sum())} zero modes suppressed (graph is "
                      "disconnected)", stacklevel=2)
    std = np.where(zero, 0.0, 1.0 / np.sqrt(np.where(zero, 1.0, lam)))
    chi = std[:, None] * rng.standard_normal((L.n, p))
    X = basis.vecs @ chi
    if noise_var > 0:
        X = X + np.sqrt(noise_var) * rng.standard_normal((L.n, p))
    return SignalSet(X)


def spectral_radius(W) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(W, float))).max())


def gen_sem(W, Omega, u_set, noise_var: float = 0.0, rng=None) -> SignalSet:
    """Structural-equation observations x_t = (I - W)^-1 (Omega u_t + eps_t).

    ``W`` may be directed; its spectral radius must be below one so the
    network effect has a stable inverse. ``Omega`` is a diagonal matrix
    or a length-N vector of exogenous loadings. Columns of ``u_set`` are
    the exogenous inputs, one per sample.
    """
    M = as_matrix(W)
    n = M.shape[0]
    if spectral_radius(M) >= 1.0:
        raise UnstableSEM("network-effect matrix has spectral radius >= 1")
    U = np.asarray(u_set, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    if U.shape[0] != n:
        raise BadDimension("exogenous input size mismatch")
    Om = np.asarray(Omega, dtype=float)
    Om = np.diag(Om) if Om.ndim == 1 else Om
    rng = make_rng(rng)
    drive = Om @ U
    if noise_var > 0:
        drive = drive + np.sqrt(noise_var) * rng.standard_normal(U.shape)
    X = np.linalg.solve(np.eye(n) - M, drive)
    return SignalSet(X)

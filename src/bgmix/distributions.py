"""Random draws and density evaluations used by the mixture samplers.

The Wishart convention used throughout is W(alpha, V) with density

    f(Y | alpha, V) propto |Y|^(alpha - (r+1)/2) exp{-tr(V Y)},

which equals a standard Wishart with degrees of freedom 2*alpha and scale
matrix (2V)^-1, so E[Y] = alpha * V^-1.  The inverse Wishart W^-1(alpha, V)
is the distribution of the inverse of such a draw, with mean
2V / (2*alpha - r - 1) when 2*alpha > r + 1.  This translation lives only
in this module; everything else calls these functions.

The sampler carries each covariance as its precision factor: a
triangular R with positive diagonal and R R^T = Sigma^-1. A Wishart
draw by the Bartlett decomposition is built as such a factor
(sample_wishart_factor_batch), the density takes it as it is and
factors nothing (log_mvnormal_density_batch), and precision_factor and
covariance_from_factor convert between R and Sigma where a covariance
comes in or goes out.
"""

import math
from functools import lru_cache

import numpy as np


def sample_dirichlet(e, rng):
    """Draw a weight vector from Dirichlet(e_1, ..., e_K)."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.size == 0 or not np.isfinite(e).all() or (e <= 0).any():
        raise ValueError("Dirichlet parameters must be finite and positive")
    draw = rng.dirichlet(e)
    # tiny parameters can underflow single coordinates to zero; the sum
    # stays positive, so renormalizing keeps the simplex constraint exact
    return draw / draw.sum()


def sample_categorical(p, rng):
    """Draw one index with probability proportional to the weights p."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("categorical weights must be finite and nonnegative")
    total = p.sum()
    if total <= 0:
        raise ValueError("categorical weights must have positive mass")
    idx = np.searchsorted(np.cumsum(p / total), rng.random(), side="right")
    # rounding can leave the final cumulative weight a hair below 1
    return int(min(idx, p.size - 1))


def sample_mvnormal_batch(b, B, rng):
    """Draw one N(b[k], B[k]) vector for each k; b is (m, r), B is (m, r, r)."""
    b = np.asarray(b, dtype=float)
    B = np.asarray(B, dtype=float)
    L = np.linalg.cholesky(B)
    z = rng.standard_normal(b.shape)
    return b + np.einsum("kij,kj->ki", L, z)


@lru_cache(maxsize=16)
def _bartlett_cells(r):
    """Diagonal and strict-lower-triangle indices of an r x r matrix.

    Returns (ii, il, jl): cell (ii[i], ii[i]) is row i's diagonal and
    (il[p], jl[p]) the p-th strict-lower cell in row order. Cached per r
    and shared by every caller, so the arrays are read-only.
    """
    ii = np.arange(r)
    il, jl = np.tril_indices(r, -1)
    for table in (ii, il, jl):
        table.flags.writeable = False
    return ii, il, jl


def sample_wishart_factor_batch(alpha, V, rng):
    """Lower Cholesky factors of stacked W(alpha[k], V[k]) draws.

    alpha is (m,) and V is (m, r, r), or (1, r, r) for m draws from one
    V, which is then inverted and factored once. Returns R (m, r, r),
    lower triangular with positive diagonal, whose draw is R R^T. By the
    Bartlett decomposition R = L A: L is the Cholesky factor of the
    scale (2V)^-1 and A is lower triangular, its diagonal the square
    roots of chi-square draws with df = 2*alpha - i for row i (2*alpha
    need not be an integer) and its strict lower triangle standard
    normals.

    Raises ValueError when an alpha[k] is at most (r-1)/2, where the
    normalizer is infinite, and np.linalg.LinAlgError when a V[k] is not
    positive definite. V[k] is used as given: its inverse is symmetrized,
    so a V[k] that is symmetric only to rounding is accepted whatever
    its scale.
    """
    alpha = np.asarray(alpha, dtype=float)
    V = np.asarray(V, dtype=float)
    m, r = alpha.shape[0], V.shape[1]
    if (alpha <= (r - 1) / 2).any():
        raise ValueError(f"alpha must exceed (r-1)/2 = {(r - 1) / 2}")
    # 0.25 (V^-1 + V^-T), the same bits as halving before and after
    scale = np.linalg.inv(V)
    scale = np.add(scale, scale.swapaxes(1, 2))
    scale *= 0.25
    L = np.linalg.cholesky(scale)
    ii, il, jl = _bartlett_cells(r)
    A = np.zeros((m, r, r))
    A[:, ii, ii] = np.sqrt(rng.chisquare(2.0 * alpha[:, None] - ii))
    if il.size:
        A[:, il, jl] = rng.standard_normal((m, il.size))
    return L @ A


def sample_wishart_batch(alpha, V, rng):
    """Stacked W(alpha[k], V[k]) draws; see sample_wishart_factor_batch."""
    R = sample_wishart_factor_batch(alpha, V, rng)
    return R @ R.swapaxes(1, 2)


def sample_inv_wishart_batch(alpha, V, rng):
    """Stacked W^-1(alpha[k], V[k]) draws."""
    return np.linalg.inv(sample_wishart_batch(alpha, V, rng))


def precision_factor(Sigma):
    """A triangular R with R R^T = Sigma^-1 for each stacked Sigma (K, r, r).

    R is the transposed inverse of Sigma's lower Cholesky factor L, upper
    triangular, so R^T (y - mu) = L^-1 (y - mu) and diag R = 1 / diag L.
    It inverts L rather than Sigma: on a rank-2 Sigma held up by a 1e-8
    ridge, the densities from this R are within 7e-15 (relative) of a
    solve with L, and those from the Cholesky factor of inv(Sigma) 2e-8
    off. Raises ValueError("every Sigma must be positive definite") when
    one is not.
    """
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("every Sigma must be positive definite") from exc
    return np.linalg.inv(L).swapaxes(1, 2)


def covariance_from_factor(R):
    """Sigma = (R R^T)^-1 for each stacked factor R (K, r, r).

    Computed as W^T W with W = R^-1, which inverts R rather than R R^T,
    and symmetrized, so the result is exactly symmetric.
    """
    W = np.linalg.inv(R)
    Sigma = W.swapaxes(1, 2) @ W
    Sigma = np.add(Sigma, Sigma.swapaxes(1, 2))
    Sigma *= 0.5
    return Sigma


_LOG_2PI = math.log(2.0 * math.pi)


def log_mvnormal_density_batch(Y, mu, R):
    """Matrix of log N(mu[k], Sigma[k]) densities at the rows of Y.

    R holds the precision factors: R[k] is triangular with positive
    diagonal and R[k] R[k]^T = Sigma[k]^-1 (see precision_factor). The
    Mahalanobis term of row y is |R_k^T (y - mu[k])|^2 and log |Sigma_k|
    = -2 sum log diag R_k, so the density factors and inverts nothing:
    the N rows cost one stacked matmul. The deviations are formed before
    the product, which keeps the result accurate for data far from the
    origin.

    Every pass runs along N, the long axis: the deviations are (K, r, N),
    taken from the columns of Y (a view of Y.T), and R_k^T multiplies
    them from the left. The squares of z are summed over r one row of N
    at a time, in coordinate order. An einsum over the last axis of the
    (K, N, r) layout gives the same z to the bit but adds the r squares
    in another order for some r (numpy pairs them in lanes that depend
    on its build and the CPU), so the two may differ in their last bits.

    The returned matrix is a new array, the transpose of a C-ordered
    (K, N) array; the constant terms are added to it in place, with no
    (K, N) temporary.

    Parameters
    ----------
    Y : ndarray, shape (N, r)
    mu : ndarray, shape (K, r)
    R : ndarray, shape (K, r, r)

    Returns
    -------
    ndarray, shape (N, K)
    """
    r = Y.shape[1]
    # order="C" keeps N innermost; by default dev would take Y.T's layout
    dev = np.subtract(Y.T[None, :, :], mu[:, :, None],
                      order="C")                              # (K, r, N)
    z = np.matmul(R.swapaxes(1, 2), dev)                      # (K, r, N)
    maha = np.square(z, out=z).sum(axis=1)                    # (K, N)
    log_diag = np.log(R.diagonal(axis1=1, axis2=2))           # (K, r)
    maha += (r * _LOG_2PI - 2.0 * log_diag.sum(axis=1))[:, None]
    maha *= -0.5
    return maha.T


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def log_gamma(x):
    """log |Gamma(x)| elementwise, from the standard library's math.lgamma.

    Returns a float for a scalar x and a float array of x's shape
    otherwise. x must avoid the poles 0, -1, -2, ...
    """
    out = np.asarray(_lgamma(x), dtype=float)
    return out if out.ndim else float(out)


def bnb_log_pmf(k_minus_1, a_l, a_pi, b_pi):
    """Log pmf of the beta-negative-binomial BNB(a_l, a_pi, b_pi) at k_minus_1.

    P(X = x) = Gamma(a_l + x) / (x! Gamma(a_l)) * B(a_pi + a_l, b_pi + x) / B(a_pi, b_pi)

    with log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b).
    Accepts scalar or array x; x must be a nonnegative integer value.
    """
    if a_l <= 0 or a_pi <= 0 or b_pi <= 0:
        raise ValueError("BNB parameters must be positive")
    x = np.asarray(k_minus_1, dtype=float)
    if np.any(x < 0) or np.any(x != np.floor(x)):
        raise ValueError("BNB support is the nonnegative integers")
    lg = log_gamma
    return (lg(a_l + x) - lg(x + 1.0) - lg(a_l)
            + lg(a_pi + a_l) + lg(b_pi + x) - lg(a_pi + a_l + b_pi + x)
            - lg(a_pi) - lg(b_pi) + lg(a_pi + b_pi))

"""Random draws and density evaluations used by the mixture samplers.

The Wishart convention used throughout is W(alpha, V) with density

    f(Y | alpha, V) propto |Y|^(alpha - (r+1)/2) exp{-tr(V Y)},

which equals a standard Wishart with degrees of freedom 2*alpha and scale
matrix (2V)^-1, so E[Y] = alpha * V^-1.  The inverse Wishart W^-1(alpha, V)
is the distribution of the inverse of such a draw, with mean
2V / (2*alpha - r - 1) when 2*alpha > r + 1.  This translation lives only
in this module; everything else calls these functions.
"""

import math
from functools import lru_cache

import numpy as np


def sample_dirichlet(e, rng):
    """Draw a weight vector from Dirichlet(e_1, ..., e_K)."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or e.size == 0 or not np.all(np.isfinite(e)) or np.any(e <= 0):
        raise ValueError("Dirichlet parameters must be finite and positive")
    draw = rng.dirichlet(e)
    # tiny parameters can underflow single coordinates to zero; the sum
    # stays positive, so renormalizing keeps the simplex constraint exact
    return draw / draw.sum()


def sample_categorical(p, rng):
    """Draw one index with probability proportional to the weights p."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0):
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
def _strict_lower(r):
    """Row and column indices of the strict lower triangle of an r x r matrix.

    Cached per r and shared by every caller, so the arrays are read-only.
    """
    il, jl = np.tril_indices(r, -1)
    il.flags.writeable = jl.flags.writeable = False
    return il, jl


def sample_wishart_batch(alpha, V, rng):
    """Stacked W(alpha[k], V[k]) draws via the Bartlett decomposition.

    alpha is (m,), V is (m, r, r). Degrees of freedom 2*alpha need not
    be integer: the diagonal uses chi-square draws with df = 2*alpha - i
    for row i, the strict lower triangle standard normals.

    Raises ValueError when an alpha[k] is at most (r-1)/2, where the
    normalizer is infinite, and np.linalg.LinAlgError when a V[k] is not
    positive definite. V[k] is used as given: its inverse is symmetrized,
    so a V[k] that is symmetric only to rounding is accepted whatever
    its scale.
    """
    alpha = np.asarray(alpha, dtype=float)
    V = np.asarray(V, dtype=float)
    m, r = V.shape[0], V.shape[1]
    if np.any(alpha <= (r - 1) / 2):
        raise ValueError(f"alpha must exceed (r-1)/2 = {(r - 1) / 2}")
    scale = 0.5 * np.linalg.inv(V)
    scale = 0.5 * (scale + np.transpose(scale, (0, 2, 1)))
    L = np.linalg.cholesky(scale)
    df = 2.0 * alpha[:, None] - np.arange(r)[None, :]
    A = np.zeros((m, r, r))
    idx = np.arange(r)
    A[:, idx, idx] = np.sqrt(rng.chisquare(df))
    il, jl = _strict_lower(r)
    if il.size:
        A[:, il, jl] = rng.standard_normal((m, il.size))
    LA = L @ A
    return LA @ np.transpose(LA, (0, 2, 1))


def sample_inv_wishart_batch(alpha, V, rng):
    """Stacked W^-1(alpha[k], V[k]) draws."""
    return np.linalg.inv(sample_wishart_batch(alpha, V, rng))


def log_mvnormal_density_batch(Y, mu, Sigma):
    """Matrix of log N(mu[k], Sigma[k]) densities at the rows of Y.

    With L_k the Cholesky factor of Sigma[k], the Mahalanobis term of row
    y is |L_k^-1 (y - mu[k])|^2. The K small factors are inverted once,
    so the N rows cost one stacked matmul instead of a triangular solve
    with N right-hand sides. The deviations are formed before the
    product, which keeps the result accurate for data far from the
    origin. Against exact rational arithmetic the Mahalanobis term is
    as accurate as the solve's on columns scaled 1e-3 to 1e6, at an
    offset of 1e6 and on a Sigma held up by a 1e-8 ridge, where both
    lose about cond(Sigma) * eps.

    Every pass runs along N, the long axis: the deviations are (K, r, N),
    taken from the columns of Y (a view of Y.T), and L_k^-1 multiplies
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
    Sigma : ndarray, shape (K, r, r)

    Returns
    -------
    ndarray, shape (N, K)
    """
    Y = np.asarray(Y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    r = Y.shape[1]
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("every Sigma must be positive definite") from exc
    # order="C" keeps N innermost; by default dev would take Y.T's layout
    dev = np.subtract(Y.T[None, :, :], mu[:, :, None],
                      order="C")                              # (K, r, N)
    z = np.matmul(np.linalg.inv(L), dev)                      # (K, r, N)
    maha = np.square(z, out=z).sum(axis=1)                    # (K, N)
    ii = np.arange(r)
    logdet = 2.0 * np.sum(np.log(L[:, ii, ii]), axis=1)       # (K,)
    maha += (r * np.log(2.0 * np.pi) + logdet)[:, None]
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

"""Data model, prior construction, likelihoods, and the generative model.

The prior follows the hierarchical conjugate setup

    eta ~ Dirichlet(gamma_K, ..., gamma_K)
    mu_k ~ N(b0, B0)
    Sigma_k | C0 ~ W^-1(c0, C0)
    C0 ~ W(g0, G0)

with data-driven defaults: b0 the column medians, B0 the diagonal of
squared column ranges, c0 = c + (r+1)/2, g0 = 1 + (r-1)/2,
C0_init = c * phi * S and G0 = g0 * C0_init^-1, where S is the diagonal
of the empirical covariance.  Under these choices the prior mean of
Sigma_k is phi * S.

A MixtureState holds each covariance as its precision factor R_k, with
Sigma_k^-1 = R_k R_k^T, the form a Wishart draw yields; Sigma_k is
formed from it only when read (see MixtureState).
"""

from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist


# ---------------------------------------------------------------------------
# configuration types


def _require_finite_positive(**values):
    for name, v in values.items():
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class FixedGamma:
    """Constant Dirichlet parameter, whatever the number of components."""
    gamma: float

    def __post_init__(self):
        _require_finite_positive(gamma=self.gamma)

    def gamma_for(self, K):
        return self.gamma


@dataclass(frozen=True)
class DynamicGamma:
    """Dirichlet parameter gamma_K = alpha / K."""
    alpha: float

    def __post_init__(self):
        _require_finite_positive(alpha=self.alpha)

    def gamma_for(self, K):
        return self.alpha / K


@dataclass(frozen=True)
class FixedK:
    """K components throughout the chain.

    With a small FixedGamma this is the sparse finite mixture: K is set
    generously and superfluous components empty out.
    """
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")


@dataclass(frozen=True)
class RandomK:
    """Beta-negative-binomial prior on K - 1, truncated at k_max.

    k_init sets the starting K (= starting K_plus) of the chain.
    log_prior[K - 1] is the BNB log pmf at K - 1 for K = 1, ..., k_max
    (untruncated, so not normalized over 1..k_max; the K update
    normalizes). It is built here, once, so no sweep recomputes it.
    """
    a_l: float
    a_pi: float
    b_pi: float
    k_max: int = 100
    k_init: int = 10
    log_prior: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite_positive(a_l=self.a_l, a_pi=self.a_pi, b_pi=self.b_pi)
        if not 1 <= self.k_init <= self.k_max:
            raise ValueError(f"need 1 <= k_init <= k_max, got "
                             f"k_init={self.k_init}, k_max={self.k_max}")
        table = dist.bnb_log_pmf(np.arange(self.k_max), self.a_l, self.a_pi,
                                 self.b_pi)
        table.flags.writeable = False
        object.__setattr__(self, "log_prior", table)


@dataclass
class Dataset:
    y: np.ndarray                      # (N, r)
    feature_names: list
    true_labels: np.ndarray = None     # optional, length N, any label values

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 2 or self.y.shape[0] < 1 or self.y.shape[1] < 1:
            raise ValueError("y must be a nonempty N x r matrix")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")
        if len(self.feature_names) != self.y.shape[1]:
            raise ValueError("feature_names must have one entry per column")
        if self.true_labels is not None:
            self.true_labels = np.asarray(self.true_labels)
            if self.true_labels.shape[0] != self.y.shape[0]:
                raise ValueError("true_labels must have one entry per row")

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def r(self):
        return self.y.shape[1]


@dataclass
class PriorConfig:
    """The hierarchical prior above, with the per-chain constants of b0, B0.

    B0_inv = B0^-1 and B0_inv_b0 = B0^-1 b0 enter every component update,
    and B0_chol, the lower Cholesky factor of B0, every draw of an empty
    component's mean; they are computed here, once, and are read-only,
    so b0 and B0 must not change after construction.
    """
    gamma_spec: object                 # FixedGamma or DynamicGamma
    b0: np.ndarray
    B0: np.ndarray
    c: float
    phi: float
    c0: float
    g0: float
    C0_init: np.ndarray
    G0: np.ndarray
    k_prior: object                    # FixedK or RandomK
    B0_inv: np.ndarray = field(init=False, repr=False, compare=False)
    B0_inv_b0: np.ndarray = field(init=False, repr=False, compare=False)
    B0_chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.B0_inv = np.linalg.inv(self.B0)
        self.B0_inv_b0 = self.B0_inv @ self.b0
        self.B0_chol = np.linalg.cholesky(self.B0)
        for table in (self.B0_inv, self.B0_inv_b0, self.B0_chol):
            table.flags.writeable = False


class MixtureState:
    """One point of the MCMC state space.

    R holds the covariances as precision factors: R[k] is triangular with
    positive diagonal and R[k] R[k]^T = Sigma_k^-1. It is the state's one
    record of them, and every sweep step works from it. A state is built
    from R or from Sigma (K, r, r), whose factors are then derived by
    distributions.precision_factor; a Sigma that is not positive definite
    raises ValueError. Reading state.Sigma forms Sigma from R (exactly
    symmetric); assigning to it sets R.

    S holds 0-based component labels; N_k and K_plus are derived from it
    via refresh_counts and must be kept in sync by every mutating step.
    """

    def __init__(self, K, eta, mu, Sigma=None, *, C0, S, R=None, N_k=None,
                 K_plus=None):
        if (Sigma is None) == (R is None):
            raise TypeError("give exactly one of Sigma and R")
        self.K = K
        self.eta = eta                 # (K,)
        self.mu = mu                   # (K, r)
        if R is None:
            self.Sigma = Sigma
        else:
            self.R = R                 # (K, r, r)
        self.C0 = C0                   # (r, r)
        self.S = S                     # (N,) ints in 0..K-1
        self.N_k = N_k
        self.K_plus = K_plus
        if N_k is None:
            self.refresh_counts()

    @property
    def Sigma(self):
        """The covariances (K, r, r), formed from R."""
        return dist.covariance_from_factor(self.R)

    @Sigma.setter
    def Sigma(self, value):
        self.R = dist.precision_factor(np.asarray(value, dtype=float))

    def refresh_counts(self):
        self.N_k = np.bincount(self.S, minlength=self.K)
        self.K_plus = int(np.count_nonzero(self.N_k))


@dataclass
class ChainConfig:
    n_iter: int = 30000
    burn_in: int = 5000
    seed: int = 0
    store_assignments: bool = True
    permutation_step: bool = False
    thinning: int = 1

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iter")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# prior construction


def _column_median(y):
    """The median of each column of y, the same bits as np.median(y, axis=0).

    The middle row of the sorted columns, or the mean (a + b) / 2 of the
    middle pair when N is even. Computed here because np.median imports
    numpy.ma on its first call, which costs a process that never needs
    it several milliseconds.
    """
    s = np.sort(y, axis=0)
    mid = s.shape[0] // 2
    if s.shape[0] % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2


def build_default_prior(data, c=2.5, phi=0.75, gamma_spec=None, k_prior=None):
    """Assemble the data-driven hierarchical prior described above.

    Raises on degenerate input: fewer than two observations or a
    zero-range column would produce a singular B0 or S.
    """
    _require_finite_positive(c=c, phi=phi)
    y = data.y
    if data.n < 2:
        raise ValueError("prior construction needs at least two observations")
    r = data.r
    b0 = _column_median(y)
    ranges = y.max(axis=0) - y.min(axis=0)
    if np.any(ranges <= 0):
        bad = [data.feature_names[j] for j in np.flatnonzero(ranges <= 0)]
        raise ValueError(f"constant column(s) make the prior degenerate: {bad}")
    B0 = np.diag(ranges ** 2)
    S = np.diag(np.atleast_1d(np.var(y, axis=0, ddof=1)))
    c0 = c + (r + 1) / 2.0
    g0 = 1.0 + (r - 1) / 2.0
    C0_init = c * phi * S
    G0 = g0 * np.linalg.inv(C0_init)
    if gamma_spec is None:
        gamma_spec = FixedGamma(1.0)
    if k_prior is None:
        k_prior = FixedK(1)
    return PriorConfig(gamma_spec=gamma_spec, b0=b0, B0=B0, c=c, phi=phi,
                       c0=c0, g0=g0, C0_init=C0_init, G0=G0, k_prior=k_prior)


# ---------------------------------------------------------------------------
# likelihoods


def log_weighted_densities(data, state):
    """(N, K) matrix of log eta_k + log f_N(y_i | mu_k, Sigma_k)."""
    with np.errstate(divide="ignore"):
        log_eta = np.log(state.eta)
    logm = dist.log_mvnormal_density_batch(data.y, state.mu, state.R)
    logm += log_eta[None, :]
    return logm


def mixture_log_likelihood(data, state, logm=None):
    """Sum over observations of log sum_k eta_k f_N(y_i | mu_k, Sigma_k).

    logm is log_weighted_densities(data, state) when the caller already
    holds it; it is computed here otherwise. The inner sum is evaluated
    over sorted terms, which makes the value bit-identical under any
    permutation of the component labels.
    """
    if logm is None:
        logm = log_weighted_densities(data, state)
    rowmax = logm.max(axis=1)
    if (rowmax == -np.inf).any():
        return float("-inf")
    # terms takes logm's layout, the transpose of a C-ordered (K, N)
    # array, so the sum over K adds in the same order
    terms = logm - rowmax[:, None]
    terms.sort(axis=1)
    np.exp(terms, out=terms)
    return float(np.sum(np.log(terms.sum(axis=1)) + rowmax))


def complete_data_log_likelihood(data, state):
    """Sum over observations of log eta_{S_i} + log f_N(y_i | mu_{S_i}, Sigma_{S_i})."""
    logm = log_weighted_densities(data, state)
    return float(logm[np.arange(data.n), state.S].sum())


# ---------------------------------------------------------------------------
# generative model


def generate_synthetic(prior, N, rng):
    """Draw a dataset from the hierarchical model, returning the truth too.

    K comes from the prior's k_prior: fixed for FixedK, a draw of
    1 + BNB(a_l, a_pi, b_pi) for RandomK (via the beta mixture of
    negative binomials).
    """
    kp = prior.k_prior
    if isinstance(kp, FixedK):
        K = kp.K
    elif isinstance(kp, RandomK):
        p = rng.beta(kp.a_pi, kp.b_pi)
        K = 1 + int(rng.negative_binomial(kp.a_l, p))
    else:
        raise ValueError(f"unsupported k_prior: {kp!r}")
    r = prior.b0.shape[0]
    gamma_K = prior.gamma_spec.gamma_for(K)
    eta = dist.sample_dirichlet(np.full(K, gamma_K), rng)
    C0 = dist.sample_wishart_batch(np.array([prior.g0]), prior.G0[None],
                                   rng)[0]
    mu, R = sample_components(prior, C0, K, rng)
    S, y = sample_observations(eta, mu, dist.covariance_from_factor(R), N,
                               rng)
    state = MixtureState(K=K, eta=eta, mu=mu, R=R, C0=C0, S=S)
    names = [f"x{j + 1}" for j in range(r)]
    data = Dataset(y=y, feature_names=names, true_labels=S.copy())
    return data, state


def sample_components(prior, C0, m, rng):
    """Draw m components from the prior, every mu_k before every Sigma_k.

    mu_k ~ N(b0, B0) and Sigma_k ~ W^-1(c0, C0); returns mu (m, r) and
    the precision factors R (m, r, r) of the Sigma_k (see MixtureState).
    B0's factor is the prior's constant, and C0 is inverted and factored
    once for all m draws.
    """
    r = prior.b0.shape[0]
    mu = prior.b0 + rng.standard_normal((m, r)) @ prior.B0_chol.T
    R = dist.sample_wishart_factor_batch(np.full(m, prior.c0), C0[None],
                                         rng)
    return mu, R


def sample_observations(eta, mu, Sigma, N, rng):
    """Draw S_i ~ Categorical(eta), y_i ~ N(mu_{S_i}, Sigma_{S_i}), i <= N."""
    K, r = mu.shape
    cum = np.cumsum(eta)
    S = np.minimum(np.searchsorted(cum, rng.random(N), side="right"), K - 1)
    L = np.linalg.cholesky(Sigma)
    z = rng.standard_normal((N, r))
    return S, mu[S] + np.einsum("nij,nj->ni", L[S], z)

"""Estimators the benchmark computes from the program's outputs."""

import numpy as np


def effective_sample_size(x):
    """ESS of a series by Geyer's initial monotone sequence estimator.

    Autocorrelations come from a zero-padded FFT; pairs of consecutive
    autocorrelations are summed while positive and forced non-increasing.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    centred = x - x.mean()
    if n < 4 or not np.any(centred):
        return float(n)
    f = np.fft.rfft(centred, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    pairs = rho[:n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0)
    pairs = pairs[:stop[0] if stop.size else pairs.size]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    return float(n / tau)


def adjusted_rand(a, b):
    """Adjusted Rand index (Hubert-Arabie) of two label vectors."""
    _, ia = np.unique(np.asarray(a), return_inverse=True)
    _, ib = np.unique(np.asarray(b), return_inverse=True)
    cont = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(cont, (ia, ib), 1)

    def pairs(v):
        return (v * (v - 1) / 2).sum()

    total = pairs(cont)
    rows, cols = pairs(cont.sum(axis=1)), pairs(cont.sum(axis=0))
    expected = rows * cols / (ia.size * (ia.size - 1) / 2)
    top = (rows + cols) / 2
    if top == expected:
        return 1.0
    return float((total - expected) / (top - expected))

"""Bayesian Gaussian mixture clustering with fixed, sparse, and random K."""

from .model import (ChainConfig, Dataset, DynamicGamma, FixedGamma, FixedK,
                    MixtureState, PriorConfig, RandomK, build_default_prior,
                    generate_synthetic, mixture_log_likelihood)
from .postprocess import (ari, confusion_and_mcr, filter_to_kplus,
                          kplus_distribution, map_partition, posterior_summary,
                          ppr_identify, vi_partition)
from .sampler import ChainOutput, Draws, init_from_kmeans, run_chain

__version__ = "0.1.0"

__all__ = [
    "ChainConfig", "ChainOutput", "Dataset", "Draws", "DynamicGamma",
    "FixedGamma", "FixedK", "MixtureState", "PriorConfig", "RandomK", "ari",
    "build_default_prior", "confusion_and_mcr", "filter_to_kplus",
    "generate_synthetic", "init_from_kmeans", "kplus_distribution",
    "map_partition", "mixture_log_likelihood", "posterior_summary",
    "ppr_identify", "run_chain", "vi_partition",
]

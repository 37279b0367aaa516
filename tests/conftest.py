"""Shared builders for the test suite."""

import numpy as np

from jmbeam.channel import CsitConfig, draw_sample, make_draw, substream
from jmbeam.harness import ExperimentConfig


def random_system(seed, n_t=2, k=2, snr_db=20.0, alpha=0.6, m=50):
    """One seeded (config, draw, sample) triple at the given operating point."""
    p_t = 10.0 ** (snr_db / 10.0)
    cfg = CsitConfig(n_t=n_t, k=k, alpha=alpha, p_t=p_t)
    draw = make_draw(substream(seed, 0), cfg)
    sample = draw_sample(substream(seed, 1), draw.h_est, draw.sigma_e2, m)
    return cfg, draw, sample


def random_precoder(rng, n_t, k, p_t, power_fraction=1.0):
    """Random complex precoder scaled to the requested total power."""
    p = rng.standard_normal((n_t, k + 1)) + 1j * rng.standard_normal((n_t, k + 1))
    pw = float(np.sum(p.real**2 + p.imag**2))
    return p * np.sqrt(power_fraction * p_t / pw)


def random_psd(rng, n, rank=None):
    """Random Hermitian PSD matrix A B B^H-style, optionally rank-limited."""
    r = n if rank is None else rank
    b = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return b @ b.conj().T


def tiny_cfg(**over):
    """A small sweep configuration; keyword arguments override fields."""
    base = dict(
        n_t=2, k=2, alphas=(0.6,), snr_db=(5.0,), m=8, n_channels=3,
        schemes=("ZF-WF", "JMB-ZF-SVD"), master_seed=77, threads=1,
        epsilon_r=1e-2, n_max=40,
    )
    base.update(over)
    return ExperimentConfig(**base)

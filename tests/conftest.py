import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import beamshadow as bs
from beamshadow.codebook import best_entries

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def coarse_grid():
    """5-degree grid: 36 x 72 directions, the default working resolution."""
    return bs.make_grid(5.0, 5.0)


@pytest.fixture(scope="session")
def free_field(coarse_grid):
    return bs.synth_freespace_field(bs.ArrayConfig(), coarse_grid)


@pytest.fixture(scope="session")
def blocked_field(coarse_grid, free_field):
    """Free field pushed through the tight one-finger grip scenario."""
    from beamshadow.experiment import default_scenarios

    spec = default_scenarios()["tight-grip-one-finger"]
    dist = bs.gen_distortion(spec, coarse_grid, free_field.n_antennas)
    return bs.apply_distortion(free_field, dist)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_field_vector(rng, n=4, allow_zero=False):
    """Random complex field vector; re-draws the rare all-zero outcome."""
    while True:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if allow_zero or np.abs(v).max() > 1e-6:
            return v


# --- per-direction references for the map-level code --------------------------


def cell_of(grid, theta_deg, phi_deg):
    """(theta index, phi index) of an exact grid direction."""
    return list(grid.thetas).index(theta_deg), list(grid.phis).index(phi_deg)


def vector_at(field, theta_deg, phi_deg):
    """The field vector across antennas at one exact grid direction (a copy)."""
    it, ip = cell_of(field.grid, theta_deg, phi_deg)
    return field.samples[:, it, ip].copy()


def mrc_gain_db(e):
    """The matched-combining bound ``10*log10(sum |E_i|^2)`` of one vector."""
    total = float((e.real * e.real + e.imag * e.imag).sum())
    return -math.inf if total == 0.0 else 10.0 * math.log10(total)


def searched_entry(weights, e):
    """(gain dB, winning index) of ``best_entries`` on one field vector, the
    dB taken by scalar ``math.log10`` as the gain maps take it."""
    best, index = best_entries(weights, np.asarray(e, dtype=complex)[None, :])
    p = float(best[0])
    return (-math.inf if p == 0.0 else 10.0 * math.log10(p)), int(index[0])


def naive_best_entry(weights, e):
    """Reference search over the rows of ``weights``: per-entry 1-D sums,
    strict-improvement argmax; (gain dB, winning index)."""
    best_p, best_k = -1.0, 0
    for k, w in enumerate(weights):
        z = (w.conj() * e).sum()
        p = z.real * z.real + z.imag * z.imag
        if p > best_p:
            best_p, best_k = p, k
    return 10.0 * math.log10(best_p), best_k

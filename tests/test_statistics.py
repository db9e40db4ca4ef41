import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cvteleport.errors import GridMismatchError, NoCrossingError
from cvteleport.fock import number_state
from cvteleport.statistics import (
    PhotonDistribution,
    _polar_grid,
    conditional_beta_density,
    crossing_radius,
    loss_gain_split,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
    squeezing_db_to_q,
    sweep_q,
)
from cvteleport.teleport import single_photon_beta_density


@pytest.mark.parametrize(
    "q,n,value",
    [
        (0.5, 0, 0.1875),
        (0.5, 1, 0.46875),
        (0.5, 2, 0.22265625),
        (0.0, 0, 0.25),
        (0.0, 1, 0.25),
    ],
)
def test_photon_statistics_closed_values(q, n, value):
    assert np.isclose(photon_statistics_closed_form(q, n), value, atol=1e-15)


def test_photon_statistics_rejects_negative_count():
    with pytest.raises(ValueError):
        photon_statistics_closed_form(0.5, -1)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_photon_statistics_sum_to_one(q):
    total = sum(photon_statistics_closed_form(q, n) for n in range(201))
    assert np.isclose(total, 1.0, atol=1e-10)


def test_photon_statistics_decrease_beyond_one():
    for q in (0.1, 0.5, 0.9):
        values = [photon_statistics_closed_form(q, n) for n in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "q,expected",
    [
        (0.0, (0.25, 0.25, 0.5)),
        (0.5, (0.1875, 0.46875, 0.34375)),
        (0.99, (0.004975, 0.98509975, 0.00992525)),
    ],
)
def test_loss_gain_split_values(q, expected):
    split = loss_gain_split(q)
    assert np.allclose(split.as_tuple(), expected, atol=1e-12)
    assert np.isclose(sum(split.as_tuple()), 1.0, atol=1e-15)


def test_loss_gain_matches_series_terms():
    for q in (0.2, 0.5, 0.8):
        split = loss_gain_split(q)
        assert np.isclose(split.p_loss, photon_statistics_closed_form(q, 0), atol=1e-15)
        assert np.isclose(split.p_success, photon_statistics_closed_form(q, 1), atol=1e-15)
        tail = sum(photon_statistics_closed_form(q, n) for n in range(2, 200))
        assert np.isclose(split.p_gain, tail, atol=1e-12)


def test_grid_construction_and_validation():
    radii, weights = _polar_grid(0.5)
    assert radii.size == weights.size == 128
    assert np.all(radii < math.sqrt(40.0 / 0.75))
    # near q = 1 the fixed radial extent no longer contains the integrand
    with pytest.raises(GridMismatchError):
        _polar_grid(0.995)


def test_distribution_guards():
    with pytest.raises(ValueError):
        PhotonDistribution(probabilities=np.array([-0.5, 1.5]), residual=0.0)
    dist = PhotonDistribution(probabilities=np.array([0.25, 0.25, 0.3, 0.1]), residual=0.1)
    assert np.isclose(dist.total(), 1.0)
    split = dist.loss_gain()
    assert np.isclose(split.p_gain, 0.5)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_quadrature_statistics_match_closed_form(q):
    dist = photon_statistics_quadrature(number_state(1, 64), q)
    for n in range(7):
        closed = photon_statistics_closed_form(q, n)
        assert np.isclose(float(dist.probabilities[n]), closed, atol=1e-6)


def test_quadrature_masses_integrate_to_one():
    for n in (0, 1):
        dist = photon_statistics_quadrature(number_state(n, 48), 0.5)
        assert np.isclose(dist.probabilities.sum(), 1.0, atol=1e-9)


def test_conditional_densities_at_origin():
    # at beta = 0 only the single-photon output survives
    for q in (0.2, 0.5, 0.8):
        assert conditional_beta_density(0, q, 0j) == 0.0
        assert conditional_beta_density("ge2", q, 0j) == 0.0
        expect = (1.0 - q * q) / math.pi * q * q
        assert np.isclose(conditional_beta_density(1, q, 0j), expect, atol=1e-15)


def test_conditional_densities_sum_to_total():
    for r in np.arange(0.0, 4.0, 0.25):
        beta = complex(r, 0.2)
        total = single_photon_beta_density(0.5, beta)
        parts = sum(conditional_beta_density(c, 0.5, beta) for c in (0, 1, "ge2"))
        assert np.isclose(parts, total, atol=1e-15)


def test_conditional_rejects_unknown_category():
    with pytest.raises(ValueError):
        conditional_beta_density(3, 0.5, 0j)


def test_crossing_radius_value_and_independent_root():
    got = crossing_radius(0.5)
    assert np.isclose(got, 1.0709936388749737, atol=1e-9)

    def gap(r):
        return conditional_beta_density(0, 0.5, complex(r)) - conditional_beta_density(
            "ge2", 0.5, complex(r)
        )

    ref = brentq(gap, 0.5, 2.0, xtol=1e-13)
    assert np.isclose(got, ref, atol=1e-9)


def test_crossing_radius_weak_entanglement_limit():
    # as q -> 0 the crossing solves e^t = 2 + t with t = r^2
    t_star = brentq(lambda t: math.exp(t) - 2.0 - t, 0.5, 3.0, xtol=1e-14)
    assert np.isclose(crossing_radius(1e-12), math.sqrt(t_star), atol=1e-9)


def test_crossing_ordering_around_the_root():
    r_star = crossing_radius(0.5)
    inner, outer = 0.5 * r_star, 1.5 * r_star
    assert conditional_beta_density(0, 0.5, complex(inner)) > conditional_beta_density(
        "ge2", 0.5, complex(inner)
    )
    assert conditional_beta_density(0, 0.5, complex(outer)) < conditional_beta_density(
        "ge2", 0.5, complex(outer)
    )


def test_density_ring_maximum():
    # stationary radius sqrt((a - q^2)/a^2) with a = 1 - q^2; q = 0.5 gives 2*sqrt(2)/3
    r_star = 0.9428090415820634
    peak = single_photon_beta_density(0.5, complex(r_star))
    assert peak > single_photon_beta_density(0.5, complex(0.8 * r_star))
    assert peak > single_photon_beta_density(0.5, complex(1.2 * r_star))
    scan = np.linspace(0.5, 1.5, 2001)
    values = [single_photon_beta_density(0.5, complex(r)) for r in scan]
    assert abs(scan[int(np.argmax(values))] - r_star) < 1e-3


def test_squeezing_conversion_anchors():
    assert squeezing_db_to_q(0.0).q == 0.0
    # 20 log10(2) dB ~ tanh(ln 2) = 3/5
    assert np.isclose(squeezing_db_to_q(20 * math.log10(2)).q, 0.6, atol=1e-12)
    assert squeezing_db_to_q(40.0).q < 1.0
    with pytest.raises(ValueError):
        squeezing_db_to_q(-1.0)


def test_sweep_loss_gain_table():
    table = sweep_q("loss_gain", np.arange(0.0, 0.95, 0.05))
    assert table.columns == ["q", "p_loss", "p_success", "p_gain"]
    arr = np.array(table.rows)
    assert np.allclose(arr[:, 1:].sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(arr[0, 1:], [0.25, 0.25, 0.5], atol=1e-15)


def test_sweep_with_quadrature_flags_clean_rows():
    table = sweep_q("loss_gain", np.array([0.3, 0.6]), with_quadrature=True, cutoff=48)
    assert table.columns[-1] == "flag"
    arr = np.array(table.rows)
    assert not np.any(arr[:, -1])
    assert np.allclose(arr[:, 1], arr[:, 4], atol=1e-6)


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        sweep_q("nonsense", np.array([0.5]))

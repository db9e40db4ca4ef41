import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cvteleport.errors import GridMismatchError, NoCrossingError, ZeroNormError
from cvteleport.fock import StateVector, coherent_state, number_state
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
from cvteleport.teleport import single_photon_beta_density, transfer_operator


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


def test_quadrature_normalizes_its_input():
    one = number_state(1, 32)
    reference = photon_statistics_quadrature(one, 0.5)
    for scale in (2.0, 0.5):
        dist = photon_statistics_quadrature(StateVector(scale * one.amplitudes, 32), 0.5)
        assert np.array_equal(dist.probabilities, reference.probabilities)
        assert dist.residual == reference.residual
    with pytest.raises(ZeroNormError):
        photon_statistics_quadrature(StateVector(np.zeros(33), 32), 0.5)


def test_quadrature_masses_integrate_to_one():
    for n in (0, 1):
        dist = photon_statistics_quadrature(number_state(n, 48), 0.5)
        assert np.isclose(dist.probabilities.sum(), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    q=st.floats(0.0, 0.75),
)
def test_quadrature_ignores_the_input_phase(alpha, phi, q):
    rotated = photon_statistics_quadrature(coherent_state(alpha * np.exp(1j * phi), 32), q)
    real = photon_statistics_quadrature(coherent_state(alpha, 32), q)
    assert np.max(np.abs(rotated.probabilities - real.probabilities)) <= 1e-15
    assert abs(rotated.residual - real.residual) <= 1e-15


@pytest.mark.parametrize("alpha,q", [(0.5, 0.3), (1.0 + 1.0j, 0.5), (-0.8j, 0.7)])
def test_quadrature_matches_64_angle_rule(alpha, q):
    # the polar rule with 64 uniform angles, one transfer operator per radius
    state = coherent_state(alpha, 32)
    angles = 2.0 * math.pi * np.arange(64) / 64
    rotated = state.amplitudes[:, None] * np.exp(-1j * np.outer(np.arange(33), angles))
    radii, weights = _polar_grid(q)
    reference = np.zeros(33)
    for r, w in zip(radii, weights):
        out = transfer_operator(q, float(r), 32) @ rotated
        reference += (w * 2.0 * math.pi / 64) * (np.abs(out) ** 2).sum(axis=1)
    dist = photon_statistics_quadrature(state, q)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-14


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


def test_crossing_exists_only_below_inverse_sqrt_two():
    # the loss - gain gap has slope (1-q)^2 (1 - 2q^2) at |beta|^2 = 0
    assert 0.0 < crossing_radius(0.707) < 0.05
    # just below 1/sqrt(2); roots from an 80-digit bisection of the unsimplified densities
    assert np.isclose(crossing_radius(0.7071), 0.0101638045960237, rtol=0.0, atol=1e-9)
    assert np.isclose(crossing_radius(0.70710678), 1.3444841337e-4, rtol=0.0, atol=1e-9)
    # crossings below the first nonzero scan radius; g's slope there is ~1e-13
    assert np.isclose(crossing_radius(0.7071067811865), 8.5039191041347298e-7, rtol=1e-3)
    assert np.isclose(crossing_radius(0.70710678118654), 3.3804764844275391e-7, rtol=1e-3)
    for q in (0.7072, 0.99):
        with pytest.raises(NoCrossingError, match="1/sqrt"):
            crossing_radius(q)


def test_gain_beats_loss_everywhere_above_inverse_sqrt_two():
    gaps = [
        conditional_beta_density("ge2", q, complex(r)) - conditional_beta_density(0, q, complex(r))
        for q in np.linspace(0.7072, 0.99, 60)
        for r in np.linspace(0.05, 8.0, 160)
    ]
    assert min(gaps) > 0.0


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
    assert squeezing_db_to_q(0.0) == 0.0
    # 20 log10(2) dB ~ tanh(ln 2) = 3/5
    assert np.isclose(squeezing_db_to_q(20 * math.log10(2)), 0.6, atol=1e-12)
    assert type(squeezing_db_to_q(6.0)) is float
    assert squeezing_db_to_q(40.0) < 1.0
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


def test_sweep_takes_plain_float_q():
    q = squeezing_db_to_q(3.0)
    table = sweep_q("loss_gain", [q])
    assert table.rows.shape == (1, 4)
    assert table.rows[0].tolist() == [q, *loss_gain_split(q).as_tuple()]
    with pytest.raises(ValueError):
        sweep_q("loss_gain", [0.5, 1.0])


def test_sweep_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        sweep_q("nonsense", np.array([0.5]))

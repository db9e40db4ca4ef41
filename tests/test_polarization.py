import numpy as np
import pytest

from cvteleport.fock import number_state
from cvteleport.polarization import (
    PolarizationOutcomeBudget,
    polarization_budget,
    polarization_budget_numerical,
    polarized_output,
)
from cvteleport.statistics import (
    _photon_transfer_matrix,
    loss_gain_split,
    photon_statistics_quadrature,
)


def test_budget_values_at_half():
    budget = polarization_budget(0.5)
    assert np.allclose(budget, (0.3515625, 0.03515625, 0.140625, 0.47265625), atol=1e-15)
    assert np.isclose(sum(budget), 1.0, atol=1e-15)
    # the quadrature route returns the same named tuple
    numeric = polarization_budget_numerical(0.5)
    assert type(budget) is type(numeric) is PolarizationOutcomeBudget
    assert np.allclose(numeric, budget, atol=1e-6)


@pytest.mark.parametrize("cutoff", [8, 32])
@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.995])
def test_numerical_budget_is_the_products_of_the_transfer_block(q, cutoff):
    # column 1 of M is the photon's H channel, column 0 the vacuum's V channel;
    # p_multi is 1 minus the three, subtracted in turn
    m = _photon_transfer_matrix(q, cutoff)
    p_trans = m[1, 1] * m[0, 0]
    p_flip = m[0, 1] * m[1, 0]
    p_zero = m[0, 1] * m[0, 0]
    expected = (p_trans, p_flip, p_zero, 1.0 - p_trans - p_flip - p_zero)
    assert polarization_budget_numerical(q, cutoff) == expected


@pytest.mark.parametrize("q", np.arange(0.0, 0.995, 0.01))
def test_budget_sums_to_one(q):
    assert np.isclose(sum(polarization_budget(float(q))), 1.0, atol=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8, 0.95])
def test_budget_factorizes_over_channels(q):
    # each class is (photon-channel probability) x (vacuum-channel probability):
    # the vacuum channel emits n photons with weight ((1+q)/2)((1-q)/2)^n
    budget = polarization_budget(q)
    split = loss_gain_split(q)
    vac0 = 0.5 * (1.0 + q)
    vac1 = 0.25 * (1.0 - q * q)
    assert np.isclose(budget.p_trans, split.p_success * vac0, atol=1e-15)
    assert np.isclose(budget.p_flip, split.p_loss * vac1, atol=1e-15)
    assert np.isclose(budget.p_zero, split.p_loss * vac0, atol=1e-15)


def test_transfer_probability_thresholds():
    assert polarization_budget(0.7).p_trans > 0.5
    assert polarization_budget(0.8).p_trans > 0.66
    # the two-thirds mark falls just past q = 0.8
    assert polarization_budget(0.81).p_trans > 2.0 / 3.0


def test_transfer_probability_increases_with_q():
    values = [polarization_budget(float(q)).p_trans for q in np.arange(0.0, 0.995, 0.01)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("q", np.arange(0.01, 0.995, 0.07))
def test_flip_is_strictly_smallest(q):
    budget = polarization_budget(float(q))
    others = (budget.p_trans, budget.p_zero, budget.p_multi)
    assert all(budget.p_flip < other for other in others)


def test_polarized_output_amplitude_at_zero_outcomes():
    out = polarized_output(0.5, 0j, 0j, 16)
    # (1,0) amplitude: both channels diagonal, q from the photon, 1 from vacuum
    expect = (0.75 / np.pi) * 0.5
    assert np.isclose(out[1, 0], expect, atol=1e-15)
    assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("q", [0.33, 0.5])
def test_joint_outcome_probability_is_normalized(q):
    # the norm of the product output factorizes: H channel carries |1>, V carries |0>
    total = 1.0
    for n in (1, 0):
        total *= float(photon_statistics_quadrature(number_state(n, 32), q).probabilities.sum())
    assert np.isclose(total, 1.0, atol=1e-6)

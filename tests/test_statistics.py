import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from cvteleport import statistics
from cvteleport.cli import parse_range_spec
from cvteleport.errors import (
    CutoffViolationError,
    NoCrossingError,
    TruncationError,
    TruncationWarning,
    ZeroNormError,
)
from cvteleport.fock import (
    StateVector,
    _batch_size,
    coherent_state,
    displacement_matrix,
    number_state,
)
from cvteleport.polarization import polarization_budget_numerical
from cvteleport.statistics import (
    _LAGUERRE_MAX_NODES,
    LossGainSplit,
    PhotonDistribution,
    _closed_form_tail,
    _conditional_densities,
    _laguerre_rule,
    _photon_transfer_matrix,
    _single_photon_levels,
    _single_photon_tail,
    conditional_beta_density,
    crossing_radius,
    loss_gain_split,
    mean_photon_change,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
    photon_transfer_closed_form,
    squeezing_db_to_q,
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
    assert photon_statistics_closed_form(0.5, np.int64(2)) == photon_statistics_closed_form(0.5, 2)
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            photon_statistics_closed_form(0.5, bad)


@pytest.mark.parametrize("q", [0.0, 0.2, 0.5, 0.8])
def test_photon_statistics_sum_to_one(q):
    total = sum(photon_statistics_closed_form(q, n) for n in range(201))
    assert np.isclose(total, 1.0, atol=1e-10)


def test_photon_statistics_decrease_beyond_one():
    for q in (0.1, 0.5, 0.9):
        values = [photon_statistics_closed_form(q, n) for n in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_closed_form_tail_is_positive_where_one_minus_the_sum_is_not():
    # near q = 1 the closed-form rows sum to 1 in float64, so 1 - sum is -2.2e-16
    terms = [photon_statistics_closed_form(0.97, n) for n in range(13)]
    assert 1.0 - sum(terms) < 0.0
    tail = _closed_form_tail(0.97, 12)
    assert 1.6e-21 < tail < 1.7e-21


@pytest.mark.parametrize("q", [0.0, 0.5, 0.97, 0.99, 0.999])
@pytest.mark.parametrize("n_max", [0, 1, 12, 32])
def test_closed_form_tail_is_the_series_above_the_cutoff(q, n_max):
    # a direct sum of the next 4,000 terms; 1 - sum gives -2.2e-16 at q = 0.97, n_max = 12
    tail = _closed_form_tail(q, n_max)
    terms = [photon_statistics_closed_form(q, n) for n in range(n_max + 1, n_max + 4001)]
    assert tail >= 0.0
    assert math.isclose(tail, math.fsum(terms), rel_tol=1e-14, abs_tol=0.0)


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
    assert np.allclose(split, expected, atol=1e-12)
    assert np.isclose(sum(split), 1.0, atol=1e-15)
    if q in (0.0, 0.5):
        # dyadic values: the closed form hits them exactly
        assert split == expected


def test_loss_gain_matches_series_terms():
    for q in (0.2, 0.5, 0.8):
        split = loss_gain_split(q)
        assert np.isclose(split.p_loss, photon_statistics_closed_form(q, 0), atol=1e-15)
        assert np.isclose(split.p_success, photon_statistics_closed_form(q, 1), atol=1e-15)
        tail = sum(photon_statistics_closed_form(q, n) for n in range(2, 200))
        assert np.isclose(split.p_gain, tail, atol=1e-12)


def test_laguerre_rule_is_exact_to_degree_2dim_minus_1():
    # sum_i w_i x_i^k = int_0^inf e^{-x} x^k dx = k! for every k < 2 dim
    for dim in (3, 33, 49):
        nodes, scaled = _laguerre_rule(dim)
        assert nodes.size == scaled.size == dim and not nodes.flags.writeable
        weights = scaled * np.exp(-nodes)
        for k in range(2 * dim):
            assert math.isclose(math.fsum(weights * nodes**k), math.factorial(k), rel_tol=1e-12)


def test_laguerre_rule_refuses_cutoffs_past_its_last_normal_weight():
    # at the limit every weight w_i = e^{ln(w_i e^{x_i}) - x_i} is a normal float
    nodes, scaled = _laguerre_rule(_LAGUERRE_MAX_NODES)
    assert np.all(np.isfinite(scaled))
    assert np.all(np.log(scaled) - nodes >= np.log(np.finfo(float).tiny))
    with pytest.raises(CutoffViolationError, match=f"up to {_LAGUERRE_MAX_NODES - 1}, got 185"):
        _photon_transfer_matrix(0.5, _LAGUERRE_MAX_NODES)


def test_transfer_matrix_refuses_a_node_where_the_displacement_overflows():
    # the rule's largest radius at cutoff 128 and q = 0.98 is 110.5, where the
    # displacement build overflows; cutoff 64 builds at every node up to q = 0.999
    with pytest.raises(TruncationError, match=r"r = 110\.5.*cutoff 128"):
        _photon_transfer_matrix(0.98, 128)
    assert np.all(np.isfinite(_photon_transfer_matrix(0.999, 64)))


@settings(max_examples=4, deadline=None)
@seed(1969)
@given(q=st.floats(0.0, 0.98))
@pytest.mark.parametrize("cutoff", [2, 32, 48])
def test_transfer_matrix_does_not_depend_on_the_batch(cutoff, q):
    # the batched sum agrees with one radius per batch to rounding
    batched = _photon_transfer_matrix(q, cutoff)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statistics, "_batch_size", lambda dim: 1)
        per_radius = _photon_transfer_matrix(q, cutoff)
    assert np.max(np.abs(batched - per_radius)) <= 1e-14


def test_default_cutoff_grid_is_one_batch():
    # the whole rule at cutoff 32 is summed in one product, so the loss-gain
    # quadrature golden (cutoff 32) holds only while it stays one batch
    assert _batch_size(33) >= 33


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9, 0.999])
def test_closed_form_transfer_matrix_columns(q):
    matrix = photon_transfer_closed_form(q, 48)
    levels = np.arange(49)
    single = [photon_statistics_closed_form(q, n) for n in levels]
    assert np.allclose(matrix[:, 1], single, rtol=1e-13, atol=0.0)
    # thermal: (1+q)/2 ((1-q)/2)^n
    thermal = 0.5 * (1.0 + q) * (0.5 * (1.0 - q)) ** levels
    assert np.allclose(matrix[:, 0], thermal, rtol=1e-13, atol=0.0)
    assert math.isclose(matrix[0, 0], 0.5 * (1.0 + q), rel_tol=1e-15)
    assert np.array_equal(matrix, matrix.T)


@settings(max_examples=20, deadline=None)
@seed(2001)
@given(noise=st.floats(0.01, 0.99), share=st.floats(0.01, 1.0))
def test_closed_form_transfer_matrices_form_a_semigroup(noise, share):
    # classical-noise channels add their noise (Holevo & Werner, PRA 63,
    # 032312 (2001)): with N = (1-q)/(1+q), M(N1) M(N2) = M(N1 + N2); the
    # intermediate sum runs over 121 levels, far past where the mass of the
    # leading 33 x 33 block ends
    n1, n2 = noise, share * (1.0 - noise)

    def q_of(n):
        return (1.0 - n) / (1.0 + n)

    product = photon_transfer_closed_form(q_of(n1), 120)[:33] @ (
        photon_transfer_closed_form(q_of(n2), 120)[:, :33]
    )
    direct = photon_transfer_closed_form(q_of(n1 + n2), 32)
    assert np.max(np.abs(product - direct)) <= 1e-13


@pytest.mark.parametrize("q,tolerance", [(0.0, 1e-13), (0.1, 1e-13), (0.2, 1e-13), (0.5, 1e-10)])
def test_quadrature_matches_the_closed_form_transfer_matrix(q, tolerance):
    # the rule is exact for the exact integrand, so what is left is the
    # displacement-form kernel's miss, which grows with q
    quadrature = _photon_transfer_matrix(q, 32)
    assert np.max(np.abs(quadrature - photon_transfer_closed_form(q, 32))) <= tolerance


def test_transfer_matrix_refuses_a_column_that_sums_above_one(monkeypatch):
    # weights 1e-6 too large lift column 0, whose mass above cutoff 32 is
    # 0.25^33, past 1 + 1e-9; every consumer of M meets the one guard
    rule = statistics._laguerre_rule

    def heavy_rule(dim):
        nodes, weights = rule(dim)
        return nodes, weights * (1.0 + 1e-6)

    monkeypatch.setattr(statistics, "_laguerre_rule", heavy_rule)
    for build in (
        lambda: _photon_transfer_matrix(0.5, 32),
        lambda: photon_statistics_quadrature(number_state(1, 32), 0.5),
        lambda: polarization_budget_numerical(0.5, 32),
    ):
        with pytest.raises(ValueError, match=r"column 0 of the photon-transfer matrix sums to"):
            build()


def test_transfer_matrix_columns_stay_below_one_on_the_sweep_grid():
    # the sweeps' default q grid at their cutoff 32: the worst column sum is
    # 1 - 6e-15, so the guard at 1 + 1e-9 never turns a flagged row into an error
    worst = max(
        float(_photon_transfer_matrix(q, 32).sum(axis=0).max())
        for q in parse_range_spec("0:0.99:0.01").tolist()
    )
    assert worst <= 1.0 + 1e-12


def test_distribution_guards():
    with pytest.raises(ValueError):
        PhotonDistribution(probabilities=np.array([-0.5, 1.5]), residual=0.0)
    dist = PhotonDistribution(probabilities=np.array([0.25, 0.25, 0.3, 0.1]), residual=0.1)
    assert np.isclose(dist.probabilities.sum() + dist.residual, 1.0)
    split = dist.loss_gain()
    assert np.isclose(split.p_gain, 0.5)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_quadrature_statistics_match_closed_form(q):
    dist = photon_statistics_quadrature(number_state(1, 64), q)
    for n in range(7):
        closed = photon_statistics_closed_form(q, n)
        assert np.isclose(float(dist.probabilities[n]), closed, atol=1e-6)
    # the quadrature route returns the closed form's named tuple
    assert type(dist.loss_gain()) is type(loss_gain_split(q)) is LossGainSplit


def test_quadrature_normalizes_its_input():
    one = number_state(1, 32)
    reference = photon_statistics_quadrature(one, 0.5)
    for scale in (2.0, 0.5):
        dist = photon_statistics_quadrature(StateVector(scale * one.amplitudes), 0.5)
        assert np.array_equal(dist.probabilities, reference.probabilities)
        assert dist.residual == reference.residual
    with pytest.raises(ZeroNormError):
        photon_statistics_quadrature(StateVector(np.zeros(33)), 0.5)


def test_quadrature_masses_integrate_to_one():
    for n in (0, 1):
        dist = photon_statistics_quadrature(number_state(n, 48), 0.5)
        assert np.isclose(dist.probabilities.sum(), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@seed(1969)
@given(
    alpha=st.floats(0.0, 2.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    q=st.floats(0.0, 0.75),
)
def test_quadrature_ignores_the_input_phase(alpha, phi, q):
    rotated = photon_statistics_quadrature(coherent_state(alpha * np.exp(1j * phi), 32), q)
    real = photon_statistics_quadrature(coherent_state(alpha, 32), q)
    assert np.max(np.abs(rotated.probabilities - real.probabilities)) <= 1e-15
    # the residual is 1 minus the sum of 33 level probabilities, so it carries
    # the rounding of a 33-term sum (up to 1.1e-15 seen), which the per-level
    # 1e-15 does not bound; allow one ulp of 1 per term
    assert abs(rotated.residual - real.residual) <= 33 * np.finfo(float).eps


@pytest.mark.parametrize("alpha,q", [(0.5, 0.3), (1.0 + 1.0j, 0.5), (-0.8j, 0.7)])
def test_quadrature_matches_64_angle_rule(alpha, q):
    # the polar rule with 64 uniform angles, one transfer operator per radius
    state = coherent_state(alpha, 32)
    angles = 2.0 * math.pi * np.arange(64) / 64
    rotated = state.amplitudes[:, None] * np.exp(-1j * np.outer(np.arange(33), angles))
    nodes, weights = _laguerre_rule(33)
    scale = 2.0 * (1.0 - q)
    reference = np.zeros(33)
    for x, w in zip(nodes, weights):
        # the quadrature's displacement form pref D(beta) diag(q^n) D(beta)^dagger,
        # from the public displacement matrix
        disp = displacement_matrix(math.sqrt(x / scale), 32)
        out = math.sqrt((1.0 - q * q) / math.pi) * (disp * q ** np.arange(33)) @ disp.conj().T
        out = out @ rotated
        reference += (w * math.pi / scale / 64) * (np.abs(out) ** 2).sum(axis=1)
    dist = photon_statistics_quadrature(state, q)
    assert np.max(np.abs(dist.probabilities - reference)) <= 1e-14


@pytest.mark.parametrize("beta_abs", [5e77, 1e160, 1e300])
def test_densities_past_the_squarable_radius_are_zero_with_warning(beta_abs):
    # |beta|^2 overflows a float past about 1.3e154, and the exact-transfer
    # term squares a multiple of it again
    for beta in (beta_abs, beta_abs * 1j):
        with pytest.warns(TruncationWarning):
            assert single_photon_beta_density(0.5, beta) == 0.0
        with pytest.warns(TruncationWarning):
            assert conditional_beta_density(0.5, beta) == (0.0, 0.0, 0.0)


def test_conditional_densities_at_origin():
    # at beta = 0 only the single-photon output survives
    for q in (0.2, 0.5, 0.8):
        p0, p1, p_ge2 = conditional_beta_density(q, 0j)
        assert p0 == 0.0 and p_ge2 == 0.0
        assert np.isclose(p1, (1.0 - q * q) / math.pi * q * q, atol=1e-15)


@pytest.mark.parametrize("beta_abs", [2.3e-162, 3e-162])
def test_gain_density_where_s_rounds_to_zero(beta_abs):
    # t = |beta|^2 is a positive subnormal and s = (1-q)^2 t rounds to 0, where
    # log(s) would raise a divide-by-zero warning; the tail is 0 there
    betas = np.array([beta_abs, 1j * beta_abs])
    assert np.all(np.abs(betas) ** 2 > 0.0) and not np.any(0.25 * np.abs(betas) ** 2)
    assert _single_photon_tail(0.5, betas, 1).tolist() == [0.0, 0.0]
    p0, p1, p_ge2 = conditional_beta_density(0.5, beta_abs)
    assert p0 == 0.0 and p_ge2 == 0.0 and p1 == single_photon_beta_density(0.5, beta_abs)


def test_conditional_densities_sum_to_total():
    for r in np.arange(0.0, 4.0, 0.25):
        beta = complex(r, 0.2)
        total = single_photon_beta_density(0.5, beta)
        parts = sum(conditional_beta_density(0.5, beta))
        assert np.isclose(parts, total, atol=1e-15)


_Q7, _Q9 = 1.0 - 1e-7, 1.0 - 1e-9


@pytest.mark.parametrize(
    "q, t",
    [
        (_Q7, np.linspace(3.40e9, 3.454e9, 2000)),
        (_Q9, np.linspace(600.0, 700.0, 4001) / (1.0 - _Q9 * _Q9)),
    ],
    ids=["q=1-1e-7", "q=1-1e-9"],
)
def test_densities_near_q_one_have_no_subnormal_cells(q, t):
    # as q -> 1 the prefactors are tiny: at 1 - 1e-7 the exponent rules left
    # 1,709 p0 and 1,581 p_ge2 cells of this grid subnormal while every total
    # stayed live, and at 1 - 1e-9 the total itself fell below the smallest
    # normal float at 143 radii; each call's one warning counts its zeros
    tiny = np.finfo(float).tiny
    with pytest.warns(TruncationWarning) as record:
        total, *parts = _conditional_densities(q, np.sqrt(t).astype(complex))
    names = ["beta density", "conditional density at levels 0 and 1", "conditional density above level 1"]
    assert [str(w.message).split(" underflows")[0] for w in record] == names
    parts = np.array(parts)
    cells = np.vstack([total, parts])
    assert not np.any((cells > 0.0) & (cells < tiny))
    # where a part was zeroed, the sum misses by less than tiny per part; the
    # rounding of a = 1 - q^2 moves the exponent a t by about eps t of itself
    zeroed = np.any(parts == 0.0, axis=0)
    miss = np.abs(parts.sum(axis=0) - total)
    assert np.all(miss <= (1e-12 + np.finfo(float).eps * t) * total + 3.0 * tiny * zeroed)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.7, 0.9])
def test_mean_photon_change_is_the_mean_of_the_number_law(q):
    # sum n w_n / sum w_n - 1 over the closed-form levels, which hold all
    # but a negligible share of the mass below level 300 here
    betas = np.linspace(0.01, 4.0, 40) * np.exp(0.3j)
    if q > 0.0:
        betas = np.append(betas, 0j)
    weights = np.stack(list(_single_photon_levels(q, betas, 300)), axis=1)
    direct = weights @ np.arange(301.0) / weights.sum(axis=1) - 1.0
    closed = [mean_photon_change(q, complex(beta)) for beta in betas]
    assert np.allclose(closed, direct, rtol=1e-13, atol=1e-13)


def test_mean_photon_change_sign():
    # below 1/sqrt(2) it changes sign once, at sqrt(1-2q^2)/(1-q^2)
    for q in (0.0, 0.3, 0.5, 0.7):
        root = math.sqrt(1.0 - 2.0 * q * q) / (1.0 - q * q)
        inner = [mean_photon_change(q, complex(r)) for r in np.linspace(0.01, 0.999, 50) * root]
        outer = [mean_photon_change(q, complex(r)) for r in np.linspace(1.001, 8.0, 50) * root]
        assert max(inner) < 0.0 < min(outer)
        assert abs(mean_photon_change(q, complex(root))) < 1e-15
    # inside the loss/gain crossing of the conditional densities
    assert math.isclose(math.sqrt(0.5) / 0.75, 0.9428090415820634) and 0.9428 < crossing_radius(0.5)
    # at and above 1/sqrt(2) it is never negative
    for q in (math.sqrt(0.5), 0.72, 0.9, 0.99):
        changes = [mean_photon_change(q, complex(r)) for r in np.linspace(0.0, 8.0, 200)]
        assert min(changes) >= 0.0
    assert mean_photon_change(0.5, 0j) == 0.0
    assert mean_photon_change(0.0, 0j) == -1.0


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9])
def test_mean_photon_change_averages_to_the_added_noise(q):
    # over the outcome density, (1-q)/(1+q): the added noise photons of the channel
    # pi times the outcome density, a e^{-at} (a^2 t + q^2), against t = |beta|^2
    a = 1.0 - q * q

    def integrand(t):
        density = a * math.exp(-a * t) * (a * a * t + q * q)
        return density * mean_photon_change(q, complex(math.sqrt(t)))

    average, _ = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert math.isclose(average, (1.0 - q) / (1.0 + q), rel_tol=1e-10, abs_tol=1e-12)


def test_mean_photon_change_at_large_beta_and_non_finite_beta():
    # far out the change approaches s - (1-q^2)/(1+q)^2, s = (1-q)^2 |beta|^2
    s = 0.25 * 1e300
    assert math.isclose(mean_photon_change(0.5, 1e150), s - 0.75 / 2.25, rel_tol=1e-15)
    assert mean_photon_change(0.5, 1e200) == math.inf
    with pytest.raises(ValueError, match="finite"):
        mean_photon_change(0.5, complex(math.nan, 0.0))


def test_crossing_radius_value_and_independent_root():
    got = crossing_radius(0.5)
    assert np.isclose(got, 1.0709936388749737, atol=1e-9)

    def gap(r):
        p0, _, p_ge2 = conditional_beta_density(0.5, complex(r))
        return p0 - p_ge2

    ref = brentq(gap, 0.5, 2.0, xtol=1e-13)
    assert np.isclose(got, ref, atol=1e-9)


def test_crossing_radius_weak_entanglement_limit():
    # as q -> 0 the crossing solves e^t = 2 + t with t = r^2
    t_star = brentq(lambda t: math.exp(t) - 2.0 - t, 0.5, 3.0, xtol=1e-14)
    assert np.isclose(crossing_radius(1e-12), math.sqrt(t_star), atol=1e-9)


def test_crossing_ordering_around_the_root():
    r_star = crossing_radius(0.5)
    inner, _, inner_gain = conditional_beta_density(0.5, complex(0.5 * r_star))
    outer, _, outer_gain = conditional_beta_density(0.5, complex(1.5 * r_star))
    assert inner > inner_gain
    assert outer < outer_gain


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
        p_ge2 - p0
        for q in np.linspace(0.7072, 0.99, 60)
        for r in np.linspace(0.05, 8.0, 160)
        for p0, _, p_ge2 in [conditional_beta_density(q, complex(r))]
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


import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from cvteleport.errors import EnvelopeError, TruncationWarning, ZeroNormError
from cvteleport.fock import StateVector, coherent_state, number_state
from cvteleport.sampler import (
    CATEGORIES,
    OVERFLOW_COUNT,
    SamplerConfig,
    ShotRecord,
    ShotRunResult,
    _draw_counts,
    _envelope_bound,
    _envelope_density,
    _rejection_sample,
    _shot_generator,
    _single_photon_weight_matrix,
    _stream_keys,
    _stream_uniforms,
    category_for_count,
    run_shots,
)
from cvteleport.statistics import loss_gain_split
from cvteleport.teleport import _is_single_photon, beta_density, teleport_output

SEED = 20260815
# seeds at the 32-bit word edges of numpy's seed-sequence entropy
_SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128)


def _numpy_stream(seed: int, index: int) -> np.random.Generator:
    """numpy's own generator for shot ``index``: the oracle of the bulk derivation."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


@pytest.fixture(scope="module")
def photon_run():
    # shot i has its own stream, so every shorter run with this seed is a prefix
    return run_shots(SamplerConfig(master_seed=SEED, shots=100_000, q=0.5))


def test_category_mapping():
    assert category_for_count(0) == "loss"
    assert category_for_count(1) == "success"
    assert category_for_count(2) == "gain"
    assert category_for_count(7) == "gain"
    assert category_for_count(OVERFLOW_COUNT) == "gain"
    with pytest.raises(ValueError):
        category_for_count(-3)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(master_seed=1, shots=-1, q=0.5)
    with pytest.raises(ValueError):
        SamplerConfig(master_seed=-1, shots=0, q=0.5)
    # a shot index must fit one 32-bit spawn-key word
    assert SamplerConfig(master_seed=1, shots=2**32, q=0.5).shots == 2**32
    with pytest.raises(ValueError):
        SamplerConfig(master_seed=1, shots=2**32 + 1, q=0.5)
    with pytest.raises(ValueError):
        SamplerConfig(master_seed=1, shots=1, q=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(master_seed=1, shots=1, q=0.5, cutoff=16, input_state=number_state(0, 8))


@pytest.mark.filterwarnings("ignore::cvteleport.errors.TruncationWarning")
def test_numpy_integer_seeds_match_int_seeds():
    # numpy's own SeedSequence takes numpy integers, so a config must too
    config = SamplerConfig(master_seed=np.int64(3), shots=5, q=0.5)
    assert type(config.master_seed) is int
    assert run_shots(config) == run_shots(SamplerConfig(master_seed=3, shots=5, q=0.5))
    coherent = coherent_state(0.5, 32).unit()
    big = SamplerConfig(np.uint64(2**63 + 5), np.int32(5), 0.5, 32, coherent)
    assert run_shots(big) == run_shots(SamplerConfig(2**63 + 5, 5, 0.5, 32, coherent))
    with pytest.raises(TypeError):
        SamplerConfig(master_seed=1, shots=5.0, q=0.5)


def test_shot_record_lineage():
    rec = ShotRecord(beta=0j, photon_count=1, category="success", master_seed=9, shot_index=4)
    assert rec.seed_lineage == (9, 4)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**130 - 1),
    start=st.integers(0, 2**32 - 16),
    size=st.integers(1, 16),
)
def test_bulk_streams_match_numpy(seed, start, size):
    for s in (seed, *_SEED_EDGES):
        uniforms = _stream_uniforms(s, start, start + size)
        keys = _stream_keys(s, np.arange(start, start + size))
        assert uniforms.shape == (size, 3)
        for i, row, key in zip(range(start, start + size), uniforms, keys):
            oracle = _numpy_stream(s, i)
            mine = _shot_generator(key).bit_generator.state["state"]
            theirs = oracle.bit_generator.state["state"]
            assert np.array_equal(mine["key"], theirs["key"])
            assert np.array_equal(mine["counter"], theirs["counter"])
            assert np.array_equal(row, oracle.uniform(size=3))


def test_runs_are_reproducible(photon_run):
    shots = 40_000
    prefix = ShotRunResult(SEED, photon_run.betas[:shots], photon_run.photon_counts[:shots])
    assert run_shots(SamplerConfig(master_seed=SEED, shots=shots, q=0.5)) == prefix


def test_result_columns():
    result = ShotRunResult(7, [1j, 2.0, 0j, -1.5], [1, 0, OVERFLOW_COUNT, 5])
    assert not result.betas.flags.writeable and not result.photon_counts.flags.writeable
    assert result.category_codes.tolist() == [1, 0, 2, 2]
    assert result.counts == {"loss": 1, "success": 1, "gain": 2}
    assert result.overflow == 1
    assert result.frequencies() == {"loss": 0.25, "success": 0.25, "gain": 0.5}
    assert result.records[2] == ShotRecord(0j, OVERFLOW_COUNT, "gain", 7, 2)
    assert result == ShotRunResult(7, result.betas, result.photon_counts)
    assert result != ShotRunResult(8, result.betas, result.photon_counts)
    assert result != ShotRunResult(7, result.betas, [1, 0, OVERFLOW_COUNT, 4])


def test_different_seeds_differ():
    a = run_shots(SamplerConfig(master_seed=1, shots=64, q=0.5))
    b = run_shots(SamplerConfig(master_seed=2, shots=64, q=0.5))
    assert any(x.beta != y.beta for x, y in zip(a.records, b.records))


def test_explicit_single_photon_takes_the_closed_form_path():
    explicit = SamplerConfig(1, 50, 0.5, 32, number_state(1, 32))
    assert run_shots(explicit) == run_shots(SamplerConfig(1, 50, 0.5))
    assert not _is_single_photon(StateVector(1j * number_state(1, 32).amplitudes, 32))


def test_zero_shots():
    result = run_shots(SamplerConfig(master_seed=1, shots=0, q=0.5))
    assert result.records == []
    assert result.counts == {name: 0 for name in CATEGORIES}


def test_radial_moments_match_density(photon_run):
    # E t = 1 + 1/a and E t^2 = 6/a + 2 q^2/a^2 for t = |beta|^2, a = 1 - q^2
    q, shots = 0.5, 100_000
    a = 1.0 - q * q
    t = np.abs(photon_run.betas[:shots]) ** 2
    mean = 1.0 + 1.0 / a
    var = 6.0 / a + 2.0 * q * q / (a * a) - mean * mean
    assert abs(t.mean() - mean) < 3.0 * math.sqrt(var / shots)


def test_radius_and_angle_distributions(photon_run):
    q, shots = 0.5, 50_000
    a = 1.0 - q * q
    betas = photon_run.betas[:shots]
    t = np.abs(betas) ** 2
    # probability integral transform of the exact radial law
    u = 1.0 - np.exp(-a * t) * (1.0 + a * a * t)
    hist, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert chisquare(hist).pvalue > 1e-3
    angles = np.angle(betas)
    hist, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
    assert chisquare(hist).pvalue > 1e-3


def test_category_frequencies_within_three_sigma(photon_run):
    q, shots = 0.5, 100_000
    result = ShotRunResult(SEED, photon_run.betas[:shots], photon_run.photon_counts[:shots])
    expected = dict(zip(CATEGORIES, loss_gain_split(q).as_tuple()))
    for name, p in expected.items():
        sigma = math.sqrt(p * (1.0 - p) / shots)
        assert abs(result.counts[name] / shots - p) < 3.0 * sigma
    probs = np.array([expected[name] for name in CATEGORIES])
    obs = np.array([result.counts[name] for name in CATEGORIES])
    assert chisquare(obs, shots * probs).pvalue > 1e-3


def test_overflow_absent_at_moderate_squeezing():
    result = run_shots(SamplerConfig(master_seed=SEED, shots=20_000, q=0.9, cutoff=32))
    assert result.overflow == 0


def test_weight_matrix_matches_operator_amplitudes():
    q, n_max = 0.6, 24
    betas = np.array([0.3 + 0.4j, 1.2 - 0.1j, 2.5 + 0j, 0j])
    weights = _single_photon_weight_matrix(q, betas, n_max)
    one = number_state(1, n_max)
    for row, beta in enumerate(betas):
        direct = np.abs(teleport_output(one, q, complex(beta)).amplitudes) ** 2
        # the two routes cancel differently near amplitude zeros; agreement
        # is absolute-tight, relative-loose there
        assert np.allclose(weights[row], direct, rtol=1e-7, atol=1e-11)


def test_shot_beta_follows_inverse_cdf():
    q = 0.5
    beta = run_shots(SamplerConfig(master_seed=SEED, shots=1, q=q)).records[0].beta
    # the shot's stream replayed through numpy's own generator
    u = _numpy_stream(SEED, 0).uniform(size=2)
    a = 1.0 - q * q
    expect_cdf = 1.0 - np.exp(-a * abs(beta) ** 2) * (1.0 + a * a * abs(beta) ** 2)
    assert np.isclose(expect_cdf, u[0], atol=1e-10)
    assert np.isclose(np.angle(beta) % (2 * np.pi), 2 * np.pi * u[1], atol=1e-10)


def test_generic_path_handles_vacuum_input():
    # vacuum outcome density is the pure Gaussian (a/pi) e^{-a|beta|^2}
    q, shots = 0.3, 8_000
    a = 1.0 - q * q
    config = SamplerConfig(master_seed=SEED, shots=shots, q=q, input_state=number_state(0, 32))
    with warnings.catch_warnings():
        # far-tail draws leave ~1e-8 relative mass at the cutoff edge; the
        # frequency assertions below resolve nothing finer than 1e-2
        warnings.simplefilter("ignore", TruncationWarning)
        result = run_shots(config)
    t = np.array([abs(r.beta) ** 2 for r in result.records])
    assert abs(t.mean() - 1.0 / a) < 3.0 * math.sqrt(1.0 / (a * a * shots))
    x = np.array([r.beta.real for r in result.records])
    assert abs(x.mean()) < 3.0 * math.sqrt(1.0 / (2.0 * a * shots))
    # vacuum loss probability is (1+q)/2
    p0 = 0.5 * (1.0 + q)
    sigma = math.sqrt(p0 * (1.0 - p0) / shots)
    assert abs(result.counts["loss"] / shots - p0) < 3.0 * sigma


def test_envelope_bound_certifies_density_ratio():
    q = 0.5
    state = coherent_state(0.7, 48).unit()
    bound = _envelope_bound(state, q)
    for r in np.linspace(0.0, 6.0, 25):
        for theta in np.linspace(0.0, 2 * np.pi, 9):
            beta = r * complex(math.cos(theta), math.sin(theta))
            target = beta_density(state, q, beta)
            cap = bound * float(_envelope_density(q, r * r))
            assert target <= cap * (1.0 + 1e-9)


def test_rejection_raises_on_broken_envelope():
    state = coherent_state(0.5, 32).unit()
    with pytest.raises(EnvelopeError):
        _rejection_sample(state, 0.5, 1e-12, [_numpy_stream(0, 0)])


def test_rejection_gives_up_after_max_draws(monkeypatch):
    # a bound this loose caps every candidate far above its density
    monkeypatch.setattr("cvteleport.sampler._MAX_REJECTION_DRAWS", 3)
    state = coherent_state(0.5, 32).unit()
    with pytest.raises(EnvelopeError, match="no acceptance in 3 draws"):
        _rejection_sample(state, 0.5, 1e300, [_numpy_stream(0, 0)])


def test_generic_path_warns_on_tail_mass():
    # some candidate outputs leave 1.454e-07 relative mass at the cutoff edge
    state = coherent_state(0.5, 32).unit()
    config = SamplerConfig(master_seed=2, shots=500, q=0.5, input_state=state)
    with pytest.warns(TruncationWarning, match="relative tail mass"):
        run_shots(config)


def _one_shot_at_a_time(state, q, bound, seed, shots):
    """The generic path as a plain loop: one stream, one T_q build per candidate."""
    sigma = math.sqrt(1.0 / (1.0 - q * q))
    betas, counts = [], []
    for i in range(shots):
        rng = _numpy_stream(seed, i)
        while True:
            beta = complex(*rng.normal(0.0, sigma, size=2))
            output = teleport_output(state, q, beta)
            cap = bound * float(_envelope_density(q, abs(beta) ** 2))
            if rng.uniform() * cap <= output.norm_sq():
                break
        weights = np.abs(output.amplitudes[None, :]) ** 2
        betas.append(beta)
        counts.append(_draw_counts(weights, weights.sum(axis=1), rng.uniform(size=1))[0])
    return ShotRunResult(seed, betas, counts)


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(0.0, 0.9),
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=13),
    seed=st.integers(0, 2**70),
    shots=st.integers(0, 40),
    prefix=st.integers(0, 40),
)
# 40 shots of a cheap input: the first rounds fill stacks of 16, 16 and 8
@example(q=0.5, parts=[(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)], seed=2**64 + 1, shots=40, prefix=17)
def test_lockstep_rejection_matches_one_shot_at_a_time(q, parts, seed, shots, prefix):
    # cutoffs 2..12; shot counts up to 40 cross the stack boundaries at 16 and 32
    amplitudes = np.array([complex(x, y) for x, y in parts])
    assume(np.vdot(amplitudes, amplitudes).real > 1e-6)
    state = StateVector(amplitudes, amplitudes.size - 1).unit()
    assume(not _is_single_photon(state))
    # a shot costs about `bound` candidates (near 1000 for a dense 13-level
    # state at q = 0); cap an example's expected work at 2000 candidates
    bound = _envelope_bound(state, q)
    assume(shots * bound <= 2000.0)
    prefix = min(prefix, shots)
    config = SamplerConfig(seed, shots, q, state.n_max, state)
    with warnings.catch_warnings():
        # low cutoffs leave heavy tails; both sides see the same candidates
        warnings.simplefilter("ignore", TruncationWarning)
        result = run_shots(config)
        assert result == _one_shot_at_a_time(state, q, bound, seed, shots)
        shorter = run_shots(SamplerConfig(seed, prefix, q, state.n_max, state))
    assert shorter == ShotRunResult(seed, result.betas[:prefix], result.photon_counts[:prefix])


def test_draw_counts_paths():
    one = np.abs(number_state(1, 8).amplitudes) ** 2
    u = np.append(_numpy_stream(3, 0).uniform(size=63), 0.0)
    weights = np.tile(one, (u.size, 1))
    assert np.all(_draw_counts(weights, weights.sum(axis=1), u) == 1)
    with pytest.raises(ZeroNormError):
        _draw_counts(np.vstack([one, np.zeros(9)]), np.ones(2), np.full(2, 0.5))
    # declaring extra unseen mass routes draws to the overflow sentinel
    u = _numpy_stream(3, 1).uniform(size=2000)
    draws = _draw_counts(np.tile(one, (u.size, 1)), np.full(u.size, 2.0), u)
    frac = np.mean(draws == OVERFLOW_COUNT)
    assert np.all(np.isin(draws, [1, OVERFLOW_COUNT]))
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 2000)

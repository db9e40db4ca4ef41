import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, kstest, poisson

from cvteleport.errors import EnvelopeError, TruncationWarning, ZeroNormError
from cvteleport.fock import (
    StateVector,
    _log_factorials,
    coherent_state,
    displacement_matrix,
    number_state,
)
from cvteleport.sampler import (
    _BISECTION_TOL,
    CATEGORIES,
    OVERFLOW_COUNT,
    SamplerConfig,
    ShotRecord,
    ShotRunResult,
    _CHUNK,
    _ENVELOPE_SAFETY,
    _draw_counts,
    _envelope_bound,
    _envelope_density,
    _invert_radial_cdf,
    _envelope_rate,
    _is_single_photon,
    _poisson_tail,
    _rejection_sample,
    _shot_generator,
    _single_photon_levels,
    _single_photon_tail,
    _stream_keys,
    _stream_uniforms,
    run_shots,
)
from cvteleport.statistics import loss_gain_split, squeezing_db_to_q
from cvteleport.teleport import _batch_size, _transfer_apply, teleport_output

SEED = 20260815
# seeds at the 32-bit word edges of numpy's seed-sequence entropy
_SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128)


def test_category_mapping():
    counts = [0, 1, 2, 7, OVERFLOW_COUNT]
    result = ShotRunResult(0, [0j] * len(counts), counts)
    assert [rec.category for rec in result.records] == ["loss", "success", "gain", "gain", "gain"]
    with pytest.raises(ValueError):
        ShotRunResult(0, [0j], [-3])


def _numpy_stream(seed: int, index: int) -> np.random.Generator:
    """numpy's own generator for shot ``index``: the oracle of the bulk derivation."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


@pytest.fixture(scope="module")
def photon_run():
    # shot i has its own stream, so every shorter run with this seed is a prefix
    return run_shots(SamplerConfig(master_seed=SEED, shots=100_000, q=0.5))


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
    # the input state carries the cutoff; nothing else is accepted in its place
    with pytest.raises(TypeError):
        SamplerConfig(master_seed=1, shots=1, q=0.5, input_state=number_state(1, 8).amplitudes)


def test_config_stores_q_as_a_float():
    config = SamplerConfig(master_seed=0, shots=3, q=squeezing_db_to_q(6.0))
    assert type(config.q) is float
    assert type(SamplerConfig(master_seed=0, shots=3, q=np.float64(0.5)).q) is float
    assert run_shots(config).photon_counts.size == 3


@pytest.mark.filterwarnings("ignore::cvteleport.errors.TruncationWarning")
def test_numpy_integer_seeds_match_int_seeds():
    # numpy's own SeedSequence takes numpy integers, so a config must too
    config = SamplerConfig(master_seed=np.int64(3), shots=5, q=0.5)
    assert type(config.master_seed) is int
    assert run_shots(config) == run_shots(SamplerConfig(master_seed=3, shots=5, q=0.5))
    coherent = coherent_state(0.5, 32).unit()
    big = SamplerConfig(np.uint64(2**63 + 5), np.int32(5), 0.5, coherent)
    assert run_shots(big) == run_shots(SamplerConfig(2**63 + 5, 5, 0.5, coherent))
    with pytest.raises(TypeError):
        SamplerConfig(master_seed=1, shots=5.0, q=0.5)


def test_shot_record_lineage():
    rec = ShotRecord(beta=0j, photon_count=1, category="success", master_seed=9, shot_index=4)
    assert rec.seed_lineage == (9, 4)


@settings(max_examples=60, deadline=None)
@seed(1969)
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


@pytest.mark.parametrize("seed", [*_SEED_EDGES, 2**64 + 12_345])
def test_shot_generator_draws_like_philox_keyed_directly(seed):
    # the sampler's draws on one stream: candidate normals, accept uniforms, count uniform
    for key in _stream_keys(seed, np.array([0, 1, 2**32 - 1])):
        mine, theirs = _shot_generator(key), np.random.Generator(np.random.Philox(key=key))
        for _ in range(3):
            assert np.array_equal(mine.normal(0.0, 1.3, size=2), theirs.normal(0.0, 1.3, size=2))
            assert mine.uniform() == theirs.uniform()


@pytest.mark.parametrize("seed", [0, 2**64 + 12_345])
def test_random_draws_the_bits_of_uniform(seed):
    # two generators on one key stay in step when one calls random() where
    # the other calls uniform(), between the candidate normals of each round
    for key in _stream_keys(seed, np.array([0, 7, 2**32 - 1])):
        mine, theirs = _shot_generator(key), _shot_generator(key)
        for _ in range(50):
            assert np.array_equal(mine.normal(0.0, 1.3, size=2), theirs.normal(0.0, 1.3, size=2))
            assert mine.random().hex() == theirs.uniform().hex()


def test_generic_path_reads_no_os_entropy(monkeypatch):
    # every stream is keyed from the master seed, so no OS entropy is needed
    config = SamplerConfig(SEED, 20, 0.5, coherent_state(0.5, 32).unit())
    expected = run_shots(config)

    def no_entropy(bits):
        raise AssertionError(f"the sampler read {bits} bits of OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    assert run_shots(config) == expected


def test_runs_are_reproducible(photon_run):
    shots = 40_000
    prefix = ShotRunResult(SEED, photon_run.betas[:shots], photon_run.photon_counts[:shots])
    assert run_shots(SamplerConfig(master_seed=SEED, shots=shots, q=0.5)) == prefix


def test_result_columns():
    result = ShotRunResult(7, [1j, 2.0, 0j, -1.5, 0.5, 3j], [1, 0, OVERFLOW_COUNT, 5, 2, 7])
    assert not result.betas.flags.writeable and not result.photon_counts.flags.writeable
    assert result.category_codes.tolist() == [1, 0, 2, 2, 2, 2]
    categories = [rec.category for rec in result.records]
    assert categories == ["success", "loss", "gain", "gain", "gain", "gain"]
    assert result.counts == {"loss": 1, "success": 1, "gain": 4}
    assert result.overflow == 1
    assert result.frequencies() == {"loss": 1 / 6, "success": 1 / 6, "gain": 4 / 6}
    assert result.records[2] == ShotRecord(0j, OVERFLOW_COUNT, "gain", 7, 2)
    assert result == ShotRunResult(7, result.betas, result.photon_counts)
    assert result != ShotRunResult(8, result.betas, result.photon_counts)
    assert result != ShotRunResult(7, result.betas, [1, 0, OVERFLOW_COUNT, 4, 2, 7])
    with pytest.raises(ValueError):
        ShotRunResult(7, [0j], [-3])
    # columns are 1-D and of equal length, and counts are integers
    for betas, counts in (([1j], [1, 2]), ([1j, 2j], [1]), ([[1j]], [[1]])):
        with pytest.raises(ValueError):
            ShotRunResult(7, betas, counts)
    with pytest.raises(TypeError):
        ShotRunResult(7, [1j], [1.7])


def test_different_seeds_differ():
    a = run_shots(SamplerConfig(master_seed=1, shots=64, q=0.5))
    b = run_shots(SamplerConfig(master_seed=2, shots=64, q=0.5))
    assert any(x.beta != y.beta for x, y in zip(a.records, b.records))


def test_explicit_single_photon_takes_the_closed_form_path():
    explicit = SamplerConfig(1, 50, 0.5, number_state(1, 32))
    assert run_shots(explicit) == run_shots(SamplerConfig(1, 50, 0.5))
    assert not _is_single_photon(StateVector(1j * number_state(1, 32).amplitudes))


def test_equal_configs_compare_and_hash_equal():
    a = SamplerConfig(1, 5, 0.5, number_state(1, 32))
    b = SamplerConfig(1, 5, 0.5, number_state(1, 32))
    assert a == b and hash(a) == hash(b)
    assert a == SamplerConfig(1, 5, 0.5)
    assert a != SamplerConfig(1, 5, 0.5, number_state(1, 16))
    assert len({a, b, SamplerConfig(1, 5, 0.5, coherent_state(0.5, 32))}) == 2


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
    expected = dict(zip(CATEGORIES, loss_gain_split(q)))
    for name, p in expected.items():
        sigma = math.sqrt(p * (1.0 - p) / shots)
        assert abs(result.counts[name] / shots - p) < 3.0 * sigma
    probs = np.array([expected[name] for name in CATEGORIES])
    obs = np.array([result.counts[name] for name in CATEGORIES])
    assert chisquare(obs, shots * probs).pvalue > 1e-3


def test_overflow_absent_at_moderate_squeezing():
    result = run_shots(SamplerConfig(master_seed=SEED, shots=20_000, q=0.9))
    assert result.overflow == 0


def _weight_matrix_oracle(q, betas, n_max):
    """|<n|T_q(beta)|1>|^2 as a (B, dim) matrix, from exp and log: the level recurrence's oracle.

    Row per shot, column per n: (a/pi) e^{-2(1-q)t} s^{n-1}/n! (a(1-q)t + q(n - s))^2
    with t = |beta|^2 and s = (1-q)^2 t; rows with t = 0 are built at t = 1 and
    then set to their own limit.
    """
    a = 1.0 - q * q
    t = np.abs(betas) ** 2
    pos = t > 0.0
    tp = np.where(pos, t, 1.0)
    sp = (1.0 - q) ** 2 * tp
    n = np.arange(n_max + 1, dtype=float)
    envelope = (a / math.pi) * np.exp(-2.0 * (1.0 - q) * tp)
    bracket = (q * (n - sp[:, None]) + a * (1.0 - q) * tp[:, None]) ** 2
    log_powers = (n - 1.0) * np.log(sp)[:, None] - _log_factorials(n_max + 1)
    weights = np.exp(log_powers) * envelope[:, None] * bracket
    weights[:, 0] = envelope * (1.0 - q) ** 2 * tp
    weights[~pos] = 0.0
    weights[~pos, 1] = (a / math.pi) * q * q
    return weights


def _cumsum_counts(weights, tails, u):
    """The inverse-CDF count of each row of a (B, dim) weight matrix, by ``np.cumsum``."""
    cdf = np.cumsum(weights, axis=1)
    counts = np.count_nonzero(cdf <= (u * (cdf[:, -1] + tails))[:, None], axis=1)
    return np.where(counts == weights.shape[1], OVERFLOW_COUNT, counts)


def _level_matrix(q, betas, n_max):
    """The levels of ``_single_photon_levels`` stacked into a (B, dim) matrix."""
    return np.stack(list(_single_photon_levels(q, betas, n_max)), axis=1)


def _chunk_of_outcomes(q, size=_CHUNK):
    """The first ``size`` uniforms of seed SEED and the outcomes the sampler draws from them."""
    u = _stream_uniforms(SEED, 0, size)
    t = _invert_radial_cdf(u[:, 0], q)
    theta = 2.0 * math.pi * u[:, 1]
    return u, np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))


def test_weight_matrix_matches_operator_amplitudes():
    q, n_max = 0.6, 24
    betas = np.array([0.3 + 0.4j, 1.2 - 0.1j, 2.5 + 0j, 0j])
    weights = _level_matrix(q, betas, n_max)
    one = number_state(1, n_max)
    for row, beta in enumerate(betas):
        direct = np.abs(teleport_output(one, q, complex(beta)).amplitudes) ** 2
        # the two routes cancel differently near amplitude zeros; agreement
        # is absolute-tight, relative-loose there
        assert np.allclose(weights[row], direct, rtol=1e-7, atol=1e-11)
    assert np.allclose(weights, _weight_matrix_oracle(q, betas, n_max), rtol=1e-13, atol=0.0)


def test_weight_matrix_rows_do_not_depend_on_the_batch():
    # beta = 0 needs no special case: s = 0 leaves level 1 alone
    q, n_max = 0.6, 32
    betas = np.array([0.3 + 0.4j, 0j, 1.2 - 0.1j, 5.0 + 2.0j, 0j, 1e-3j])
    weights = _level_matrix(q, betas, n_max)
    rows = [_level_matrix(q, betas[i : i + 1], n_max)[0] for i in range(betas.size)]
    assert np.array_equal(weights, np.array(rows))
    vacuum = np.zeros(n_max + 1)
    vacuum[1] = (q * q) * ((1.0 - q * q) / math.pi)
    assert np.array_equal(weights[1], vacuum) and np.array_equal(weights[4], vacuum)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n_max", [1, 4, 32])
def test_single_photon_counts_match_the_weight_matrix_oracle(q, n_max):
    # one chunk: the level recurrence and the two-pass draw against exp/log
    # weights and np.cumsum; a count can move only where a draw lies within
    # a few ulps of a cumulative weight, about 1e-15 per shot
    u, betas = _chunk_of_outcomes(q)
    tails = _single_photon_tail(q, betas, n_max)
    levels = functools.partial(_single_photon_levels, q, betas, n_max)
    counts = _draw_counts(levels, tails, u[:, 2])
    oracle = _cumsum_counts(_weight_matrix_oracle(q, betas, n_max), tails, u[:, 2])
    assert np.array_equal(counts, oracle)


def test_single_photon_counts_stay_within_a_few_chunk_arrays():
    # the levels come one at a time: nothing of shape (chunk, dim) is built
    q, n_max = 0.5, 32
    u, betas = _chunk_of_outcomes(q)
    tails = _single_photon_tail(q, betas, n_max)
    levels = functools.partial(_single_photon_levels, q, betas, n_max)
    tracemalloc.start()
    try:
        _draw_counts(levels, tails, u[:, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * _CHUNK * 8


def test_single_photon_counts_stay_inside_a_cutoff_that_holds_all_mass(monkeypatch):
    # rows whose closed-form norm lies so far above their cumulative sum that a
    # last-ulp uniform times the norm passes the sum; their mass above the
    # cutoff is below half an ulp of the sum, so every draw must give a level
    q, n_max = 0.5, 32
    u = _stream_uniforms(SEED, 0, 4096)
    t = _invert_radial_cdf(u[:, 0], q)
    theta = 2.0 * math.pi * u[:, 1]
    betas = np.sqrt(t) * (np.cos(theta) + 1j * np.sin(theta))
    a = 1.0 - q * q
    norms = (a / math.pi) * np.exp(-a * t) * (a * a * t + q * q)
    # the sum _draw_counts takes: the levels added in order
    sums = np.cumsum(_level_matrix(q, betas, n_max), axis=1)[:, -1]
    top = 1.0 - 2.0**-53
    rows = np.flatnonzero(top * norms > sums)[:16]
    assert rows.size == 16
    assert np.all(sums[rows] + _single_photon_tail(q, betas[rows], n_max) == sums[rows])
    u = u[rows]
    u[:, 2] = top
    monkeypatch.setattr("cvteleport.sampler._stream_uniforms", lambda seed, start, stop: u[start:stop])
    result = run_shots(SamplerConfig(SEED, rows.size, q))
    assert result.overflow == 0
    assert np.array_equal(result.betas, betas[rows])


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9])
def test_single_photon_tail_is_the_weight_mass_above_the_cutoff(q):
    # s = (1-q)^2 |beta|^2 from 1e-6 to 150 takes both branches of every
    # Poisson tail; level 300 holds all but ~1e-25 of the mass at s = 150
    t = np.append(np.geomspace(1e-6, 150.0, 200) / (1.0 - q) ** 2, 0.0)
    betas = np.sqrt(t) * np.exp(0.7j)
    weights = _level_matrix(q, betas, 300)
    for n_max in (1, 2, 4, 8, 32):
        tail = _single_photon_tail(q, betas, n_max)
        assert tail[-1] == 0.0
        assert np.allclose(tail, weights[:, n_max + 1 :].sum(axis=1), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("k", [1, 2, 5, 33, 100])
def test_poisson_tail_matches_scipy(k):
    s = np.geomspace(1e-4, 300.0, 500)
    assert np.allclose(_poisson_tail(s, k), poisson.sf(k - 1, s), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("k", [1, 5, 33, 100])
def test_poisson_tail_rows_do_not_depend_on_the_batch(k):
    # means on both sides of k: each row must equal the row computed alone
    s = np.random.default_rng(k).uniform(1e-6, 1.2 * k, 2000)
    alone = [_poisson_tail(s[i : i + 1], k)[0] for i in range(s.size)]
    assert np.array_equal(_poisson_tail(s, k), alone)


def _bisection_by_select(u, q):
    """The radial bisection with np.where selects: the oracle of the blended one."""
    a = 1.0 - q * q
    width = 800.0 / a
    lo = np.zeros_like(u)
    hi = np.full_like(u, width)
    while width > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        below = 1.0 - np.exp(-a * mid) * (1.0 + a * a * mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        width *= 0.5
    return 0.5 * (lo + hi)


# the ends of the unit interval: zero, the least subnormal, tiny, and the
# two largest uniforms below one
_EXTREME_U = [0.0, 5e-324, 1e-300, 1e-17, 1.0 - 2.0**-53, 1.0 - 2.0**-52]


@pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.77, 0.9, 0.99, 0.999])
def test_radial_bisection_matches_select_oracle(q):
    u = np.append(_stream_uniforms(SEED, 0, _CHUNK)[:, 0], _EXTREME_U)
    got = _invert_radial_cdf(u, q)
    assert np.array_equal(got.view(np.uint64), _bisection_by_select(u, q).view(np.uint64))


def test_radial_bisection_stays_within_six_chunk_arrays():
    # bounds, midpoint, two scratch arrays and a contiguous copy of the
    # strided column: 6.08 times u.nbytes measured; a result allocated
    # after the loop lifts it to 8
    u = _stream_uniforms(SEED, 0, _CHUNK)[:, 0]
    tracemalloc.start()
    try:
        _invert_radial_cdf(u, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * u.nbytes


def _single_photon_gate(result, q):
    """p-values of |beta|^2, arg beta and each count given beta under the q law.

    The radius is scored by the exact radial CDF, the angle as uniform, and
    the count by a randomized PIT (Dunn & Smyth 1996) whose law is
    |T_q(beta)|1>|^2 from the operator route over the closed-form density;
    the mass above the cutoff is its last level.
    """
    a = 1.0 - q * q
    betas, counts = result.betas, result.photon_counts
    t = np.abs(betas) ** 2
    radial = kstest(1.0 - np.exp(-a * t) * (1.0 + a * a * t), "uniform").pvalue
    angle = kstest((np.angle(betas) / (2.0 * math.pi)) % 1.0, "uniform").pvalue
    one = number_state(1, 32).amplitudes
    step = _batch_size(one.size)
    law = np.concatenate(
        [np.abs(_transfer_apply(q, betas[i : i + step], one)) ** 2 for i in range(0, betas.size, step)]
    )
    law /= ((a / math.pi) * np.exp(-a * t) * (a * a * t + q * q))[:, None]
    cdf = np.cumsum(law, axis=1)
    law = np.column_stack([law, np.maximum(1.0 - cdf[:, -1], 0.0)])
    below = np.column_stack([np.zeros(betas.size), cdf])
    level = np.where(counts == OVERFLOW_COUNT, one.size, counts)
    rows = np.arange(betas.size)
    v = np.random.default_rng(2026).uniform(size=betas.size)
    pit = below[rows, level] + v * law[rows, level]
    return radial, angle, kstest(pit, "uniform").pvalue


def test_single_photon_statistical_gate():
    # 20,000 shots, seed 7: p < 1e-6 fails a correct sampler once in a
    # million seeds; the correct law measured p = 0.98, 0.39 and 0.92
    result = run_shots(SamplerConfig(master_seed=7, shots=20_000, q=0.5))
    assert min(_single_photon_gate(result, 0.5)) >= 1e-6


def test_single_photon_gate_rejects_the_wrong_squeezing():
    # a q = 0.55 run scored against the q = 0.5 law; the angle law is the same
    result = run_shots(SamplerConfig(master_seed=7, shots=20_000, q=0.55))
    radial, _, pit = _single_photon_gate(result, 0.5)
    assert radial < 1e-6 and pit < 1e-6


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
            target = teleport_output(state, q, beta).norm_sq()
            cap = bound * float(_envelope_density(q, r * r))
            assert target <= cap * (1.0 + 1e-9)


def _envelope_bound_one_radius_at_a_time(state, q):
    """The envelope bound as a plain loop: one complex displacement per radius."""
    a = 1.0 - q * q
    n_max = state.n_max
    weights = q ** (2.0 * np.arange(n_max + 1))
    moduli_in = np.abs(state.amplitudes)
    ratio_max = 0.0
    for r in np.sqrt(np.linspace(0.0, (4.0 * (n_max + 1) + 120.0) / a, 2048)):
        col = np.abs(displacement_matrix(-r, n_max)) @ moduli_in
        majorant = (a / math.pi) * float(weights @ (col * col))
        ratio_max = max(ratio_max, majorant / float(_envelope_density(q, r * r)))
    return _ENVELOPE_SAFETY * ratio_max


@settings(max_examples=15, deadline=None)
@seed(SEED)
@given(
    q=st.floats(0.0, 0.95),
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=17),
)
def test_envelope_bound_matches_one_radius_at_a_time(q, parts):
    # cutoffs 1..16; the bulk bound must keep every bit of the per-radius loop
    amplitudes = np.array([complex(x, y) for x, y in parts])
    assume(np.vdot(amplitudes, amplitudes).real > 1e-6)
    state = StateVector(amplitudes).unit()
    assert _envelope_bound(state, q) == _envelope_bound_one_radius_at_a_time(state, q)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_rejection_proposal_is_the_envelope(q):
    # the sampler's own normal width: (1/(2 pi sigma^2)) e^{-t/(2 sigma^2)} is the envelope
    scales = []

    class Recorder:
        def normal(self, loc, scale, size):
            scales.append(scale)
            return np.array([0.3, -0.2])

        def random(self):
            return 0.0

    state = coherent_state(0.5, 32).unit()
    _rejection_sample(state, q, _envelope_bound(state, q), [Recorder()])
    (sigma,) = scales
    t = np.linspace(0.0, 60.0 / _envelope_rate(q), 50)
    proposal = np.exp(-t / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2)
    assert np.allclose(proposal, _envelope_density(q, t), rtol=1e-13, atol=0.0)


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
    # some candidate outputs leave 1.454e-07 relative mass at the cutoff edge;
    # |4> at cutoff 4 leaves mass there on nearly every candidate
    configs = (
        SamplerConfig(master_seed=2, shots=500, q=0.5, input_state=coherent_state(0.5, 32).unit()),
        SamplerConfig(master_seed=0, shots=50, q=0.0, input_state=number_state(4, 4)),
    )
    for config in configs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_shots(config)
        assert len(caught) == 1
        assert issubclass(caught[0].category, TruncationWarning)
        assert "relative tail mass" in str(caught[0].message)


@pytest.mark.filterwarnings("ignore::cvteleport.errors.TruncationWarning")
def test_generic_run_peak_stays_near_one_displacement_batch():
    # the benchmark's generic run: each loop holds one 1.1 MB batch of D(r)
    # and its (T, B) magnitudes, near the size of a core's L2 cache
    config = SamplerConfig(0, 500, 0.5, coherent_state(0.5, 32).unit())
    run_shots(config)  # warm: the index triangle and stream-key class are cached
    tracemalloc.start()
    try:
        run_shots(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


def _one_shot_at_a_time(state, q, bound, seed, shots):
    """The generic path as a plain loop: one stream, one T_q build per candidate."""
    sigma = math.sqrt(1.0 / (1.0 - q * q))
    # the envelope density (c/pi) e^{-c|beta|^2} written out, in the sampler's
    # operation order, so that an error in the sampler's rate shows here
    c = 0.5 * (1.0 - q * q)
    betas, counts = [], []
    for i in range(shots):
        rng = _numpy_stream(seed, i)
        while True:
            beta = complex(*rng.normal(0.0, sigma, size=2))
            output = teleport_output(state, q, beta)
            cap = bound * float((c / math.pi) * np.exp(-c * abs(beta) ** 2))
            if rng.uniform() * cap <= output.norm_sq():
                break
        weights = np.abs(output.amplitudes[:, None]) ** 2
        betas.append(beta)
        counts.append(_draw_counts(lambda: weights, 0.0, rng.uniform(size=1))[0])
    return ShotRunResult(seed, betas, counts)


@settings(max_examples=30, deadline=None)
@seed(1969)
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
    state = StateVector(amplitudes).unit()
    assume(not _is_single_photon(state))
    # a shot costs about `bound` candidates (near 1000 for a dense 13-level
    # state at q = 0); cap an example's expected work at 2000 candidates
    bound = _envelope_bound(state, q)
    assume(shots * bound <= 2000.0)
    prefix = min(prefix, shots)
    config = SamplerConfig(seed, shots, q, state)
    with warnings.catch_warnings():
        # low cutoffs leave heavy tails; both sides see the same candidates
        warnings.simplefilter("ignore", TruncationWarning)
        result = run_shots(config)
        assert result == _one_shot_at_a_time(state, q, bound, seed, shots)
        shorter = run_shots(SamplerConfig(seed, prefix, q, state))
    assert shorter == ShotRunResult(seed, result.betas[:prefix], result.photon_counts[:prefix])


def test_draw_counts_paths():
    one = np.abs(number_state(1, 8).amplitudes) ** 2
    u = np.append(_numpy_stream(3, 0).uniform(size=63), 0.0)
    weights = np.tile(one, (u.size, 1))
    assert np.all(_draw_counts(lambda: weights.T, 0.0, u) == 1)
    zero_row = np.vstack([one, np.zeros(9)])
    with pytest.raises(ZeroNormError):
        _draw_counts(lambda: zero_row.T, np.ones(2), np.full(2, 0.5))
    # a tail as large as the mass inside the cutoff routes half the draws to overflow
    u = _numpy_stream(3, 1).uniform(size=2000)
    weights = np.tile(one, (u.size, 1))
    draws = _draw_counts(lambda: weights.T, np.full(u.size, 1.0), u)
    frac = np.mean(draws == OVERFLOW_COUNT)
    assert np.all(np.isin(draws, [1, OVERFLOW_COUNT]))
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 2000)


@pytest.mark.parametrize("tail", [0.0, 0.05])
def test_draw_counts_of_matrix_columns_match_cumsum(tail):
    # the generic path: sequential adds over the columns are np.cumsum, bit for bit
    rng = np.random.default_rng(11)
    weights = rng.random((500, 33)) ** 8
    weights[:, 20:] = 0.0
    u = rng.random(500)
    u[:3] = (0.0, 1.0 - 2.0**-53, 0.5)
    tails = np.full(500, tail)
    counts = _draw_counts(lambda: weights.T, tails, u)
    assert np.array_equal(counts, _cumsum_counts(weights, tails, u))


def test_generic_counts_stay_inside_a_cutoff_that_holds_all_mass(monkeypatch):
    # 33-level outputs whose pairwise row sum lies above their sequential
    # cumulative total; a last-ulp uniform must still draw a level, not overflow
    outputs = np.sqrt(np.random.default_rng(7).random((2000, 33))).astype(complex)
    weights = np.abs(outputs) ** 2
    outputs = outputs[weights.sum(axis=1) > np.cumsum(weights, axis=1)[:, -1]][:16]
    assert len(outputs) == 16

    class LastUniform:
        def random(self):
            return 1.0 - 2.0**-53

    def accept_outputs(state, q, bound, rngs):
        return np.zeros(len(rngs), dtype=complex), outputs[: len(rngs)], 0, 0.0

    monkeypatch.setattr("cvteleport.sampler._rejection_sample", accept_outputs)
    monkeypatch.setattr("cvteleport.sampler._shot_generator", lambda key: LastUniform())
    result = run_shots(SamplerConfig(0, len(outputs), 0.5, coherent_state(0.5, 32)))
    assert result.overflow == 0
    assert np.all(result.photon_counts == 32)

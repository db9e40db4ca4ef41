"""Cross-check suite: every dual route the package maintains, as runnable checks.

``run_checks("fast")`` covers closed-form identities and operator-path
equivalences; ``"full"`` adds the quadrature integrals and a seeded Monte
Carlo run. Each check reports its tolerance and the worst observed error so
failures carry numbers, not just a flag. The acceptance tests run these same
checks, so each claim of the suite is computed in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import coherent_state, displacement_matrix, number_state
from .polarization import polarization_budget, polarized_output
from .sampler import SamplerConfig, _shot_generator, _stream_keys, _stream_uniforms, run_shots
from .statistics import (
    _conditional_densities,
    _laguerre_rule,
    _photon_transfer_matrix,
    conditional_beta_density,
    loss_gain_split,
    mean_photon_change,
    photon_statistics_closed_form,
    photon_transfer_closed_form,
)
from .teleport import (
    _beta_density,
    _binomial_hankel,
    _outcome_density,
    _transfer_apply,
    end_to_end_projection,
    single_photon_output_closed_form,
    teleport_output,
    transfer_operator,
)

__all__ = ["CheckResult", "run_checks", "CHECK_LEVELS"]

CHECK_LEVELS = ("fast", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    observed: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: observed {self.observed:.3e} (tolerance {self.tolerance:.1e})"
        if self.detail:
            text += f" [{self.detail}]"
        return text


def check_path_equivalence() -> CheckResult:
    """Transfer-operator route vs literal projection route, elementwise."""
    betas = [0.0, 1.0, -1.0, 1.0j, 0.7 + 0.3j]
    qs = [0.0, 0.33, 0.5, 0.82]
    states = [number_state(n, 48) for n in range(3)] + [coherent_state(0.5, 48)]
    worst = 0.0
    for q in qs:
        for beta in betas:
            for state in states:
                via_op = teleport_output(state, q, beta).amplitudes
                via_proj = end_to_end_projection(state, q, beta).amplitudes
                worst = max(worst, float(np.max(np.abs(via_op - via_proj))))
    return CheckResult("operator vs projection route", worst < 1e-9, 1e-9, worst)


def check_closed_form_output() -> CheckResult:
    """Displaced two-term closed form vs the operator route for |1>."""
    worst = 0.0
    for q in (0.0, 0.33, 0.5, 0.82):
        for beta in (0.0, 0.5, 1.0, -1.0, 1.0j, 0.7 + 0.3j, 2.0 - 1.0j):
            direct = teleport_output(number_state(1, 48), q, beta).amplitudes
            closed = single_photon_output_closed_form(q, beta, 48).amplitudes
            worst = max(worst, float(np.max(np.abs(direct - closed))))
    return CheckResult("single-photon closed form", worst < 1e-10, 1e-10, worst)


def check_density_closed_form() -> CheckResult:
    """norm^2 of T_q(beta)|1> vs the closed-form outcome density, relative."""
    worst = 0.0
    radii = np.arange(0.0, 4.0 + 1e-12, 0.25)
    photon = number_state(1, 64).amplitudes
    for q in (0.2, 0.5, 0.8):
        numeric = np.sum(np.abs(_transfer_apply(q, radii, photon)) ** 2, axis=1)
        closed = _beta_density(q, radii)
        worst = max(worst, float(np.max(np.abs(numeric - closed) / closed)))
    return CheckResult("outcome density closed form", worst < 1e-9, 1e-9, worst)


def check_exact_outcome_density() -> CheckResult:
    """The exact density the rejection sampler accepts on, ``_outcome_density``,
    vs the |1> closed form and the coherent one, (a/pi) e^{-a|beta - alpha|^2}
    with a = 1-q^2, relative, at |beta| <= 6."""
    worst = 0.0
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 13))
    betas = np.ravel(np.linspace(0.0, 6.0, 25)[:, None] * angles)
    alpha = 0.5
    photon = _binomial_hankel(number_state(1, 8).amplitudes)
    coherent = _binomial_hankel(coherent_state(alpha, 40).amplitudes)
    for q in (0.2, 0.5, 0.9):
        a = 1.0 - q * q
        for hankel, closed in (
            (photon, _beta_density(q, betas)),
            (coherent, (a / math.pi) * np.exp(-a * np.abs(betas - alpha) ** 2)),
        ):
            exact = _outcome_density(q, betas, hankel)
            worst = max(worst, float(np.max(np.abs(exact - closed) / closed)))
    return CheckResult("exact outcome density closed forms", worst < 1e-12, 1e-12, worst)


def check_hermiticity() -> CheckResult:
    worst = 0.0
    for q in (0.0, 0.33, 0.5, 0.82):
        for beta in (0.0, 1.0, -1.0, 1.0j, 0.7 + 0.3j, -2.0 + 0.5j):
            mat = transfer_operator(q, beta, 48)
            worst = max(worst, float(np.max(np.abs(mat - mat.conj().T))))
    return CheckResult("transfer operator hermitian", worst < 1e-12, 1e-12, worst)


def check_diagonal_at_zero() -> CheckResult:
    worst = 0.0
    for q in (0.0, 0.33, 0.5, 0.82):
        mat = transfer_operator(q, 0.0, 48)
        off = mat - np.diag(np.diag(mat))
        worst = max(worst, float(np.max(np.abs(off))))
    return CheckResult("transfer operator diagonal at beta=0", worst == 0.0, 0.0, worst)


def check_displacement_unitary() -> CheckResult:
    worst = 0.0
    # Rows far below the cutoff: displaced basis states must fit under it.
    block = 20
    eye = np.eye(block)
    for alpha in (0.5, 1.0, 2.0, 1.0 + 1.0j, -0.3 + 1.2j):
        mat = displacement_matrix(alpha, 64)
        prod = (mat @ mat.conj().T)[:block, :block]
        worst = max(worst, float(np.max(np.abs(prod - eye))))
    return CheckResult("displacement unitary on leading block", worst < 1e-8, 1e-8, worst)


def check_loss_gain_identities() -> CheckResult:
    worst = 0.0
    for q in np.arange(0.0, 0.995, 0.01):
        split = loss_gain_split(float(q))
        worst = max(worst, abs(split.p_loss + split.p_success + split.p_gain - 1.0))
        worst = max(worst, abs(split.p_loss - photon_statistics_closed_form(float(q), 0)))
        worst = max(worst, abs(split.p_success - photon_statistics_closed_form(float(q), 1)))
    exact_at_half = (0.1875, 0.46875, 0.34375)
    triple = max(abs(p - e) for p, e in zip(loss_gain_split(0.5), exact_at_half))
    return CheckResult(
        "loss/success/gain closed-form identities",
        worst < 1e-15 and triple < 1e-12,
        1e-15,
        worst,
        f"q=1/2 triple error {triple:.3e} (tolerance 1e-12)",
    )


def check_polarization_identities() -> CheckResult:
    worst = 0.0
    for q in np.arange(0.0, 0.995, 0.01):
        qf = float(q)
        budget = polarization_budget(qf)
        p0 = photon_statistics_closed_form(qf, 0)
        p1 = photon_statistics_closed_form(qf, 1)
        s = 0.5 * (1.0 + qf)
        worst = max(worst, abs(budget.p_trans - p1 * s))
        worst = max(worst, abs(budget.p_flip - p0 * p0))
        worst = max(worst, abs(budget.p_zero - p0 * s))
        worst = max(worst, abs(sum(budget) - 1.0))
    thresholds = polarization_budget(0.7).p_trans > 0.5 and polarization_budget(0.8).p_trans > 0.66
    return CheckResult(
        "polarization factorization identities",
        worst < 1e-15 and thresholds,
        1e-15,
        worst,
        f"p_trans > 0.5 at q=0.7 and > 0.66 at q=0.8 {'ok' if thresholds else 'WRONG'}",
    )


def check_two_mode_factorization() -> CheckResult:
    """Norm of the literal two-mode |1>_H |0>_V output vs its channel norms' product, relative."""
    worst = 0.0
    pairs = ((0j, 0j), (1.0, -1.0j), (0.7 + 0.3j, -0.4 + 1.1j), (-2.0 + 0.5j, 0.3))
    for q in (0.0, 0.33, 0.5, 0.82):
        for beta_h, beta_v in pairs:
            out = polarized_output(q, beta_h, beta_v, 32)
            joint = float(np.vdot(out, out).real)
            ph = teleport_output(number_state(1, 32), q, beta_h).norm_sq()
            pv = teleport_output(number_state(0, 32), q, beta_v).norm_sq()
            worst = max(worst, abs(joint - ph * pv) / max(ph * pv, 1e-30))
    return CheckResult("two-mode output factorizes", worst < 1e-12, 1e-12, worst)


def check_ordering_invariants() -> CheckResult:
    ok = True
    detail = ""
    for q in np.arange(0.0, 0.995, 0.01):
        split = loss_gain_split(float(q))
        budget = polarization_budget(float(q))
        if split.p_gain < split.p_loss:
            ok, detail = False, f"p_gain < p_loss at q={q:.2f}"
            break
        others = (budget.p_trans, budget.p_zero, budget.p_multi)
        if not all(budget.p_flip < v for v in others):
            ok, detail = False, f"p_flip not smallest at q={q:.2f}"
            break
    return CheckResult("gain/loss and flip ordering", ok, 0.0, 0.0 if ok else 1.0, detail)


def check_photon_transfer_quadrature() -> CheckResult:
    """The whole quadrature photon-transfer matrix vs its closed form, at cutoff 64.

    Column 1 is the photon statistics of |1>, M[0, 0] the vacuum success
    (1+q)/2 and the polarization budget products of M[:2, :2]. The worst
    miss, 4.0e-7 at q = 0.82, is the displacement-form kernel's.
    """
    misses = {}
    for q in (0.2, 0.33, 0.5, 0.8, 0.82):
        miss = _photon_transfer_matrix(q, 64) - photon_transfer_closed_form(q, 64)
        misses[q] = float(np.max(np.abs(miss)))
    q_worst = max(misses, key=misses.get)
    worst = misses[q_worst]
    return CheckResult(
        "photon-transfer quadrature vs closed form",
        worst < 1e-6,
        1e-6,
        worst,
        f"worst at q={q_worst:g}",
    )


def check_mean_photon_change() -> CheckResult:
    """Closed-form E[n|beta] - 1 vs the photon-number mean of T_q(beta)|1>.

    The operator route is sum n |<n|T_q(beta)|1>|^2 over sum |<n|T_q(beta)|1>|^2
    from ``teleport_output`` at cutoff 64, for five complex beta up to
    |beta| = 2.97 at each q. The worst miss seen is 1.8e-15 (q = 0,
    beta = -2.1-2.1j, where the mean change is 7.82); the tolerance of
    1e-12 clears it more than 500 times over.
    """
    levels = np.arange(65)
    worst = 0.0
    for q in (0.0, 0.3, 0.5, 0.7, 0.9):
        for beta in (0.3 + 0.1j, -0.8 + 0.6j, 1.5j, 2.0 - 1.0j, -2.1 - 2.1j):
            weights = np.abs(teleport_output(number_state(1, 64), q, beta).amplitudes) ** 2
            change = float(levels @ weights / weights.sum()) - 1.0
            worst = max(worst, abs(change - mean_photon_change(q, beta)))
    return CheckResult("mean photon change vs operator route", worst < 1e-12, 1e-12, worst)


def check_conditional_integrals() -> CheckResult:
    """Plane integrals of the loss and transfer densities vs the closed-form split.

    Each density is a polynomial of degree <= 2 in |beta|^2 times
    e^{-2(1-q)|beta|^2}. With x = 2(1-q)|beta|^2 its plane integral is
    pi/(2(1-q)) times the integral of e^x p(x) against e^{-x} over x >= 0,
    which the two-node rule ``statistics._laguerre_rule(2)`` gives exactly,
    from one ``_conditional_densities`` call per q.
    """
    worst = 0.0
    nodes, weights = _laguerre_rule(2)
    for q in (0.2, 0.5, 0.8):
        scale = 2.0 * (1.0 - q)
        _, p0, p1, _ = _conditional_densities(q, np.sqrt(nodes / scale))
        i0, i1 = (math.pi / scale * float(weights @ p) for p in (p0, p1))
        split = loss_gain_split(q)
        worst = max(worst, abs(i0 - split.p_loss), abs(i1 - split.p_success))
    # at beta = 0 only the single-photon term survives
    origin_ok = all(
        p0 == 0.0 and p1 > 0.0 and p_ge2 == 0.0
        for p0, p1, p_ge2 in (conditional_beta_density(q, 0j) for q in (0.2, 0.5, 0.8))
    )
    return CheckResult(
        "conditional density integrals",
        worst < 1e-12 and origin_ok,
        1e-12,
        worst,
        f"origin split {'ok' if origin_ok else 'WRONG'}",
    )


def check_monte_carlo() -> CheckResult:
    shots, q = 100_000, 0.5
    config = SamplerConfig(master_seed=20260815, shots=shots, q=q)
    result = run_shots(config)
    worst_sigmas = 0.0
    for name, expected in zip(("loss", "success", "gain"), loss_gain_split(q)):
        observed = result.counts[name] / shots
        sigma = math.sqrt(expected * (1.0 - expected) / shots)
        worst_sigmas = max(worst_sigmas, abs(observed - expected) / sigma)
    identical = run_shots(config) == result
    return CheckResult(
        "Monte Carlo frequencies and determinism",
        worst_sigmas < 3.0 and identical,
        3.0,
        worst_sigmas,
        "repeat run identical" if identical else "REPEAT RUN DIFFERS",
    )


def check_stream_derivation() -> CheckResult:
    """Bulk per-shot keys, uniforms and generic-path generators vs the
    installed numpy's own generators."""
    mismatched = 0
    for seed in (0, 2**64 + 1):
        keys = _stream_keys(seed, np.arange(256))
        uniforms = _stream_uniforms(seed, 0, 256)
        for i in range(256):
            seq = np.random.SeedSequence(seed, spawn_key=(i,))
            own = np.random.Generator(np.random.Philox(seq)).uniform(size=3)
            same_key = np.array_equal(keys[i], seq.generate_state(2, np.uint64))
            keyed = _shot_generator(keys[i]).uniform(size=3)
            mismatched += not (
                same_key and np.array_equal(uniforms[i], own) and np.array_equal(keyed, own)
            )
    return CheckResult(
        "per-shot streams vs numpy Philox",
        mismatched == 0,
        0.0,
        float(mismatched),
        "mismatched shots of 256 at seeds 0 and 2**64+1",
    )


_FAST_CHECKS = [
    check_path_equivalence,
    check_closed_form_output,
    check_hermiticity,
    check_diagonal_at_zero,
    check_displacement_unitary,
    check_loss_gain_identities,
    check_polarization_identities,
    check_two_mode_factorization,
    check_ordering_invariants,
    check_stream_derivation,
]

_FULL_CHECKS = _FAST_CHECKS + [
    check_density_closed_form,
    check_exact_outcome_density,
    check_photon_transfer_quadrature,
    check_mean_photon_change,
    check_conditional_integrals,
    check_monte_carlo,
]


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in CHECK_LEVELS:
        raise ValueError(f"level must be one of {CHECK_LEVELS}, got {level!r}")
    checks = _FAST_CHECKS if level == "fast" else _FULL_CHECKS
    return [check() for check in checks]

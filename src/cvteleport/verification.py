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
from .polarization import (
    polarization_budget,
    polarization_budget_numerical,
    polarized_output,
)
from .sampler import SamplerConfig, _stream_keys, _stream_uniforms, run_shots
from .statistics import (
    _polar_grid,
    conditional_beta_density,
    loss_gain_split,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
)
from .teleport import (
    end_to_end_projection,
    single_photon_beta_density,
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
    for q in (0.2, 0.5, 0.8):
        for r in radii:
            numeric = teleport_output(number_state(1, 64), q, complex(r)).norm_sq()
            closed = single_photon_beta_density(q, complex(r))
            worst = max(worst, abs(numeric - closed) / closed)
    return CheckResult("outcome density closed form", worst < 1e-9, 1e-9, worst)


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
    triple = max(abs(p - e) for p, e in zip(loss_gain_split(0.5).as_tuple(), exact_at_half))
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
        worst = max(worst, abs(budget.total() - 1.0))
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


def check_photon_stats_quadrature() -> CheckResult:
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        dist = photon_statistics_quadrature(number_state(1, 64), q)
        for n in range(7):
            closed = photon_statistics_closed_form(q, n)
            worst = max(worst, abs(float(dist.probabilities[n]) - closed))
    return CheckResult("photon statistics quadrature vs closed form", worst < 1e-6, 1e-6, worst)


def check_conditional_integrals() -> CheckResult:
    """Plane integrals of the loss and transfer densities vs the closed-form split.

    Both densities depend on |beta| alone, so the angle contributes 2 pi.
    """
    worst = 0.0
    for q in (0.2, 0.5, 0.8):
        radii, weights = _polar_grid(q)
        i0, i1 = (
            2.0 * math.pi
            * sum(w * conditional_beta_density(c, q, r) for r, w in zip(radii, weights))
            for c in (0, 1)
        )
        split = loss_gain_split(q)
        worst = max(worst, abs(i0 - split.p_loss), abs(i1 - split.p_success))
    # at beta = 0 only the single-photon term survives
    origin_ok = all(
        conditional_beta_density(0, q, 0j) == 0.0
        and conditional_beta_density("ge2", q, 0j) == 0.0
        and conditional_beta_density(1, q, 0j) > 0.0
        for q in (0.2, 0.5, 0.8)
    )
    return CheckResult(
        "conditional density integrals",
        worst < 1e-6 and origin_ok,
        1e-6,
        worst,
        f"origin split {'ok' if origin_ok else 'WRONG'}",
    )


def check_polarization_quadrature() -> CheckResult:
    worst = 0.0
    for q in (0.33, 0.5, 0.82):
        closed = polarization_budget(q).as_tuple()
        numeric = polarization_budget_numerical(q, 48).as_tuple()
        worst = max(worst, max(abs(c - n) for c, n in zip(closed, numeric)))
    return CheckResult("polarization budget quadrature", worst < 1e-6, 1e-6, worst)


def check_vacuum_success() -> CheckResult:
    worst = 0.0
    for q in (0.2, 0.33, 0.5, 0.8, 0.82):
        dist = photon_statistics_quadrature(number_state(0, 48), q)
        worst = max(worst, abs(float(dist.probabilities[0]) - 0.5 * (1.0 + q)))
    return CheckResult("vacuum success probability (1+q)/2", worst < 1e-6, 1e-6, worst)


def check_monte_carlo() -> CheckResult:
    shots, q = 100_000, 0.5
    config = SamplerConfig(master_seed=20260815, shots=shots, q=q, cutoff=32)
    result = run_shots(config)
    split = loss_gain_split(q)
    worst_sigmas = 0.0
    for name, expected in zip(("loss", "success", "gain"), split.as_tuple()):
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
    """Bulk per-shot keys and uniforms vs the installed numpy's own generators."""
    mismatched = 0
    for seed in (0, 2**64 + 1):
        keys = _stream_keys(seed, np.arange(256))
        uniforms = _stream_uniforms(seed, 0, 256)
        for i in range(256):
            seq = np.random.SeedSequence(seed, spawn_key=(i,))
            own = np.random.Generator(np.random.Philox(seq)).uniform(size=3)
            same_key = np.array_equal(keys[i], seq.generate_state(2, np.uint64))
            mismatched += not (same_key and np.array_equal(uniforms[i], own))
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
    check_photon_stats_quadrature,
    check_conditional_integrals,
    check_polarization_quadrature,
    check_vacuum_success,
    check_monte_carlo,
]


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in CHECK_LEVELS:
        raise ValueError(f"level must be one of {CHECK_LEVELS}, got {level!r}")
    checks = _FAST_CHECKS if level == "fast" else _FULL_CHECKS
    return [check() for check in checks]

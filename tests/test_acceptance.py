"""Acceptance gate: eight pinned criteria, each judged by the checks of ``cvteleport verify``.

Each test runs its checks from ``cvteleport.verification``, records one line
per check through the shared report fixture (echoed in the terminal summary)
and asserts that every check passed. Criteria 1 and 7 also hold a wall-time
limit, reported as one more line. Together the criteria run every check of
``verify --level full`` exactly once.

The quadrature of criteria 3, 5 and 6 is one photon-transfer matrix M: column 1
is the photon statistics of |1>, M[0, 0] the vacuum success probability and the
polarization budget products of M[:2, :2]. One check compares the whole of M
with its closed form, and criterion 6 runs it; criteria 3 and 5 run their
closed-form, mean-change and two-mode checks.
"""

import time

from cvteleport import verification
from cvteleport.verification import (
    CheckResult,
    check_closed_form_output,
    check_coherent_transfer_operator,
    check_conditional_integrals,
    check_density_closed_form,
    check_diagonal_at_zero,
    check_displacement_unitary,
    check_exact_outcome_density,
    check_hermiticity,
    check_loss_gain_identities,
    check_mean_photon_change,
    check_monte_carlo,
    check_ordering_invariants,
    check_path_equivalence,
    check_photon_transfer_quadrature,
    check_polarization_identities,
    check_stream_derivation,
    check_two_mode_factorization,
)

# criterion -> the checks that judge it
CRITERIA = {
    1: (check_path_equivalence,),
    2: (
        check_density_closed_form,
        check_exact_outcome_density,
        check_closed_form_output,
        check_coherent_transfer_operator,
    ),
    3: (check_loss_gain_identities, check_mean_photon_change),
    4: (check_conditional_integrals,),
    5: (check_polarization_identities, check_two_mode_factorization),
    6: (check_photon_transfer_quadrature,),
    7: (check_stream_derivation, check_monte_carlo),
    8: (
        check_hermiticity,
        check_diagonal_at_zero,
        check_displacement_unitary,
        check_ordering_invariants,
    ),
}


def _run(criterion: int) -> list[CheckResult]:
    return [check() for check in CRITERIA[criterion]]


def _wall_time(start: float, limit_s: float) -> CheckResult:
    elapsed = time.perf_counter() - start
    return CheckResult("wall time in seconds", elapsed < limit_s, limit_s, elapsed)


def test_criterion_1_route_equivalence(criterion_report):
    start = time.perf_counter()
    results = _run(1)
    assert criterion_report(1, *results, _wall_time(start, 10.0))


def test_criterion_2_closed_form_density(criterion_report):
    assert criterion_report(2, *_run(2))


def test_criterion_3_photon_statistics(criterion_report):
    assert criterion_report(3, *_run(3))


def test_criterion_4_conditional_densities(criterion_report):
    assert criterion_report(4, *_run(4))


def test_criterion_5_polarization_budget(criterion_report):
    assert criterion_report(5, *_run(5))


def test_criterion_6_vacuum_fidelity(criterion_report):
    assert criterion_report(6, *_run(6))


def test_criterion_7_monte_carlo(criterion_report):
    start = time.perf_counter()
    results = _run(7)
    assert criterion_report(7, *results, _wall_time(start, 30.0))


def test_criterion_8_structural_invariants(criterion_report):
    assert criterion_report(8, *_run(8))


def test_criteria_run_every_verify_check_once():
    run = [check.__name__ for checks in CRITERIA.values() for check in checks]
    assert sorted(run) == sorted(check.__name__ for check in verification._FULL_CHECKS)

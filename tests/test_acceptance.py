"""Acceptance gate: eight pinned criteria, each judged by the checks of ``cvteleport verify``.

Each test runs its checks from ``cvteleport.verification``, records one line
per check through the shared report fixture (echoed in the terminal summary)
and asserts that every check passed. Criteria 1 and 7 also hold a wall-time
limit, reported as one more line.
"""

import time

from cvteleport.verification import (
    CheckResult,
    check_conditional_integrals,
    check_density_closed_form,
    check_diagonal_at_zero,
    check_hermiticity,
    check_loss_gain_identities,
    check_monte_carlo,
    check_ordering_invariants,
    check_path_equivalence,
    check_photon_stats_quadrature,
    check_polarization_identities,
    check_polarization_quadrature,
    check_stream_derivation,
    check_two_mode_factorization,
    check_vacuum_success,
)


def _wall_time(start: float, limit_s: float) -> CheckResult:
    elapsed = time.perf_counter() - start
    return CheckResult("wall time in seconds", elapsed < limit_s, limit_s, elapsed)


def test_criterion_1_route_equivalence(criterion_report):
    start = time.perf_counter()
    result = check_path_equivalence()
    assert criterion_report(1, result, _wall_time(start, 10.0))


def test_criterion_2_closed_form_density(criterion_report):
    assert criterion_report(2, check_density_closed_form())


def test_criterion_3_photon_statistics(criterion_report):
    assert criterion_report(3, check_photon_stats_quadrature(), check_loss_gain_identities())


def test_criterion_4_conditional_densities(criterion_report):
    assert criterion_report(4, check_conditional_integrals())


def test_criterion_5_polarization_budget(criterion_report):
    assert criterion_report(
        5,
        check_polarization_quadrature(),
        check_polarization_identities(),
        check_two_mode_factorization(),
    )


def test_criterion_6_vacuum_fidelity(criterion_report):
    assert criterion_report(6, check_vacuum_success())


def test_criterion_7_monte_carlo(criterion_report):
    start = time.perf_counter()
    results = (check_stream_derivation(), check_monte_carlo())
    assert criterion_report(7, *results, _wall_time(start, 30.0))


def test_criterion_8_structural_invariants(criterion_report):
    assert criterion_report(
        8, check_hermiticity(), check_diagonal_at_zero(), check_ordering_invariants()
    )

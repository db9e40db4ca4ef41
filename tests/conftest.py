"""Shared pytest plumbing for the acceptance report.

Acceptance tests record one line per check; the lines are echoed in a
terminal section after the run so every pass/fail verdict is visible even
under output capture.
"""

import pytest

_CRITERION_LINES: list[tuple[int, str]] = []


def _record(index: int, *results) -> bool:
    """Record each ``CheckResult`` of criterion ``index``; True when all passed."""
    for result in results:
        line = f"[criterion {index}] {result.line()}"
        _CRITERION_LINES.append((index, line))
        print(line)
    return all(result.passed for result in results)


@pytest.fixture(scope="session")
def criterion_report():
    return _record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES, key=lambda item: item[0]):
        terminalreporter.write_line(line)

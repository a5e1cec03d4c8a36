from fractions import Fraction

import pytest

from creditnet.model import (
    BACKWARD,
    FORWARD,
    Path,
    PathSet,
    build_routing_system,
    make_network,
    make_state,
)


def line_instance():
    """Three nodes in a line, two channels of capacity 20, four flows.

    Paths: 0->2 and 2->0 across both channels, plus 1->2 and 1->0 single
    hops. This is the running example used throughout the test suite.
    """
    net = make_network(3, [(0, 1), (1, 2)], [20, 20])
    paths = PathSet.of(
        (
            Path(0, 2, ((0, FORWARD), (1, FORWARD))),
            Path(2, 0, ((1, BACKWARD), (0, BACKWARD))),
            Path(1, 2, ((1, FORWARD),)),
            Path(1, 0, ((0, BACKWARD),)),
        )
    )
    routing = build_routing_system(net, paths)
    return net, paths, routing


@pytest.fixture
def line():
    return line_instance()


@pytest.fixture
def line_state():
    net, paths, routing = line_instance()
    return net, paths, routing, make_state(net, [15, 5])


def frac(a, b=1):
    return Fraction(a, b)


# --- acceptance reporting -------------------------------------------------
# The acceptance tests live in test_acceptance.py and are named
# test_criterion_<n>_<slug>.  Each records a one-line detail string via the
# criterion_report fixture; the terminal summary prints one PASS/FAIL line
# per criterion so the verdicts survive pytest's output capture.

_acceptance_details: dict[int, str] = {}
_acceptance_outcomes: dict[int, str] = {}

_CRITERION_PREFIX = "test_criterion_"


@pytest.fixture
def criterion_report():
    def record(number: int, detail: str) -> None:
        _acceptance_details[number] = detail
    return record


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith(_CRITERION_PREFIX):
        return
    number = int(name[len(_CRITERION_PREFIX):].split("_", 1)[0])
    _acceptance_outcomes[number] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    words = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_outcomes):
        word = words.get(_acceptance_outcomes[number],
                         _acceptance_outcomes[number].upper())
        detail = _acceptance_details.get(number, "")
        line = f"criterion {number}: {word}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)

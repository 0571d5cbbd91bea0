import numpy as np
import pytest

from twistorcheck import fibermap, jets, kahler, twistor

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS.items()):
        label = name.replace("test_criterion_", "criterion ").replace("_", " ")
        terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {label}")


@pytest.fixture(scope="session")
def flat():
    return kahler.get_fixture("flat")


@pytest.fixture(scope="session")
def fubini_study():
    return kahler.get_fixture("fubini_study")


@pytest.fixture(scope="session")
def eguchi_hanson():
    return kahler.get_fixture("eguchi_hanson", a=1.0)


@pytest.fixture(scope="session")
def burns():
    return kahler.get_fixture("burns", m=1.0)


@pytest.fixture(scope="session")
def all_fixtures(flat, fubini_study, eguchi_hanson, burns):
    return {"flat": flat, "fubini_study": fubini_study,
            "eguchi_hanson": eguchi_hanson, "burns": burns}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def jets_at_calls(monkeypatch):
    """Orders of the potential-metric evaluations (jets_at calls) a test makes."""
    calls = []
    orig = kahler.KahlerPotentialMetric.jets_at

    def counted(self, x, order):
        calls.append(order)
        return orig(self, x, order)

    monkeypatch.setattr(kahler.KahlerPotentialMetric, "jets_at", counted)
    return calls


@pytest.fixture()
def chart_evals(monkeypatch):
    """Batch sizes of the ChartEvals (twistor-chart evaluations) a test builds."""
    calls = []
    orig = twistor.ChartEval.__init__

    def counted(self, chart, points, base=None):
        calls.append(len(np.atleast_2d(points)))
        orig(self, chart, points, base)

    monkeypatch.setattr(twistor.ChartEval, "__init__", counted)
    return calls


@pytest.fixture()
def multiply_calls(monkeypatch):
    """Broadcast tensor-and-batch shapes of the JetSpace.multiply calls (jet
    products) a test makes, one entry per call."""
    calls = []
    orig = jets.JetSpace.multiply

    def counted(self, a, b):
        calls.append(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
        return orig(self, a, b)

    monkeypatch.setattr(jets.JetSpace, "multiply", counted)
    return calls


@pytest.fixture()
def quad_calls(monkeypatch):
    """Numbers of upper limits of the fibermap.quad calls (fiber-map
    quadratures) a test makes, one entry per call."""
    calls = []
    orig = fibermap.quad

    def counted(f, a, b):
        calls.append(np.size(b))
        return orig(f, a, b)

    monkeypatch.setattr(fibermap, "quad", counted)
    return calls

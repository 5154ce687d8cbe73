import pytest

from _synth import write_wav

_acceptance_results = []
_ACCEPTANCE_PREFIX = "test_criterion_"


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith(_ACCEPTANCE_PREFIX):
        _acceptance_results.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    def key(item):
        rest = item[0][len(_ACCEPTANCE_PREFIX):]
        return int(rest.split("_", 1)[0])
    for name, outcome in sorted(_acceptance_results, key=key):
        rest = name[len(_ACCEPTANCE_PREFIX):]
        number, _, label = rest.partition("_")
        status = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"ACCEPTANCE {number} ({label.replace('_', ' ')}): {status}")


@pytest.fixture
def wav_writer(tmp_path):
    def _write(name, data, rate, sampwidth="float32"):
        return write_wav(tmp_path / name, data, rate, sampwidth)

    return _write

import sys

# Imported before any test module imports numpy, so that the package sets
# BLAS to one thread for the session, as it does for every CLI process
# (codedunlearn/__init__).
import codedunlearn  # noqa: F401


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance lines after the run, outside
    pytest's output capture, so they appear without -s."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    if mod is None or not getattr(mod, "ACCEPTANCE_LINES", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

import warnings

# On a failing example hypothesis imports hypothesis.extra._patching, whose
# libcst import emits a DeprecationWarning; filterwarnings = ["error"] would
# turn it into an INTERNALERROR that hides the failure and ends the session.
# Importing it here, with that warning ignored, keeps failures reportable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance verdict lines, one per criterion."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if not REPORT_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(REPORT_LINES, key=lambda s: int(s.split()[1].rstrip(":"))):
        terminalreporter.write_line(line)

"""Session hooks: name the active kernel backend in the report header."""

from pellucas import kernels


def pytest_report_header(config):
    return f"pellucas kernels: {kernels.BACKEND}"

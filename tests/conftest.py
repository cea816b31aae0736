"""Repo-wide pytest hooks."""


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="regenerate the golden files (trace digests under "
             "tests/trace/golden/, campaign outputs under "
             "tests/experiments/golden/) instead of checking against them")

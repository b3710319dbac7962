"""Shared fixtures for the benchmark suite (pytest-benchmark).

Every benchmark module regenerates one table or figure of the paper (see the
experiment index in DESIGN.md); the `benchmark` fixture times the workload
while the assertions check that the qualitative shape the paper reports
still holds.
"""

import numpy as np
import pytest

from repro.gf.prime_field import PrimeField


def pytest_addoption(parser):
    parser.addoption(
        "--chaos",
        action="store_true",
        default=False,
        help=(
            "Enable the chaos benchmarks (bench_fig_chaos: deterministic "
            "fault schedules over the service — crash/recover with resync, "
            "beyond-radius corrupt bursts retried by RetryPolicy, and the "
            "fault-free overhead ratio pinned at 1.0)."
        ),
    )

    parser.addoption(
        "--delegation",
        action="store_true",
        default=False,
        help=(
            "Enable the delegated-verification round benchmarks "
            "(scaling.delegation_rows and DelegationRoundProtocol rounds, "
            "honest and with every worker cheating)."
        ),
    )

    parser.addoption(
        "--intermix",
        action="store_true",
        default=False,
        help=(
            "Enable the INTERMIX engine benchmarks "
            "(one stacked IntermixProtocol.run_batch of 64 verifications "
            "at K=256 per worker strategy, and with --json the "
            "BENCH_intermix.json artifact)."
        ),
    )

    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "Write the selected module's BENCH_*.json artifact (config, "
            "per-mode rates and its gate block) to PATH, so the perf "
            "trajectory is tracked across PRs.  Enables the module's "
            "test_*_json_artifact."
        ),
    )


@pytest.fixture(scope="session")
def chaos_mode(request) -> bool:
    """Whether ``--chaos`` was passed on the command line."""
    return bool(request.config.getoption("--chaos"))


@pytest.fixture(scope="session")
def delegation_mode(request) -> bool:
    """Whether ``--delegation`` was passed on the command line."""
    return bool(request.config.getoption("--delegation"))


@pytest.fixture(scope="session")
def intermix_mode(request) -> bool:
    """Whether ``--intermix`` was passed on the command line."""
    return bool(request.config.getoption("--intermix"))


@pytest.fixture(scope="session")
def json_artifact_path(request) -> "str | None":
    """The ``--json`` artifact path, or None when not requested."""
    return request.config.getoption("--json")


@pytest.fixture(scope="session")
def field():
    return PrimeField()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)

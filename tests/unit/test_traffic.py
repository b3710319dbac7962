"""Unit tests for the open-loop traffic generator and latency accounting.

Covers nearest-rank :func:`~repro.service.traffic.latency_percentiles`,
determinism of the :class:`~repro.service.traffic.PoissonProcess` and
:class:`~repro.service.traffic.BurstyProcess` arrival models, and the
:class:`~repro.service.traffic.OpenLoopDriver` — seed reproducibility,
ticket bookkeeping, logical-tick latency stamping and the report invariants
the benchmarks rely on — and the QoS policy under a saturating load
(weighted-fair slot shares, bounded backlog, both throttle causes).
"""

import numpy as np
import pytest

from repro.analysis.metrics import csm_supported_machines
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior
from repro.rng import default_stream
from repro.service import (
    BurstyProcess,
    CSMService,
    OpenLoopDriver,
    PoissonProcess,
    QosPolicy,
    ThrottleReason,
    TicketState,
    latency_percentiles,
)


def _service(field, seed=7, **kwargs):
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field=field,
        num_nodes=6,
        num_machines=3,
        degree=machine.degree,
        num_faults=0,
    )
    protocol = CSMProtocol(config, machine, rng=np.random.default_rng(seed))
    return CSMService(protocol, **kwargs)


class TestLatencyPercentiles:
    def test_nearest_rank_on_known_sample(self):
        out = latency_percentiles(range(1, 11))
        assert out == {"p50": 5.0, "p90": 9.0, "p99": 10.0}

    def test_single_sample_is_every_percentile(self):
        assert latency_percentiles([7]) == {"p50": 7.0, "p90": 7.0, "p99": 7.0}

    def test_empty_sample_reports_none_not_zero(self):
        assert latency_percentiles([]) == {"p50": None, "p90": None, "p99": None}

    def test_reported_values_actually_occurred(self):
        sample = [3, 1, 4, 1, 5, 9, 2, 6]
        out = latency_percentiles(sample, percentiles=(25, 50, 75, 100))
        assert all(v in [float(s) for s in sample] for v in out.values())

    @pytest.mark.parametrize("bad", [0, -5, 101])
    def test_out_of_range_percentile_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            latency_percentiles([1, 2, 3], percentiles=(bad,))


class TestArrivalProcesses:
    def test_poisson_rejects_nonpositive_rate(self):
        for rate in (0, -1.5):
            with pytest.raises(ConfigurationError):
                PoissonProcess(rate)

    def test_poisson_same_stream_same_arrivals(self):
        a = [PoissonProcess(2.0).sample(default_stream(3), 8) for _ in range(2)]
        np.testing.assert_array_equal(a[0], a[1])
        assert a[0].shape == (8,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_rate": 0},
            {"on_rate": 2.0, "off_rate": -0.1},
            {"on_rate": 2.0, "p_on_off": 0},
            {"on_rate": 2.0, "p_off_on": 1.5},
        ],
    )
    def test_bursty_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            BurstyProcess(**kwargs)

    def test_bursty_off_start_is_silent_until_a_flip(self):
        # All sessions start off with off_rate 0; p_off_on=1 guarantees the
        # flip, so tick 1 is silent and tick 2 bursts.
        process = BurstyProcess(on_rate=5.0, p_off_on=1.0, p_on_off=0.01)
        rng = default_stream(0)
        first = process.sample(rng, 6)
        second = process.sample(rng, 6)
        np.testing.assert_array_equal(first, np.zeros(6, dtype=first.dtype))
        assert second.sum() > 0

    def test_bursty_session_count_is_pinned(self):
        process = BurstyProcess(on_rate=1.0)
        process.sample(default_stream(0), 4)
        with pytest.raises(ConfigurationError):
            process.sample(default_stream(0), 5)

    def test_bursty_same_stream_same_trace(self):
        traces = []
        for _ in range(2):
            process = BurstyProcess(on_rate=3.0, p_off_on=0.5)
            rng = default_stream(11)
            traces.append([process.sample(rng, 5).tolist() for _ in range(6)])
        assert traces[0] == traces[1]


class TestOpenLoopDriver:
    def test_constructor_validation(self, big_field):
        service = _service(big_field)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(service, PoissonProcess(1.0), num_sessions=0)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(service, "not-a-process", num_sessions=2)
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(
                service, PoissonProcess(1.0), num_sessions=2, command_low=5,
                command_high=5,
            )
        with pytest.raises(ConfigurationError):
            OpenLoopDriver(service, PoissonProcess(1.0), num_sessions=2).run(0)

    def test_sessions_spread_round_robin_over_machines(self, big_field):
        service = _service(big_field)
        driver = OpenLoopDriver(
            service, PoissonProcess(1.0), num_sessions=5, rng=default_stream(1)
        )
        assert [s.client_id for s in driver.sessions] == [
            f"traffic:{i}" for i in range(5)
        ]
        assert driver._cursors == [0, 1, 2, 0, 1]

    def test_same_seed_reproduces_the_full_report(self, big_field):
        reports = []
        for _ in range(2):
            driver = OpenLoopDriver(
                _service(big_field),
                PoissonProcess(1.5),
                num_sessions=4,
                rng=default_stream(5),
            )
            reports.append(driver.run(ticks=6).as_dict())
        assert reports[0] == reports[1]

    def test_report_accounts_for_every_ticket(self, big_field):
        for process in (
            PoissonProcess(2.0),
            BurstyProcess(on_rate=4.0, p_on_off=0.25, p_off_on=0.5),
        ):
            driver = OpenLoopDriver(
                _service(big_field), process, num_sessions=4, rng=default_stream(2)
            )
            report = driver.run(ticks=5)
            assert report.submitted > 0
            assert report.submitted == (
                report.executed + report.failed + report.pending + report.throttled
            )
            # Drained run with no QoS: everything submitted was delivered.
            assert report.pending == 0
            assert report.throttled == 0
            assert report.executed == report.submitted
            assert sum(report.executed_by_session.values()) == report.executed
            assert report.ticks == 5

    def test_latencies_are_logical_ticks(self, big_field):
        driver = OpenLoopDriver(
            _service(big_field),
            PoissonProcess(1.0),
            num_sessions=3,
            rng=default_stream(8),
        )
        report = driver.run(ticks=4)
        for ticket in driver._tickets():
            assert ticket.submitted_tick is not None
            if ticket.commit_latency is not None:
                assert ticket.commit_latency >= 1
            if ticket.execute_latency is not None:
                assert ticket.execute_latency >= ticket.commit_latency
        p50 = report.commit_latency["p50"]
        p99 = report.commit_latency["p99"]
        assert p50 is not None and p99 is not None and 1 <= p50 <= p99

    def test_max_pending_sees_the_pre_drive_backlog(self, big_field):
        # max_batch_rounds=1 drains at most one slot per machine per tick,
        # so an offered load above K/tick must leave a visible backlog.
        driver = OpenLoopDriver(
            _service(big_field, max_batch_rounds=1),
            PoissonProcess(3.0),
            num_sessions=4,
            rng=default_stream(3),
        )
        report = driver.run(ticks=6, drain=False)
        assert report.max_pending > 3
        assert report.pending > 0


class TestQosUnderSaturation:
    def test_weighted_fairness_backpressure_and_percentiles(self, big_field):
        """N=32 under a saturating open-loop Poisson load and a live QoS policy.

        Capacity is one round (``K`` slots) per tick against ``2 * 8``
        offered commands per tick, so the per-session cap and the admission
        watermark must bound the backlog; session ``traffic:0`` carries
        stride weight 2.  Deterministic: every value below is a function of
        the seeds, so the bands only allow for seed-level variation.
        """
        machine = bank_account_machine(big_field, num_accounts=2)
        num_nodes, num_sessions = 32, 8
        num_faults = int(0.2 * num_nodes)
        num_machines = csm_supported_machines(num_nodes, 0.2, machine.degree) // 2
        config = CSMConfig(
            field=big_field,
            num_nodes=num_nodes,
            num_machines=num_machines,
            degree=machine.degree,
            num_faults=num_faults,
        )
        behaviors = {
            f"node-{num_nodes - 1 - i}": RandomGarbageBehavior() for i in range(num_faults)
        }
        protocol = CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(1))
        qos = QosPolicy(
            max_session_pending=16,
            admission_watermark=8 * num_machines,
            selection="weighted_fair",
            session_weights={"traffic:0": 2},
        )
        service = CSMService(protocol, max_batch_rounds=1, qos=qos)
        driver = OpenLoopDriver(
            service, PoissonProcess(rate=2.0), num_sessions=num_sessions, rng=default_stream(9)
        )
        report = driver.run(30, drain=False)

        # Weighted fair selection: ~2x the slots of the mean weight-1 session.
        shares = report.executed_by_session
        others = [count for name, count in shares.items() if name != "traffic:0"]
        assert min(others) > 0
        assert 1.6 <= shares["traffic:0"] / (sum(others) / len(others)) <= 2.4

        # Bounded queues: both throttle causes fire and are classified.
        assert report.max_pending <= qos.admission_watermark
        assert report.max_pending <= num_sessions * qos.max_session_pending
        assert report.throttled_session > 0 and report.throttled_admission > 0
        assert report.throttled == report.throttled_session + report.throttled_admission
        throttled = [t for t in service.tickets() if t.state is TicketState.THROTTLED]
        assert len(throttled) == report.throttled
        assert {t.throttle_reason for t in throttled} == {
            ThrottleReason.SESSION_QUEUE_FULL,
            ThrottleReason.ADMISSION_SHED,
        }

        # Latency percentiles in logical ticks.
        for percentiles in (report.commit_latency, report.execute_latency):
            assert percentiles["p50"] is not None and percentiles["p50"] >= 1
            assert percentiles["p99"] >= percentiles["p50"]

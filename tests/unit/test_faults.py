"""Unit tests for the fault-injection plane.

Covers the schedule builders and their validation, the behaviour-spec
grammar (``onset:``/``burst:``/``until:`` combinators over the legacy
names), the network fault switchboard (drops, delays, partitions applied
*after* the delay draw), and the injector: capability validation, exact
round-boundary segmentation, crash/recover with state transfer, adaptive
targets and the fault report's books.
"""

import numpy as np
import pytest

from reference.network import NetworkFaultState, collect, send
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.machine.library import bank_account_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    CrashedBehavior,
    FaultOnsetBehavior,
    SilentBehavior,
    WindowedBehavior,
    behavior_from_name,
)
from repro.net.message import Message, MessageKind
from repro.net.network import SimulatedNetwork
from repro.rng import default_stream
from repro.service import CSMService


def _csm_protocol(field, num_machines=3, num_nodes=12, seed=7):
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field=field,
        num_nodes=num_nodes,
        num_machines=num_machines,
        degree=machine.degree,
        num_faults=1,
    )
    return CSMProtocol(config, machine, None, rng=np.random.default_rng(seed))


def _submit_rounds(service, rounds, num_machines=3):
    session = service.connect("alice")
    tickets = []
    for r in range(rounds):
        for k in range(num_machines):
            tickets.append(session.submit(k, [10 + r, k]))
    return tickets


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(round_index=-1, kind="crash", target="node-0")
        with pytest.raises(ConfigurationError):
            FaultEvent(round_index=0, kind="meteor-strike")

    def test_builders_pair_onset_and_recovery_events(self):
        schedule = (
            FaultSchedule()
            .crash("node-3", at=2, until=5)
            .behavior("node-1", "corrupt", at=4, until=6)
            .drop_link("node-0", "node-2", at=1, until=3)
            .delay(0.5, at=0, until=2)
            .partition([["node-0", "node-1"], ["node-2"]], at=7, until=9)
        )
        kinds = [event.kind for event in schedule.events]
        assert kinds == [
            "delay",
            "drop-link",
            "crash",
            "undelay",
            "undrop-link",
            "behavior",
            "recover",
            "restore",
            "partition",
            "heal",
        ]
        assert schedule.max_round() == 9
        assert schedule.has_node_events() and schedule.has_network_events()

    def test_events_sorted_stably_within_a_round(self):
        schedule = (
            FaultSchedule()
            .add(FaultEvent(round_index=2, kind="crash", target="node-1"))
            .add(FaultEvent(round_index=0, kind="crash", target="node-2"))
            .add(FaultEvent(round_index=2, kind="recover", target="node-1"))
        )
        assert [(e.round_index, e.kind) for e in schedule.events] == [
            (0, "crash"),
            (2, "crash"),
            (2, "recover"),
        ]

    def test_empty_schedule(self):
        schedule = FaultSchedule.empty()
        assert schedule.is_empty()
        assert schedule.max_round() == -1
        assert schedule.describe() == []

    def test_span_and_group_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule().crash("node-0", at=3, until=3)
        with pytest.raises(ConfigurationError):
            FaultSchedule().delay(0.0, at=0, until=2)
        with pytest.raises(ConfigurationError):
            FaultSchedule().partition([["node-0", "node-1"]], at=0, until=2)

    def test_random_schedule_is_seed_deterministic_and_bounded(self):
        nodes = [f"node-{i}" for i in range(8)]
        a = FaultSchedule.random(default_stream(11), nodes, 20, max_concurrent=2)
        b = FaultSchedule.random(default_stream(11), nodes, 20, max_concurrent=2)
        assert a.describe() == b.describe()
        # every crash is paired with a recovery, so concurrency is bounded
        active: set[str] = set()
        peak = 0
        for event in a.events:
            if event.kind == "crash":
                active.add(event.target)
            elif event.kind == "recover":
                active.discard(event.target)
            peak = max(peak, len(active))
        assert peak <= 2


class TestBehaviorSpecGrammar:
    def test_legacy_names_still_work(self):
        assert isinstance(behavior_from_name("silent"), SilentBehavior)
        assert isinstance(behavior_from_name("corrupt"), CorruptResultBehavior)
        assert isinstance(behavior_from_name("crash"), CrashedBehavior)

    def test_onset_spec_matches_fault_onset_behavior(self):
        spec = behavior_from_name("onset:5:liar")
        assert isinstance(spec, WindowedBehavior)
        assert spec.start_round == 5 and spec.end_round is None
        assert isinstance(spec.inner, CorruptResultBehavior)

    def test_burst_spec_is_a_bounded_window(self):
        spec = behavior_from_name("burst:3-7:silent")
        assert isinstance(spec, WindowedBehavior)
        # burst bounds are inclusive: rounds 3..7
        assert spec.start_round == 3 and spec.end_round == 8
        assert isinstance(spec.inner, SilentBehavior)

    def test_until_spec_starts_active(self):
        spec = behavior_from_name("until:4:garbage")
        assert spec.start_round == 0 and spec.end_round == 4

    def test_windowed_behavior_activates_exactly_in_window(self, big_field):
        behavior = WindowedBehavior(SilentBehavior(), start_round=1, end_round=3)
        rng = default_stream(0)
        dropped = [
            behavior.transform_result(big_field, "n", np.array([5, 5]), rng) is None
            for _ in range(5)
        ]
        assert dropped == [False, True, True, False, False]

    def test_fault_onset_compat_subclass(self):
        behavior = FaultOnsetBehavior(CorruptResultBehavior(), onset_round=2)
        assert isinstance(behavior, WindowedBehavior)
        assert behavior.onset_round == 2
        with pytest.raises(ValueError):
            FaultOnsetBehavior(SilentBehavior(), onset_round=-1)

    def test_grammar_errors(self):
        with pytest.raises(ValueError):
            behavior_from_name("onset:5")  # missing inner spec
        with pytest.raises(ValueError):
            behavior_from_name("burst:7-3:silent")  # inverted span
        with pytest.raises(ValueError):
            behavior_from_name("sometimes-wrong")  # unknown name


class TestNetworkFaultState:
    def test_inactive_by_default(self):
        faults = NetworkFaultState()
        assert not faults.active
        assert not faults.should_drop("a", "b")

    def test_drop_rules(self):
        faults = NetworkFaultState()
        faults.dropped_nodes.add("node-1")
        faults.dropped_links.add(("node-2", "node-3"))
        assert faults.active
        assert faults.should_drop("node-1", "node-0")
        assert faults.should_drop("node-0", "node-1")
        assert faults.should_drop("node-2", "node-3")
        assert not faults.should_drop("node-3", "node-2")  # links are directed
        assert not faults.should_drop("node-1", "node-1")  # self-sends survive

    def test_partition_drops_cross_group_only(self):
        faults = NetworkFaultState()
        faults.set_partition([["node-0", "node-1"], ["node-2"]])
        assert faults.should_drop("node-0", "node-2")
        assert not faults.should_drop("node-0", "node-1")
        # endpoints outside every group (clients) stay reachable
        assert not faults.should_drop("client:0", "node-0")
        faults.clear()
        assert not faults.active

    def test_network_send_honours_drops_and_counts_them(self):
        network = SimulatedNetwork(rng=default_stream(3))
        network.register("node-0")
        network.register("node-1")
        network.faults.dropped_nodes.add("node-1")
        record = send(
            network,
            Message(
                sender="node-0",
                recipient="node-1",
                kind=MessageKind.CODED_RESULT,
                round_index=0,
                payload={"v": 1},
            ),
        )
        assert not record.delivered
        assert network.faults.dropped_messages == 1
        assert collect(network, "node-1", timeout=record.delivery_time + 1.0) == []

    def test_extra_delay_applies_after_the_rng_draw(self):
        plain = SimulatedNetwork(rng=default_stream(5))
        delayed = SimulatedNetwork(rng=default_stream(5))
        for network in (plain, delayed):
            network.register("node-0")
            network.register("node-1")
        delayed.faults.extra_delay = 2.5
        message = dict(
            kind=MessageKind.CODED_RESULT, round_index=0, payload={"v": 1}
        )
        a = send(plain, Message(sender="node-0", recipient="node-1", **message))
        b = send(delayed, Message(sender="node-0", recipient="node-1", **message))
        assert b.delivery_time == pytest.approx(a.delivery_time + 2.5)
        # the rng stream is untouched by the fault state
        assert (
            plain.rng.bit_generator.state == delayed.rng.bit_generator.state
        )


class TestFaultInjector:
    def test_node_events_need_a_behaviour_plane(self, big_field):
        from repro.intermix.rounds import DelegationRoundProtocol

        machine = bank_account_machine(big_field, num_accounts=2)
        backend = DelegationRoundProtocol(
            machine, 3, [f"node-{i}" for i in range(8)], rng=default_stream(3)
        )
        with pytest.raises(ConfigurationError):
            FaultInjector(backend, FaultSchedule().crash("node-0", at=0))
        with pytest.raises(ConfigurationError):
            FaultInjector(backend, FaultSchedule().delay(1.0, at=0, until=2))

    def test_events_fire_at_exact_round_boundaries(self, big_field):
        # Five corrupt rows exceed the decode radius (N=12, K=3 corrects 4),
        # so exactly the burst rounds [2, 4) fail and everything else
        # verifies — proving the batch was split at the event boundaries.
        protocol = _csm_protocol(big_field)
        schedule = FaultSchedule()
        for i in range(5):
            schedule.behavior(f"node-{i}", "corrupt", at=2, until=4)
        service = CSMService(protocol, faults=schedule)
        _submit_rounds(service, 6)
        service.drain()
        assert [record.correct for record in protocol.history] == [
            True,
            True,
            False,
            False,
            True,
            True,
        ]
        report = service.fault_report()
        assert report.injected_events == 10
        assert report.applied_events == 10
        assert report.pending_events == 0

    def test_crash_recover_resyncs_and_keeps_rounds_verifying(self, big_field):
        protocol = _csm_protocol(big_field)
        schedule = FaultSchedule().crash("node-2", at=1, until=3)
        service = CSMService(protocol, faults=schedule)
        _submit_rounds(service, 5)
        service.drain()
        # one crashed row is within the decode radius: every round verifies
        assert protocol.all_rounds_correct
        report = service.fault_report()
        assert report.applied_events == 2
        assert report.crashed_nodes == []  # recovered
        # after recovery the node is honest again (behaviour map cleared)
        assert protocol.node_behavior("node-2") is None

    def test_unrecovered_crash_shows_in_the_report(self, big_field):
        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol, faults=FaultSchedule().crash("node-4", at=0)
        )
        _submit_rounds(service, 2)
        service.drain()
        report = service.fault_report()
        assert report.crashed_nodes == ["node-4"]
        assert isinstance(protocol.node_behavior("node-4"), CrashedBehavior)

    def test_events_beyond_driven_rounds_stay_pending(self, big_field):
        protocol = _csm_protocol(big_field)
        service = CSMService(
            protocol, faults=FaultSchedule().crash("node-0", at=50, until=52)
        )
        _submit_rounds(service, 2)
        service.drain()
        report = service.fault_report()
        assert report.injected_events == 2
        assert report.applied_events == 0
        assert report.pending_events == 2

    def test_adaptive_primary_target_resolves(self, big_field):
        protocol = _csm_protocol(big_field)
        resolved = protocol.resolve_fault_target("@primary", 0)
        assert resolved in protocol.node_ids
        with pytest.raises(ConfigurationError):
            protocol.resolve_fault_target("@worker", 0)
        with pytest.raises(ConfigurationError):
            protocol.resolve_fault_target("node-999", 0)

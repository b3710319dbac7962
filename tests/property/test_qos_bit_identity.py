"""Property test: a disabled :class:`QosPolicy` is bit-identical to none.

The QoS subsystem threads through the hot path of the service — submit
(admission checks), scheduler (slot selection), resolution (latency
stamping) — so its *disabled* configuration must be provably inert: for any
ragged submission trace, a service built with ``qos=None``, one built with a
default-constructed ``QosPolicy()`` and one running an explicit
:class:`~repro.service.qos.FifoSelection` selector must produce bit-identical
round histories, ticket outcomes, message counts and backend rng streams.
The same holds for the sharded façade.  This is the contract that lets the
rest of the repository's bit-identity oracles survive the QoS layer.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.net.byzantine import RandomGarbageBehavior
from repro.machine.library import bank_account_machine
from repro.service import CSMService, FifoSelection, QosPolicy, ShardedCSMService

FIELD = PrimeField()

relaxed = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _protocol(num_nodes, num_faults, seed):
    machine = bank_account_machine(FIELD, num_accounts=2)
    for k in range(min(3, num_nodes), 0, -1):
        try:
            config = CSMConfig(
                FIELD,
                num_nodes=num_nodes,
                num_machines=k,
                degree=machine.degree,
                num_faults=num_faults,
            )
        except ConfigurationError:
            continue
        behaviors = {
            f"node-{num_nodes - 1 - i}": RandomGarbageBehavior()
            for i in range(num_faults)
        }
        return CSMProtocol(
            config, machine, behaviors, rng=np.random.default_rng(seed)
        ), machine
    return None, machine


def _drive_trace(service, trace, machine):
    """Replay one ragged submission trace; returns the tickets in order."""
    sessions = {}
    tickets = []
    for tick in trace:
        for client, machine_index, seed in tick:
            session = sessions.setdefault(client, service.connect(client))
            command_rng = np.random.default_rng(seed)
            tickets.append(
                session.submit(
                    machine_index,
                    command_rng.integers(1, 1000, size=machine.command_dim),
                )
            )
        service.drive()
    service.drain()
    return tickets


def _ticket_view(ticket):
    return (
        ticket.sequence,
        ticket.client_id,
        ticket.machine_index,
        ticket.command,
        ticket.state,
        ticket.round_index,
        None if ticket.output is None else tuple(int(v) for v in ticket.output),
        ticket.error,
        ticket.failure_reason,
        ticket.throttle_reason,
        ticket.submitted_tick,
        ticket.committed_tick,
        ticket.resolved_tick,
    )


def _history_view(records):
    return [
        (
            record.round_index,
            tuple(map(tuple, np.asarray(record.commands).tolist())),
            tuple(record.clients),
            record.consensus_views,
            tuple(map(tuple, np.asarray(record.result.outputs).tolist())),
            record.result.correct,
        )
        for record in records
    ]


def _rng_state(protocol):
    state = protocol.rng.bit_generator.state
    return (state["bit_generator"], tuple(state["state"].values()))


@st.composite
def traces(draw):
    """A ragged submission trace: per tick, a few (client, machine, seed)."""
    num_ticks = draw(st.integers(1, 4))
    trace = []
    for _ in range(num_ticks):
        num_submits = draw(st.integers(0, 4))
        tick = []
        for _ in range(num_submits):
            client = f"client:{draw(st.integers(0, 2))}"
            machine_index = draw(st.integers(0, 10**6))  # reduced mod K later
            seed = draw(st.integers(0, 2**31))
            tick.append((client, machine_index, seed))
        trace.append(tick)
    return trace


class TestDisabledQosBitIdentity:
    @relaxed
    @given(data=st.data())
    def test_unsharded_disabled_policy_is_inert(self, data):
        num_nodes = data.draw(st.sampled_from([6, 9, 12]), label="N")
        num_faults = data.draw(st.integers(0, 1), label="b")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        trace = data.draw(traces(), label="trace")

        views = []
        for variant in ("none", "default-policy", "explicit-fifo"):
            protocol, machine = _protocol(num_nodes, num_faults, seed)
            if protocol is None:
                return  # no admissible K for this draw
            k = protocol.num_machines
            bounded = [
                [(c, m % k, s) for c, m, s in tick] for tick in trace
            ]
            if variant == "none":
                service = CSMService(protocol)
            elif variant == "default-policy":
                policy = QosPolicy()
                assert not policy.enabled
                assert policy.build_selector() is None
                service = CSMService(protocol, qos=policy)
            else:
                service = CSMService(protocol)
                service.scheduler.selector = FifoSelection()
            tickets = _drive_trace(service, bounded, machine)
            views.append(
                (
                    [_ticket_view(t) for t in tickets],
                    _history_view(protocol.history),
                    {
                        client: [tuple(int(v) for v in out) for out in outputs]
                        for client, outputs in protocol.delivered_outputs.items()
                    },
                    protocol.network.messages_sent,
                    _rng_state(protocol),
                )
            )
        assert views[0] == views[1] == views[2]

    @relaxed
    @given(data=st.data())
    def test_sharded_disabled_policy_is_inert(self, data):
        seed = data.draw(st.integers(0, 2**31), label="seed")
        trace = data.draw(traces(), label="trace")

        views = []
        for qos in (None, QosPolicy()):
            backends = []
            machine = None
            for shard in range(2):
                protocol, machine = _protocol(6, 0, seed + shard)
                assert protocol is not None
                backends.append(protocol)
            service = ShardedCSMService(backends, qos=qos)
            k = service.num_machines
            bounded = [
                [(c, m % k, s) for c, m, s in tick] for tick in trace
            ]
            tickets = _drive_trace(service, bounded, machine)
            views.append(
                (
                    [_ticket_view(t) for t in tickets],
                    _history_view(service.history),
                    service.measured_throughput(),
                    [_rng_state(backend) for backend in backends],
                )
            )
        assert views[0] == views[1]

"""Unit tests for :class:`DelegationRoundProtocol` and its service plumbing.

The delegated-verification backend must serve rounds exactly like any other
:class:`~repro.rounds.RoundProtocol`: honest committees deliver the
reference outputs, a convicted worker voids the round (no output, no state
advance), and through :class:`~repro.service.service.CSMService` a voided
round resolves its tickets ``FAILED`` with
:attr:`~repro.service.tickets.FailureReason.DELEGATION_FRAUD`.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.intermix import DelegationRoundProtocol
from repro.intermix.worker import WorkerStrategy
from repro.machine.library import bank_account_machine
from repro.rng import default_stream
from repro.service.service import CSMService
from repro.service.tickets import FailureReason, TicketState

NUM_NODES = 16
NUM_MACHINES = 4


@pytest.fixture
def machine():
    return bank_account_machine(PrimeField(), num_accounts=2)


def _node_ids(count=NUM_NODES):
    return [f"node-{i}" for i in range(count)]


def _protocol(machine, seed=3, **kwargs):
    return DelegationRoundProtocol(
        machine,
        NUM_MACHINES,
        _node_ids(),
        rng=default_stream(seed),
        **kwargs,
    )


def _commands(machine, rounds, seed=11):
    stream = default_stream(seed)
    return [
        stream.integers(1, 1000, size=(NUM_MACHINES, machine.command_dim))
        for _ in range(rounds)
    ]


def _reference_trace(machine, commands):
    states = np.tile(machine.initial_state, (NUM_MACHINES, 1))
    trace = []
    for batch in commands:
        states, outputs = machine.step_batch(states, np.asarray(batch))
        trace.append((states.copy(), outputs))
    return trace


class TestHonestRounds:
    def test_outputs_match_reference_machine(self, machine):
        commands = _commands(machine, 3)
        protocol = _protocol(machine)
        records = protocol.run_rounds_batched(commands)
        assert len(records) == 3
        for record, (ref_states, ref_outputs) in zip(
            records, _reference_trace(machine, commands)
        ):
            assert record.result.correct
            assert not record.result.diagnostics["confirmed_fraud"]
            assert record.result.diagnostics["scheme"] == "delegated"
            assert np.array_equal(record.result.outputs, ref_outputs)
            assert np.array_equal(record.result.states, ref_states)
        assert protocol.all_rounds_correct
        assert protocol.measured_throughput() > 0

    def test_ops_cover_exactly_the_node_set(self, machine):
        protocol = _protocol(machine)
        (record,) = protocol.run_rounds_batched(_commands(machine, 1))
        assert set(record.result.ops_per_node) == set(_node_ids())
        worker = record.result.diagnostics["worker"]
        assert record.result.ops_per_node[worker] > 0
        # Non-workers only verify: strictly cheaper than the worker.
        non_worker_max = max(
            count
            for node, count in record.result.ops_per_node.items()
            if node != worker
        )
        assert non_worker_max < record.result.ops_per_node[worker]
        assert (
            record.result.diagnostics["max_non_worker_operations"]
            == non_worker_max
        )

    def test_outputs_delivered_to_clients(self, machine):
        protocol = _protocol(machine)
        protocol.run_rounds_batched(
            _commands(machine, 1), client_rounds=[["a", "b", "c", "d"]]
        )
        assert set(protocol.delivered_outputs) == {"a", "b", "c", "d"}
        assert protocol.failed_deliveries == {}

    def test_batched_and_scalar_histories_bit_identical(self, machine):
        commands = _commands(machine, 3)
        histories = {}
        for batched in (True, False):
            protocol = _protocol(machine, batched=batched)
            protocol.run_rounds_batched(commands)
            histories[batched] = protocol
        for a, b in zip(histories[True].history, histories[False].history):
            assert np.array_equal(a.result.outputs, b.result.outputs)
            assert np.array_equal(a.result.states, b.result.states)
            assert a.result.correct == b.result.correct
            assert a.result.ops_per_node == b.result.ops_per_node
        assert (
            histories[True].rng.bit_generator.state
            == histories[False].rng.bit_generator.state
        )

    def test_dishonest_auditor_alone_cannot_void_a_round(self, machine):
        protocol = _protocol(machine, dishonest_auditors=set(_node_ids()))
        (record,) = protocol.run_rounds_batched(_commands(machine, 1))
        assert record.result.correct
        assert not record.result.diagnostics["confirmed_fraud"]


class TestFraudulentRounds:
    @pytest.mark.parametrize(
        "adversary",
        [
            {"worker_strategies": {
                n: WorkerStrategy.CORRUPT_RESULT for n in _node_ids()
            }},
            {"worker_strategies": {
                n: WorkerStrategy.SILENT for n in _node_ids()
            }},
            {"corrupt_decoder_workers": set(_node_ids())},
        ],
        ids=["corrupt-worker", "silent-worker", "corrupt-decoder"],
    )
    def test_fraud_voids_round_and_freezes_state(self, machine, adversary):
        commands = _commands(machine, 2)
        protocol = _protocol(machine, **adversary)
        genesis = protocol._coded_states.copy()
        records = protocol.run_rounds_batched(commands)
        for record in records:
            assert not record.result.correct
            assert record.result.diagnostics["confirmed_fraud"]
            assert not record.result.outputs.any()
            assert not record.result.states.any()
        assert protocol.failed_rounds == 2
        assert protocol.delivered_outputs == {}
        # The coded states never advanced: resubmission is safe.
        assert np.array_equal(protocol._coded_states, genesis)

    def test_fraud_diagnostics_count_rejected_operations(self, machine):
        protocol = _protocol(
            machine,
            worker_strategies={
                n: WorkerStrategy.CORRUPT_RESULT for n in _node_ids()
            },
        )
        (record,) = protocol.run_rounds_batched(_commands(machine, 1))
        assert record.result.diagnostics["rejected_operations"] >= 1


class TestValidation:
    def test_rejects_zero_machines(self, machine):
        with pytest.raises(ConfigurationError):
            DelegationRoundProtocol(machine, 0, _node_ids())

    def test_rejects_misshapen_round(self, machine):
        protocol = _protocol(machine)
        with pytest.raises(ConfigurationError):
            protocol.run_rounds_batched([np.ones((NUM_MACHINES + 1, 2))])

    def test_rejects_client_rounds_length_mismatch(self, machine):
        protocol = _protocol(machine)
        with pytest.raises(ConfigurationError):
            protocol.run_rounds_batched(
                _commands(machine, 2), client_rounds=[["a"] * NUM_MACHINES]
            )

    def test_shared_canonicaliser_accepted_shapes_and_client_labels(self, machine):
        """Inputs each backend took before the shared canonicaliser: a flat
        round, a batch of one ``(1, K, command_dim)`` (what
        ``ReplicationProtocol`` let through the engine's batch check), and
        client ids of any type, recorded here as strings."""
        (batch,) = _commands(machine, 1)
        shaped = _protocol(machine)._canonical_round(batch)
        for alias in (batch.reshape(-1), batch[None, :, :]):
            assert np.array_equal(_protocol(machine)._canonical_round(alias), shaped)
        with pytest.raises(ConfigurationError):
            _protocol(machine)._canonical_round(np.stack([batch, batch]))
        (record,) = _protocol(machine).run_rounds_batched(
            [batch], client_rounds=[list(range(NUM_MACHINES))]
        )
        assert record.clients == [str(k) for k in range(NUM_MACHINES)]
        assert _protocol(machine).run_rounds_batched([batch])[0].clients == [
            f"client:{k}" for k in range(NUM_MACHINES)
        ]


class TestEmptyBatch:
    def test_empty_batch_elects_nobody_and_draws_nothing(self, machine):
        """An empty run must be a no-op like on the other backends: electing
        a committee first would burn a permutation draw and shift every later
        committee away from an identically seeded protocol's."""
        commands = _commands(machine, 3)
        touched, untouched = _protocol(machine), _protocol(machine)
        assert touched.run_rounds_batched([]) == []
        assert touched.current_worker is None
        assert touched.history == []
        assert (
            touched.rng.bit_generator.state == untouched.rng.bit_generator.state
        )
        workers = []
        for protocol in (touched, untouched):
            seen = []
            for batch in commands:
                protocol.run_rounds_batched([batch])
                seen.append(protocol.current_worker)
            workers.append(seen)
        assert workers[0] == workers[1]
        assert len(set(workers[0])) > 1  # the draws really do pick different workers


class TestServiceIntegration:
    def _drive(self, machine, rounds=2, **kwargs):
        protocol = _protocol(machine, **kwargs)
        service = CSMService(protocol)
        session = service.connect("alice")
        tickets = []
        for r in range(rounds):
            for k in range(NUM_MACHINES):
                tickets.append(session.submit(k, [10 * r + k + 1, 1]))
            service.drive(flush=True)
        service.drain()
        return protocol, tickets

    def test_honest_rounds_execute_tickets_with_reference_outputs(self, machine):
        protocol, tickets = self._drive(machine)
        assert all(t.state is TicketState.EXECUTED for t in tickets)
        assert all(t.failure_reason is None for t in tickets)
        for ticket in tickets:
            record = protocol.history[ticket.round_index]
            assert np.array_equal(
                ticket.result(), record.result.outputs[ticket.machine_index]
            )

    def test_confirmed_fraud_fails_tickets_with_delegation_reason(self, machine):
        protocol, tickets = self._drive(
            machine,
            worker_strategies={
                n: WorkerStrategy.CORRUPT_RESULT for n in _node_ids()
            },
        )
        assert protocol.failed_rounds == len(protocol.history) > 0
        for ticket in tickets:
            assert ticket.state is TicketState.FAILED
            assert ticket.failure_reason is FailureReason.DELEGATION_FRAUD
            assert "fraud" in ticket.error
            assert ticket.output is None
            with pytest.raises(Exception):
                ticket.result()
        # Nothing was ever delivered from a voided round.
        assert protocol.delivered_outputs == {}
        assert set(protocol.failed_deliveries) == {"alice"}

    def test_fraud_round_retries_onto_a_fresh_worker(self, machine):
        from repro.service import RetryPolicy

        # Learn which worker the seed elects first, then make only that
        # node a cheater: its one fraudulent round must not be terminal.
        probe = _protocol(machine)
        probe.run_rounds_batched(_commands(machine, 1))
        cheater = probe.history[0].result.diagnostics["worker"]

        protocol = _protocol(
            machine,
            worker_strategies={cheater: WorkerStrategy.CORRUPT_RESULT},
        )
        service = CSMService(
            protocol, retry=RetryPolicy(max_attempts=3, backoff_ticks=1)
        )
        session = service.connect("alice")
        tickets = [session.submit(k, [20 + k, 1]) for k in range(NUM_MACHINES)]
        service.drain()
        # The cheater's round was convicted, the batch was auto-resubmitted,
        # and the re-election banned the convicted worker.
        assert protocol.failed_rounds == 1
        assert cheater in protocol.convicted_workers
        workers = [r.result.diagnostics["worker"] for r in protocol.history]
        assert workers[0] == cheater
        assert all(w != cheater for w in workers[1:])
        for ticket in tickets:
            assert ticket.state is TicketState.EXECUTED
            assert ticket.attempts == 2
            assert TicketState.RETRYING in ticket.state_history
        report = service.qos_report()
        assert report["retried_commands"] == NUM_MACHINES
        assert report["recovered_tickets"] == NUM_MACHINES
        assert report["exhausted_tickets"] == 0

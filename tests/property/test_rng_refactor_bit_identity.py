"""Regression guard for the ``repro.rng`` helper refactor.

The csm-lint PR replaced every silent ``rng or np.random.default_rng(0)``
fallback (consensus, network, intermix, replication, execution) with the
single allowlisted constructor :func:`repro.rng.default_stream` and the
derived-stream helper :func:`repro.rng.derived_stream`.  That refactor must
be a pure renaming: the same seeds must produce byte-for-byte the same
protocol run as before the change.

The ``GOLDEN_DIGESTS`` below were captured from the tree *before* the
refactor (commit 206fd96) by hashing every observable of a fixed-seed
``CSMProtocol`` run: the round history (commands, clients, views, outputs,
states, per-node operation counts), the delivered/failed output maps, the
network counters and clock, every per-copy delivery field by field (fed
through the ``record_deliveries`` fixture, in dispatch order), and the final
consensus rng state.  If any rng stream moved, these digests move.

Both were re-recorded once, when one consensus instance began deciding a
whole block of rounds: fewer instances move the consensus views, the
consensus rng state, the network counters and clock and the per-copy
deliveries.  The same hash with those fields left out was equal before and
after that change.

``psync`` was re-recorded when a successful Berlekamp–Welch decode stopped
re-encoding its result a second time, and the erasure decoder a third time
on the full code.  Only the per-node operation counts moved (26,185 ->
25,737 summed over the run); the same hash with them left out was equal
before and after.
"""

import hashlib

import numpy as np

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine
from repro.net.byzantine import RandomGarbageBehavior, SilentBehavior

# sha256 digests of the scenario observables, captured pre-refactor.
GOLDEN_DIGESTS = {
    "sync": "5a6f7da974ca7d6b2b68d3bd14b90e81e62a8ba43d3ed0aaf35784eaf22d687a",
    "psync": "cca1dfd6387ad7c15ec0084c48f1cecad45948f21d5c51e0343560bd374f12db",
}

NUM_ROUNDS = 3
COMMAND_SEED = 1234
PROTOCOL_SEED = 5


def _valid_config(field, num_nodes, num_faults, degree, partially_synchronous):
    for k in range(min(4, num_nodes), 0, -1):
        try:
            return CSMConfig(
                field,
                num_nodes=num_nodes,
                num_machines=k,
                degree=degree,
                num_faults=num_faults,
                partially_synchronous=partially_synchronous,
            )
        except ConfigurationError:
            continue
    raise AssertionError("no valid config for the scenario parameters")


def _build_protocol(partially_synchronous):
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    num_nodes = 8 if partially_synchronous else 6
    config = _valid_config(
        field, num_nodes, 1, machine.degree, partially_synchronous
    )
    behaviors = {
        "node-1": RandomGarbageBehavior() if partially_synchronous else SilentBehavior()
    }
    protocol = CSMProtocol(
        config,
        machine,
        behaviors,
        rng=np.random.default_rng(PROTOCOL_SEED),
    )
    command_rng = np.random.default_rng(COMMAND_SEED)
    batches = [
        command_rng.integers(
            1, 1000, size=(config.num_machines, machine.command_dim)
        )
        for _ in range(NUM_ROUNDS)
    ]
    return protocol, batches


def compute_scenario_digest(partially_synchronous, record_deliveries):
    """Run the fixed-seed scenario and hash every bit-identity observable."""
    protocol, batches = _build_protocol(partially_synchronous)
    with record_deliveries() as deliveries:
        records = protocol.run_rounds_batched(batches)
    h = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    for record in records:
        feed(
            record.round_index,
            record.commands.tolist(),
            record.clients,
            record.consensus_views,
            record.result.correct,
            np.asarray(record.result.outputs).tolist(),
            np.asarray(record.result.states).tolist(),
            sorted(record.result.ops_per_node.items()),
        )
    for client in sorted(protocol.delivered_outputs):
        feed(client, [np.asarray(o).tolist() for o in protocol.delivered_outputs[client]])
    feed(sorted(protocol.failed_deliveries.items()))
    feed(
        protocol.network.messages_sent,
        protocol.network.rejected_signatures,
        protocol.network.now,
    )
    for entry in deliveries:
        feed(
            entry.message.sender,
            entry.message.recipient,
            entry.message.kind.value,
            entry.message.round_index,
            entry.send_time,
            entry.delivery_time,
            entry.delivered,
        )
    feed(protocol.rng.bit_generator.state["state"])
    return h.hexdigest()


class TestRngRefactorBitIdentity:
    def test_sync_scenario_matches_pre_refactor_digest(self, record_deliveries):
        assert compute_scenario_digest(False, record_deliveries) == GOLDEN_DIGESTS["sync"]

    def test_psync_scenario_matches_pre_refactor_digest(self, record_deliveries):
        assert compute_scenario_digest(True, record_deliveries) == GOLDEN_DIGESTS["psync"]

    def test_two_runs_same_seed_identical(self, record_deliveries):
        # Self-consistency: a fresh protocol with the same seeds reproduces
        # the identical digest (guards ambient nondeterminism, not just the
        # refactor delta).
        assert compute_scenario_digest(False, record_deliveries) == compute_scenario_digest(
            False, record_deliveries
        )

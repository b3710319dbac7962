"""Property tests for the vectorised consensus message plane.

:meth:`ConsensusProtocol.decide_rounds` has two implementations: the
event-driven oracle (per-copy ``network.send`` + scheduler delivery — the
reference semantics) and the vectorised message plane (struct-of-arrays
phase batches, one-shot batch signing/verification, array-level delay
sampling).  The plane is a pure reorganisation of the same sends, so under
*any* admissible Byzantine pattern — honest, silent, equivocating/lying,
delaying, and mid-batch fault onset — the two paths must agree bit for bit
on:

* the recorded round history (commands, clients, consensus views, outputs);
* the shared rng stream (both generators end in the same state);
* the network counters (``messages_sent``, ``rejected_signatures``);
* the full delivery log, field for field;

across batch-window boundaries too: deciding the same rounds one call at a
time (``B = 1``) or in one call wider than the round count (``B > rounds``)
must not move a single message or rng draw.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    DelayingBehavior,
    EquivocatingBehavior,
    FaultOnsetBehavior,
    RandomGarbageBehavior,
    SilentBehavior,
)

FIELD = PrimeField()

relaxed = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

BEHAVIOR_FACTORIES = (
    RandomGarbageBehavior,
    SilentBehavior,
    EquivocatingBehavior,
    DelayingBehavior,
    lambda: CorruptResultBehavior(offset=3),
    lambda: FaultOnsetBehavior(SilentBehavior(), onset_round=1),
    lambda: FaultOnsetBehavior(EquivocatingBehavior(), onset_round=2),
)


def _valid_config(num_nodes, num_faults, degree, partially_synchronous):
    for k in range(min(4, num_nodes), 0, -1):
        try:
            return CSMConfig(
                FIELD,
                num_nodes=num_nodes,
                num_machines=k,
                degree=degree,
                num_faults=num_faults,
                partially_synchronous=partially_synchronous,
            )
        except ConfigurationError:
            continue
    return None


def _run_windowed(protocol, batches, window):
    """Drive ``batches`` through ``run_rounds_batched`` in ``window``-sized calls."""
    records = []
    for start in range(0, len(batches), window):
        records.extend(protocol.run_rounds_batched(batches[start : start + window]))
    return records


def _assert_parity(oracle, plane, oracle_records, plane_records, num_rounds):
    assert len(oracle_records) == len(plane_records) == num_rounds
    for orc, vec in zip(oracle_records, plane_records):
        assert orc.round_index == vec.round_index
        assert np.array_equal(orc.commands, vec.commands)
        assert orc.clients == vec.clients
        assert orc.consensus_views == vec.consensus_views
        assert np.array_equal(orc.result.outputs, vec.result.outputs)
        assert np.array_equal(orc.result.states, vec.result.states)
        assert orc.result.correct == vec.result.correct
    # The consensus/network layer consumed the shared rng identically.
    assert (
        oracle.rng.bit_generator.state["state"]
        == plane.rng.bit_generator.state["state"]
    )
    assert oracle.network.messages_sent == plane.network.messages_sent
    assert oracle.network.rejected_signatures == plane.network.rejected_signatures
    assert oracle.network.now == plane.network.now
    oracle_log = oracle.network.delivery_log
    plane_log = plane.network.delivery_log
    assert len(oracle_log) == len(plane_log)
    for a, b in zip(oracle_log, plane_log):
        assert a.message.sender == b.message.sender
        assert a.message.recipient == b.message.recipient
        assert a.message.kind == b.message.kind
        assert a.message.round_index == b.message.round_index
        assert a.message.signature == b.message.signature
        assert a.message.payload == b.message.payload
        assert a.message.metadata == b.message.metadata
        assert a.send_time == b.send_time
        assert a.delivery_time == b.delivery_time
        assert a.delivered == b.delivered
    # Each protocol took exactly the path it was configured for.
    assert oracle.consensus_fast_path_disabled == num_rounds
    assert plane.consensus_fast_path_disabled == 0


class TestConsensusPlaneBitIdentity:
    @relaxed
    @given(data=st.data())
    def test_plane_matches_oracle(self, data):
        partially_synchronous = data.draw(st.booleans(), label="psync")
        num_nodes = data.draw(st.sampled_from([6, 9, 10, 12]), label="N")
        machine = bank_account_machine(FIELD, num_accounts=2)
        fault_cap = (num_nodes - 1) // 3 if partially_synchronous else num_nodes // 4
        num_faults = data.draw(st.integers(0, min(2, fault_cap)), label="b")
        config = _valid_config(
            num_nodes, num_faults, machine.degree, partially_synchronous
        )
        if config is None:
            return
        fault_indices = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=num_faults,
                max_size=num_faults,
                unique=True,
            ),
            label="fault_indices",
        )
        behavior_picks = [
            data.draw(st.integers(0, len(BEHAVIOR_FACTORIES) - 1))
            for _ in fault_indices
        ]
        num_rounds = data.draw(st.integers(1, 4), label="rounds")
        # Batch-window boundaries: one round per call, everything in one
        # call, and a window wider than the round count (B > rounds).
        window = data.draw(
            st.sampled_from([1, max(num_rounds // 2, 1), num_rounds + 3]),
            label="window",
        )
        command_rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        batches = [
            command_rng.integers(
                1, 1000, size=(config.num_machines, machine.command_dim)
            )
            for _ in range(num_rounds)
        ]

        def fresh_behaviors():
            # Fresh instances per protocol: FaultOnsetBehavior is stateful
            # (its onset counter advances per execution-phase report).
            return {
                f"node-{index}": BEHAVIOR_FACTORIES[pick]()
                for index, pick in zip(fault_indices, behavior_picks)
            }

        oracle = CSMProtocol(
            config,
            machine,
            fresh_behaviors(),
            rng=np.random.default_rng(5),
            vectorised_consensus=False,
        )
        plane = CSMProtocol(
            config,
            machine,
            fresh_behaviors(),
            rng=np.random.default_rng(5),
            vectorised_consensus=True,
        )
        oracle_records = _run_windowed(oracle, batches, window)
        plane_records = _run_windowed(plane, batches, window)
        _assert_parity(oracle, plane, oracle_records, plane_records, num_rounds)

    @relaxed
    @given(data=st.data())
    def test_window_boundaries_do_not_move_messages(self, data):
        """B=1 versus B>rounds on the *same* plane path stays bit-identical."""
        partially_synchronous = data.draw(st.booleans(), label="psync")
        num_nodes = data.draw(st.sampled_from([6, 10]), label="N")
        machine = bank_account_machine(FIELD, num_accounts=2)
        fault_cap = (num_nodes - 1) // 3 if partially_synchronous else num_nodes // 4
        num_faults = data.draw(st.integers(0, min(2, fault_cap)), label="b")
        config = _valid_config(
            num_nodes, num_faults, machine.degree, partially_synchronous
        )
        if config is None:
            return
        fault_indices = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=num_faults,
                max_size=num_faults,
                unique=True,
            ),
            label="fault_indices",
        )
        behavior_picks = [
            data.draw(st.integers(0, len(BEHAVIOR_FACTORIES) - 1))
            for _ in fault_indices
        ]
        num_rounds = data.draw(st.integers(2, 4), label="rounds")
        command_rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        batches = [
            command_rng.integers(
                1, 1000, size=(config.num_machines, machine.command_dim)
            )
            for _ in range(num_rounds)
        ]

        def build():
            # Fresh behaviour instances per protocol: FaultOnsetBehavior is
            # stateful (its onset counter advances per round).
            behaviors = {
                f"node-{index}": BEHAVIOR_FACTORIES[pick]()
                for index, pick in zip(fault_indices, behavior_picks)
            }
            return CSMProtocol(
                config, machine, behaviors, rng=np.random.default_rng(5)
            )

        one_by_one = build()
        single_call = build()
        narrow_records = _run_windowed(one_by_one, batches, window=1)
        wide_records = _run_windowed(
            single_call, batches, window=num_rounds + 5
        )
        assert len(narrow_records) == len(wide_records) == num_rounds
        for a, b in zip(narrow_records, wide_records):
            assert np.array_equal(a.commands, b.commands)
            assert a.clients == b.clients
            assert a.consensus_views == b.consensus_views
            assert np.array_equal(a.result.outputs, b.result.outputs)
            assert a.result.correct == b.result.correct
        assert (
            one_by_one.network.messages_sent == single_call.network.messages_sent
        )
        assert (
            one_by_one.network.rejected_signatures
            == single_call.network.rejected_signatures
        )
        assert len(one_by_one.network.delivery_log) == len(
            single_call.network.delivery_log
        )


#: Leader misbehaviours, by what the leader of a view does with its proposal:
#: sends conflicting payloads to the two halves, broadcasts a forged one
#: (PBFT's forgery changes the clients only, so its content key collides
#: with the honest payload's), says nothing, or says it too late.
LEADER_BEHAVIORS = {
    "equivocating": EquivocatingBehavior,
    "forged-payload": RandomGarbageBehavior,
    "silent": SilentBehavior,
    "delaying": DelayingBehavior,
}


class TestFaultyLeadersAtScale:
    """The array tallies at N=32, where the hypothesis cases above stop at 12."""

    @pytest.mark.parametrize("partially_synchronous", [False, True], ids=["bcast", "pbft"])
    @pytest.mark.parametrize("leader_behavior", sorted(LEADER_BEHAVIORS))
    def test_plane_matches_oracle_under_faulty_leaders(
        self, leader_behavior, partially_synchronous
    ):
        num_nodes, num_rounds = 32, 3
        machine = bank_account_machine(FIELD, num_accounts=2)
        config = _valid_config(num_nodes, 3, machine.degree, partially_synchronous)
        command_rng = np.random.default_rng(17)
        batches = [
            command_rng.integers(
                1, 1000, size=(config.num_machines, machine.command_dim)
            )
            for _ in range(num_rounds)
        ]

        def build(vectorised):
            # node-0..2 lead views 0..2 of round 0 (three view changes in a
            # row); rounds 1 and 2 start under node-1 and node-2.
            behaviors = {
                f"node-{index}": LEADER_BEHAVIORS[leader_behavior]()
                for index in range(3)
            }
            return CSMProtocol(
                config,
                machine,
                behaviors,
                rng=np.random.default_rng(5),
                vectorised_consensus=vectorised,
            )

        oracle, plane = build(False), build(True)
        oracle_records = oracle.run_rounds_batched(batches)
        plane_records = plane.run_rounds_batched(batches)
        _assert_parity(oracle, plane, oracle_records, plane_records, num_rounds)
        # The faulty leaders cost views — except a broadcast equivocator, whose
        # two payloads reach everyone through the echoes and only one is valid.
        if partially_synchronous or leader_behavior != "equivocating":
            assert plane_records[0].consensus_views >= 3
            assert plane_records[2].consensus_views >= 1

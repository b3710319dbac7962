"""Property tests for the vectorised consensus message plane.

A consensus instance — one block of rounds — has two implementations: the
per-copy oracle (:mod:`reference.consensus` over :mod:`reference.network`:
``send``/``broadcast`` and mailbox drains, the reference semantics; the
``pin_oracle`` fixture makes one protocol decide every block through it) and
the vectorised message plane that
:meth:`ConsensusProtocol.decide_rounds` always runs (struct-of-arrays phase
batches, one-shot batch signing/verification, array-level delay sampling,
link faults as a drop mask and a delay offset on each phase's copy grid).
The plane is a pure reorganisation of the same sends, so on the same blocks,
under *any* admissible Byzantine pattern — honest, silent,
equivocating/lying, delaying, and mid-batch fault onset — and under live
link faults (dropped nodes and links, partitions, added delay, set, changed
and cleared between calls), the two paths must agree bit for bit on:

* the recorded round history (commands, clients, consensus views, outputs);
* the shared rng stream (both generators end in the same state);
* the network counters (``messages_sent``, ``rejected_signatures`` and the
  link faults' ``dropped_messages``);
* every per-copy delivery, field for field, its delivered-or-dropped verdict
  included (recorded by the ``record_deliveries`` fixture);
* the rounds counted as decided under a live link fault.

Batch-window boundaries decide how many rounds one instance holds, so they
move consensus views and messages — but never the decided commands, their
clients or the outputs: deciding the same rounds one call at a time
(``B = 1``) or in one call wider than the round count (``B > rounds``)
executes the same history.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference.network import NetworkFaultState
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError, ConsensusError
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


def _assert_same_run(
    oracle, plane, oracle_records, plane_records, num_rounds, oracle_log, plane_log
):
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
    assert len(oracle_log) == len(plane_log) == plane.network.messages_sent
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


def _assert_parity(
    oracle, plane, oracle_records, plane_records, num_rounds, oracle_log, plane_log
):
    _assert_same_run(
        oracle, plane, oracle_records, plane_records, num_rounds, oracle_log, plane_log
    )
    # No link fault was live, so no round counts as decided under one.
    assert plane.consensus_fast_path_disabled == 0


class TestConsensusPlaneBitIdentity:
    @relaxed
    @given(data=st.data())
    def test_plane_matches_oracle(self, data, record_deliveries, pin_oracle):
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

        oracle = pin_oracle(
            CSMProtocol(config, machine, fresh_behaviors(), rng=np.random.default_rng(5))
        )
        plane = CSMProtocol(
            config, machine, fresh_behaviors(), rng=np.random.default_rng(5)
        )
        with record_deliveries() as oracle_log:
            oracle_records = _run_windowed(oracle, batches, window)
        with record_deliveries() as plane_log:
            plane_records = _run_windowed(plane, batches, window)
        _assert_parity(
            oracle, plane, oracle_records, plane_records, num_rounds, oracle_log, plane_log
        )

    @relaxed
    @given(data=st.data())
    def test_window_boundaries_do_not_move_decided_commands(self, data):
        """Window boundaries do not move decided commands, clients or outputs."""
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
        wide_records = _run_windowed(single_call, batches, window=num_rounds + 5)
        assert len(narrow_records) == len(wide_records) == num_rounds
        for a, b in zip(narrow_records, wide_records):
            assert np.array_equal(a.commands, b.commands)
            assert a.clients == b.clients
            assert np.array_equal(a.result.outputs, b.result.outputs)
            assert a.result.correct == b.result.correct
        assert one_by_one.delivered_outputs.keys() == single_call.delivered_outputs.keys()
        for client, outputs in one_by_one.delivered_outputs.items():
            assert np.array_equal(outputs, single_call.delivered_outputs[client])


#: Added latencies against the 1.0 collection window: none, enough to push
#: the slowest copies into later windows, and every non-self copy at least
#: two windows late.
EXTRA_DELAYS = (0.0, 0.15, 0.3, 2.5)


def _draw_link_faults(data, num_nodes, byzantine):
    """A link-fault state as plain data: ``(nodes, links, partition, delay)``.

    Mostly faults the protocols survive, so rounds decide while they are
    live: dropped nodes are usually Byzantine ones or a client (an endpoint
    outside the consensus nodes), and a partition leaves most nodes outside
    every group.  Now and then an honest node is cut off, which stalls both
    paths alike.
    """
    node_ids = [f"node-{j}" for j in range(num_nodes)]
    endpoints = node_ids + ["client:0"]
    endpoint = st.sampled_from(endpoints)
    droppable = node_ids if data.draw(st.integers(0, 4), label="crash") == 0 else None
    dropped_nodes = data.draw(
        st.sets(st.sampled_from(droppable or [*byzantine, "client:0"]), max_size=2),
        label="dropped_nodes",
    )
    dropped_links = data.draw(
        st.sets(st.tuples(endpoint, endpoint), max_size=4), label="dropped_links"
    )
    partition = None
    if data.draw(st.booleans(), label="partitioned"):
        # Group -1 is outside every group; a partition may hold no group.
        groups = data.draw(
            st.lists(
                st.sampled_from((-1, -1, -1, 0, 1)),
                min_size=len(endpoints),
                max_size=len(endpoints),
            ),
            label="groups",
        )
        partition = [[e for e, g in zip(endpoints, groups) if g == k] for k in (0, 1)]
        partition = [members for members in partition if members]
    extra_delay = data.draw(st.sampled_from(EXTRA_DELAYS), label="extra_delay")
    return dropped_nodes, dropped_links, partition, extra_delay


def _apply_link_faults(faults, spec):
    """Heal ``faults``, then configure ``spec`` (``None`` leaves them healed)."""
    faults.clear()
    if spec is None:
        return
    dropped_nodes, dropped_links, partition, extra_delay = spec
    faults.dropped_nodes.update(dropped_nodes)
    faults.dropped_links.update(dropped_links)
    if partition is not None:
        faults.set_partition(partition)
    faults.extra_delay = extra_delay


class TestLinkFaultsOnThePlane:
    """A live drop, partition or delay rides the plane, bit-identical to the oracle."""

    @relaxed
    @given(data=st.data())
    def test_plane_matches_oracle_under_link_faults(
        self, data, record_deliveries, pin_oracle
    ):
        partially_synchronous = data.draw(st.booleans(), label="psync")
        num_nodes = data.draw(st.sampled_from([6, 9, 10, 12]), label="N")
        machine = bank_account_machine(FIELD, num_accounts=2)
        fault_cap = (num_nodes - 1) // 3 if partially_synchronous else num_nodes // 4
        num_faults = data.draw(st.integers(0, min(1, fault_cap)), label="b")
        config = _valid_config(
            num_nodes, num_faults, machine.degree, partially_synchronous
        )
        if config is None:
            return
        byzantine = {
            f"node-{data.draw(st.integers(0, num_nodes - 1), label='byzantine')}": (
                data.draw(st.integers(0, len(BEHAVIOR_FACTORIES) - 1), label="behavior")
            )
            for _ in range(num_faults)
        }
        # Faults are set, changed and cleared (None) between calls.
        segments = []
        for _ in range(data.draw(st.integers(1, 3), label="segments")):
            healed = data.draw(st.integers(0, 3), label="healed") == 0
            spec = None if healed else _draw_link_faults(data, num_nodes, byzantine)
            segments.append((spec, data.draw(st.integers(1, 2), label="rounds")))
        command_rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))

        for spec, _ in segments:
            if spec is None:
                continue
            # The plane's drop mask is should_drop, pair for pair.
            faults = NetworkFaultState()
            _apply_link_faults(faults, spec)
            node_ids = [f"node-{j}" for j in range(num_nodes)]
            mask = faults.drop_mask(node_ids)
            assert mask.tolist() == [
                [faults.should_drop(s, r) for r in node_ids] for s in node_ids
            ]

        batches = [
            [
                command_rng.integers(
                    1, 1000, size=(config.num_machines, machine.command_dim)
                )
                for _ in range(num_rounds)
            ]
            for _, num_rounds in segments
        ]

        def run(protocol):
            records, error = [], None
            with record_deliveries() as log:
                for (spec, _), segment in zip(segments, batches):
                    _apply_link_faults(protocol.network.faults, spec)
                    try:
                        records.extend(protocol.run_rounds_batched(segment))
                    except ConsensusError as exc:
                        # A fault past what the protocol tolerates stalls
                        # both paths at the same block.
                        error = str(exc)
                        break
            return records, error, log

        def build():
            behaviors = {
                node_id: BEHAVIOR_FACTORIES[pick]() for node_id, pick in byzantine.items()
            }
            return CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(5))

        oracle, plane = pin_oracle(build()), build()
        oracle_records, oracle_error, oracle_log = run(oracle)
        plane_records, plane_error, plane_log = run(plane)
        assert oracle_error == plane_error
        _assert_same_run(
            oracle,
            plane,
            oracle_records,
            plane_records,
            len(plane_records),
            oracle_log,
            plane_log,
        )
        assert (
            oracle.network.faults.dropped_messages
            == plane.network.faults.dropped_messages
        )
        assert oracle.consensus_fast_path_disabled == plane.consensus_fast_path_disabled


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
        self, leader_behavior, partially_synchronous, record_deliveries, pin_oracle
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

        def build():
            # node-0..2 lead views 0..2 of round 0 (three view changes in a
            # row); rounds 1 and 2 start under node-1 and node-2.
            behaviors = {
                f"node-{index}": LEADER_BEHAVIORS[leader_behavior]()
                for index in range(3)
            }
            return CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(5))

        oracle, plane = pin_oracle(build()), build()
        with record_deliveries() as oracle_log:
            oracle_records = oracle.run_rounds_batched(batches)
        with record_deliveries() as plane_log:
            plane_records = plane.run_rounds_batched(batches)
        _assert_parity(
            oracle, plane, oracle_records, plane_records, num_rounds, oracle_log, plane_log
        )
        # The faulty leaders cost views — except a broadcast equivocator, whose
        # two payloads reach everyone through the echoes and only one is valid.
        if partially_synchronous or leader_behavior != "equivocating":
            assert plane_records[0].consensus_views >= 3
            assert plane_records[2].consensus_views >= 1

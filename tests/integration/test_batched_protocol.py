"""Regression tests for the batched protocol path and the protocol-layer
correctness fixes: honest decision selection, verified-only output delivery,
finite throughput on degenerate histories, and command-shape validation."""

import numpy as np
import pytest

from reference import lockstep
from reference.machine import step
from repro.consensus.command_pool import CommandPool
from repro.consensus.interface import ConsensusDecision
from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.exceptions import ConfigurationError, ConsensusError
from repro.machine.library import bank_account_machine, quadratic_market_machine
from repro.net.byzantine import (
    CorruptResultBehavior,
    EquivocatingBehavior,
    RandomGarbageBehavior,
)
from repro.rounds import RoundResult


def _protocol(big_field, num_nodes=8, num_machines=2, behaviors=None, num_faults=1):
    machine = bank_account_machine(big_field, num_accounts=1)
    config = CSMConfig(
        big_field, num_nodes=num_nodes, num_machines=num_machines,
        degree=1, num_faults=num_faults,
    )
    return CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(0))


def _decision(commands, clients, view=0, leader="node-0"):
    return ConsensusDecision(
        round_index=0,
        commands=np.asarray(commands, dtype=np.int64),
        clients=list(clients),
        selected=[],
        leader=leader,
        view=view,
    )


class TestDecisionSelection:
    """A round must not adopt whichever decision happens to come first."""

    def test_byzantine_decision_listed_first_is_ignored(self, big_field):
        protocol = _protocol(
            big_field, behaviors={"node-0": CorruptResultBehavior()}
        )
        honest = _decision([[5], [6]], ["client:0", "client:1"])
        forged = _decision([[9], [9]], ["client:forged", "client:forged"])
        # Dict order puts the Byzantine node's (forged) decision first — the
        # old ``next(iter(...))`` selection would have trusted it.
        decisions = {"node-0": forged, "node-1": honest, "node-2": honest}
        chosen = protocol._select_decision(decisions)
        assert chosen.commands.tolist() == [[5], [6]]
        assert chosen.clients == ["client:0", "client:1"]

    def test_disagreeing_honest_decisions_raise(self, big_field):
        protocol = _protocol(big_field)
        decisions = {
            "node-1": _decision([[5], [6]], ["client:0", "client:1"]),
            "node-2": _decision([[7], [6]], ["client:0", "client:1"]),
        }
        with pytest.raises(ConsensusError, match="different"):
            protocol._select_decision(decisions)

    def test_shared_decision_object_is_compared_once(self, big_field):
        # The plane hands all honest nodes one decision object; distinct but
        # equal objects (the oracle's shape) must still be compared, and agree.
        protocol = _protocol(big_field)
        compared = []

        class Counted(ConsensusDecision):
            def command_tuple(self):
                compared.append(self)
                return super().command_tuple()

        def counted():
            return Counted(
                round_index=0,
                commands=np.array([[5], [6]], dtype=np.int64),
                clients=["client:0", "client:1"],
            )

        shared = counted()
        chosen = protocol._select_decision({f"node-{i}": shared for i in range(4)})
        assert chosen is shared and len(compared) == 1
        compared.clear()
        distinct = {f"node-{i}": counted() for i in range(4)}
        assert protocol._select_decision(distinct) is distinct["node-0"]
        assert len(compared) == 4

    def test_no_honest_decision_raises(self, big_field):
        protocol = _protocol(
            big_field, behaviors={"node-0": CorruptResultBehavior()}
        )
        decisions = {"node-0": _decision([[1], [2]], ["client:0", "client:1"])}
        with pytest.raises(ConsensusError, match="honest"):
            protocol._select_decision(decisions)


class TestVerifiedDelivery:
    """Failed rounds must never hand unverified outputs to clients."""

    def _failing_protocol(self, big_field):
        machine = quadratic_market_machine(big_field)
        config = CSMConfig(
            big_field, num_nodes=16, num_machines=4, degree=2, num_faults=4
        )
        # Five corrupting nodes exceed the decoding radius (16 - 7) // 2 = 4
        # (placed on high indices so round 0's leader stays honest), while
        # consensus — which tolerates any b < N — still decides the round.
        behaviors = {
            f"node-{15 - i}": CorruptResultBehavior(offset=i + 1) for i in range(5)
        }
        return CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(2))

    def test_failed_round_outputs_not_delivered(self, big_field):
        protocol = self._failing_protocol(big_field)
        (record,) = protocol.run_rounds_batched([np.arange(1, 9)])
        assert not record.correct
        assert protocol.delivered_outputs == {}
        assert protocol.failed_rounds == 1
        assert sorted(protocol.failed_deliveries) == [f"client:{k}" for k in range(4)]
        assert all(v == [0] for v in protocol.failed_deliveries.values())

    def test_batched_path_matches_failed_delivery_semantics(self, big_field):
        protocol = self._failing_protocol(big_field)
        records = protocol.run_rounds_batched([np.arange(1, 9), np.arange(2, 10)])
        assert [r.correct for r in records] == [False, False]
        assert protocol.delivered_outputs == {}
        assert protocol.failed_rounds == 2
        assert all(v == [0, 1] for v in protocol.failed_deliveries.values())

    def test_empty_batch_is_a_no_op(self, big_field):
        protocol = _protocol(big_field)
        assert protocol.run_rounds_batched([]) == []
        assert protocol.history == []

    def test_malformed_batch_fails_before_any_consensus(self, big_field):
        """A bad batch anywhere in the list must fail fast — not after earlier
        rounds were already decided (and their commands consumed)."""
        protocol = _protocol(big_field, num_machines=2)
        with pytest.raises(ConfigurationError, match="cannot be split"):
            protocol.run_rounds_batched([np.array([1, 2]), np.array([1, 2, 3])])
        assert protocol.history == []
        assert protocol.pool.total_pending() == 0  # nothing was submitted

    def test_short_client_round_fails_before_any_consensus(self, big_field):
        """A client round naming fewer than ``K`` clients fails fast as well:
        it must not raise only after round 0 was decided and left the pool,
        which lost round 0 from both the history and the pool."""
        protocol = _protocol(big_field, num_machines=2)
        batches = [np.array([1, 2]), np.array([3, 4])]
        with pytest.raises(ConfigurationError, match="client round 1 names 1 clients"):
            protocol.run_rounds_batched(batches, client_rounds=[["a", "b"], ["c"]])
        assert protocol.history == []
        assert protocol.pool.total_pending() == 0
        assert protocol.pool.sequence_source.issued == 0  # nothing was submitted
        assert protocol.network.messages_sent == 0  # no consensus ran
        records = protocol.run_rounds_batched(
            batches, client_rounds=[["a", "b"], ["c", "d"]]
        )
        assert [r.clients for r in records] == [["a", "b"], ["c", "d"]]


    def test_bad_verify_window_fails_before_any_consensus(self, big_field):
        """A non-positive verification window fails before the block is
        submitted: no consensus runs, so no decided block is lost from both
        the pool and the history."""
        protocol = _protocol(big_field, num_machines=2)
        rng_state = protocol.rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="verify_window"):
            protocol.run_rounds_pipelined([np.array([1, 2])], verify_window=0)
        assert protocol.history == []
        assert protocol.pool.total_pending() == 0
        assert protocol.pool.sequence_source.issued == 0  # nothing was submitted
        assert protocol.network.messages_sent == 0  # no consensus ran
        assert protocol.rng.bit_generator.state == rng_state
        (record,) = protocol.run_rounds_pipelined([np.array([1, 2])], verify_window=1)
        assert record.correct and record.clients == ["client:0", "client:1"]


class TestMeasuredThroughput:
    def test_degenerate_history_yields_zero_not_inf(self, big_field):
        protocol = _protocol(big_field)
        # A round whose operation accounting collapsed to nothing has
        # non-finite per-round throughput; the aggregate must be 0.0.
        protocol.history.append(_degenerate_round())
        assert protocol.measured_throughput() == 0.0
        assert protocol.failed_rounds == 1

    def test_empty_history_yields_zero(self, big_field):
        assert _protocol(big_field).measured_throughput() == 0.0

    def test_failed_rounds_contribute_zero_commands(self, big_field):
        # Regression: a failed round used to contribute the throughput its
        # operation count *would* have bought, inflating the mean exactly
        # when faults bite.  The harness semantics are the reference: failed
        # rounds spend the operations but deliver zero commands.
        protocol = _protocol(big_field)
        ops = {f"node-{i}": 100 for i in range(protocol.config.num_nodes)}
        protocol.history.append(_accounted_round(0, correct=True, ops=ops))
        correct_only = protocol.measured_throughput()
        assert correct_only == pytest.approx(protocol.num_machines / 100)
        protocol.history.append(_accounted_round(1, correct=False, ops=ops))
        # Harness-style aggregate: delivered commands over the same ops.
        assert protocol.measured_throughput() == pytest.approx(correct_only / 2)
        assert protocol.failed_rounds == 1

    def test_all_failed_history_yields_zero(self, big_field):
        protocol = _protocol(big_field)
        ops = {f"node-{i}": 100 for i in range(protocol.config.num_nodes)}
        protocol.history.append(_accounted_round(0, correct=False, ops=ops))
        assert protocol.measured_throughput() == 0.0


def _accounted_round(index, correct, ops):
    from repro.core.protocol import ProtocolRound

    result = RoundResult(
        round_index=index,
        outputs=np.zeros((2, 1), dtype=np.int64),
        states=np.zeros((2, 1), dtype=np.int64),
        correct=correct,
        ops_per_node=dict(ops),
    )
    return ProtocolRound(
        round_index=index,
        commands=np.zeros((2, 1), dtype=np.int64),
        clients=["client:0", "client:1"],
        result=result,
    )


def _degenerate_round():
    from repro.core.protocol import ProtocolRound

    result = RoundResult(
        round_index=0,
        outputs=np.zeros((2, 1), dtype=np.int64),
        states=np.zeros((2, 1), dtype=np.int64),
        correct=False,
        ops_per_node={},
    )
    return ProtocolRound(
        round_index=0,
        commands=np.zeros((2, 1), dtype=np.int64),
        clients=["client:0", "client:1"],
        result=result,
    )


class TestCommandShapeValidation:
    def test_flat_submission_with_indivisible_length_raises(self, big_field):
        protocol = _protocol(big_field, num_machines=2)
        with pytest.raises(ConfigurationError, match="cannot be split"):
            protocol.run_rounds_batched([np.array([1, 2, 3])])

    def test_empty_flat_submission_raises(self, big_field):
        protocol = _protocol(big_field, num_machines=2)
        with pytest.raises(ConfigurationError, match="cannot be split"):
            protocol.run_rounds_batched([np.array([], dtype=np.int64)])

    def test_pool_submit_batch_rejects_indivisible_flat_array(self):
        pool = CommandPool(num_machines=3)
        with pytest.raises(ConfigurationError, match="cannot be split"):
            pool.submit_batch(np.array([1, 2, 3, 4]))

    def test_valid_flat_submission_still_accepted(self, big_field):
        protocol = _protocol(big_field, num_machines=2)
        (record,) = protocol.run_rounds_batched([np.array([1, 2])])
        assert record.commands.tolist() == [[1], [2]]
        assert record.correct


class TestLazySubmissionBitIdentity:
    def test_equivocating_leader_cannot_validate_future_round_commands(self, big_field):
        """An equivocating round-0 leader whose forged payload happens to equal
        round 1's real command must not see it as valid: the batched driver
        submits each round's commands lazily, so the pool's pending entries
        during round t match the sequential loop exactly.  (Submitting all
        rounds up front would make both proposals valid in round 0, forcing a
        view change the sequential path does not take.)"""
        machine = bank_account_machine(big_field, num_accounts=1)
        config = CSMConfig(big_field, num_nodes=6, num_machines=1, degree=1, num_faults=1)
        behaviors = {"node-0": EquivocatingBehavior()}  # round 0's leader
        # EquivocatingBehavior's alternative proposal is the honest commands
        # plus one: round 0 submits [5], round 1 submits [6] == [5] + 1.
        batches = [np.array([[5]]), np.array([[6]])]
        sequential = CSMProtocol(
            config, machine, dict(behaviors), rng=np.random.default_rng(0)
        )
        batched = CSMProtocol(
            config, machine, dict(behaviors), rng=np.random.default_rng(0)
        )
        seq_records = lockstep.run_rounds(sequential, batches)
        bat_records = batched.run_rounds_batched(batches)
        for seq, bat in zip(seq_records, bat_records):
            assert seq.consensus_views == bat.consensus_views
            assert np.array_equal(seq.commands, bat.commands)
            assert np.array_equal(seq.result.outputs, bat.result.outputs)
        assert sequential.all_rounds_correct and batched.all_rounds_correct


class TestBatchedProtocolAgainstByzantineExecution:
    def test_batched_rounds_survive_in_bound_faults(self, big_field):
        machine = bank_account_machine(big_field, num_accounts=2)
        config = CSMConfig(
            big_field, num_nodes=12, num_machines=4, degree=1, num_faults=2
        )
        behaviors = {
            "node-10": RandomGarbageBehavior(),
            "node-11": RandomGarbageBehavior(),
        }
        protocol = CSMProtocol(
            config, machine, behaviors, rng=np.random.default_rng(4)
        )
        rng = np.random.default_rng(11)
        batches = [rng.integers(1, 100, size=(4, 2)) for _ in range(3)]
        records = protocol.run_rounds_batched(batches)
        assert protocol.all_rounds_correct
        assert protocol.failed_rounds == 0
        # Every client received one verified output per round.
        assert all(len(v) == 3 for v in protocol.delivered_outputs.values())
        # The decoded trajectory matches uncoded reference execution.
        for k in range(4):
            state = machine.initial_state.copy()
            for batch in batches:
                state, _ = step(machine, state, batch[k])
            assert protocol.engine.states[k].tolist() == state.tolist()
        assert records[-1].round_index == 2


_LOCKSTEP_WITHOUT_SERVICE = """
import sys

import numpy as np

from repro.core.protocol import CSMProtocol
from repro.core.config import CSMConfig
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine

field = PrimeField()
machine = bank_account_machine(field, num_accounts=2)
config = CSMConfig(field, num_nodes=8, num_machines=2, degree=1, num_faults=1)
batches = [np.array([[1, 2], [3, 4]]), np.array([[5, 6], [7, 8]])]
for run in ("run_rounds_batched", "run_rounds_pipelined"):
    protocol = CSMProtocol(config, machine, rng=np.random.default_rng(0))
    records = getattr(protocol, run)(batches)
    assert len(records) == 2 and protocol.all_rounds_correct, run
print(sorted(name for name in sys.modules if name.startswith("repro.service")))
"""


class TestLockstepDriversStayInCore:
    def test_no_client_drivers_never_import_the_service_layer(self):
        """``repro.core`` drives its own lockstep rounds: the serving layer
        sits above it and is never loaded by a batched or pipelined run."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _LOCKSTEP_WITHOUT_SERVICE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

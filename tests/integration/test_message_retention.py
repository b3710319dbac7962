"""Consensus messages are not retained once their round is decided.

The network keeps counters, not a journal, and dead letters are dropped at
decision, so the number of live :class:`~repro.net.message.Message` objects
must not grow with the number of rounds run: it is the same after 10
pipelined batches as after 20, for both consensus protocols, fault-free and
under an equivocating leader (whose targeted sends wait in the mailboxes).
"""

import gc

import numpy as np
import pytest

from repro.core.config import CSMConfig
from repro.core.protocol import CSMProtocol
from repro.gf.prime_field import PrimeField
from repro.machine.library import bank_account_machine
from repro.net.byzantine import EquivocatingBehavior
from repro.net.message import Message

ROUNDS_PER_BATCH = 4


def _live_messages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Message))


@pytest.mark.parametrize("leader", ["honest", "equivocating"])
@pytest.mark.parametrize("partially_synchronous", [False, True], ids=["bcast", "pbft"])
def test_live_messages_do_not_grow_with_rounds(partially_synchronous, leader):
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    config = CSMConfig(
        field,
        num_nodes=16,
        num_machines=4,
        degree=machine.degree,
        num_faults=1,
        partially_synchronous=partially_synchronous,
    )
    behaviors = {"node-0": EquivocatingBehavior()} if leader == "equivocating" else {}
    protocol = CSMProtocol(config, machine, behaviors, rng=np.random.default_rng(3))
    commands = np.random.default_rng(8)

    def run_batches(count):
        for _ in range(count):
            batches = [
                commands.integers(1, 100, size=(config.num_machines, machine.command_dim))
                for _ in range(ROUNDS_PER_BATCH)
            ]
            protocol.run_rounds_pipelined(batches)

    run_batches(10)
    after_10 = _live_messages()
    run_batches(10)
    after_20 = _live_messages()
    assert protocol.all_rounds_correct
    assert len(protocol.history) == 20 * ROUNDS_PER_BATCH
    assert after_20 == after_10

#!/usr/bin/env python
"""Sharded-ledger scenario: CSM versus partial replication under a targeted adversary.

The paper's blockchain motivation: a sharded system hosts K independent
ledgers over N nodes.  Partial replication assigns each ledger to a disjoint
group of q = N/K nodes, so an adversary that concentrates its corruptions on
one group rewrites that ledger.  CSM stores only coded states, so the same
adversary budget is harmlessly spread across the whole network.

The script runs both schemes against the same adversary and prints which
ledgers survive.

Run with:  python examples/sharded_ledger.py
"""


from repro.core import CSMConfig, CodedExecutionEngine
from repro.gf import PrimeField
from repro.machine import bank_account_machine
from repro.net import RandomGarbageBehavior
from repro.replication import PartialReplicationSMR
from repro.rng import default_stream


NUM_NODES = 16
NUM_LEDGERS = 4          # => partial replication groups of 4 nodes
ADVERSARY_BUDGET = 3     # corruptions, all aimed at group 0


def main() -> None:
    field = PrimeField()
    machine = bank_account_machine(field, num_accounts=2)
    node_ids = [f"node-{i}" for i in range(NUM_NODES)]
    rng = default_stream(11)

    # The adversary corrupts the first three nodes — all members of partial
    # replication's group 0 (majority of a group of 4).
    behaviors = {node_ids[i]: RandomGarbageBehavior() for i in range(ADVERSARY_BUDGET)}
    commands = rng.integers(1, 100, size=(NUM_LEDGERS, machine.command_dim))

    print(f"N={NUM_NODES} nodes, K={NUM_LEDGERS} ledgers, "
          f"adversary corrupts nodes {sorted(behaviors)}\n")

    # --- partial replication -------------------------------------------------
    partial = PartialReplicationSMR(
        machine, NUM_LEDGERS, node_ids, behaviors, default_stream(11)
    )
    partial_result = partial.execute_round(commands)
    print("Partial replication (groups of", partial.group_size, "nodes):")
    for detail in partial_result.diagnostics["groups"]:
        status = "OK " if detail["accepted"] else "BROKEN"
        print(f"  ledger {detail['group']}: {status} "
              f"({detail['faulty']} corrupted replicas in its group)")
    print("  round correct overall:", partial_result.correct)
    print("  theoretical security:", partial.security_bound(), "faults\n")

    # --- coded state machine --------------------------------------------------
    config = CSMConfig(
        field=field, num_nodes=NUM_NODES, num_machines=NUM_LEDGERS,
        degree=machine.degree, num_faults=ADVERSARY_BUDGET,
    )
    csm = CodedExecutionEngine(
        config, bank_account_machine(field, num_accounts=2),
        node_ids=node_ids, behaviors=behaviors, rng=default_stream(11),
    )
    csm_result = csm.execute_round(commands)
    print("Coded State Machine:")
    print("  round correct overall:", csm_result.correct)
    print("  corrupted results detected at nodes:",
          list(csm_result.diagnostics["error_nodes"]))
    print("  theoretical security:", config.security, "faults "
          f"(decoding radius of the [N={NUM_NODES}, k={config.decoding_dimension}] RS code)")
    print("\nSame adversary, same budget: partial replication loses ledger 0, "
          "CSM loses nothing.")


if __name__ == "__main__":
    main()

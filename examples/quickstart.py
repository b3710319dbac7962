#!/usr/bin/env python
"""Quickstart: serve client commands over a Coded State Machine.

This example hosts K = 4 bank-ledger state machines on N = 12 untrusted
nodes, two of which are Byzantine.  Clients connect to the service, submit
deposit commands whenever they have them — no pre-grouped rounds — and get
back command tickets.  The round scheduler drains the traffic into batched
rounds (padding idle ledgers with the machine's no-op command), the nodes
run consensus over a simulated synchronous network, execute the transition
directly on Lagrange-coded states, and every ticket resolves to the decoded
correct output despite the faulty nodes.

Run with:  python examples/quickstart.py
"""


from repro.core import CSMConfig, CSMProtocol
from repro.gf import PrimeField
from repro.machine import bank_account_machine
from repro.net import RandomGarbageBehavior, SilentBehavior
from repro.rng import default_stream
from repro.service import CSMService


def main() -> None:
    field = PrimeField()                       # GF(2^31 - 1)
    machine = bank_account_machine(field, num_accounts=2)

    # N = 12 nodes, K = 4 machines, degree-1 transition, tolerate b = 2 faults.
    config = CSMConfig(
        field=field, num_nodes=12, num_machines=4, degree=machine.degree, num_faults=2
    )
    print("CSM configuration:", config.summary())

    behaviors = {
        "node-3": RandomGarbageBehavior(),     # reports garbage results
        "node-8": SilentBehavior(),            # never responds
    }
    protocol = CSMProtocol(config, machine, behaviors, rng=default_stream(7))

    # The service is the client-facing API: sessions submit ragged traffic,
    # the scheduler batches it into rounds behind the scenes.  pipeline=True
    # executes each tick through the speculative decode/execute pipeline —
    # honest state advances from a pivot-only interpolation, verification is
    # deferred to one stacked check per window, and a mismatch rolls back to
    # the last verified checkpoint and re-executes deterministically — with
    # ticket outcomes and round history bit-identical to the batched drive.
    service = CSMService(protocol, pipeline=True)
    alice = service.connect("alice")
    bob = service.connect("bob")

    # Alice banks on ledgers 0 and 1; Bob is a burst client hammering ledger 2
    # with three deposits in a row.  Ledger 3 is idle — the scheduler pads it
    # with the machine's no-op command (an identity transition), so nobody has
    # to invent traffic for it.
    tickets = [
        alice.submit(0, [100, 50]),
        alice.submit(1, [20, 80]),
        bob.submit(2, [5, 5]),
        bob.submit(2, [30, 0]),
        bob.submit(2, [1, 1]),
    ]

    records = service.drain()                  # schedule + consensus + execute
    for record in records:
        print(
            f"round {record.round_index}: correct={record.correct} "
            f"view={record.consensus_views} clients={record.clients} "
            f"suspected_faulty={record.result.diagnostics['error_nodes']}"
        )

    for ticket in tickets:
        print(
            f"ticket {ticket.sequence} ({ticket.client_id} -> ledger "
            f"{ticket.machine_index}): {ticket.state.value} in round "
            f"{ticket.round_index}, balances = {ticket.result().tolist()}"
        )

    print("all rounds correct:", protocol.all_rounds_correct)
    print("measured throughput (commands per unit per-node op):",
          f"{protocol.measured_throughput():.2e}")
    print("storage per node: one coded state of size", machine.state_dim,
          f"field elements, serving K={config.num_machines} machines "
          f"(storage efficiency {config.storage_efficiency})")

    # Scaling further: the machines are logically independent, so the same
    # client surface can be served by ShardedCSMService — partition the K
    # machines into S shards, each with its own command pool, scheduler and
    # consensus instance over its own node group, behind one façade:
    #
    #   from repro.service import ShardedCSMService
    #   service = ShardedCSMService.from_partition(4, 2, shard_backend)
    #
    # where shard_backend(shard_index, shard_machines) returns a CSMProtocol
    # sized for that shard.  Tickets, sequences and the merged reporting view
    # read exactly as above; see the README's "Sharded serving" section and
    # the sharded4_pbft_n64 workload of benchmarks/e2e for what it measures.

    # Delegated verification (Section 6.2): the same service surface can run
    # with ALL coding work handed to one untrusted worker per batch, merely
    # verified by an INTERMIX auditor committee — per-node coding cost drops
    # to polylogarithmic.  Swap the backend, keep the client code:
    from repro.intermix import DelegationRoundProtocol

    delegated = CSMService(
        DelegationRoundProtocol(
            machine, 4, [f"node-{i}" for i in range(12)], rng=default_stream(7)
        )
    )
    carol = delegated.connect("carol")
    ticket = carol.submit(0, [42, 0])
    delegated.drain()
    print("delegated round ticket:", ticket.state.value,
          "balances =", ticket.result().tolist())
    # A worker convicted of fraud voids the round instead: tickets FAIL with
    # FailureReason.DELEGATION_FRAUD, no output is delivered, and the coded
    # states stay put so resubmission under a fresh committee is safe.


if __name__ == "__main__":
    main()

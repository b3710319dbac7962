"""Pinned-digest replay net for refactors of the delegated-coding path.

Three fixed-seed :class:`DelegationRoundProtocol` scenarios, each hashed
over everything a refactor of the delegation backend could move: every
round's outputs, states, correctness, per-node operation counts, worker and
diagnostics, plus the final rng state (committee elections and cheating
workers both draw from it).

The ``GOLDEN_DIGESTS`` were recorded at commit eb41ac8 — *before* the
backend lost its scalar per-column INTERMIX mode, in which every scenario
hashed the same as in the stacked ``run_batch`` mode — so a digest that
moves means observable behaviour moved.  The diagnostics key ``"batched"``
that mode switch wrote is left out of the hash.  One digest was re-recorded
since: ``corrupt_decoder_with_dishonest_auditors``, when a void round began
reporting the last decoded states instead of zeros (its round 4 is the only
void round after the states have moved).  Later, overhearing stopped
re-asking the worker for answers it had already broadcast, which moved
``corrupt_worker_reelected_mid_batch`` and, again,
``corrupt_decoder_with_dishonest_auditors``: their accused workers used to
be charged each overheard answer twice.  With every round's worker
operation count masked out, both hash the same before and after.  Each
scenario also asserts that it still reaches the branch it exists for
(honest delivery, a mid-batch conviction and re-election, a cheating
decoder among dishonest auditors), so a digest cannot stay green by
silently leaving its path.
"""

import hashlib

import numpy as np
import pytest

from repro.gf.prime_field import PrimeField
from repro.intermix import DelegationRoundProtocol
from repro.intermix.worker import WorkerStrategy
from repro.machine.library import bank_account_machine
from repro.rng import default_stream

GOLDEN_DIGESTS = {
    "honest_n16_k4": "94c90878781192610cc5f678b2cd68e20ac6273c626fb0987f4809b2c6bc4f7c",
    "corrupt_worker_reelected_mid_batch": "1270d45318fdd9b6203724d0d64647c5d0420ccfee84732ff9d66b1f67bb230c",
    "corrupt_decoder_with_dishonest_auditors": "d231f0e4699144a48dd414353031ca00bb172eb5585d6cc5f6616124af50ba63",
}

FIELD = PrimeField()
NUM_NODES = 16
NUM_MACHINES = 4
NUM_ROUNDS = 8
COMMAND_SEED = 4321
NODE_IDS = [f"node-{i}" for i in range(NUM_NODES)]


def _protocol(seed=7, **kwargs):
    machine = bank_account_machine(FIELD, num_accounts=2)
    return DelegationRoundProtocol(
        machine, NUM_MACHINES, NODE_IDS, rng=default_stream(seed), **kwargs
    )


def _batches(protocol, num_rounds=NUM_ROUNDS):
    rng = np.random.default_rng(COMMAND_SEED)
    shape = (protocol.num_machines, protocol.machine.command_dim)
    return [rng.integers(1, 1000, size=shape) for _ in range(num_rounds)]


def _first_worker():
    probe = _protocol()
    probe.run_rounds_batched(_batches(probe, 1))
    return probe.history[0].result.diagnostics["worker"]


def _digest(protocol):
    h = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    for record in protocol.history:
        result = record.result
        diagnostics = {k: v for k, v in result.diagnostics.items() if k != "batched"}
        feed(
            np.asarray(result.outputs).tolist(),
            np.asarray(result.states).tolist(),
            result.correct,
            sorted(result.ops_per_node.items()),
            result.diagnostics["worker"],
            sorted(diagnostics.items()),
        )
    feed(protocol.rng.bit_generator.state["state"])
    return h.hexdigest()


def _workers(protocol):
    return [r.result.diagnostics["worker"] for r in protocol.history]


def honest_n16_k4():
    protocol = _protocol()
    protocol.run_rounds_batched(_batches(protocol))
    assert protocol.all_rounds_correct
    assert len(set(_workers(protocol))) == 1  # one election serves the batch
    return protocol


def corrupt_worker_reelected_mid_batch():
    # The seed's first worker cheats on every product it computes: round 0
    # convicts it, the protocol bans it and re-elects for rounds 1..7.
    cheater = _first_worker()
    protocol = _protocol(worker_strategies={cheater: WorkerStrategy.CORRUPT_RESULT})
    protocol.run_rounds_batched(_batches(protocol))
    flags = [r.correct for r in protocol.history]
    assert flags == [False] + [True] * (NUM_ROUNDS - 1)
    assert protocol.history[0].result.diagnostics["confirmed_fraud"]
    workers = _workers(protocol)
    assert workers[0] == cheater and cheater not in workers[1:]
    assert protocol.convicted_workers == {cheater}
    return protocol


def corrupt_decoder_with_dishonest_auditors():
    # Half the network decodes dishonestly and the other half audits
    # dishonestly; batches of two rounds re-elect often enough to land on
    # both kinds of worker, and round 4's conviction re-elects mid-batch.
    protocol = _protocol(
        corrupt_decoder_workers=set(NODE_IDS[::2]),
        dishonest_auditors=set(NODE_IDS[1::2]),
    )
    batches = _batches(protocol)
    for start in range(0, NUM_ROUNDS, 2):
        protocol.run_rounds_batched(batches[start:start + 2])
    flags = [r.correct for r in protocol.history]
    assert True in flags and False in flags
    return protocol


SCENARIOS = (
    honest_n16_k4,
    corrupt_worker_reelected_mid_batch,
    corrupt_decoder_with_dishonest_auditors,
)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda scenario: scenario.__name__)
def test_digest_matches_recorded(scenario):
    assert _digest(scenario()) == GOLDEN_DIGESTS[scenario.__name__]

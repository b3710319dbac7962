"""Property tests: batched INTERMIX is bit-identical to the per-column oracle.

:meth:`IntermixProtocol.run_batch` amortises a batch of verified
matrix–vector products into one stacked matrix multiplication shared by the
worker and every auditor; the per-column loop of
:func:`reference.intermix.scalar_run`, where every role recomputes its
column with its own ``gf_matvec``, is the reference oracle.  Across random
shapes, seeds, cheating-worker strategies and dishonest-auditor sets, the
two paths must agree on *everything* observable: verdicts, accusation
transcripts, per-role operation counts, and the position of the shared rng
stream.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from reference.intermix import scalar_run
from repro.gf.prime_field import PrimeField
from repro.intermix.protocol import IntermixProtocol
from repro.intermix.worker import WorkerStrategy
from repro.rng import default_stream

FIELDS = [PrimeField(p) for p in (101, 65_537, 2_147_483_647)]

STRATEGIES = (
    WorkerStrategy.HONEST,
    WorkerStrategy.CORRUPT_RESULT,
    WorkerStrategy.CONSISTENT_LIAR,
    WorkerStrategy.SILENT,
)

relaxed = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _transcripts_identical(a, b):
    return len(a) == len(b) and all(
        x.auditor_id == y.auditor_id
        and x.accepted == y.accepted
        and x.row_index == y.row_index
        and x.path == y.path
        and x.failure_kind == y.failure_kind
        and x.parent_claim == y.parent_claim
        and x.half_claims == y.half_claims
        and x.leaf_range == y.leaf_range
        and x.queries_issued == y.queries_issued
        for x, y in zip(a, b)
    )


def assert_outcomes_identical(a, b):
    assert a.accepted == b.accepted
    assert a.confirmed_fraud == b.confirmed_fraud
    if a.result is None or b.result is None:
        assert a.result is None and b.result is None
    else:
        assert np.array_equal(a.result, b.result)
    assert a.committee == b.committee
    assert _transcripts_identical(a.transcripts, b.transcripts)
    assert [
        (v.commoner_id, v.transcript_author, v.fraud_confirmed, v.operations)
        for v in a.verdicts
    ] == [
        (v.commoner_id, v.transcript_author, v.fraud_confirmed, v.operations)
        for v in b.verdicts
    ]
    assert a.worker_operations == b.worker_operations
    assert a.auditor_operations == b.auditor_operations
    assert a.commoner_operations == b.commoner_operations


@relaxed
@given(
    field_index=st.integers(min_value=0, max_value=len(FIELDS) - 1),
    length=st.integers(min_value=2, max_value=33),
    columns=st.integers(min_value=1, max_value=5),
    num_nodes=st.integers(min_value=8, max_value=18),
    strategy=st.sampled_from(STRATEGIES),
    dishonest_count=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_batch_bit_identical_to_scalar_run(
    field_index, length, columns, num_nodes, strategy, dishonest_count, seed
):
    field = FIELDS[field_index]
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    data = default_stream(seed)
    matrix = data.integers(0, field.order, size=(num_nodes, length))
    vectors = data.integers(0, field.order, size=(length, columns))
    # Marked nodes audit dishonestly *if* elected to the committee; the
    # election itself is part of the compared rng stream.
    dishonest = set(node_ids[:dishonest_count])
    kwargs = dict(
        fault_fraction=0.25,
        worker_strategies={n: strategy for n in node_ids},
        dishonest_auditors=dishonest,
    )

    batch_protocol = IntermixProtocol(
        field, node_ids, rng=default_stream(seed), **kwargs
    )
    batch_outcomes = batch_protocol.run_batch(matrix, vectors)

    scalar_protocol = IntermixProtocol(
        field, node_ids, rng=default_stream(seed), **kwargs
    )
    committee = scalar_protocol.election.elect()
    scalar_outcomes = [
        scalar_run(scalar_protocol, matrix, vectors[:, c], committee=committee)
        for c in range(columns)
    ]

    assert len(batch_outcomes) == len(scalar_outcomes) == columns
    for batched, scalar in zip(batch_outcomes, scalar_outcomes):
        assert_outcomes_identical(batched, scalar)
    # Same rng position afterwards: the batch drew exactly the draws the
    # scalar loop did (election permutation + one corruption index per
    # cheating, non-silent worker round).
    assert (
        batch_protocol.rng.bit_generator.state
        == scalar_protocol.rng.bit_generator.state
    )


@relaxed
@given(
    field_index=st.integers(min_value=0, max_value=len(FIELDS) - 1),
    length=st.integers(min_value=1, max_value=65),
    strategy=st.sampled_from(STRATEGIES),
    dishonest_count=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_is_one_verified_product_of_the_oracle(
    field_index, length, strategy, dishonest_count, seed
):
    """``run`` elects its own committee and matches the oracle doing the same."""
    field = FIELDS[field_index]
    node_ids = [f"node-{i}" for i in range(12)]
    data = default_stream(seed)
    matrix = data.integers(0, field.order, size=(12, length))
    vector = data.integers(0, field.order, size=length)
    kwargs = dict(
        fault_fraction=0.25,
        worker_strategies={n: strategy for n in node_ids},
        dishonest_auditors=set(node_ids[:dishonest_count]),
    )
    protocol = IntermixProtocol(field, node_ids, rng=default_stream(seed), **kwargs)
    oracle = IntermixProtocol(field, node_ids, rng=default_stream(seed), **kwargs)
    for _ in range(2):
        assert_outcomes_identical(
            protocol.run(matrix, vector), scalar_run(oracle, matrix, vector)
        )
    assert protocol.rng.bit_generator.state == oracle.rng.bit_generator.state


@relaxed
@given(
    length=st.integers(min_value=2, max_value=17),
    columns=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_run_batch_soundness(length, columns, seed):
    """Batched verification still catches every cheating worker."""
    field = FIELDS[-1]
    node_ids = [f"node-{i}" for i in range(12)]
    data = default_stream(seed)
    matrix = data.integers(0, field.order, size=(12, length))
    vectors = data.integers(0, field.order, size=(length, columns))
    for strategy in STRATEGIES[1:]:
        protocol = IntermixProtocol(
            field,
            node_ids,
            fault_fraction=0.25,
            rng=default_stream(seed),
            worker_strategies={n: strategy for n in node_ids},
        )
        for outcome in protocol.run_batch(matrix, vectors):
            assert not outcome.accepted
            assert outcome.fraud_detected

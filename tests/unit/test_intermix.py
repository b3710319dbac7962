"""Unit tests for INTERMIX: committee election, worker strategies, auditor
bisection, commoner verification, the protocol, and the delegated coding."""

import math

import numpy as np
import pytest

from reference.intermix import audit, compute
from reference.machine import evaluate
from repro.analysis.complexity import intermix_worst_case_overhead
from repro.exceptions import ConfigurationError
from repro.gf.linalg import gf_matvec
from repro.gf.matrix_cache import clear_matrix_cache, matrix_cache_info
from repro.intermix.auditor import Auditor
from repro.intermix.commoner import Commoner
from repro.intermix.committee import Committee, CommitteeElection, required_committee_size
from repro.intermix.delegation import DelegatedCodingService
from repro.intermix.protocol import IntermixProtocol
from repro.intermix.worker import Worker, WorkerStrategy
from repro.lcc.encoder import CodedStateEncoder
from repro.lcc.scheme import LagrangeScheme


NODE_IDS = [f"node-{i}" for i in range(12)]


class TestCommittee:
    def test_required_size_formula(self):
        assert required_committee_size(0.25, 1e-6) == math.ceil(math.log(1e-6) / math.log(0.25))
        assert required_committee_size(0.0, 1e-6) == 1
        with pytest.raises(ConfigurationError):
            required_committee_size(1.0, 1e-6)
        with pytest.raises(ConfigurationError):
            required_committee_size(0.25, 1.5)

    def test_soundness_failure_probability(self):
        election = CommitteeElection(NODE_IDS, 0.25, 1e-3)
        assert election.soundness_failure_probability() <= 1e-3

    def test_elected_roles_are_disjoint_and_cover_all_nodes(self, rng):
        election = CommitteeElection(NODE_IDS, 0.25, 1e-3, rng=rng)
        committee = election.elect()
        members = [committee.worker] + committee.auditors + committee.commoners
        assert sorted(members) == sorted(NODE_IDS)
        assert committee.worker not in committee.auditors
        assert committee.role_of(committee.worker) == "worker"
        assert committee.role_of(committee.auditors[0]) == "auditor"

    def test_self_election_produces_at_least_one_auditor(self, rng):
        election = CommitteeElection(NODE_IDS, 0.25, 1e-3, rng=rng)
        for _ in range(10):
            committee = election.elect_by_self_election()
            assert len(committee.auditors) >= 1

    def test_committee_size_capped_by_network(self):
        election = CommitteeElection(["a", "b"], 0.4, 1e-9)
        assert election.committee_size == 1


class TestWorker:
    def _inputs(self, big_field, rng, rows=6, cols=8):
        matrix = rng.integers(0, big_field.order, size=(rows, cols))
        vector = rng.integers(0, big_field.order, size=cols)
        return matrix, vector

    def test_honest_worker_computes_correct_product(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.HONEST)
        result = compute(worker, matrix, vector)
        assert result.tolist() == gf_matvec(big_field, matrix, vector).tolist()
        assert worker.operations > 0

    def test_corrupt_worker_changes_exactly_one_row(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.CORRUPT_RESULT, rng=rng)
        claimed = compute(worker, matrix, vector)
        truth = gf_matvec(big_field, matrix, vector)
        assert int(np.sum(claimed != truth)) == 1

    def test_silent_worker_returns_none(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.SILENT)
        assert compute(worker, matrix, vector) is None
        assert worker.answer_query(0, 0, 4) is None

    def test_consistent_liar_halves_sum_to_parent(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng, rows=4, cols=8)
        worker = Worker("w", big_field, WorkerStrategy.CONSISTENT_LIAR, rng=rng)
        claimed = compute(worker, matrix, vector)
        truth = gf_matvec(big_field, matrix, vector)
        bad_row = int(np.nonzero(claimed != truth)[0][0])
        left = worker.answer_query(bad_row, 0, 4)
        right = worker.answer_query(bad_row, 4, 8)
        assert big_field.add(left, right) == int(claimed[bad_row])

    def test_query_before_compute_rejected(self, big_field):
        with pytest.raises(ConfigurationError):
            Worker("w", big_field).answer_query(0, 0, 1)


class TestAuditorAndCommoner:
    def _inputs(self, big_field, rng, rows=5, cols=16):
        matrix = rng.integers(0, big_field.order, size=(rows, cols))
        vector = rng.integers(0, big_field.order, size=cols)
        return matrix, vector

    def test_honest_worker_is_acknowledged(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.HONEST)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        assert transcript.accepted

    def test_corrupt_worker_caught_in_one_level(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.CORRUPT_RESULT, rng=rng)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        assert not transcript.accepted
        assert transcript.failure_kind == "sum-mismatch"
        assert transcript.queries_issued == 2

    def test_consistent_liar_caught_within_log_rounds(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng, cols=64)
        worker = Worker("w", big_field, WorkerStrategy.CONSISTENT_LIAR, rng=rng)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        assert not transcript.accepted
        assert transcript.failure_kind == "leaf-mismatch"
        assert transcript.queries_issued <= 2 * math.ceil(math.log2(64))
        assert len(transcript.path) <= math.ceil(math.log2(64))

    def test_silent_worker_convicted_without_queries(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.SILENT)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        assert transcript.failure_kind == "no-response"

    def test_commoner_confirms_sum_mismatch_in_constant_ops(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.CORRUPT_RESULT, rng=rng)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        commoner = Commoner("c", big_field)
        verdict = commoner.verify_transcript(transcript, matrix, vector, claimed)
        assert verdict.fraud_confirmed
        assert verdict.operations <= 3

    def test_commoner_dismisses_baseless_accusation(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.HONEST)
        claimed = compute(worker, matrix, vector)
        dishonest = Auditor("a", big_field, dishonest=True)
        transcript = audit(dishonest, matrix, vector, claimed, worker)
        assert not transcript.accepted  # the baseless alert
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25)
        public = protocol._with_overheard_claims(transcript, worker, claimed)
        verdict = Commoner("c", big_field).verify_transcript(public, matrix, vector, claimed)
        assert not verdict.fraud_confirmed

    @pytest.mark.parametrize(
        "strategy", [WorkerStrategy.CORRUPT_RESULT, WorkerStrategy.CONSISTENT_LIAR]
    )
    def test_overhearing_reads_answers_instead_of_asking_again(
        self, big_field, rng, strategy
    ):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, strategy, rng=rng)
        claimed = compute(worker, matrix, vector)
        transcript = audit(Auditor("a", big_field), matrix, vector, claimed, worker)
        charged = worker.operations
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25)
        public = protocol._with_overheard_claims(transcript, worker, claimed)
        assert (public.parent_claim, public.half_claims) == (
            transcript.parent_claim, transcript.half_claims
        )
        assert worker.operations == charged
        asked = [(q.row_index, q.start, q.stop) for q in worker.query_log]
        assert len(asked) == len(set(asked)) == transcript.queries_issued

    def test_baseless_alert_range_is_answered_once(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        worker = Worker("w", big_field, WorkerStrategy.HONEST)
        claimed = compute(worker, matrix, vector)
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25)
        for name in ("a", "b"):
            alert = audit(Auditor(name, big_field, dishonest=True), matrix, vector, claimed, worker)
            protocol._with_overheard_claims(alert, worker, claimed)
        assert [(q.row_index, q.start, q.stop) for q in worker.query_log] == [(0, 0, 1)]


class TestIntermixProtocol:
    def _inputs(self, big_field, rng, rows=12, cols=16):
        matrix = rng.integers(0, big_field.order, size=(rows, cols))
        vector = rng.integers(0, big_field.order, size=cols)
        return matrix, vector

    def test_honest_run_accepted_with_correct_result(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25, rng=rng)
        outcome = protocol.run(matrix, vector)
        assert outcome.accepted
        assert outcome.result.tolist() == gf_matvec(big_field, matrix, vector).tolist()
        assert not outcome.fraud_detected

    @pytest.mark.parametrize(
        "strategy",
        [WorkerStrategy.CORRUPT_RESULT, WorkerStrategy.CONSISTENT_LIAR, WorkerStrategy.SILENT],
    )
    def test_every_cheating_strategy_rejected(self, big_field, rng, strategy):
        matrix, vector = self._inputs(big_field, rng)
        protocol = IntermixProtocol(
            big_field, NODE_IDS, 0.25, rng=rng,
            worker_strategies={n: strategy for n in NODE_IDS},
        )
        outcome = protocol.run(matrix, vector)
        assert not outcome.accepted

    def test_commoner_cost_constant_while_auditor_cost_grows(self, big_field, rng):
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25, rng=np.random.default_rng(1))
        small = protocol.run(*self._inputs(big_field, rng, rows=12, cols=8))
        large = protocol.run(*self._inputs(big_field, rng, rows=12, cols=128))
        max_commoner_small = max(small.commoner_operations.values() or [0])
        max_commoner_large = max(large.commoner_operations.values() or [0])
        assert max_commoner_large <= max_commoner_small + 2  # O(1) verification
        assert sum(large.auditor_operations.values()) > sum(small.auditor_operations.values())

    def test_worker_pays_its_share_and_each_answered_query_once(self, big_field, rng):
        """A worker caught at the first bisection level pays ``c(AX)`` + 2J half-products."""
        matrix, vector = self._inputs(big_field, rng)
        protocol = IntermixProtocol(
            big_field, NODE_IDS, 0.25, rng=rng,
            worker_strategies={n: WorkerStrategy.CORRUPT_RESULT for n in NODE_IDS},
        )
        outcome = protocol.run(matrix, vector)
        queries = sum(t.queries_issued for t in outcome.transcripts)
        assert queries == 2 * len(outcome.committee.auditors) == 20
        share = 12 * 16 + 12 * 15  # the 12 x 16 product
        half_product = 8 + 7  # one 8-entry inner product
        assert outcome.worker_operations == share + queries * half_product == 672

    def test_operations_for_lookup(self, big_field, rng):
        matrix, vector = self._inputs(big_field, rng)
        protocol = IntermixProtocol(big_field, NODE_IDS, 0.25, rng=rng)
        outcome = protocol.run(matrix, vector)
        assert outcome.operations_for(outcome.committee.worker) == outcome.worker_operations
        total = sum(outcome.operations_for(n) for n in NODE_IDS)
        assert total == outcome.total_operations


    @pytest.mark.parametrize("dishonest_count", [0, 3])
    @pytest.mark.parametrize("strategy", list(WorkerStrategy))
    @pytest.mark.parametrize("length", [16, 64, 256])
    def test_worst_case_bound_holds_under_every_adversary(
        self, big_field, length, strategy, dishonest_count
    ):
        """Section 6.1: ``(J + 1) c(AX) + 8JK + 3J log K + N - J - 1`` bounds a run."""
        node_ids = [f"node-{i}" for i in range(16)]
        data = np.random.default_rng(length)
        matrix = data.integers(0, big_field.order, size=(16, length))
        vector = data.integers(0, big_field.order, size=length)
        committee = CommitteeElection(node_ids, 0.25, rng=np.random.default_rng(5)).elect()
        protocol = IntermixProtocol(
            big_field, node_ids, 0.25, rng=np.random.default_rng(7),
            worker_strategies={committee.worker: strategy},
            dishonest_auditors=set(committee.auditors[:dishonest_count]),
        )
        outcome = protocol.run(matrix, vector, committee=committee)
        assert outcome.accepted == (strategy is WorkerStrategy.HONEST)
        bound = intermix_worst_case_overhead(
            16, length, len(committee.auditors), 2 * 16 * length
        )
        assert outcome.total_operations <= bound


class TestDelegatedCoding:
    @pytest.fixture
    def scheme(self, big_field):
        return LagrangeScheme(big_field, num_machines=3, num_nodes=14)

    @pytest.fixture
    def service(self, scheme):
        return DelegatedCodingService(
            scheme, transition_degree=2,
            node_ids=[f"node-{i}" for i in range(14)],
            fault_fraction=0.2, rng=np.random.default_rng(0),
        )

    def test_verified_encoding_matches_local_encoding(self, scheme, service, rng):
        commands = rng.integers(0, 1000, size=(3, 2))
        coded, report = service.encode_vectors_verified(commands)
        assert report.accepted
        assert coded.tolist() == CodedStateEncoder(scheme).encode(commands).tolist()

    def test_verified_state_update(self, scheme, service, rng):
        states = rng.integers(0, 1000, size=(3, 2))
        coded, report = service.encode_vectors_verified(states, operation="update-states")
        assert report.accepted
        assert report.operation == "update-states"
        assert coded.tolist() == CodedStateEncoder(scheme).encode(states).tolist()

    def test_verified_decoding_recovers_outputs(self, scheme, service, big_field, rng):
        from repro.gf.multivariate import MultivariatePolynomial

        poly = MultivariatePolynomial(big_field, 4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
        states = rng.integers(0, 1000, size=(3, 2))
        commands = rng.integers(0, 1000, size=(3, 2))
        encoder = CodedStateEncoder(scheme)
        coded_states = encoder.encode(states)
        coded_commands = encoder.encode(commands)
        results = np.zeros((14, 1), dtype=np.int64)
        for i in range(14):
            results[i, 0] = evaluate(
                poly,
                [int(coded_states[i, 0]), int(coded_states[i, 1]),
                 int(coded_commands[i, 0]), int(coded_commands[i, 1])],
            )
        results[1, 0] = 999  # one Byzantine result
        decoded, report = service.decode_results_verified_fast(results)
        expected = [
            [evaluate(poly, [int(s[0]), int(s[1]), int(x[0]), int(x[1])])]
            for s, x in zip(states, commands)
        ]
        assert report.accepted
        assert decoded.tolist() == expected

    def test_cheating_decode_worker_rejected(self, scheme, big_field, rng):
        service = DelegatedCodingService(
            scheme, transition_degree=2,
            node_ids=[f"node-{i}" for i in range(14)],
            fault_fraction=0.2, rng=np.random.default_rng(1),
            corrupt_decoder_workers={f"node-{i}" for i in range(14)},
        )
        encoder = CodedStateEncoder(scheme)
        values = rng.integers(0, 100, size=(3, 1))
        coded = encoder.encode(values)
        _, report = service.decode_results_verified_fast(coded)
        assert report.accepted is False

    def test_cheating_encode_worker_detected(self, scheme, rng):
        service = DelegatedCodingService(
            scheme, transition_degree=2,
            node_ids=[f"node-{i}" for i in range(14)],
            fault_fraction=0.2, rng=np.random.default_rng(2),
            worker_strategies={
                f"node-{i}": WorkerStrategy.CORRUPT_RESULT for i in range(14)
            },
        )
        commands = rng.integers(0, 100, size=(3, 2))
        _, report = service.encode_vectors_verified(commands)
        assert not report.accepted

    def test_commoner_cost_stays_constant_as_k_grows(self, big_field, rng):
        costs = []
        for k, n in ((2, 10), (4, 20), (8, 40)):
            scheme = LagrangeScheme(big_field, num_machines=k, num_nodes=n)
            service = DelegatedCodingService(
                scheme, transition_degree=1,
                node_ids=[f"node-{i}" for i in range(n)],
                fault_fraction=0.2, rng=np.random.default_rng(3),
            )
            commands = rng.integers(0, 100, size=(k, 1))
            _, report = service.encode_vectors_verified(commands)
            costs.append(report.max_commoner_operations)
        assert max(costs) <= 2

    def test_reports_add_up_only_their_own_committee(self, service, rng):
        commands = rng.integers(0, 1000, size=(3, 2))
        _, first = service.encode_vectors_verified(commands)
        _, second = service.encode_vectors_verified(commands)  # a fresh election
        assert first.committee != second.committee
        with pytest.raises(ConfigurationError):
            first.merge(second)

    def test_decode_matrices_cached_and_bounded(self, scheme, big_field, rng):
        """Eqs. (9)/(8) read the cached Vandermonde matrices, whatever tau is."""
        clear_matrix_cache()
        service = DelegatedCodingService(
            scheme, transition_degree=2,
            node_ids=[f"node-{i}" for i in range(14)],
            fault_fraction=0.2, rng=np.random.default_rng(4),
        )
        values = rng.integers(0, 1000, size=(3, 2))
        clean = CodedStateEncoder(scheme).encode(values)
        expected, report = service.decode_results_verified_fast(clean)
        assert report.accepted
        assert expected.tolist() == values.tolist()
        cached = []
        # Three agreement sets, each corruption within the decoding radius.
        for corrupted in ([1], [2, 7], [0, 5, 9, 13]):
            results = clean.copy()
            results[corrupted] = big_field.add(results[corrupted], 1)
            decoded, report = service.decode_results_verified_fast(results)
            assert report.accepted
            assert decoded.tolist() == expected.tolist()
            cached.append(matrix_cache_info()["vandermonde"])
        assert cached == [2, 2, 2]

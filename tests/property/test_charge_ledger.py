"""Every charge ``src/`` computes equals what the counting oracle overhears.

No field counts its own arithmetic: each piece of work computes its charge
from the shapes and values it ran on (:mod:`repro.gf.charges`) and returns it
with its result.  :mod:`reference.counting` overhears the same call's field
arithmetic by the per-call rules.  Over GF(97), GF(2**31 - 1) and GF(2**8)
the two must agree exactly on:

* :meth:`~repro.lcc.decoder.CodedResultDecoder.decode_fast` — clean, with
  errors off and on the interpolation pivot (the Berlekamp–Welch fallback),
  at and one past the radius (a :class:`DecodingError` carries its charge)
  and with erasures;
* Gauss–Jordan elimination on singular and non-singular systems, an
  inconsistent solve, :func:`long_division` and :func:`horner`;
* :meth:`~repro.intermix.protocol.IntermixProtocol.run_batch` for every
  worker strategy with 0 and 3 dishonest auditors: each role's per-column
  operations.
"""

import copy
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference.counting import counted, counting
from repro.coding.reed_solomon import horner, long_division
from repro.exceptions import DecodingError, FieldError
from repro.gf.extension_field import BinaryExtensionField
from repro.gf.linalg import _row_reduce, gf_solve
from repro.gf.prime_field import PrimeField
from repro.intermix import protocol as protocol_module
from repro.intermix.auditor import Auditor
from repro.intermix.commoner import Commoner
from repro.intermix.committee import Committee
from repro.intermix.protocol import IntermixProtocol
from repro.intermix.worker import Worker, WorkerStrategy
from repro.lcc.decoder import CodedResultDecoder
from repro.lcc.scheme import LagrangeScheme
from repro.rng import default_stream

FIELDS = {
    "GF(97)": PrimeField(97),
    "GF(2^31-1)": PrimeField(),
    "GF(2^8)": BinaryExtensionField(8),
}
SCENARIOS = ("clean", "off-pivot", "on-pivot", "at-radius", "past-radius", "erasures")

relaxed = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- decode_fast ---------------------------------------------------------------------


def _received(field, scenario, num_machines, degree, redundancy, width, seed):
    """A decoder and one round's coded results laid out for ``scenario``."""
    data = default_stream(seed)
    dimension = degree * (num_machines - 1) + 1
    num_nodes = dimension + redundancy
    decoder = CodedResultDecoder(LagrangeScheme(field, num_machines, num_nodes), degree)
    radius = decoder.max_errors
    coefficients = field.array(data.integers(0, field.order, size=(dimension, width)))
    results = field.matmul(decoder.code.encoding_matrix, coefficients)
    rows = np.arange(num_nodes)
    missing: list[int] = []
    if scenario == "clean":
        wrong: list[int] = []
    elif scenario == "off-pivot":  # the pivot is the first ``dimension`` rows
        wrong = data.choice(rows[dimension:], size=data.integers(1, radius + 1), replace=False)
    elif scenario == "on-pivot":
        others = data.choice(rows[1:], size=data.integers(0, radius), replace=False)
        wrong = [int(data.integers(0, dimension)), *others]
        wrong = list(dict.fromkeys(wrong))
    elif scenario in ("at-radius", "past-radius"):
        count = radius + (scenario == "past-radius")
        wrong = data.choice(rows, size=count, replace=False)
    else:
        missing = data.choice(rows, size=data.integers(1, radius + 1), replace=False).tolist()
        present = [i for i in rows if i not in missing]
        budget = (len(present) - dimension) // 2
        wrong = data.choice(present, size=data.integers(0, budget + 2), replace=False)
    for row in wrong:
        # Each wrong row is off in a random nonempty subset of its components
        # (in all of them at and past the radius).
        hit = data.random(width) < 0.5
        hit[data.integers(0, width)] = True
        hit |= scenario in ("at-radius", "past-radius")
        offsets = data.integers(1, field.order, size=width)
        results[row] = np.where(hit, field.add(results[row], offsets), results[row])
    received = [None if i in missing else results[i] for i in rows] if missing else results
    return decoder, received


def _decode_charges(field, decoder, received, suspects):
    """``(charge, overheard, failed)`` of one ``decode_fast`` on a warm cache."""
    try:
        decoded, count = counted(field, decoder.decode_fast, received, set(suspects))
    except DecodingError as exc:
        return exc.ops, exc.count.total, True
    return decoded.ops, count.total, False


def check_decode_fast(field, scenario, num_machines, degree, redundancy, width, seed):
    decoder, received = _received(
        field, scenario, num_machines, degree, redundancy, width, seed
    )
    suspect = int(default_stream(seed + 1).integers(0, decoder.scheme.num_nodes))
    charges = []
    for suspects in (set(), {suspect}):
        cold = _decode_charges(field, decoder, received, suspects)
        # Cache builds are charged to no decode: a warm decode charges the same.
        warm = _decode_charges(field, decoder, received, suspects)
        assert cold[0] == warm[0] == warm[1]
        assert cold[2] == warm[2]
        charges.append(warm)
    return charges[0]


@relaxed
@given(
    field_name=st.sampled_from(sorted(FIELDS)),
    scenario=st.sampled_from(SCENARIOS),
    num_machines=st.integers(2, 4),
    degree=st.integers(1, 2),
    redundancy=st.integers(2, 7),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_decode_fast_charges_what_it_spends(
    field_name, scenario, num_machines, degree, redundancy, width, seed
):
    check_decode_fast(
        FIELDS[field_name], scenario, num_machines, degree, redundancy, width, seed
    )


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_decode_path_is_charged(field_name, scenario):
    # One pinned example per path: the clean and off-pivot rounds stay on the
    # three pivot products, an error on the pivot falls back to a scalar
    # decode, and one past the radius fails carrying its charge.
    field = FIELDS[field_name]
    charge, _, failed = check_decode_fast(field, scenario, 3, 2, 6, 2, seed=7)
    # N=11, K=3, D=5: the three pivot products for two components.
    fast_path = sum(rows * 5 * 2 + rows * 4 * 2 for rows in (11, 3, 5))
    assert failed == (scenario == "past-radius")
    if scenario in ("clean", "off-pivot"):
        assert charge == fast_path
    elif scenario in ("on-pivot", "past-radius"):
        assert charge > fast_path


# -- elimination, division, evaluation -------------------------------------------------


@relaxed
@given(
    field_name=st.sampled_from(sorted(FIELDS)),
    rows=st.integers(1, 6),
    cols=st.integers(1, 7),
    singular=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_elimination_charges_its_nonzero_pattern(field_name, rows, cols, singular, seed):
    field = FIELDS[field_name]
    data = default_stream(seed)
    matrix = field.array(data.integers(0, field.order, size=(rows, cols)))
    if singular:
        matrix[:, data.integers(0, cols)] = 0
        matrix[-1] = matrix[0]
    (_, _, ops), count = counted(field, _row_reduce, field, matrix)
    assert ops == count.total
    rhs = field.array(data.integers(0, field.order, size=rows))
    try:
        (_, ops), count = counted(
            field, gf_solve, field, matrix, rhs, allow_underdetermined=True
        )
    except FieldError as exc:  # inconsistent: the charge rides on the error
        ops, count = exc.ops, exc.count
    assert ops == count.total


@relaxed
@given(
    field_name=st.sampled_from(sorted(FIELDS)),
    numerator=st.lists(st.integers(0, 2**31), max_size=9),
    divisor=st.lists(st.integers(0, 2**31), min_size=1, max_size=5),
    points=st.integers(1, 6),
)
def test_division_and_evaluation_charge_what_they_spend(
    field_name, numerator, divisor, points
):
    field = FIELDS[field_name]
    numerator = field.array(numerator).reshape(-1)
    divisor = field.array(divisor).reshape(-1)
    divisor[-1] = divisor[-1] or 1
    (_, _, ops), count = counted(field, long_division, field, numerator, divisor)
    assert ops == count.total
    (_, ops), count = counted(
        field, horner, field, numerator, field.distinct_points(points)
    )
    assert ops == count.total


# -- INTERMIX roles ------------------------------------------------------------------------


class RoleLedger:
    """The counting oracle per INTERMIX role and per disputed column.

    Every role object gets a field instance of its own node (an equal copy),
    so the oracle can tell whose arithmetic it overhears.  An auditor and the
    commoners' checker are charged everything their fields do; the worker is
    charged its sub-product answers (a forgery is never charged).  The
    stacked product runs on the protocol's own field.
    """

    VALIDATOR = "__validator__"

    def __init__(self, field, node_ids):
        self.fields = {node: copy.copy(field) for node in [*node_ids, self.VALIDATOR]}
        self.answers = dict.fromkeys(self.fields, 0)
        self.disputes: list[dict] = []

    def install(self, patch):
        fields, answers, disputes = self.fields, self.answers, self.disputes
        patch.setattr(
            protocol_module, "Worker",
            lambda node_id, _field, **kwargs: Worker(node_id, fields[node_id], **kwargs),
        )
        patch.setattr(
            protocol_module, "Auditor",
            lambda node_id, _field, **kwargs: Auditor(node_id, fields[node_id], **kwargs),
        )
        patch.setattr(
            protocol_module, "Commoner",
            lambda node_id, _field: Commoner(node_id, fields[node_id]),
        )
        answer = Worker._true_subproduct

        def overheard_answer(worker, *args):
            value, count = counted(worker.field, answer, worker, *args)
            answers[worker.node_id] += count.total
            return value

        patch.setattr(Worker, "_true_subproduct", overheard_answer)
        dispute = IntermixProtocol._dispute

        def overheard_dispute(protocol, *args):
            committee = args[5]
            before = answers[committee.worker]
            with ExitStack() as stack:
                counts = {
                    node: stack.enter_context(counting(fields[node]))
                    for node in [*committee.auditors, self.VALIDATOR]
                }
                outcome = dispute(protocol, *args)
            disputes.append(
                {
                    "worker": answers[committee.worker] - before,
                    **{node: count.total for node, count in counts.items()},
                }
            )
            return outcome

        patch.setattr(IntermixProtocol, "_dispute", overheard_dispute)


@relaxed
@given(
    field_name=st.sampled_from(sorted(FIELDS)),
    strategy=st.sampled_from(list(WorkerStrategy)),
    dishonest_count=st.sampled_from([0, 3]),
    num_auditors=st.integers(3, 5),
    num_commoners=st.integers(0, 3),
    length=st.integers(1, 9),
    columns=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_run_batch_charges_each_role_what_it_spends(
    field_name, strategy, dishonest_count, num_auditors, num_commoners, length, columns, seed
):
    field = FIELDS[field_name]
    node_ids = [f"node-{i}" for i in range(1 + num_auditors + num_commoners)]
    committee = Committee(
        worker=node_ids[0],
        auditors=node_ids[1 : 1 + num_auditors],
        commoners=node_ids[1 + num_auditors :],
    )
    data = default_stream(seed)
    rows = len(node_ids)
    matrix = field.array(data.integers(0, field.order, size=(rows, length)))
    vectors = field.array(data.integers(0, field.order, size=(length, columns)))
    protocol = IntermixProtocol(
        field,
        node_ids,
        fault_fraction=0.25,
        rng=default_stream(seed),
        worker_strategies={node_ids[0]: strategy},
        dishonest_auditors=set(committee.auditors[:dishonest_count]),
    )
    ledger = RoleLedger(field, node_ids)
    with pytest.MonkeyPatch.context() as patch:
        ledger.install(patch)
        batch, stacked = counted(field, protocol.run_batch, matrix, vectors, committee)

    # Each role pays one column's share of the stacked product, as long as
    # the worker broadcast something to check; an undisputed column has no
    # role object and nothing else to pay.
    assert stacked.total % columns == 0
    share = 0 if strategy is WorkerStrategy.SILENT else stacked.total // columns
    assert list(batch.disputes) == sorted(batch.disputes)
    assert len(batch.disputes) == len(ledger.disputes)
    overheard = dict(zip(batch.disputes, ledger.disputes))
    idle = dict.fromkeys(["worker", *committee.auditors, RoleLedger.VALIDATOR], 0)
    for column in range(columns):
        spent = overheard.get(column, idle)
        assert batch.worker_operations[column] == share + spent["worker"]
        assert batch.auditor_operations[:, column].tolist() == [
            share + spent[node] for node in committee.auditors
        ]
        checked = spent[RoleLedger.VALIDATOR] if committee.commoners else 0
        assert batch.commoner_operations[column] == checked

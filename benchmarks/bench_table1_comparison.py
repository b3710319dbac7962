"""Table 1 — security / storage efficiency / throughput comparison.

Regenerates both the closed-form rows and the measured rows of Table 1 and
checks the qualitative ordering the paper reports: full replication has
storage 1, partial replication trades security for storage, CSM gets both.
"""

from repro.experiments import table1


def _rows():
    return table1.run(num_nodes=16, fault_fraction=0.25, degree=1, rounds=1, measured=True)


def test_table1_regeneration(benchmark):
    rows = benchmark(_rows)
    formula = {r["scheme"]: r for r in rows if r["kind"] == "formula"}
    measured = {r["scheme"]: r for r in rows if r["kind"] == "measured"}

    # Closed-form shape (Table 1).
    assert formula["full-replication"]["storage_efficiency"] == 1
    assert formula["coded-state-machine"]["storage_efficiency"] > 1
    assert (
        formula["coded-state-machine"]["security"]
        > formula["partial-replication"]["security"]
    )
    limit = formula["information-theoretic-limit"]
    assert formula["coded-state-machine"]["security"] <= limit["security"]
    assert formula["coded-state-machine"]["storage_efficiency"] <= limit["storage_efficiency"]

    # Measured shape: CSM stays correct at its claimed fault level and stores
    # K machines in single-state-sized storage; full replication stores 1.
    assert measured["coded-state-machine"]["correct"]
    assert measured["full-replication"]["correct"]
    assert measured["coded-state-machine"]["storage_efficiency"] > measured[
        "full-replication"
    ]["storage_efficiency"]
    # Partial replication collapses when the adversary concentrates its faults.
    assert not measured["partial-replication"]["correct"]


def test_table1_degree_two_variant(benchmark):
    rows = benchmark(
        table1.run, num_nodes=16, fault_fraction=0.25, degree=2, rounds=1, measured=False
    )
    formula = {r["scheme"]: r for r in rows if r["kind"] == "formula"}
    # Higher degree reduces (but does not destroy) CSM's storage scaling.
    degree1 = {
        r["scheme"]: r
        for r in table1.run(num_nodes=16, fault_fraction=0.25, degree=1, measured=False)
        if r["kind"] == "formula"
    }
    assert (
        formula["coded-state-machine"]["storage_efficiency"]
        <= degree1["coded-state-machine"]["storage_efficiency"]
    )
    assert formula["coded-state-machine"]["storage_efficiency"] >= 1

"""Analysis layer: closed-form formulas, limits and measurement harnesses.

* :mod:`repro.analysis.metrics` — the Table 1 closed forms (security, storage
  efficiency, throughput) for full replication, partial replication, the
  information-theoretic limits, and CSM.
* :mod:`repro.analysis.bounds` — the Table 2 fault bounds per phase and
  network model.
* :mod:`repro.analysis.complexity` — operation-count models: naive vs
  quasilinear coding cost, and helpers to fit measured counts against the
  model (``c(f)`` is the transition's own ``row_cost``).
* :mod:`repro.analysis.measurement` — drives the actual execution engines to
  *measure* security / storage / throughput so the experiments can put
  paper-formula and measured values side by side.
* :mod:`repro.analysis.safety` — the replaying checker: the true machines
  replayed over delivered rounds, flagging every wrong value a scheme
  accepted (the engines themselves run no reference machine).
"""

from repro.analysis.metrics import (
    SchemeMetrics,
    full_replication_metrics,
    partial_replication_metrics,
    information_theoretic_limit,
    csm_metrics,
    table1_rows,
)
from repro.analysis.bounds import table2_rows, phase_bounds
from repro.analysis.complexity import (
    naive_coding_cost,
    quasilinear_coding_cost,
    intermix_worst_case_overhead,
)
from repro.analysis.measurement import (
    MeasuredPerformance,
    measure_full_replication,
    measure_partial_replication,
    measure_csm,
    find_breaking_faults,
)
from repro.analysis.safety import SafetyReport, replay_rounds

__all__ = [
    "SchemeMetrics",
    "full_replication_metrics",
    "partial_replication_metrics",
    "information_theoretic_limit",
    "csm_metrics",
    "table1_rows",
    "table2_rows",
    "phase_bounds",
    "naive_coding_cost",
    "quasilinear_coding_cost",
    "intermix_worst_case_overhead",
    "MeasuredPerformance",
    "measure_full_replication",
    "measure_partial_replication",
    "measure_csm",
    "find_breaking_faults",
    "SafetyReport",
    "replay_rounds",
]

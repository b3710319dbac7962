"""Polynomial state machines — the class of programs CSM can execute.

The paper restricts the state-transition function
``(S(t+1), Y(t)) = f(S(t), X(t))`` to multivariate polynomials of constant
total degree ``d``; this package provides:

* :class:`~repro.machine.interface.StateMachine` — the deterministic machine
  abstraction (state/command/output dimensions plus a transition), applied to
  ``n`` independent rows at once by ``step_batch``.
* :class:`~repro.machine.polynomial_machine.PolynomialTransition` — a
  transition given as one multivariate polynomial per next-state component
  and per output component, compiled into one monomial table: evaluating it
  on ``n`` rows is one feature build and one field matrix product, charged
  ``n`` times its per-row cost ``c(f)``.  It is the only evaluator of ``f``.
* :mod:`~repro.machine.library` — concrete machines used by the examples and
  benchmarks (bank ledger, counters, an order-book style quadratic machine,
  affine key-value machines).
* :mod:`~repro.machine.boolean` — the Appendix A compiler from arbitrary
  Boolean functions to polynomials, and the GF(2**m) embedding.
"""

from repro.machine.interface import StateMachine, MachineState, TransitionOutput
from repro.machine.polynomial_machine import PolynomialTransition
from repro.machine.library import (
    bank_account_machine,
    counter_machine,
    affine_kv_machine,
    quadratic_market_machine,
    dot_product_machine,
    random_polynomial_machine,
)
from repro.machine.boolean import (
    boolean_function_to_polynomial,
    BooleanTransitionCompiler,
    embed_bits,
    project_bits,
)

__all__ = [
    "StateMachine",
    "MachineState",
    "TransitionOutput",
    "PolynomialTransition",
    "bank_account_machine",
    "counter_machine",
    "affine_kv_machine",
    "quadratic_market_machine",
    "dot_product_machine",
    "random_polynomial_machine",
    "boolean_function_to_polynomial",
    "BooleanTransitionCompiler",
    "embed_bits",
    "project_bits",
]

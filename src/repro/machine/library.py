"""A library of concrete polynomial state machines.

These are the workloads used by the examples, integration tests and
benchmarks.  They span the degree range the paper's bounds care about:

* degree 1 — the bank-account and counter machines (the paper's motivating
  example: "updating the balance of a bank account is a linear function of
  the current balance and the incoming deposit/withdrawal");
* degree 2 — an order-book style machine whose price update multiplies state
  by command (representative of constant-product market updates);
* degree 2 — a dot-product accumulator;
* arbitrary degree — randomly generated polynomial transitions for property
  tests and scaling sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gf.field import Field
from repro.gf.multivariate import MultivariatePolynomial
from repro.machine.interface import StateMachine
from repro.machine.polynomial_machine import PolynomialTransition


def _variable(field: Field, arity: int, index: int) -> MultivariatePolynomial:
    return MultivariatePolynomial.variable(field, arity, index)


def bank_account_machine(
    field: Field, num_accounts: int = 4, name: str = "bank-ledger"
) -> StateMachine:
    """A ledger of ``num_accounts`` balances; commands are per-account deltas.

    State ``S`` is the vector of balances; the command ``X`` is the vector of
    signed deposits/withdrawals (field elements; "negative" amounts are the
    additive inverses).  The transition is linear (degree 1):

        ``S'[i] = S[i] + X[i]``,    ``Y[i] = S[i] + X[i]``  (the new balances).
    """
    if num_accounts < 1:
        raise ConfigurationError(f"need at least one account, got {num_accounts}")
    arity = 2 * num_accounts
    next_state = []
    outputs = []
    for i in range(num_accounts):
        balance = _variable(field, arity, i)
        delta = _variable(field, arity, num_accounts + i)
        updated = balance + delta
        next_state.append(updated)
        outputs.append(updated)
    transition = PolynomialTransition(
        field,
        state_dim=num_accounts,
        command_dim=num_accounts,
        next_state_polys=next_state,
        output_polys=outputs,
    )
    # The zero deposit vector is an identity transition, so ragged service
    # rounds can pad idle ledgers without moving their balances.
    return StateMachine(
        field=field,
        transition=transition,
        initial_state=np.zeros(num_accounts, dtype=np.int64),
        name=name,
        noop=np.zeros(num_accounts, dtype=np.int64),
    )


def counter_machine(field: Field, name: str = "counter") -> StateMachine:
    """A single counter incremented by the command value (degree 1)."""
    arity = 2
    count = _variable(field, arity, 0)
    increment = _variable(field, arity, 1)
    updated = count + increment
    transition = PolynomialTransition(
        field,
        state_dim=1,
        command_dim=1,
        next_state_polys=[updated],
        output_polys=[updated],
    )
    return StateMachine(
        field=field,
        transition=transition,
        initial_state=np.zeros(1, dtype=np.int64),
        name=name,
        noop=np.zeros(1, dtype=np.int64),  # increment by 0: identity
    )


def affine_kv_machine(
    field: Field, num_keys: int = 3, scale: int = 3, name: str = "affine-kv"
) -> StateMachine:
    """A key-value store whose update is affine: ``S'[i] = scale*S[i] + X[i]``.

    Degree 1, but with a non-trivial coefficient so tests distinguish it from
    the plain additive ledger.  The output reports the previous values
    (read-your-old-value semantics).
    """
    if num_keys < 1:
        raise ConfigurationError(f"need at least one key, got {num_keys}")
    arity = 2 * num_keys
    next_state = []
    outputs = []
    for i in range(num_keys):
        old = _variable(field, arity, i)
        write = _variable(field, arity, num_keys + i)
        next_state.append(old.scale(scale) + write)
        outputs.append(old)
    transition = PolynomialTransition(
        field,
        state_dim=num_keys,
        command_dim=num_keys,
        next_state_polys=next_state,
        output_polys=outputs,
    )
    # Only the scale-1 machine has an identity command (the zero write);
    # for other scales an idle key still decays by ``scale`` per round, so no
    # noop is configured and padding falls back to the documented zero write.
    return StateMachine(
        field=field,
        transition=transition,
        initial_state=np.zeros(num_keys, dtype=np.int64),
        name=name,
        noop=np.zeros(num_keys, dtype=np.int64) if scale == 1 else None,
    )


def quadratic_market_machine(field: Field, name: str = "quadratic-market") -> StateMachine:
    """A degree-2 machine modelling a toy market / order-book update.

    State: ``(inventory, price)``.  Command: ``(quantity, aggressiveness)``.

    * ``inventory' = inventory + quantity``
    * ``price' = price + quantity * aggressiveness``  (quadratic in the inputs)
    * output: ``(trade_value, new_price)`` with ``trade_value = price * quantity``.

    The products of state and command components give total degree 2, which is
    the smallest degree where CSM's ``d``-dependence shows up in the bounds.
    """
    arity = 4  # inventory, price, quantity, aggressiveness
    inventory = _variable(field, arity, 0)
    price = _variable(field, arity, 1)
    quantity = _variable(field, arity, 2)
    aggressiveness = _variable(field, arity, 3)
    next_inventory = inventory + quantity
    next_price = price + quantity * aggressiveness
    trade_value = price * quantity
    transition = PolynomialTransition(
        field,
        state_dim=2,
        command_dim=2,
        next_state_polys=[next_inventory, next_price],
        output_polys=[trade_value, next_price],
    )
    # Zero quantity is an identity transition (no inventory or price move).
    return StateMachine(
        field=field,
        transition=transition,
        initial_state=field.array([0, 1]),
        name=name,
        noop=np.zeros(2, dtype=np.int64),
    )


def dot_product_machine(
    field: Field, vector_dim: int = 3, name: str = "dot-product"
) -> StateMachine:
    """A degree-2 accumulator: the state keeps a running inner product.

    State: ``(accumulator, w_1, ..., w_m)`` where ``w`` is a stored weight
    vector.  Command: a feature vector ``x``.  The accumulator is updated with
    ``accumulator + <w, x>`` and the output is the fresh inner product.  The
    weights themselves are left unchanged by the transition.
    """
    if vector_dim < 1:
        raise ConfigurationError(f"vector_dim must be positive, got {vector_dim}")
    state_dim = vector_dim + 1
    arity = state_dim + vector_dim
    accumulator = _variable(field, arity, 0)
    inner = MultivariatePolynomial.zero(field, arity)
    for i in range(vector_dim):
        weight = _variable(field, arity, 1 + i)
        feature = _variable(field, arity, state_dim + i)
        inner = inner + weight * feature
    next_state = [accumulator + inner]
    for i in range(vector_dim):
        next_state.append(_variable(field, arity, 1 + i))
    transition = PolynomialTransition(
        field,
        state_dim=state_dim,
        command_dim=vector_dim,
        next_state_polys=next_state,
        output_polys=[inner],
    )
    initial = np.zeros(state_dim, dtype=np.int64)
    initial[1:] = 1
    # The zero feature vector contributes <w, 0> = 0: identity transition.
    return StateMachine(
        field=field,
        transition=transition,
        initial_state=initial,
        name=name,
        noop=np.zeros(vector_dim, dtype=np.int64),
    )


def random_polynomial_machine(
    field: Field,
    state_dim: int,
    command_dim: int,
    degree: int,
    rng: np.random.Generator,
    output_dim: int = 1,
    name: str = "random-polynomial",
) -> StateMachine:
    """A machine with uniformly random component polynomials of the given degree.

    Used by property tests and the scaling benchmarks, where only the degree
    (not the semantics) of the transition matters.
    """
    if degree < 1:
        raise ConfigurationError(f"degree must be at least 1, got {degree}")
    arity = state_dim + command_dim
    next_state = [
        MultivariatePolynomial.random(field, arity, degree, rng)
        for _ in range(state_dim)
    ]
    outputs = [
        MultivariatePolynomial.random(field, arity, degree, rng)
        for _ in range(output_dim)
    ]
    transition = PolynomialTransition(
        field,
        state_dim=state_dim,
        command_dim=command_dim,
        next_state_polys=next_state,
        output_polys=outputs,
    )
    initial = field.random_array(rng, state_dim)
    return StateMachine(
        field=field, transition=transition, initial_state=initial, name=name
    )

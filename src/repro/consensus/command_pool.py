"""Client command submission pools.

Clients broadcast their commands to all compute nodes (Figure 2(a) of the
paper); each node therefore holds, per state machine ``k``, a pool of pending
commands.  The consensus phase selects one command per machine per round and
records which client submitted it (``m_k^t``), so the execution phase can
return the output ``Y_k(t)`` to the right client.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError, ConsensusError, LivenessError


class SequenceAllocator:
    """A monotone counter handing out submission sequence numbers.

    One pool normally owns its own allocator, but several pools can share
    one — the sharded service gives every shard's ingress pool the same
    allocator so ticket sequences stay globally unique (and globally ordered
    by submission) across shards.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = int(start)

    def allocate(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def issued(self) -> int:
        """How many sequences have been handed out so far."""
        return self._next


@dataclass(frozen=True)
class SubmittedCommand:
    """A client command waiting to be executed on a specific state machine."""

    machine_index: int
    client_id: str
    command: tuple[int, ...]
    sequence: int


@dataclass
class CommandPool:
    """Pending commands for ``num_machines`` state machines.

    The pool preserves submission order per machine; the default selection
    rule (used by honest leaders) is FIFO, which together with the validity
    check gives the liveness property: every submitted command is eventually
    selected.  Queues are :class:`collections.deque`\\ s so the FIFO
    ``dequeue_next`` pop is O(1) even under deep per-machine backlogs
    (``list.pop(0)`` made a full drain quadratic).
    """

    num_machines: int
    sequence_source: SequenceAllocator | None = None
    _queues: list[deque[SubmittedCommand]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ConfigurationError(
                f"command pool needs at least one machine, got {self.num_machines}"
            )
        if self.sequence_source is None:
            self.sequence_source = SequenceAllocator()
        if not self._queues:
            self._queues = [deque() for _ in range(self.num_machines)]

    # -- submission -----------------------------------------------------------------
    def submit(self, machine_index: int, client_id: str, command: Iterable[int]) -> SubmittedCommand:
        """Record a client command for machine ``machine_index``."""
        self._check_machine(machine_index)
        entry = SubmittedCommand(
            machine_index=int(machine_index),
            client_id=str(client_id),
            command=tuple(int(v) for v in command),
            sequence=self.sequence_source.allocate(),
        )
        self._queues[machine_index].append(entry)
        return entry

    def canonical_round(self, commands: np.ndarray) -> np.ndarray:
        """Validate and shape one round of commands to ``(num_machines, dim)``.

        A flat array is split evenly across the machines; an indivisible (or
        empty) flat length raises :class:`ConfigurationError` with the actual
        sizes instead of an opaque numpy reshape error.
        """
        arr = np.asarray(commands)
        if arr.ndim == 1:
            if arr.size == 0 or arr.size % self.num_machines != 0:
                raise ConfigurationError(
                    f"flat command array of {arr.size} elements cannot be split "
                    f"evenly across {self.num_machines} machines"
                )
            arr = arr.reshape(self.num_machines, -1)
        if arr.shape[0] != self.num_machines:
            raise ConfigurationError(
                f"expected {self.num_machines} rows, got {arr.shape[0]}"
            )
        return arr

    def submit_batch(
        self, commands: np.ndarray, client_ids: list[str] | None = None
    ) -> list[SubmittedCommand]:
        """Submit one command per machine (row ``k`` goes to machine ``k``)."""
        arr = self.canonical_round(commands)
        out = []
        for k in range(self.num_machines):
            client = client_ids[k] if client_ids else f"client:{k}"
            out.append(self.submit(k, client, arr[k]))
        return out

    # -- selection -------------------------------------------------------------------
    def peek_next(self, machine_index: int) -> SubmittedCommand | None:
        """The command an honest leader would propose next for this machine."""
        self._check_machine(machine_index)
        queue = self._queues[machine_index]
        return queue[0] if queue else None

    def peek_block(self, count: int) -> list[SubmittedCommand]:
        """The first ``count`` pending entries of every machine, round-major.

        Entry ``b * num_machines + k`` is machine ``k``'s ``b``-th pending
        entry: the block an honest leader proposes for ``count`` consecutive
        rounds, and the positions consensus validity binds a proposal to.
        Raises :class:`LivenessError` when a machine holds fewer than
        ``count`` entries.
        """
        columns = [list(islice(queue, count)) for queue in self._queues]
        if any(len(column) < count for column in columns):
            raise LivenessError(
                f"every state machine needs {count} pending client command(s) "
                "to decide a block"
            )
        return [entry for row in zip(*columns) for entry in row]

    def dequeue_next(self, machine_index: int) -> SubmittedCommand | None:
        """Pop and return the FIFO-next command for ``machine_index``.

        The ticket-aware dequeue used by the round scheduler: the returned
        entry carries its unique ``sequence``, which the service maps back to
        the submitting :class:`~repro.service.tickets.CommandTicket` when the
        round's outputs arrive.  Returns ``None`` when the queue is empty.
        """
        self._check_machine(machine_index)
        queue = self._queues[machine_index]
        if not queue:
            return None
        return queue.popleft()

    def pending_entries(self, machine_index: int) -> tuple[SubmittedCommand, ...]:
        """Snapshot of the machine's pending queue, in FIFO order.

        The candidate view a :class:`~repro.service.qos.SelectionPolicy`
        chooses from when the round scheduler fills the machine's slot; a
        snapshot (not the live deque), so a policy cannot mutate the pool.
        """
        self._check_machine(machine_index)
        return tuple(self._queues[machine_index])

    def dequeue_sequence(self, machine_index: int, sequence: int) -> SubmittedCommand:
        """Pop the pending entry with ``sequence`` (selection-policy dequeue).

        The non-FIFO counterpart of :meth:`dequeue_next`: a selection policy
        picked this entry out of :meth:`pending_entries`, so it must still be
        pending — a missing sequence means the policy returned an entry it
        was never offered, which is a scheduler bug, not traffic.
        """
        self._check_machine(machine_index)
        queue = self._queues[machine_index]
        for i, entry in enumerate(queue):
            if entry.sequence == int(sequence):
                del queue[i]
                return entry
        raise ConfigurationError(
            f"no pending entry with sequence {sequence} for machine "
            f"{machine_index} — selection policy returned a stale candidate"
        )

    def mark_executed(self, machine_index: int, command: SubmittedCommand) -> None:
        """Remove a decided command from the pool, keyed by its ``sequence``.

        Consensus decides concrete pool entries, so removal matches on the
        unique submission ``sequence`` — matching by ``(command, client_id)``
        would silently remove the wrong entry when a client resubmits the
        same payload.  A decided command that is *not* in the pool (unknown
        sequence, or a sequence whose payload/client was tampered with) is a
        consensus-safety problem and raises :class:`ConsensusError` instead
        of being ignored.
        """
        self._check_machine(machine_index)
        queue = self._queues[machine_index]
        for i, entry in enumerate(queue):
            if entry.sequence == command.sequence:
                if (
                    entry.command != command.command
                    or entry.client_id != command.client_id
                ):
                    raise ConsensusError(
                        f"decided command for machine {machine_index} has sequence "
                        f"{command.sequence} but its payload/client does not match "
                        "the pool entry — decision tampered with"
                    )
                del queue[i]
                return
        raise ConsensusError(
            f"decided command with sequence {command.sequence} for machine "
            f"{machine_index} is not pending in the pool — consensus decided "
            "an unknown command"
        )

    def pending(self, machine_index: int) -> int:
        self._check_machine(machine_index)
        return len(self._queues[machine_index])

    def total_pending(self) -> int:
        return sum(len(q) for q in self._queues)

    def pending_machines(self) -> int:
        """Number of machines with at least one queued command (batch fill)."""
        return sum(1 for q in self._queues if q)

    def _check_machine(self, machine_index: int) -> None:
        if not 0 <= machine_index < self.num_machines:
            raise ConfigurationError(
                f"machine index {machine_index} out of range for {self.num_machines} machines"
            )

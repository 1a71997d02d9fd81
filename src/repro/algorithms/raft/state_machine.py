"""State machines applied by Raft nodes as the commit index advances.

The paper's consensus construction uses a single command type,
``D&S(v)`` — *decide-and-stop-applying* — realized by
:class:`DecideStateMachine`: the first applied command fixes the decision
and every later command is ignored (which, by State Machine Safety, can
never be a different first entry anyway).

:class:`KeyValueStateMachine` is a conventional replicated map, used by the
replicated-log example and the general-Raft tests to show the substrate is
a real log-replication engine, not just a one-shot consensus gadget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True, slots=True)
class DecideAndStop:
    """The paper's ``D&S(v)`` command: decide ``value``, ignore the rest."""

    value: Any


@dataclass(frozen=True, slots=True)
class Put:
    """Key-value write command for :class:`KeyValueStateMachine`."""

    key: Any
    value: Any


class StateMachine(ABC):
    """Interface for machines fed committed log entries, in order."""

    @abstractmethod
    def apply(self, index: int, command: Any) -> Any:
        """Apply the committed ``command`` at log ``index``; returns a result."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all state (called when a restarted node replays its log)."""

    def snapshot(self) -> Any:
        """Serializable image of the machine's state (for log compaction)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshotting"
        )

    def restore(self, snapshot: Any) -> None:
        """Replace the machine's state with a :meth:`snapshot` image."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshotting"
        )


class DecideStateMachine(StateMachine):
    """Applies ``D&S(v)``: first command decides, later ones are ignored.

    Attributes:
        decision: the decided value, or ``None`` until the first apply.
    """

    def __init__(self) -> None:
        self.decision: Optional[Any] = None

    def apply(self, index: int, command: Any) -> Any:
        if self.decision is None:
            if not isinstance(command, DecideAndStop):
                raise TypeError(f"expected DecideAndStop, got {command!r}")
            self.decision = command.value
        return self.decision

    def reset(self) -> None:
        self.decision = None

    def snapshot(self) -> Any:
        return self.decision

    def restore(self, snapshot: Any) -> None:
        self.decision = snapshot


class KeyValueStateMachine(StateMachine):
    """A replicated dictionary: applies :class:`Put` commands in log order."""

    def __init__(self) -> None:
        self.data: Dict[Any, Any] = {}
        self.applied_count = 0

    def apply(self, index: int, command: Any) -> Any:
        if not isinstance(command, Put):
            raise TypeError(f"expected Put, got {command!r}")
        self.data[command.key] = command.value
        self.applied_count += 1
        return command.value

    def reset(self) -> None:
        self.data.clear()
        self.applied_count = 0

    def snapshot(self) -> Any:
        return (dict(self.data), self.applied_count)

    def restore(self, snapshot: Any) -> None:
        data, applied_count = snapshot
        self.data = dict(data)
        self.applied_count = applied_count

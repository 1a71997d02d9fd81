"""Ben-Or's two message types.

The paper writes them ``<1, v>`` (the first exchange) and either
``<2, v, ratify>`` or ``<2, ?>`` (the second exchange).  Here the first is
:class:`Report` and the second is :class:`Ratify`, whose ``value`` is
``None`` for the ``<2, ?>`` ("no majority seen") case.

Both carry the protocol round tag so that messages from different rounds —
which coexist freely under asynchrony — never get mixed up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass(frozen=True, slots=True)
class Report:
    """First-exchange message ``<1, v>``: the sender's current preference."""

    round_no: Hashable
    value: Any


@dataclass(frozen=True, slots=True)
class Ratify:
    """Second-exchange message: ``<2, v, ratify>`` or ``<2, ?>``.

    ``value`` is the ratified value, or ``None`` when the sender saw no
    majority in the first exchange (the paper's ``?``).
    """

    round_no: Hashable
    value: Optional[Any]

    @property
    def is_ratify(self) -> bool:
        """Whether this is a real ratification (not the ``?`` placeholder)."""
        return self.value is not None

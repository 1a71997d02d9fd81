"""A validity-guarded coin conciliator for the asynchronous crash model.

``invoke`` broadcasts the caller's value, collects ``n - t`` conciliator
inputs for the round, and then:

* if every collected value equals some ``u`` — return ``u`` (the guard);
* otherwise — flip a local fair coin over ``domain``.

Why each property holds (crash faults, ``t < n/2``):

* **Validity** — the guard path returns a collected input.  The coin path
  only runs when two distinct values were collected, so in the binary
  domain every coin outcome is some process's input.
* **Probabilistic agreement** — with probability at least ``2^-(n-1)``
  every coin lands the same way (and unanimous-input rounds agree through
  the guard deterministically).
* **Commit preservation** (what Algorithm 2 needs) — if some process
  committed ``v`` in the preceding adopt-commit, coherence makes *every*
  conciliator input ``v``, so every invoker takes the guard path and keeps
  ``v``.

Note the committers must also broadcast their (kept) value — otherwise
adopters could starve waiting for ``n - t`` inputs — which is why the
composed consensus runs the template with ``always_run_mixer``.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from dataclasses import dataclass

from repro.core.confidence import Confidence
from repro.core.objects import ConciliatorObject, SubProtocol
from repro.sim.messages import Envelope
from repro.sim.ops import Annotate, Broadcast, Receive
from repro.sim.process import ProcessAPI


@dataclass(frozen=True, slots=True)
class ConcInput:
    """A conciliator-round broadcast of the caller's current value."""

    round_no: Hashable
    value: Any


class GuardedCoinConciliator(ConciliatorObject):
    """Broadcast-collect-guard-or-flip, as described in the module docstring.

    Args:
        domain: coin domain; must cover the protocol's value domain for the
            coin path's validity argument to hold (binary by default).
    """

    def __init__(self, domain: Sequence[Any] = (0, 1)):
        if not domain:
            raise ValueError("domain must be non-empty")
        self.domain = tuple(domain)

    def invoke(
        self,
        api: ProcessAPI,
        confidence: Confidence,
        value: Any,
        round_no: Hashable,
    ) -> SubProtocol:
        yield Broadcast(ConcInput(round_no, value))

        def matcher(envelope: Envelope) -> bool:
            payload = envelope.payload
            return isinstance(payload, ConcInput) and payload.round_no == round_no

        collected = yield Receive(count=api.n - api.t, predicate=matcher)
        values = {e.payload.value for e in collected}
        if len(values) == 1:
            kept = next(iter(values))
            yield Annotate("conc_guard", (round_no, kept))
            return kept
        flipped = api.rng.choice(self.domain)
        yield Annotate("conc_coin", (round_no, flipped))
        return flipped

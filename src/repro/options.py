"""Every command-line flag, once: one :class:`Option` row per flag.

A row says how a flag's text becomes a value (``convert``), which values
are allowed (``check``), and its default, metavar and help.  Each command
lists the rows it takes (:func:`add_options`); where a command needs
another default or help text it overrides the row in place
(``opt("--nodes", default=3)``) and never writes the flag again.  A bad
value exits 2 with a usage line, because the row's check runs inside
argparse.  The scenario dataclasses check their fields through the same
rows (:func:`check_fields`), so a hand-edited corpus case is held to the
bounds its flag has.

To add a flag: add its row to :func:`rows`, then add the flag to the row
list of each command that takes it.

A check is a plain ``check(name, value) -> value`` that raises
``ValueError`` naming ``name``; library code (the KV server, the load
generator, the nemesis) calls the checks directly.  Those modules import
the checks from here, so what the table and the spec checks need of them
is imported when first used.
"""

from __future__ import annotations

import argparse
import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

#: Sanity cap on consensus groups per cluster.  Each shard costs a full
#: consensus instance per node (log, timers, heartbeats); hundreds of
#: groups on one node set is a config error, not a deployment.
MAX_SHARDS = 256


def check_count(name: str, value: int) -> int:
    """``value`` if it is an integer >= 1, else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def check_shards(name: str, value: int) -> int:
    """``value`` if it is a shard count in ``[1, MAX_SHARDS]``."""
    check_count(name, value)
    if value > MAX_SHARDS:
        raise ValueError(f"{name} must be <= {MAX_SHARDS}, got {value!r}")
    return value


def _number(name: str, value: Any, ok: Callable[[float], bool], rule: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """``value`` if it is a finite number > 0, else ``ValueError``."""
    return _number(name, value, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def check_non_negative(name: str, value: float) -> float:
    """``value`` if it is a finite number >= 0, else ``ValueError``."""
    return _number(name, value, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")


def check_fraction(name: str, value: float) -> float:
    """``value`` if it lies in ``[0, 1]``, else ``ValueError``."""
    return _number(name, value, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def check_engine_spec(name: str, spec: str) -> str:
    """``spec`` if every comma-separated entry names an engine.  Whether
    it names one engine per shard is the command's check: it needs
    ``--shards`` too."""
    from repro.live.engine import parse_engine_spec

    parse_engine_spec(spec, len(spec.split(",")))
    return spec


def check_kinds(name: str, spec: str) -> Tuple[str, ...]:
    """The fault kinds of a ``K1,K2,...`` spec; at least one, all known."""
    from repro.chaos.campaign import parse_kinds

    kinds = parse_kinds(spec)
    if not kinds:
        raise ValueError("need at least one fault kind")
    return kinds


def check_peers(name: str, spec: str):
    """The :class:`~repro.live.config.ClusterConfig` a ``--peers`` spec names."""
    from repro.live.config import ClusterConfig

    return ClusterConfig.from_spec(spec)


def _pair(name: str, spec: str, sep: str, convert: Callable[[str], Any],
          usage: str) -> Tuple[Any, Any]:
    try:
        lo, hi = (convert(part) for part in spec.split(sep))
    except ValueError:
        raise ValueError(f"bad {name} {spec!r}: use {usage}") from None
    return lo, hi


def check_timeout_range(name: str, spec: str) -> Tuple[float, float]:
    """``lo,hi`` seconds with ``0 < lo <= hi``, both finite."""
    lo, hi = _pair(name, spec, ",", float, "lo,hi (e.g. 0.3,0.6)")
    if not (0 < lo <= hi and math.isfinite(hi)):
        raise ValueError(f"bad {name} {spec!r}: need 0 < lo <= hi, finite")
    return lo, hi


def check_size_range(name: str, spec: str) -> Tuple[int, int]:
    """An inclusive ``LO:HI`` range of system sizes, ``1 <= LO <= HI``."""
    lo, hi = _pair(name, spec, ":", int, "LO:HI")
    if not 1 <= lo <= hi:
        raise ValueError(f"bad {name} {spec!r}: need 1 <= LO <= HI")
    return lo, hi


def check_crash(name: str, spec: str):
    """Parse ``pid@time`` or ``pid@time@restart`` into a CrashPlan."""
    from repro.sim.failures import CrashPlan

    parts = spec.split("@")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad crash spec {spec!r}: use pid@time[@restart]")
    try:
        pid = int(parts[0])
        at_time = float(parts[1])
        restart_at = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ValueError(
            f"bad crash spec {spec!r}: pid must be an integer, times numeric"
        ) from None
    if pid < 0:
        raise ValueError(f"bad crash spec {spec!r}: pid must be non-negative")
    if not at_time >= 0:
        raise ValueError(f"bad crash spec {spec!r}: crash time must be non-negative")
    if restart_at is not None and not restart_at > at_time:
        raise ValueError(
            f"bad crash spec {spec!r}: restart time must come after the crash"
        )
    return CrashPlan(pid, at_time=at_time, restart_at=restart_at)


def checked(convert: Callable[[str], Any], check: Callable[[str, Any], Any],
            name: str) -> Callable[[str], Any]:
    """An argparse ``type`` that converts, then checks: a bad value exits
    2 with a usage message instead of a traceback."""

    def parse(text: str) -> Any:
        value = convert(text)  # argparse reports a ValueError by __name__
        try:
            return check(name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    parse.__name__ = convert.__name__
    return parse


@dataclass(frozen=True)
class Option:
    """One flag: how its text becomes a value, and what argparse shows."""

    flag: str
    convert: Callable[[str], Any] = str
    check: Optional[Callable[[str, Any], Any]] = None
    default: Any = None
    metavar: Optional[str] = None
    help: Optional[str] = None
    choices: Optional[Sequence[str]] = None
    action: Optional[str] = None
    required: bool = False
    nargs: Optional[str] = None
    const: Any = None
    aliases: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """The value's name in messages: the flag, in snake case."""
        return self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser) -> None:
        """``parser.add_argument`` for this row (a parser or a group)."""
        keywords = dict(
            default=self.default, metavar=self.metavar, help=self.help,
            choices=self.choices, action=self.action, nargs=self.nargs,
            const=self.const, required=self.required or None,
        )
        if self.action in (None, "append"):
            keywords["type"] = (
                checked(self.convert, self.check, self.name) if self.check
                else self.convert
            )
        parser.add_argument(
            self.flag, *self.aliases,
            **{key: value for key, value in keywords.items() if value is not None},
        )


@functools.lru_cache(maxsize=None)
def rows() -> Dict[str, Option]:
    """The table, by flag.  Built on first use: its choices and defaults
    come from modules that import the checks above."""
    from repro.chaos.campaign import INJECTABLE_BUGS
    from repro.dst.corpus import DEFAULT_CORPUS_DIR
    from repro.live.config import DEFAULT_MAX_INFLIGHT
    from repro.live.kv import DEFAULT_DRIFT_BOUND, DEFAULT_STALENESS_BOUND, READ_TIERS
    from repro.live.loadgen import KEY_DISTRIBUTIONS

    table = (
        # Shared by several commands.
        Option("--seed", int, default=0, help="run seed"),
        Option("--quiet", action="store_true", help="print only the summary line"),
        Option("--nodes", int, check_count, default=5, help="cluster size"),
        Option(
            "--shards", int, check_shards, metavar="S",
            help="the cluster's shard count; omit to discover it from the "
            "cluster (one status round trip)",
        ),
        Option(
            "--engine", check=check_engine_spec, metavar="SPEC",
            help="the engine the cluster is expected to run; checked against "
            "the servers' advertised engine and mismatches fail loudly "
            "(omit to skip the check)",
        ),
        Option(
            "--peers", check=check_peers, required=True,
            metavar="HOST:PORT[:CLIENTPORT],...",
            help="full cluster membership, in pid order",
        ),
        Option(
            "--duration", float, check_positive, default=20.0,
            help="workload/nemesis duration in seconds",
        ),
        Option("--clients", int, check_count, default=4, help="workload clients"),
        Option(
            "--key-space", int, check_count, default=4, metavar="K",
            help="number of distinct keys (small = high contention)",
        ),
        Option(
            "--fault-period", float, check_positive, default=3.0, metavar="SECS",
            help="seconds between injected faults",
        ),
        Option("--kinds", check=check_kinds, metavar="K1,K2,..."),
        Option(
            "--inject-bug", choices=INJECTABLE_BUGS,
            help="run a known-buggy cluster (canary sweeps should violate)",
        ),
        Option(
            "--read-tier", choices=READ_TIERS, default="safe",
            help="default serving tier for linearizable gets (see epilog; "
            "default safe); clients can override per request",
        ),
        Option(
            "--lease-duration", float, check_non_negative, metavar="SECS",
            help="leader-lease / follower-stickiness window; defaults to the "
            "election-timeout floor when --read-tier is lease or follower, "
            "else 0 (lease machinery off)",
        ),
        Option(
            "--drift-bound", float, check_non_negative,
            default=DEFAULT_DRIFT_BOUND, metavar="SECS",
            help="clock-drift allowance subtracted from every lease "
            f"(default {DEFAULT_DRIFT_BOUND}); 0 is UNSAFE under skewed "
            "clocks and exists for the chaos canary",
        ),
        Option(
            "--data-dir", metavar="DIR",
            help="persist consensus state (term, vote, log, snapshots) under "
            "DIR and recover it on restart; omit for the in-memory behaviour",
        ),
        Option(
            "--json", metavar="PATH", help="also write the report as JSON to PATH"
        ),
        # The demo runner.
        Option("--n", int, check_count, default=5, help="number of processes"),
        Option(
            "--byzantine", int, check_non_negative, default=0,
            help="number of (equivocating) Byzantine processes (phase-king only)",
        ),
        Option(
            "--crash", check=check_crash, action="append", default=[],
            metavar="PID@TIME[@RESTART]",
            help="crash plan (repeatable; asynchronous algorithms only)",
        ),
        # serve
        Option("--pid", int, required=True, help="this node's pid"),
        Option(
            "--election-timeout", check=check_timeout_range, default=(0.3, 0.6),
            metavar="LO,HI", help="election timer range in seconds (default 0.3,0.6)",
        ),
        Option(
            "--heartbeat", float, check_positive, default=0.06,
            help="leader heartbeat interval in seconds (default 0.06)",
        ),
        Option(
            "--snapshot-threshold", int, check_count,
            help="compact the Raft log above this many entries",
        ),
        Option(
            "--status-interval", float, check_positive, metavar="SECS",
            help="print one commit-pipeline health line (fsync queue depth, "
            "watermark lag, batch occupancy, frames per write) every SECS "
            "seconds",
        ),
        Option(
            "--no-rejoin", action="store_true",
            help="strict quarantine: refuse to start when the durable state "
            "under --data-dir is corrupt, instead of moving it aside and "
            "rejoining as an empty follower (see docs/storage.md for the "
            "trade-off)",
        ),
        Option(
            "--staleness-bound", float, check_non_negative,
            default=DEFAULT_STALENESS_BOUND, metavar="SECS",
            help="cap on the staleness bound follower reads may request "
            f"(default {DEFAULT_STALENESS_BOUND})",
        ),
        Option(
            "--max-inflight", int, check_count, default=DEFAULT_MAX_INFLIGHT,
            metavar="N",
            help="replication pipeline depth: hold new proposals while this "
            f"many entries are uncommitted (>= 1, default {DEFAULT_MAX_INFLIGHT})",
        ),
        # client get
        Option(
            "--tier", choices=("safe", "readindex", "lease"),
            help="linearizable read through the leader at this tier "
            "(omit for the plain local read)",
        ),
        Option(
            "--staleness", float, check_non_negative, metavar="SECS",
            help="bounded-stale read: accept any replica whose state is "
            "provably at most SECS old (fans out, followers first)",
        ),
        # loadgen
        Option("--ops", int, check_count, default=200,
               help="closed-loop: total writes"),
        Option("--concurrency", int, check_count, default=4,
               help="closed-loop: workers"),
        Option(
            "--rate", float, check_positive,
            help="open-loop: arrivals per second (switches mode)",
        ),
        Option("--value-size", int, check_non_negative, default=16,
               help="bytes per value"),
        Option(
            "--key-dist", choices=KEY_DISTRIBUTIONS, default="uniform",
            help="key popularity: uniform (default) or zipf (hot-key skew)",
        ),
        Option(
            "--zipf-s", float, check_positive, default=1.1, metavar="S",
            help="zipf exponent; larger = more skew (default 1.1)",
        ),
        Option(
            "--read-ratio", float, check_fraction, default=0.0, metavar="R",
            help="fraction of ops issued as linearizable gets instead of "
            "puts (default 0.0; combinable with --key-dist zipf)",
        ),
        Option(
            "--read-staleness", float, check_non_negative, metavar="SECS",
            help="issue the gets as bounded-stale follower reads with this "
            "staleness bound instead of linearizable reads",
        ),
        # chaos
        Option(
            "--read-fraction", float, check_fraction, default=0.5, metavar="F",
            help="fraction of ops that are linearizable reads",
        ),
        Option(
            "--readonly-clients", int, check_non_negative, default=1, metavar="R",
            help="how many clients never write (readers are what catch "
            "deposed-leader stale reads)",
        ),
        Option(
            "--op-pause", float, check_non_negative, default=0.005, metavar="SECS",
            help="per-client pause between ops (bounds history size so the "
            "checker finishes within its budget)",
        ),
        Option(
            "--campaign", choices=("random", "lease-attack"), default="random",
            help="plan shape: random (default) draws one independent fault "
            "per period; lease-attack stacks clock-skew + timeout-skew + "
            "partition-leader each cycle so the deposed leaseholder's clock "
            "is still skewed when it is isolated (ignores --kinds)",
        ),
        Option(
            "--time-budget", float, check_positive, default=30.0, metavar="SECS",
            help="linearizability checker wall-clock budget",
        ),
        Option(
            "--grace", float, check_non_negative, default=3.0, metavar="SECS",
            help="post-heal quiesce time before the final reads",
        ),
        Option("--html", metavar="FILE", help="write an HTML timeline of the campaign"),
        # explore
        Option(
            "--stack", choices=("sim", "live"), default="sim",
            help="what to explore: bare simulator algorithms (sim) or the "
            "full KVServer production stack in virtual time (live)",
        ),
        Option("--schedules", int, check_count, default=200, help="scenarios to run"),
        Option(
            "--mutation-rate", float, check_fraction, default=0.4,
            help="fraction of scenarios produced by adversarial mutation",
        ),
        Option(
            "--n-range", check=check_size_range, default="4:7", metavar="LO:HI",
            help="inclusive system-size range",
        ),
        Option("--max-rounds", int, check_count, default=60,
               help="template-round cap per run"),
        Option(
            "--workers", int, check_non_negative, default=0,
            help="fan execution out over a multiprocessing pool of this size",
        ),
        Option(
            "--stop-after", int, check_count, metavar="K",
            help="stop after K violating scenarios",
        ),
        Option(
            "--shrink", action="store_true",
            help="minimize each violating scenario before reporting it",
        ),
        Option(
            "--save-corpus", nargs="?", const=DEFAULT_CORPUS_DIR, metavar="DIR",
            help="save (shrunk) violations as corpus cases "
            f"(default dir: {DEFAULT_CORPUS_DIR})",
        ),
        Option(
            "--trace-out", metavar="PATH",
            help="append every schedule's full node trace to PATH "
            "(byte-identical across repeat runs of the same sweep)",
        ),
    )
    return {row.flag: row for row in table}


def opt(flag: str, /, **changes: Any) -> Option:
    """``flag``'s row, with a command's own default, help, ... in place."""
    return replace(rows()[flag], **changes)


def add_options(parser, options: Sequence[Union[str, Option]]) -> None:
    """Add each row (a flag names its row unchanged) to ``parser``."""
    for option in options:
        (opt(option) if isinstance(option, str) else option).add_to(parser)


def check_fields(obj: Any, **flags: str) -> None:
    """Check ``obj``'s fields (``field=flag``) through their flags' rows."""
    for name, flag in flags.items():
        rows()[flag].check(name, getattr(obj, name))

"""Rule-table sharding policies for the multi-chip TCAM fabric.

A :class:`Distributor` answers two questions and nothing else:

* **placement** -- which shard(s) store each rule of a
  :class:`RuleTable` (:meth:`Distributor.place`), and
* **routing** -- which shard(s) a search key must probe so that the
  merged answer equals the unsharded reference
  (:meth:`Distributor.probe_shards`).

Three policies are registered (:data:`DISTRIBUTOR_POLICIES`):

``hash``
    Each rule lives on exactly one shard, picked by a stable content
    hash (CRC-32 of the trit codes -- process- and run-invariant,
    unlike Python's salted ``hash``).  Placement is perfectly balanced
    in expectation but carries no key locality, so every query
    broadcasts to all shards.

``range``
    LPM-style routing on the first ``route_bits`` columns.  A stored
    rule covers an interval of routing values (X trits widen it); the
    rule is replicated into every shard whose value range intersects
    that interval.  A fully-specified key then probes exactly one
    shard; keys with X in the routing columns probe the covered range.
    Correctness: any rule matching key ``k`` covers ``k``'s routing
    value, hence was placed in (at least) ``k``'s shard.

``replicated``
    The globally hottest (highest-priority, lowest-index) rules are
    replicated into every shard; the long tail is hash-sharded.  A
    query probes only its home shard first; if the best local match is
    a hot rule it is provably the global winner (every tail rule has a
    larger index) and the query resolves in one probe.  Otherwise the
    fabric falls back to a broadcast round for the tail.

Priorities are global rule indices (lower index = higher priority,
matching the row-order convention of :class:`~repro.tcam.priority.
PriorityEncoder`), so cross-shard merging is ``min()`` over matched
global indices regardless of where the rules physically landed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import ClusterError
from ..tcam.trit import TernaryWord, Trit

#: Policy names accepted by :func:`get_distributor`.
DISTRIBUTOR_POLICIES = ("hash", "range", "replicated")


def _codes(word: TernaryWord | np.ndarray) -> np.ndarray:
    """The int8 trit codes of a word, or of a key row of a trit block."""
    return word.as_array() if isinstance(word, TernaryWord) else word


def rule_fingerprint(word: TernaryWord | np.ndarray) -> int:
    """Stable content hash of a ternary word (CRC-32 of trit codes).

    ``word`` may also be one int8 row of a trit block, which hashes as
    the equal word does.  Deterministic across processes and runs --
    the property that makes hash placement reproducible and lets a live
    add land on the same shard the bulk loader would have picked.
    """
    return zlib.crc32(_codes(word).tobytes())


@dataclass(frozen=True)
class RuleTable:
    """An ordered rule set; position is priority (0 = highest).

    Args:
        rules: Ternary rule words, all the same width.
    """

    rules: tuple[TernaryWord, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ClusterError("a rule table needs at least one rule")
        width = len(self.rules[0])
        for i, rule in enumerate(self.rules):
            if len(rule) != width:
                raise ClusterError(
                    f"rule {i} width {len(rule)} != table width {width}"
                )

    @property
    def width(self) -> int:
        return len(self.rules[0])

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, idx: int) -> TernaryWord:
        return self.rules[idx]


@dataclass(frozen=True)
class Placement:
    """Where every rule of a table lives.

    Attributes:
        policy: Name of the policy that produced the placement.
        n_shards: Shard (chip) count.
        shard_rules: Per shard, the global rule indices stored there in
            ascending order -- ascending matters: it makes local row
            order coincide with global priority order at load time, and
            the fabric's ``row -> global rule`` map keeps the merge
            exact after churn breaks that coincidence.
        replicas: Per rule, the shards holding a copy.
        hot_count: Rules replicated everywhere (``replicated`` policy).
        route_bits: Routing-prefix width (``range`` policy).
    """

    policy: str
    n_shards: int
    shard_rules: tuple[tuple[int, ...], ...]
    replicas: tuple[tuple[int, ...], ...]
    hot_count: int = 0
    route_bits: int = 0

    @property
    def max_shard_load(self) -> int:
        """Rows the fullest shard needs."""
        return max(len(s) for s in self.shard_rules)

    def replication_factor(self) -> float:
        """Stored copies per rule (1.0 = no replication)."""
        return sum(len(r) for r in self.replicas) / len(self.replicas)


def _routing_interval(word: TernaryWord | np.ndarray, route_bits: int) -> tuple[int, int]:
    """Value interval ``[lo, hi]`` covered by the leading routing trits.

    An X in a routing column matches both bit values, so it contributes
    0 to the low end and 1 to the high end.
    """
    lo = hi = 0
    arr = _codes(word)
    for b in range(route_bits):
        trit = int(arr[b])
        lo <<= 1
        hi <<= 1
        if trit == int(Trit.ONE):
            lo |= 1
            hi |= 1
        elif trit == int(Trit.X):
            hi |= 1
    return lo, hi


class Distributor:
    """Shared policy plumbing; concrete policies override the hooks."""

    name = "abstract"

    # -- hooks -------------------------------------------------------
    def route_rule(
        self, rule: TernaryWord, rule_index: int, placement: Placement
    ) -> tuple[int, ...]:
        """Shards that must store ``rule`` (used for placement and live adds)."""
        raise NotImplementedError

    def probe_shards(
        self, key: TernaryWord | np.ndarray, placement: Placement
    ) -> tuple[int, ...]:
        """Shards a key probes in the first round.

        The fabric passes each key as one int8 row of its trit block.
        """
        raise NotImplementedError

    def needs_fallback(
        self, best_rule: int | None, placement: Placement
    ) -> bool:
        """Whether the first-round winner can be beaten by an unprobed shard."""
        return False

    def _placement_params(
        self, table: RuleTable, n_shards: int
    ) -> dict[str, int]:
        return {}

    # -- shared ------------------------------------------------------
    def place(self, table: RuleTable, n_shards: int) -> Placement:
        """Assign every rule of ``table`` to its shard(s)."""
        if n_shards < 1:
            raise ClusterError(f"n_shards must be >= 1, got {n_shards}")
        params = self._placement_params(table, n_shards)
        skeleton = Placement(
            policy=self.name,
            n_shards=n_shards,
            shard_rules=((),) * n_shards,
            replicas=(),
            **params,
        )
        shard_rules: list[list[int]] = [[] for _ in range(n_shards)]
        replicas: list[tuple[int, ...]] = []
        for gid, rule in enumerate(table.rules):
            shards = self.route_rule(rule, gid, skeleton)
            if not shards:
                raise ClusterError(f"policy {self.name!r} routed rule {gid} nowhere")
            for s in shards:
                shard_rules[s].append(gid)
            replicas.append(tuple(shards))
        return Placement(
            policy=self.name,
            n_shards=n_shards,
            shard_rules=tuple(tuple(s) for s in shard_rules),
            replicas=tuple(replicas),
            **params,
        )


@dataclass(frozen=True)
class HashDistributor(Distributor):
    """Content-hash sharding: one copy per rule, broadcast queries."""

    name = "hash"

    def route_rule(self, rule, rule_index, placement):
        return (rule_fingerprint(rule) % placement.n_shards,)

    def probe_shards(self, key, placement):
        return tuple(range(placement.n_shards))


@dataclass(frozen=True)
class RangeDistributor(Distributor):
    """LPM-prefix range sharding on the leading routing columns.

    Args:
        route_bits: Routing-prefix width; defaults to
            ``ceil(log2(n_shards))``, the narrowest prefix that can
            address every shard.
    """

    name = "range"
    route_bits: int | None = None

    def _resolve_bits(self, width: int, n_shards: int) -> int:
        bits = self.route_bits
        if bits is None:
            bits = max(n_shards - 1, 0).bit_length()
        if not 0 <= bits <= width:
            raise ClusterError(
                f"route_bits {bits} outside [0, {width}] for {width}-col rules"
            )
        return bits

    def _placement_params(self, table, n_shards):
        return {"route_bits": self._resolve_bits(table.width, n_shards)}

    @staticmethod
    def _shard_of(value: int, placement: Placement) -> int:
        if placement.route_bits == 0:
            return 0
        return (value * placement.n_shards) >> placement.route_bits

    def _covered_shards(self, word, placement):
        lo, hi = _routing_interval(word, placement.route_bits)
        return tuple(
            range(
                self._shard_of(lo, placement),
                self._shard_of(hi, placement) + 1,
            )
        )

    def route_rule(self, rule, rule_index, placement):
        return self._covered_shards(rule, placement)

    def probe_shards(self, key, placement):
        return self._covered_shards(key, placement)


@dataclass(frozen=True)
class ReplicatedHotDistributor(Distributor):
    """Hot-rule replication: top rules everywhere, tail hash-sharded.

    Args:
        hot_fraction: Fraction of the table (highest-priority prefix)
            replicated into every shard.
        hot_count: Absolute override for the replicated prefix length.
    """

    name = "replicated"
    hot_fraction: float = 0.125
    hot_count: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ClusterError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )
        if self.hot_count is not None and self.hot_count < 0:
            raise ClusterError(f"hot_count must be >= 0, got {self.hot_count}")

    def _placement_params(self, table, n_shards):
        hot = self.hot_count
        if hot is None:
            hot = max(1, round(self.hot_fraction * len(table)))
        return {"hot_count": min(hot, len(table))}

    def route_rule(self, rule, rule_index, placement):
        if rule_index < placement.hot_count:
            return tuple(range(placement.n_shards))
        return (rule_fingerprint(rule) % placement.n_shards,)

    def probe_shards(self, key, placement):
        return (rule_fingerprint(key) % placement.n_shards,)

    def needs_fallback(self, best_rule, placement):
        # A hot winner is global: every tail rule has a larger index.
        # Anything else (no match, or a tail match) can be beaten by a
        # tail rule on an unprobed shard.
        if placement.n_shards == 1:
            return False
        return best_rule is None or best_rule >= placement.hot_count


#: Constructors behind :func:`get_distributor`, keyed by policy name.
_POLICY_FACTORIES = {
    "hash": HashDistributor,
    "range": RangeDistributor,
    "replicated": ReplicatedHotDistributor,
}


def get_distributor(name: str, **kwargs) -> Distributor:
    """Build a distributor by policy name (see :data:`DISTRIBUTOR_POLICIES`)."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ClusterError(
            f"unknown distributor policy {name!r}; "
            f"expected one of {DISTRIBUTOR_POLICIES}"
        ) from None
    return factory(**kwargs)

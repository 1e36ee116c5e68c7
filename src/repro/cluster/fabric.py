"""The sharded multi-chip TCAM fabric.

:class:`TCAMFabric` composes N :class:`~repro.tcam.chip.TCAMChip`
instances into one logical search engine.  A
:class:`~repro.cluster.distributor.Distributor` decides which chip(s)
store each rule and which chip(s) a key probes; an
:class:`~repro.cluster.interconnect.Interconnect` prices the query and
result movement; the fabric merges the per-shard verdicts back into a
single :class:`FabricSearchOutcome` whose winner is bit-identical to an
unsharded reference chip holding the same table.

**Priority merge.**  Priorities are *global rule indices* (0 wins).
Each chip carries a ``row -> global rule`` map maintained through bulk
load, live churn and spare-row repair, so the merge is simply the
minimum mapped index over every matched valid row of every probed
shard.  This stays exact even after churn breaks the load-time
coincidence of local row order and global priority order, and after a
repair relocates a rule into the spare region.

**Tie-breaks.**  Two shards can both report a match but never the same
global rule from different rows on equal footing: a rule is stored
once per replica shard and maps to one global index, so ``min()`` over
indices is a total order and the merge has no residual ties -- the
same argument that makes the hardware priority encoder's lowest-row
convention exact on a single array.

**Span-sum invariant.**  Every chip probe books its energy through the
normal ``chip.search_batch`` spans nested under the fabric's
``cluster.search_batch`` span; the fabric adds only the link +
distribution energy as its *own* span energy.  The span tree therefore
sums exactly to the outcome ledgers, preserving the obs-layer
invariant introduced in PR 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import build_array, get_design
from ..energy.accounting import EnergyLedger
from ..errors import CapacityError, ClusterError, TCAMError
from ..tcam import ArrayGeometry
from ..tcam.chip import GatingPolicy, TCAMChip
from ..tcam.outcome import BaseOutcome
from ..tcam.trit import TernaryWord, trit_block
from .distributor import Distributor, Placement, RuleTable, get_distributor
from .interconnect import Interconnect, LinkModel


@dataclass(frozen=True)
class FabricSearchOutcome(BaseOutcome):
    """One fabric search, merged across shards.

    Attributes:
        rule: Winning global rule index (0 = highest priority), or
            ``None`` when no probed shard matched.
        matched_rules: All matched global rule indices seen on probed
            shards, ascending.  Exhaustive for the broadcast policies
            (``hash``, ``range``); for ``replicated`` it may be pruned
            to the probed subset, but the *winner* is always global.
        shards_probed: Chips this query visited, in probe order.
        fallback: Whether a second broadcast round was needed
            (``replicated`` policy only).
        energy: Shard search energy + link + distribution components.
        latency: Key-to-result delay including link hops [s].
        cycle: Minimum time before the fabric ingress can accept the
            next query [s] (shard cycle + medium occupancy).
        shard_cycles: Per probed shard, the time this query occupied
            that shard's port (bank cycle, plus the dedicated-link
            transfer on ``p2p``).  This is what lets a batch-level
            service model see that queries on different shards overlap
            -- the source of the fabric's throughput scaling.
        link_occupancy: Time this query occupied the *shared* medium
            (``bus`` topology; 0 on ``p2p``, where transfers ride the
            per-shard links already counted in ``shard_cycles``).
    """

    rule: int | None
    matched_rules: tuple[int, ...]
    shards_probed: tuple[int, ...]
    fallback: bool
    energy: EnergyLedger
    latency: float
    cycle: float
    shard_cycles: tuple[tuple[int, float], ...] = ()
    link_occupancy: float = 0.0

    @property
    def match_mask(self):
        """Physical per-row masks do not survive the shard merge."""
        return None

    @property
    def first_match(self) -> int | None:
        return self.rule

    @property
    def search_delay(self) -> float:
        return self.latency

    @property
    def cycle_time(self) -> float:
        return self.cycle

    def _extra_dict(self) -> dict:
        return {
            "rule": None if self.rule is None else int(self.rule),
            "matched_rules": [int(r) for r in self.matched_rules],
            "shards_probed": [int(s) for s in self.shards_probed],
            "fallback": bool(self.fallback),
            "latency": self.latency,
        }


class TCAMFabric:
    """N TCAM chips behind one distributor, serving one rule table.

    Args:
        table: The global rule set; position is priority.
        n_chips: Shard count.
        policy: Distributor policy name (used when ``distributor`` is
            not given).
        distributor: Pre-built distributor instance (overrides
            ``policy``).
        design: Cell/design name for the shard arrays.
        banks_per_chip: Banks per chip.
        bank_rows: Rows per bank; defaults to the smallest count that
            fits the fullest shard plus the spare region.
        spare_rows: Rows reserved at the bottom of every bank for
            spare-row repair (kept empty by the loader).
        topology: Interconnect topology (``"p2p"`` / ``"bus"``).
        link: Electrical link model.
        result_bits: Verdict flit width for the interconnect.
        gating: Bank power-gating policy for the chips.

    Every bank's compiled kernel adopts the first bank's tables, so the
    identical shard banks compile the class triangle once.
    """

    def __init__(
        self,
        table: RuleTable,
        *,
        n_chips: int,
        policy: str = "hash",
        distributor: Distributor | None = None,
        design: str = "fefet2t",
        banks_per_chip: int = 1,
        bank_rows: int | None = None,
        spare_rows: int = 0,
        topology: str = "p2p",
        link: LinkModel | None = None,
        result_bits: int = 64,
        gating: GatingPolicy | None = None,
    ) -> None:
        if n_chips < 1:
            raise ClusterError(f"n_chips must be >= 1, got {n_chips}")
        if banks_per_chip < 1:
            raise ClusterError(f"banks_per_chip must be >= 1, got {banks_per_chip}")
        if spare_rows < 0:
            raise ClusterError(f"spare_rows must be >= 0, got {spare_rows}")
        self.table = table
        self.distributor = (
            distributor if distributor is not None else get_distributor(policy)
        )
        self.placement: Placement = self.distributor.place(table, n_chips)
        self.spare_rows = spare_rows

        load = self.placement.max_shard_load
        min_rows = -(-load // banks_per_chip) + spare_rows
        if bank_rows is None:
            bank_rows = max(min_rows, 2)
        if bank_rows < min_rows:
            raise CapacityError(
                f"bank_rows={bank_rows} cannot hold the fullest shard "
                f"({load} rules over {banks_per_chip} banks + "
                f"{spare_rows} spares needs >= {min_rows})"
            )
        self.bank_rows = bank_rows
        self.banks_per_chip = banks_per_chip

        spec = get_design(design)
        geometry = ArrayGeometry(rows=bank_rows, cols=table.width)
        self.interconnect = Interconnect(
            topology,
            link,
            key_bits=2 * table.width,
            result_bits=result_bits,
        )

        with obs.span(
            "cluster.build",
            n_chips=n_chips,
            policy=self.placement.policy,
            topology=topology,
            bank_rows=bank_rows,
        ) as sp:
            self.chips = [
                TCAMChip(
                    lambda: build_array(spec, geometry),
                    n_banks=banks_per_chip,
                    gating=gating,
                )
                for _ in range(n_chips)
            ]
            #: Per chip: chip-global row -> global rule index (-1 free).
            self.row_rule: list[np.ndarray] = [
                np.full(chip.rows_total, -1, dtype=np.int64) for chip in self.chips
            ]
            #: Global rule index -> [(chip, chip_global_row), ...].
            self.rule_sites: dict[int, list[tuple[int, int]]] = {}
            #: Global rule index -> word, for every *live* rule
            #: (including churn-added ones; withdrawn rules drop out).
            self.rule_words: dict[int, TernaryWord] = dict(enumerate(table.rules))
            self.next_rule_id = len(table)
            self.load_energy = self._load_shards()
            if sp is not None:
                sp.add_energy(self.load_energy)
            banks = [bank for chip in self.chips for bank in chip.banks]
            for bank in banks[1:]:
                bank.kernel.adopt_tables(banks[0].kernel)

        #: Conservation counters checked by the campaign smoke gate.
        self.queries_offered = 0
        self.probes_issued = 0
        self.fallback_queries = 0

    # -- construction ------------------------------------------------

    def _load_shards(self) -> EnergyLedger:
        """Bulk-load every shard, skipping the per-bank spare regions."""
        ledger = EnergyLedger()
        cap = self.bank_rows - self.spare_rows
        if cap < 1:
            raise CapacityError(
                f"spare_rows={self.spare_rows} leaves no data rows in "
                f"{self.bank_rows}-row banks"
            )
        for c, gids in enumerate(self.placement.shard_rules):
            for pos0 in range(0, len(gids), cap):
                block = gids[pos0 : pos0 + cap]
                bank = pos0 // cap
                start = bank * self.bank_rows
                words = [self.table[g] for g in block]
                ledger.merge(self.chips[c].load_rows(words, start_row=start))
                for j, gid in enumerate(block):
                    row = start + j
                    self.row_rule[c][row] = gid
                    self.rule_sites.setdefault(gid, []).append((c, row))
        return ledger

    # -- introspection ------------------------------------------------

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    def occupied_banks(self, chip: int) -> list[int]:
        """Banks of ``chip`` holding at least one live rule."""
        rows = self.bank_rows
        mapped = self.row_rule[chip]
        return [
            b
            for b in range(self.banks_per_chip)
            if (mapped[b * rows : (b + 1) * rows] >= 0).any()
        ]

    def free_row(self, chip: int) -> int | None:
        """First unmapped non-spare row of ``chip``, or ``None`` if full."""
        rows = self.bank_rows
        cap = rows - self.spare_rows
        mapped = self.row_rule[chip]
        for b in range(self.banks_per_chip):
            base = b * rows
            for local in range(cap):
                if mapped[base + local] < 0:
                    return base + local
        return None

    def counters(self) -> dict:
        return {
            "queries_offered": int(self.queries_offered),
            "probes_issued": int(self.probes_issued),
            "fallback_queries": int(self.fallback_queries),
        }

    # -- search -------------------------------------------------------

    def search(self, key: TernaryWord) -> FabricSearchOutcome:
        """Search one key (see :meth:`search_batch`)."""
        return self.search_batch([key])[0]

    def search_batch(self, keys) -> list[FabricSearchOutcome]:
        """Search a key batch across the fabric.

        Keys routed to the same shard keep their relative order, so
        each shard's drive state and kernel counters evolve exactly as
        if that key subsequence had been offered to it directly --
        which is what makes the one-chip fabric bit-identical to a
        plain :meth:`~repro.tcam.chip.TCAMChip.search_batch` call,
        ledgers included, once the link components are stripped.

        Args:
            keys: Search keys of the table's width: an ``(n, width)``
                matrix of trit codes or a sequence of
                :class:`~repro.tcam.trit.TernaryWord`, validated whole
                before any chip is probed.

        Raises:
            ClusterError: on a malformed key block.
        """
        try:
            block = trit_block(keys, self.table.width, "TCAMFabric.search_batch")
        except TCAMError as exc:
            raise ClusterError(str(exc)) from None
        n = len(block)
        if not n:
            return []

        with obs.span(
            "cluster.search_batch",
            n_keys=n,
            n_chips=self.n_chips,
            policy=self.placement.policy,
            topology=self.interconnect.topology,
        ) as sp:
            probes: list[tuple[int, ...]] = [
                tuple(self.distributor.probe_shards(k, self.placement))
                for k in block
            ]
            acc_energy = [EnergyLedger() for _ in range(n)]
            acc_delay = [0.0] * n
            acc_shards: list[dict[int, float]] = [dict() for _ in range(n)]
            matched: list[set[int]] = [set() for _ in range(n)]

            self._probe_round(block, probes, matched, acc_energy, acc_delay,
                              acc_shards)
            best = [min(m) if m else None for m in matched]

            fallback = [False] * n
            extra: list[tuple[int, ...]] = [()] * n
            if any(
                self.distributor.needs_fallback(best[i], self.placement)
                for i in range(n)
            ):
                extra = [
                    tuple(
                        s
                        for s in range(self.n_chips)
                        if s not in probes[i]
                    )
                    if self.distributor.needs_fallback(best[i], self.placement)
                    else ()
                    for i in range(n)
                ]
                fallback = [bool(e) for e in extra]
                self._probe_round(block, extra, matched, acc_energy, acc_delay,
                                  acc_shards)
                best = [min(m) if m else None for m in matched]

            link_ledger = EnergyLedger()
            outcomes: list[FabricSearchOutcome] = []
            total_probes = 0
            for i in range(n):
                cost = self.interconnect.query_cost(len(probes[i]))
                latency = acc_delay[i] + cost.latency
                occupancy = cost.occupancy
                energy, routing = cost.energy, cost.routing_energy
                if fallback[i]:
                    cost2 = self.interconnect.query_cost(len(extra[i]))
                    latency += cost2.latency
                    occupancy += cost2.occupancy
                    energy += cost2.energy
                    routing += cost2.routing_energy
                per_key = EnergyLedger()
                per_key.add("link", energy)
                per_key.add("distribution", routing)
                link_ledger.merge(per_key)
                acc_energy[i].merge(per_key)
                shards = probes[i] + extra[i]
                total_probes += len(shards)
                # On p2p every probe rides a dedicated link, so its
                # transfer time folds into that shard's port occupancy;
                # on a bus the transfers serialize on the one medium.
                if self.interconnect.topology == "p2p":
                    hop = self.interconnect.transfer_time()
                    shard_cycles = tuple(
                        (s, c + hop) for s, c in sorted(acc_shards[i].items())
                    )
                    link_occ = 0.0
                else:
                    shard_cycles = tuple(sorted(acc_shards[i].items()))
                    link_occ = occupancy
                max_cycle = max(acc_shards[i].values(), default=0.0)
                outcomes.append(
                    FabricSearchOutcome(
                        rule=best[i],
                        matched_rules=tuple(sorted(matched[i])),
                        shards_probed=shards,
                        fallback=fallback[i],
                        energy=acc_energy[i],
                        latency=latency,
                        cycle=max_cycle + occupancy,
                        shard_cycles=shard_cycles,
                        link_occupancy=link_occ,
                    )
                )

            self.queries_offered += n
            self.probes_issued += total_probes
            self.fallback_queries += sum(fallback)
            if sp is not None:
                sp.add_energy(link_ledger)
                sp.annotate(probes=total_probes, fallbacks=sum(fallback))
            m = obs.metrics()
            if m is not None:
                m.counter("cluster.queries").inc(n)
                m.counter("cluster.probes").inc(total_probes)
                for component, joules in link_ledger:
                    m.counter("energy." + component).inc(joules)
            return outcomes

    def _probe_round(
        self, block, probes, matched, acc_energy, acc_delay, acc_shards
    ) -> None:
        """Run one probe round and fold the shard verdicts into the
        per-key accumulators (in place).

        Chips are probed in ascending index order; each probed chip
        searches its rows of the key ``block`` once per occupied bank.
        """
        by_chip: dict[int, list[int]] = {}
        for i, shards in enumerate(probes):
            for s in shards:
                by_chip.setdefault(s, []).append(i)

        rows = self.bank_rows
        for s in sorted(by_chip):
            banks = self.occupied_banks(s)
            if not banks:
                continue  # an empty shard cannot match and is not probed
            idxs = by_chip[s]
            chip = self.chips[s]
            chip_keys = block[idxs]
            per_bank = {b: chip.search_batch(chip_keys, banks=b) for b in banks}
            mapped = self.row_rule[s]
            for pos, i in enumerate(idxs):
                shard_delay = 0.0
                shard_cycle = 0.0
                for b in banks:
                    o = per_bank[b][pos]
                    acc_energy[i].merge(o.energy)
                    shard_delay = max(shard_delay, o.latency)
                    shard_cycle = max(shard_cycle, o.cycle_time)
                    mask = o.outcome.match_mask
                    if mask is None:
                        continue
                    base = b * rows
                    for local in np.flatnonzero(mask):
                        gid = mapped[base + int(local)]
                        if gid >= 0:
                            matched[i].add(int(gid))
                acc_delay[i] = max(acc_delay[i], shard_delay)
                acc_shards[i][s] = max(acc_shards[i].get(s, 0.0), shard_cycle)


def ternary_matches(stored: TernaryWord, key: TernaryWord) -> bool:
    """Logical TCAM match: a column passes when either side is X or the
    trits agree (an undriven search line cannot discharge, a stored X
    conducts for neither drive)."""
    from ..tcam.trit import Trit

    s = stored.as_array()
    k = key.as_array()
    x = int(Trit.X)
    return bool(np.all((s == k) | (s == x) | (k == x)))


def logical_winner(rules, key: TernaryWord) -> int | None:
    """Oracle winner over a ``{global index -> word}`` rule map: the
    lowest index whose word matches ``key`` -- the answer a healthy
    fabric (and the unsharded reference) must return."""
    for gid in sorted(rules):
        if ternary_matches(rules[gid], key):
            return gid
    return None


def build_reference_chip(
    table: RuleTable,
    *,
    design: str = "fefet2t",
) -> TCAMChip:
    """The unsharded reference: one bank holding the whole table in
    priority order.  ``chip.search_batch(keys, banks=0)`` on it is the
    golden answer the fabric must reproduce (global row == global rule
    index)."""
    spec = get_design(design)
    geometry = ArrayGeometry(rows=len(table), cols=table.width)
    chip = TCAMChip(lambda: build_array(spec, geometry), n_banks=1)
    chip.load_rows(list(table.rules))
    return chip

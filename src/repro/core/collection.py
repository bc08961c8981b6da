"""Information collection toward the seed(s) — Algorithms 2 and 4.

Once a checkpoint's local counting has stabilized (Alg. 1 phase 6), its local
view must travel to the data sink.  The paper does this *in band*: along the
spanning tree induced by the predecessor/successor relation, every non-seed
checkpoint waits for the subtree reports of its children, adds its own
``c(u)``, and asks a vehicle driving toward its predecessor to carry the
aggregate one hop up (Alg. 2).  One-way streets can make the hop toward the
predecessor impossible for ordinary traffic, in which case patrol cars carry
the report along a circuitous route (Alg. 4).

The :class:`CollectionManager` keeps all collection state outside the
checkpoint objects so Alg. 1/3/5 (constitution) and Alg. 2/4 (collection) stay
as separable as they are in the paper.

Child discovery
---------------
``s(u)`` contains neighbours that are *not* tree children, so a checkpoint
must learn which successors will actually report to it.  Labels carry
``p(origin)``; patrol digests carry a parents map.  A checkpoint is *ready to
report* when it is stable, knows ``p(v)`` for every outbound neighbour ``v``
and has received a report from every known child (see DESIGN.md note 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CollectionError
from ..mobility.vehicle import Vehicle
from ..wireless.exchange import ExchangeService
from ..wireless.messages import CounterReport, StatusDigest
from .checkpoint import Checkpoint

__all__ = ["CollectionStats", "CollectionManager"]


@dataclass
class CollectionStats:
    """Aggregate counters describing the collection phase."""

    reports_sent: int = 0
    reports_delivered: int = 0
    reports_via_patrol: int = 0
    attach_failures: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reports_sent": self.reports_sent,
            "reports_delivered": self.reports_delivered,
            "reports_via_patrol": self.reports_via_patrol,
            "attach_failures": self.attach_failures,
        }


class CollectionManager:
    """Drives Alg. 2 / Alg. 4 on top of the checkpoint state machines.

    Parameters
    ----------
    checkpoints:
        Mapping intersection -> :class:`Checkpoint` (shared with the
        protocol).
    seeds:
        The seed/sink checkpoints, in activation order.
    exchange:
        Wireless exchange service used when attaching a report to a vehicle.
    enabled:
        When ``False`` the manager is inert (used by constitution-only
        experiments such as Fig. 2 / Fig. 4(a)).
    """

    def __init__(
        self,
        checkpoints: Dict[object, Checkpoint],
        seeds: List[object],
        exchange: ExchangeService,
        *,
        enabled: bool = True,
    ) -> None:
        self.checkpoints = checkpoints
        self.seeds = list(seeds)
        self.exchange = exchange
        self.enabled = bool(enabled)
        self.stats = CollectionStats()

        #: node -> {child -> reported subtree value}
        self.child_reports: Dict[object, Dict[object, int]] = {
            node: {} for node in checkpoints
        }
        #: nodes whose own report has been handed to a carrier already
        self.report_sent: Dict[object, bool] = {node: False for node in checkpoints}
        #: seed -> simulation time at which its subtree total became complete
        self.seed_completed_at: Dict[object, float] = {}
        #: seeds not yet complete -> the (checkpoint revision, #child
        #: reports) fingerprint of their last "not complete" verdict
        #: (``None`` before the first); see :meth:`update`.
        self._pending: Dict[object, Optional[Tuple[int, int]]] = dict.fromkeys(
            self.seeds
        )
        #: node -> (verdict, checkpoint revision, #child reports, sent flag)
        #: memo for :meth:`ready_to_report_cached`; an entry is valid only
        #: while all three dependency fingerprints still match.
        self._ready_cache: Dict[object, tuple] = {}

    # -------------------------------------------------------------- queries
    def children_of(self, node: object) -> List[object]:
        """Known spanning-tree children of ``node``."""
        return self.checkpoints[node].children()

    def has_all_child_reports(self, node: object) -> bool:
        received = self.child_reports[node]
        return all(child in received for child in self.children_of(node))

    def collection_complete(self, node: object) -> bool:
        """Alg. 2 phase 1: stable, all successor parents known, all child
        reports received."""
        cp = self.checkpoints[node]
        return cp.stable and cp.knows_all_outbound_parents() and self.has_all_child_reports(node)

    def ready_to_report(self, node: object) -> bool:
        """Whether a non-seed checkpoint can push its aggregate upward."""
        cp = self.checkpoints[node]
        if cp.is_seed or not cp.active or cp.predecessor is None:
            return False
        return not self.report_sent[node] and self.collection_complete(node)

    def ready_to_report_cached(self, node: object) -> bool:
        """:meth:`ready_to_report` behind a dependency-fingerprint memo.

        Readiness is a pure function of the checkpoint's protocol state
        (tracked by its ``_rev`` revision counter), the number of child
        reports received here, and the sent flag; the memo is consulted on
        every crossing by the batched pipeline and recomputed only when one
        of those fingerprints moved.  Always agrees with
        :meth:`ready_to_report`.
        """
        entry = self._ready_cache.get(node)
        cp_rev = self.checkpoints[node]._rev
        n_reports = len(self.child_reports[node])
        sent = self.report_sent[node]
        if (
            entry is not None
            and entry[1] == cp_rev
            and entry[2] == n_reports
            and entry[3] == sent
        ):
            return entry[0]
        verdict = self.ready_to_report(node)
        self._ready_cache[node] = (verdict, cp_rev, n_reports, sent)
        return verdict

    def subtree_value(self, node: object) -> int:
        """``c(u) + sum of the successors' reported values`` (Alg. 2 phase 2)."""
        cp = self.checkpoints[node]
        return cp.non_interaction_count() + sum(self.child_reports[node].values())

    def global_view(self) -> int:
        """The count visible at the sink(s): the sum of every seed's subtree."""
        return sum(self.subtree_value(seed) for seed in self.seeds)

    def all_seeds_done(self) -> bool:
        """Whether every seed has obtained its complete subtree total."""
        return not self._pending

    def completion_time(self) -> Optional[float]:
        """Time at which the last seed completed, or ``None`` if not yet done."""
        if not self.all_seeds_done():
            return None
        return max(self.seed_completed_at[seed] for seed in self.seeds)

    # ------------------------------------------------------------- transport
    def on_departure(
        self, cp: Checkpoint, to_node: object, vehicle: Vehicle, time_s: float
    ) -> None:
        """Alg. 2 phase 2: attach the aggregate to a vehicle leaving toward
        the predecessor."""
        if not self.enabled or vehicle.is_patrol:
            return
        if not self.ready_to_report(cp.node) or to_node != cp.predecessor:
            return
        outcome = self.exchange.exchange()
        if not outcome.success:
            self.stats.attach_failures += 1
            return
        report = CounterReport(
            reporter=cp.node,
            destination=cp.predecessor,
            value=self.subtree_value(cp.node),
            tree_id=cp.tree_id,
        )
        vehicle.reports.append(report)
        self.report_sent[cp.node] = True
        self.stats.reports_sent += 1

    def deliver_from_vehicle(self, cp: Checkpoint, vehicle: Vehicle, time_s: float) -> None:
        """Alg. 2 phase 1: receive the reports a vehicle carried to this node."""
        if not self.enabled:
            return
        for report in vehicle.drop_reports_for(cp.node):
            self.receive_report(cp.node, report, time_s)

    def receive_report(self, node: object, report: CounterReport, time_s: float) -> None:
        """Record a subtree report at its destination (idempotent per child)."""
        if report.destination != node:
            raise CollectionError(
                f"report for {report.destination!r} delivered to {node!r}"
            )
        bucket = self.child_reports[node]
        if report.reporter not in bucket:
            bucket[report.reporter] = report.value
            self.stats.reports_delivered += 1
        self.update(time_s)

    # ----------------------------------------------------------- patrol path
    def sync_with_patrol(self, cp: Checkpoint, digest: StatusDigest, time_s: float) -> None:
        """Alg. 4: exchange collection state with a patrol car at ``cp``.

        The patrol (a) drops any ferried reports destined for this
        checkpoint, (b) teaches the checkpoint the predecessors it has seen
        (one-way child discovery), and (c) picks up this checkpoint's report
        when the direct hop toward the predecessor does not exist or the
        report has simply not been sent yet.
        """
        if not self.enabled:
            return
        for report in digest.pop_reports_for(cp.node):
            self.receive_report(cp.node, report, time_s)
            self.stats.reports_via_patrol += 1
        for neighbor in cp.outbound:
            if neighbor in digest.parents:
                cp.note_parent_of(neighbor, digest.parents[neighbor])
        if self.ready_to_report(cp.node):
            report = CounterReport(
                reporter=cp.node,
                destination=cp.predecessor,
                value=self.subtree_value(cp.node),
                tree_id=cp.tree_id,
            )
            digest.add_report(report)
            self.report_sent[cp.node] = True
            self.stats.reports_sent += 1
        self.update(time_s)

    # --------------------------------------------------------------- updates
    def update(self, time_s: float) -> None:
        """Check whether any seed has just obtained its complete subtree.

        :meth:`collection_complete` reads only the seed checkpoint's
        stability and parent knowledge, which move its ``_rev`` (activation,
        a stop, a learnt parent), and the child reports received here, which
        only grow.  So a seed is re-derived only when that fingerprint moved
        since its last "not complete" verdict; the result is the same as
        re-deriving every pending seed on every call.
        """
        if not self.enabled:
            return
        for seed, seen in list(self._pending.items()):
            mark = (self.checkpoints[seed]._rev, len(self.child_reports[seed]))
            if mark == seen:
                continue
            if self.collection_complete(seed):
                self.seed_completed_at[seed] = time_s
                del self._pending[seed]
            else:
                self._pending[seed] = mark

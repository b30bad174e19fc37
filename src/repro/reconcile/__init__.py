"""The reconciliation engine.

Reconciliation (companion paper [11], Taylor & Ives SIGMOD 2006) is the step
in which a peer decides which of the translated candidate transactions to
apply to its local instance:

1. candidates are combined with the antecedent transactions needed to apply
   them into *applicable transaction groups*
   (:mod:`repro.reconcile.candidates`);
2. candidates whose antecedents were already rejected are rejected as well;
3. trust conditions assign numeric priorities to the groups
   (:mod:`repro.reconcile.priorities`);
4. a greedy algorithm accepts the highest-priority mutually consistent set of
   groups; equal-priority conflicting groups are *deferred* to the site
   administrator, along with everything that depends on them
   (:mod:`repro.reconcile.algorithm`);
5. the administrator can later resolve a deferred conflict, which cascades
   accepts/rejects through the dependency graph
   (:mod:`repro.reconcile.resolution`).
"""

from .algorithm import Reconciler, ReconcileResult
from .candidates import TransactionGroup, build_groups
from .decisions import Decision, ReconciliationState
from .priorities import group_priority
from .resolution import ResolutionResult, resolve_conflict

__all__ = [
    "Decision",
    "ReconcileResult",
    "ReconciliationState",
    "Reconciler",
    "ResolutionResult",
    "TransactionGroup",
    "build_groups",
    "group_priority",
    "resolve_conflict",
]

"""The policy infrastructure roles of Figure 10.

* :class:`PolicyRepository` — the PRP, "in charge of storing policies".
* :class:`PolicyAdministrationPoint` — the PAP, "in charge of
  provisioning the rules ... and other administrative tasks (e.g.,
  checking that the rules are valid)".
* :class:`PolicyEnforcementPoint` — the PEP, "in charge of asking for a
  decision and enforcing it".

In the basic GUPster deployment one server plays PAP + PRP + PDP + PEP
(Section 4.6). The roles are separate classes precisely so experiment
E5 can also assemble the *alternative* the paper argues against —
per-store policy replicas that must be kept in sync — and measure the
difference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import PolicyError
from repro.pxml import Path, parse_path
from repro.seqlog import DEFAULT_WINDOW, SeqLog
from repro.access.context import RequestContext
from repro.access.policy import (
    Decision,
    PolicyDecisionPoint,
    PolicyRule,
)

__all__ = [
    "PolicyRepository",
    "PolicyAdministrationPoint",
    "PolicyEnforcementPoint",
]


class PolicyRepository:
    """Stores each user's privacy-shield rules (the PRP).

    A monotone ``revision`` stamps every change so replicas can sync
    incrementally: ``changes_since(revision)`` is the replication feed
    (its newest :data:`~repro.seqlog.DEFAULT_WINDOW` changes; a
    replica behind the window re-seeds).
    """

    def __init__(self, name: str = "prp"):
        self.name = name
        # remove() also drops an owner's emptied bucket.
        self._rules: Dict[str, Dict[str, PolicyRule]] = {}
        #: (revision, op, owner, rule) per change.
        self._changelog: SeqLog[tuple] = SeqLog(DEFAULT_WINDOW)

    @property
    def revision(self) -> int:
        return self._changelog.last_seq

    def _log_change(
        self, revision: int, op: str, owner: str, rule: PolicyRule
    ) -> None:
        self._changelog.append((revision, op, owner, rule), revision)

    def store(self, rule: PolicyRule) -> None:
        bucket = self._rules.setdefault(rule.owner, {})
        existing = bucket.get(rule.rule_id)
        if existing is not None:
            rule.version = existing.version + 1
        bucket[rule.rule_id] = rule
        self._log_change(self.revision + 1, "store", rule.owner, rule)

    def _pop(self, owner: str, rule_id: str) -> Optional[PolicyRule]:
        bucket = self._rules.get(owner, {})
        rule = bucket.pop(rule_id, None)
        if rule is not None and not bucket:
            del self._rules[owner]
        return rule

    def remove(self, owner: str, rule_id: str) -> None:
        rule = self._pop(owner, rule_id)
        if rule is None:
            raise PolicyError("no rule %r for %r" % (rule_id, owner))
        self._log_change(self.revision + 1, "remove", owner, rule)

    def rules_for(self, owner: str) -> List[PolicyRule]:
        return list(self._rules.get(owner, {}).values())

    def rule_count(self) -> int:
        return sum(len(bucket) for bucket in self._rules.values())

    def owners(self) -> List[str]:
        return sorted(self._rules)

    # -- replication (the cost E5 measures) -----------------------------------

    def changes_since(self, revision: int) -> List[tuple]:
        return self._changelog.since(revision)

    def apply_changes(self, changes: Sequence[tuple]) -> int:
        """Apply a replication feed; returns entries applied."""
        applied = 0
        for revision, op, owner, rule in changes:
            if revision <= self.revision:
                continue
            if op == "store":
                self._rules.setdefault(owner, {})[rule.rule_id] = rule
            else:
                self._pop(owner, rule.rule_id)
            self._log_change(revision, op, owner, rule)
            applied += 1
        return applied


class PolicyAdministrationPoint:
    """Validates and provisions rules (the PAP).

    Validation is the "checking that the rules are valid" duty: the
    target must parse in the GUPster fragment, and a user may only
    administer rules over *their own* profile subtree.
    """

    def __init__(self, repository: PolicyRepository):
        self.repository = repository
        self.provisioned = 0
        self.rejected = 0

    def provision_rule(
        self, acting_user: str, rule: PolicyRule
    ) -> PolicyRule:
        if rule.owner != acting_user:
            self.rejected += 1
            raise PolicyError(
                "%r cannot provision rules for %r"
                % (acting_user, rule.owner)
            )
        target_owner = rule.target.user_id()
        if target_owner is not None and target_owner != acting_user:
            self.rejected += 1
            raise PolicyError(
                "rule target %s is not %r's data"
                % (rule.target, acting_user)
            )
        self.repository.store(rule)
        self.provisioned += 1
        return rule

    def revoke_rule(self, acting_user: str, rule_id: str) -> None:
        owned = {
            rule.rule_id for rule in
            self.repository.rules_for(acting_user)
        }
        if rule_id not in owned:
            self.rejected += 1
            raise PolicyError(
                "%r owns no rule %r" % (acting_user, rule_id)
            )
        self.repository.remove(acting_user, rule_id)

    def list_rules(self, acting_user: str) -> List[PolicyRule]:
        return self.repository.rules_for(acting_user)


class PolicyEnforcementPoint:
    """Asks the PDP and enforces the outcome (the PEP).

    ``enforce`` either returns the decision (with the rewrite set for
    the caller to act on) or raises — callers choose via ``raising``.
    """

    def __init__(
        self,
        repository: PolicyRepository,
        pdp: Optional[PolicyDecisionPoint] = None,
    ):
        self.repository = repository
        self.pdp = pdp if pdp is not None else PolicyDecisionPoint()
        self.enforced = 0
        self.denied = 0

    def enforce(
        self,
        request: Union[str, Path],
        context: RequestContext,
    ) -> Decision:
        request_path = parse_path(request)
        owner = request_path.user_id()
        if owner is None:
            raise PolicyError(
                "request %s does not identify a profile owner"
                % request_path
            )
        self.enforced += 1
        # The owner always has full access to their own data.
        if (
            context.requester == owner
            and context.relationship == "self"
        ):
            return Decision(True, [request_path], ["owner access"])
        rules = self.repository.rules_for(owner)
        decision = self.pdp.decide(rules, request_path, context)
        if not decision.permit:
            self.denied += 1
        return decision

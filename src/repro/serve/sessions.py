"""The live objects the server holds between requests, and their registry.

A *serve session* is one sequential screen whose assays happen outside
the server: the server owns the belief state (an
:class:`~repro.sbgt.session.SBGTSession` on the shared engine context)
and the stage protocol (a :class:`~repro.sbgt.stepper.ScreenStepper`),
the client owns the physical pools.

A *campaign session* is the surveillance analogue: a live
:class:`~repro.surveil.campaign.Campaign` advanced round by round via
``POST /campaigns/{id}/round``, so a client can watch the allocator
learn (or interleave rounds with its own decisions) instead of getting
only the finished result.

One :class:`SessionRegistry` per kind bounds how many live at once,
expires idle ones and posts their lifecycle events; each entry carries
its own lock, which serializes the operations on it (two concurrent
result submissions for the same screen would corrupt the evidence
trail, two concurrent rounds the belief fold).
"""

from __future__ import annotations

import asyncio
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

from repro.engine.lockorder import OrderedLock
from repro.sbgt.session import SBGTSession
from repro.sbgt.stepper import ScreenStepper
from repro.serve.events import SessionEvent
from repro.serve.protocol import BadRequest, SessionCreateRequest, SurveilRequest

__all__ = [
    "ServeSession",
    "SessionRegistry",
    "SessionLimitError",
    "CampaignSession",
]


class SessionLimitError(RuntimeError):
    """Registry is full (HTTP 503)."""


def _pool_members(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


class _LiveEntry:
    """What the registry needs of an entry: its id, idle clock and lock."""

    def __init__(self, entry_id: str, request) -> None:
        self.id = entry_id
        self.request = request
        self.last_touch = time.monotonic()
        self.lock = asyncio.Lock()

    def touch(self) -> None:
        self.last_touch = time.monotonic()

    def idle_s(self) -> float:
        return time.monotonic() - self.last_touch

    def close(self) -> None:
        """Release what the entry holds between requests (nothing here)."""


class ServeSession(_LiveEntry):
    """One live interactive screen (built with engine work — call from an
    executor thread, not the event loop)."""

    def __init__(self, session_id: str, request: SessionCreateRequest, ctx) -> None:
        super().__init__(session_id, request)
        prior, model, policy, config = request.build()
        self.session = SBGTSession(ctx, prior, model, config)
        self.stepper = ScreenStepper(self.session, policy)

    def snapshot(self) -> Dict[str, Any]:
        """The session-state document every session endpoint returns."""
        stepper = self.stepper
        report = stepper.report
        return {
            "session_id": self.id,
            "request": self.request.canonical(),
            "n_items": self.session.n_items,
            "done": stepper.done,
            "exhausted_budget": stepper.exhausted_budget,
            "stages_used": stepper.stages_used,
            "num_tests": stepper.num_tests,
            "num_samples": stepper.num_samples,
            "classification": {
                "statuses": [s.name.lower() for s in report.statuses],
                "marginals": [float(m) for m in report.marginals],
            },
        }

    def proposal_payload(self) -> Dict[str, Any]:
        """``GET /sessions/{id}/next-pool`` body (engine work done by caller)."""
        pools = self.stepper.next_pools()
        return {
            "session_id": self.id,
            "done": self.stepper.done,
            "stage": self.stepper.stages_used + (1 if pools else 0),
            "pools": [
                {"mask": p, "members": _pool_members(p), "size": bin(p).count("1")}
                for p in pools
            ],
        }

    def results(self, outcomes: List[Any]) -> Dict[str, Any]:
        """``POST /sessions/{id}/results`` body: the snapshot after the
        outstanding pools' *outcomes*, with their evidence records."""
        stepper = self.stepper
        if stepper.done:
            raise BadRequest("screen already finished")
        if stepper.pending_pools is None:
            raise BadRequest("no pools outstanding; GET /sessions/{id}/next-pool first")
        try:
            records = stepper.submit_outcomes(outcomes)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        doc = self.snapshot()
        doc["records"] = [
            {
                "stage": r.stage,
                "pool_mask": r.pool_mask,
                "pool_size": r.pool_size,
                "outcome": r.outcome
                if isinstance(r.outcome, (bool, int, float))
                else float(r.outcome),
                "log_predictive": float(r.log_predictive),
            }
            for r in records
        ]
        return doc

    def close(self) -> None:
        self.session.close()


class CampaignSession(_LiveEntry):
    """One live multi-site surveillance campaign (no lattice is built
    until a round runs, so creating one is cheap driver-side work)."""

    def __init__(self, campaign_id: str, request: SurveilRequest, ctx) -> None:
        super().__init__(campaign_id, request)
        self.campaign = request.build_campaign(ctx)

    def snapshot(self) -> Dict[str, Any]:
        """The campaign-state document every campaign endpoint returns."""
        doc = self.campaign.snapshot()
        doc["campaign_id"] = self.id
        doc["request"] = self.request.canonical()
        return doc

    def run_round(self) -> Dict[str, Any]:
        """``POST /campaigns/{id}/round`` body (engine work done by caller)."""
        if self.campaign.finished:
            raise BadRequest("campaign already ran all its rounds")
        summary = self.campaign.run_round()
        doc = self.snapshot()
        doc["round"] = {
            "round": summary.index,
            "allocations": list(summary.allocations),
            "screens": summary.screens,
            "tests": summary.tests,
            "cases": summary.cases,
            "true_positives": summary.true_positives,
        }
        return doc


class SessionRegistry:
    """Bounded, TTL-swept map of the live entries of one *kind*.

    *kind* names the entries in the limit error and the ``/metrics``
    counters (``max_{kind}s``); lifecycle events go to *post* as
    :class:`~repro.serve.events.SessionEvent` actions ``created``,
    ``closed`` and ``expired``, each behind *action_prefix*.
    """

    def __init__(self, kind: str, max_entries: int, ttl_s: float,
                 post: Callable[[SessionEvent], None], action_prefix: str = "") -> None:
        self.kind = kind
        self.max_entries = max_entries
        self.ttl_s = float(ttl_s)
        self._post = post
        self._action_prefix = action_prefix
        self._entries: Dict[str, _LiveEntry] = {}
        self._lock = OrderedLock("SessionRegistry._lock")
        self.created = 0
        self.expired = 0
        self.closed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _event(self, entry_id: str, action: str) -> None:
        self._post(SessionEvent(entry_id, self._action_prefix + action))

    def _check_room(self) -> None:
        if len(self._entries) >= self.max_entries:
            raise SessionLimitError(
                f"{self.kind} limit reached ({self.max_entries}); "
                f"close or expire {self.kind}s first"
            )

    def create(self, build: Callable[[str], _LiveEntry]) -> _LiveEntry:
        """Add the entry ``build(new_id)`` returns.  The build runs outside
        the lock, so the limit is checked before it and again after."""
        with self._lock:
            self._check_room()
        entry = build(uuid.uuid4().hex[:16])
        try:
            with self._lock:
                self._check_room()
                self._entries[entry.id] = entry
                self.created += 1
        except SessionLimitError:
            entry.close()
            raise
        self._event(entry.id, "created")
        return entry

    def get(self, entry_id: str) -> Optional[_LiveEntry]:
        with self._lock:
            return self._entries.get(entry_id)

    def close(self, entry_id: str) -> bool:
        with self._lock:
            entry = self._entries.pop(entry_id, None)
            if entry is None:
                return False
            self.closed += 1
        entry.close()
        self._event(entry_id, "closed")
        return True

    def sweep(self) -> None:
        """Expire the entries idle for longer than the TTL."""
        with self._lock:
            stale = [e for e in self._entries.values() if e.idle_s() > self.ttl_s]
            for entry in stale:
                del self._entries[entry.id]
            self.expired += len(stale)
        for entry in stale:
            entry.close()
            self._event(entry.id, "expired")

    def close_all(self) -> None:
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.close()

    def snapshot(self) -> Dict[str, Any]:
        """Counters for ``/metrics``."""
        with self._lock:
            active = len(self._entries)
        return {
            "active": active,
            f"max_{self.kind}s": self.max_entries,
            "ttl_s": self.ttl_s,
            "created": self.created,
            "expired": self.expired,
            "closed": self.closed,
        }

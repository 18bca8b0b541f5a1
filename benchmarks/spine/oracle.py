"""Response checking: status, shield leaks, read-your-write markers
and a byte-exact oracle for sampled reads.

The oracle never asks the server what is right. It rebuilds the one
shard adapter that owns a subscriber (same store id, same seed, that
one user) and serializes the slice the privacy shield permits.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.pxml import GUP_KEYSPEC, merge_all

from workloads import Expect
from world import FLEETS, make_fleets, new_adapter, user_path

#: Components a ``buddy`` must never be shown.
_BUDDY_FORBIDDEN = ("<address-book", "<calendar")


class Checker:
    """Judges every response of one run."""

    def __init__(self, seed: int, written: Dict[str, str]) -> None:
        self.seed = seed
        self._fleets = make_fleets(seed)
        #: subscriber -> marker of the last acknowledged write to
        #: their address-book (starts with the warm-up's writes).
        self.written = dict(written)
        self.shield_leaks = 0
        self.oracle_checks = 0

    def expected_fragment(
        self, user: str, components: Sequence[str]
    ) -> str:
        parts = []
        for component in components:
            base_id = next(
                base for base, (_shards, held) in FLEETS.items()
                if component in held
            )
            adapter = new_adapter(
                self._fleets[base_id].shard_for(user), "core", self.seed
            )
            adapter.add_user(user, FLEETS[base_id][1])
            parts.append(adapter.get(user_path(user, component)))
        merged = (
            parts[0] if len(parts) == 1
            else merge_all(parts, GUP_KEYSPEC)
        )
        return merged.serialize()

    def check(
        self, expect: Expect, status: int, body: bytes, deep: bool
    ) -> Optional[str]:
        """``None`` for a correct response, else the failure kind.
        *deep* asks for the byte-exact oracle comparison."""
        if status != expect.status:
            return "status"
        if expect.op == "denied":
            return None
        if expect.op == "write":
            assert expect.marker is not None
            self.written[expect.user] = expect.marker
            return None
        try:
            payload = json.loads(body)
            fragment = payload["fragment"]
            degraded = payload["degraded_parts"]
        except (ValueError, KeyError, TypeError):
            return "body"
        if not isinstance(fragment, str) or degraded:
            return "degraded"
        if expect.relationship == "buddy" and (
            "<presence>" not in fragment
            or any(tag in fragment for tag in _BUDDY_FORBIDDEN)
        ):
            self.shield_leaks += 1
            return "shield-leak"
        marker = self.written.get(expect.user)
        if "address-book" in expect.components and marker is not None:
            # A rewritten book is checked by its marker; the synthetic
            # oracle below only knows the pristine one.
            return None if marker in fragment else "read-your-write"
        if deep:
            self.oracle_checks += 1
            if fragment != self.expected_fragment(
                expect.user, expect.components
            ):
                return "oracle"
        return None

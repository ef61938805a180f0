"""Push-based model rollout: the event-feed subscriber thread.

A serving engine holding a :class:`~repro.remote.client.
RemoteModelRegistry` starts one :class:`EventSubscriber`; it long-polls
``GET /events?since=seq`` on the store service and invokes the
engine's ``refresh()`` whenever a publish/gc is announced — replacing
the manual ``POST /models/refresh`` poll path (which stays available
as a fallback).

The subscriber applies the serving layer's resilience discipline to
its own thread: it never lets an exception escape (a broken feed
degrades to the refresh-poll fallback, it never takes serving down),
reconnects with capped exponential backoff when the service is away,
resyncs via ``since=seq`` after the gap (the server replays every
missed publish still in its ring, and flags ``gap``/``reset`` when it
cannot), and refreshes defensively on either flag.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional, Sequence

from ..testing import faults

#: Long-poll wait per request; small enough that close() is prompt.
#: Override with REPRO_PUSH_POLL_TIMEOUT_S.
DEFAULT_POLL_TIMEOUT_S = 10.0

#: Event kinds that invalidate a subscriber's cached model state.
MODEL_EVENTS = ("publish", "registry-gc")

#: Armed inside the poll loop, so an injected ``raise`` exercises the
#: subscriber's survive-and-backoff path rather than killing serving.
SITE_POLL = faults.register_site("remote.events.poll")


def _default_poll_timeout_s() -> float:
    try:
        return float(os.environ.get("REPRO_PUSH_POLL_TIMEOUT_S", ""))
    except ValueError:
        return DEFAULT_POLL_TIMEOUT_S


class EventSubscriber:
    """Daemon thread long-polling one store service's event feed.

    ``callback()`` (typically ``engine.refresh``) runs on the
    subscriber thread, at most once per poll round, whenever a
    model-affecting event arrives.  Counters are exposed via
    :meth:`stats` and surface in the serving ``/stats`` payload.
    """

    def __init__(self, client, callback: Callable[[], None], *,
                 kinds: Sequence[str] = MODEL_EVENTS,
                 poll_timeout_s: Optional[float] = None,
                 backoff_s: float = 0.2,
                 max_backoff_s: float = 5.0) -> None:
        self._client = client
        self._callback = callback
        self._kinds = frozenset(kinds)
        self._poll_timeout_s = (poll_timeout_s if poll_timeout_s is not None
                                else _default_poll_timeout_s())
        self._backoff_s = backoff_s
        self._max_backoff_s = max_backoff_s
        self._stop = threading.Event()
        self._since = None  # None until the baseline poll lands
        self.events_seen = 0
        self.refreshes = 0
        self.errors = 0
        self.reconnects = 0
        self.resets = 0
        self.callback_errors = 0
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-push-subscriber")
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def close(self) -> None:
        """Stop polling; joins briefly (the thread is a daemon, so an
        in-flight long-poll cannot block interpreter exit)."""
        self._stop.set()
        self._thread.join(timeout=self._poll_timeout_s + 5.0)

    def stats(self) -> Dict:
        return {"alive": self.alive,
                "since": self._since,
                "events_seen": self.events_seen,
                "refreshes": self.refreshes,
                "errors": self.errors,
                "reconnects": self.reconnects,
                "resets": self.resets,
                "callback_errors": self.callback_errors}

    # -- the loop -------------------------------------------------------------

    def _loop(self) -> None:
        backoff = self._backoff_s
        while not self._stop.is_set():
            try:
                faults.fault_point(SITE_POLL)
                if self._since is None:
                    # baseline: learn the current sequence, skip history
                    body = self._client.poll_events(-1, timeout_s=0.0)
                else:
                    body = self._client.poll_events(
                        self._since, timeout_s=self._poll_timeout_s)
            except Exception:  # noqa: BLE001 — must outlive any feed error
                self.errors += 1
                if self._stop.wait(backoff):
                    break
                backoff = min(backoff * 2, self._max_backoff_s)
                self.reconnects += 1
                continue
            backoff = self._backoff_s
            seq = int(body.get("seq", 0))
            if self._since is None:
                self._since = seq
                continue
            refresh = False
            for event in body.get("events") or []:
                self.events_seen += 1
                if event.get("kind") in self._kinds:
                    refresh = True
            if body.get("reset"):
                # service restarted and renumbered: adopt its sequence
                # and refresh defensively (publishes may have landed
                # under sequence numbers we can no longer compare)
                self.resets += 1
                refresh = True
                self._since = seq
            else:
                if body.get("gap"):
                    refresh = True  # ring overflowed past us
                self._since = max(self._since, seq)
            if refresh and not self._stop.is_set():
                try:
                    self._callback()
                    self.refreshes += 1
                except Exception:  # noqa: BLE001 — see module docstring
                    self.callback_errors += 1

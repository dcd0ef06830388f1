"""Open-loop UDP load and the independent answer oracle.

:func:`query_mix` draws a seeded query stream from a zone: exact matches,
apex ANY, CNAME chases, wildcard synthesis under fresh labels, referrals
below delegations and NXDOMAIN under random labels.

:func:`open_loop` sends query ``i`` at its scheduled time ``t0 + i/rate``
from one socket in this process, whatever the server does, and times each
reply from that scheduled time, so a stall also delays the queries queued
behind it. It records how late each send left (the generator's own
lateness) and keeps the raw reply bytes for the oracle.

:class:`AnswerOracle` parses replies with ``dns.wire.parse_response`` and
compares them with ``spec.reference_resolve`` through ``response_diff``;
it shares no code with the server's ``ZoneEncoder`` or
``encode_query_name``.
"""

from __future__ import annotations

import gc
import math
import random
import select
import socket
import string
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CATEGORIES = ("exact", "apex-any", "cname", "wildcard", "referral", "nxdomain")


def _fresh_label(rng: random.Random) -> str:
    return "q" + "".join(rng.choice(string.ascii_lowercase + string.digits)
                         for _ in range(rng.randint(5, 9)))


def query_mix(zone, seed: int, size: int):
    """``size`` seeded queries over ``zone``, a round-robin of categories."""
    from repro.dns.message import Query
    from repro.dns.rtypes import RRType

    rng = random.Random(f"perfbench-mix:{seed}")
    origin = zone.origin
    cuts = zone.delegation_points()
    exact, cnames, wildcards = [], [], []
    for record in zone:
        owner = record.rname
        if owner.is_wildcard:
            wildcards.append((owner.wildcard_parent(), record.rtype))
        elif zone.is_below_cut(owner) or owner in cuts:
            continue
        elif record.rtype == RRType.CNAME:
            cnames.append(owner)
        else:
            exact.append((owner, record.rtype))
    templates = {
        "exact": exact,
        "apex-any": [origin],
        "cname": cnames,
        "wildcard": wildcards,
        "referral": cuts,
        "nxdomain": [origin],
    }
    present = [c for c in CATEGORIES if templates[c]]
    queries = []
    for index in range(size):
        category = present[index % len(present)]
        pick = rng.choice(templates[category])
        if category == "exact":
            query = Query(*pick)
        elif category == "apex-any":
            query = Query(pick, RRType.ANY)
        elif category == "cname":
            query = Query(pick, rng.choice((RRType.A, RRType.AAAA)))
        elif category == "wildcard":
            name, rtype = pick
            for _ in range(rng.randint(1, 2)):
                name = name.prepend(_fresh_label(rng))
            query = Query(name, rtype)
        elif category == "referral":
            query = Query(pick.prepend(_fresh_label(rng)), RRType.A)
        else:
            query = Query(pick.prepend(_fresh_label(rng)),
                          rng.choice((RRType.A, RRType.MX, RRType.TXT)))
        queries.append((category, query))
    return queries


def wire_queries(queries) -> List[bytes]:
    from repro.dns.wire import build_query

    return [build_query(0, query) for _category, query in queries]


class LoadResult:
    """What one open-loop phase sent and got back."""

    def __init__(self, rate: float, count: int):
        self.rate = rate
        self.count = count
        self.sent = 0
        self.scheduled: List[float] = [0.0] * count
        self.sent_at: List[float] = [0.0] * count
        self.latency: List[Optional[float]] = [None] * count
        self.replies: Dict[int, bytes] = {}
        self.lateness: List[float] = []

    @property
    def received(self) -> int:
        return len(self.replies)

    def latencies(self, start: float = 0.0, end: float = 1.0) -> List[float]:
        """Latencies of the queries scheduled in ``[start, end)`` of the
        phase (fractions); a missing reply counts as infinitely late."""
        lo, hi = int(self.count * start), int(self.count * end)
        return [lat if lat is not None else float("inf")
                for lat in self.latency[lo:hi]]


def open_loop(sock: socket.socket, packets: Sequence[bytes], rate: float,
              seconds: float, on_tick: Optional[Callable[[float], None]] = None,
              tick_fds: Sequence = (), drain: float = 0.5) -> LoadResult:
    """Send ``rate * seconds`` queries on a fixed schedule; collect replies.

    Query ``i`` carries transaction id ``i % 65536`` and the payload
    ``packets[i % len(packets)]``. ``on_tick(now)`` runs between sends
    (the publisher hooks in here) and ``tick_fds`` are polled with
    the socket. The loop busy-polls, so it occupies one CPU while it runs.
    """
    count = int(rate * seconds)
    if count > 65536:
        raise ValueError("one phase sends at most 65536 queries (txid space)")
    result = LoadResult(rate, count)
    interval = 1.0 / rate
    pool = len(packets)
    fds = [sock] + list(tick_fds)
    recv = sock.recv
    send = sock.send
    perf = time.perf_counter
    scheduled = result.scheduled
    latency = result.latency
    replies = result.replies
    lateness = result.lateness
    sent_at = result.sent_at
    t0 = perf() + 0.01
    end = t0 + count * interval
    index = 0
    # The generator's own collector pauses would read as server latency.
    collecting = gc.isenabled()
    gc.disable()
    try:
        while True:
            now = perf()
            while index < count:
                due = t0 + index * interval
                if due > now:
                    break
                payload = packets[index % pool]
                send(struct.pack("!H", index & 0xFFFF) + payload[2:])
                sent_at[index] = now
                scheduled[index] = due
                lateness.append(now - due)
                index += 1
                now = perf()
            if on_tick is not None:
                on_tick(now)
            if index >= count and (len(replies) >= count or now > end + drain):
                break
            # Poll, never sleep: an idle virtual CPU that has to be woken
            # by the host adds its wake-up time to every send and receipt.
            ready, _, _ = select.select(fds, [], [], 0)
            if sock in ready:
                while True:
                    try:
                        data = recv(4096)
                    except BlockingIOError:
                        break
                    arrived = perf()
                    if len(data) < 2:
                        continue
                    txid = (data[0] << 8) | data[1]
                    # Replies arrive within a 65536-query window of their send.
                    base = index - 1 - ((index - 1 - txid) & 0xFFFF)
                    if 0 <= base < index and base not in replies:
                        replies[base] = data
                        latency[base] = arrived - scheduled[base]
    finally:
        if collecting:
            gc.enable()
    result.sent = index
    return result


class AnswerOracle:
    """Expected answers from the reference resolver, memoized per reply."""

    def __init__(self, queries):
        self.queries = queries
        self._expected: Dict[Tuple[int, int], object] = {}
        self._checked: Dict[Tuple[int, bytes, Tuple[int, ...]], Optional[str]] = {}

    def expected(self, zones, zone_index: int, query_index: int):
        from repro.spec import reference_resolve

        key = (zone_index, query_index)
        response = self._expected.get(key)
        if response is None:
            response = reference_resolve(zones[zone_index],
                                         self.queries[query_index][1])
            self._expected[key] = response
        return response

    def check(self, zones, allowed: Tuple[int, ...], query_index: int,
              reply: bytes) -> Optional[str]:
        """None when ``reply`` matches the reference answer over one of the
        ``allowed`` zones, else a description of the mismatch."""
        key = (query_index, reply[2:], allowed)
        if key in self._checked:
            return self._checked[key]
        from repro.dns.message import response_diff
        from repro.dns.wire import WireError, parse_response

        try:
            _txid, got = parse_response(reply)
        except (WireError, ValueError) as exc:
            verdict = f"unparseable reply: {exc}"
        else:
            verdict = None
            diffs: List[str] = []
            for zone_index in allowed:
                diffs = response_diff(got, self.expected(zones, zone_index,
                                                         query_index))
                if not diffs:
                    break
            if diffs:
                query = self.queries[query_index][1]
                verdict = f"{query.to_text()}: " + "; ".join(diffs[:3])
        self._checked[key] = verdict
        return verdict


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]

"""Per-layer spans for the benchmark's traced run, installed from outside nocsim.

Nothing under ``src/`` knows about this module. The tracer replaces bound
methods on one engine's instances (switches, NIUs, masters, the trace
recorder and ``Engine.run`` itself) with timing wrappers. ``ChannelStream``
has ``__slots__``, so its ``send`` and ``deliver`` are replaced on the class,
together with the ``serialize`` the NIUs call; ``hooks()`` restores all three
on exit, so untraced passes in the same process run the original code.

Spans nest on one stack. A span's busy time is its whole duration; its self
time is that minus the time of the spans it caused directly (``link.send``,
for example, runs under switches and NIUs alike). Spans are aggregated in
memory per (caller, name) and written out by the caller at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import nocsim.niu
from nocsim.fabric import ChannelStream
from nocsim.transaction import Opcode, Status


def _is_not_none(result) -> bool:
    return result is not None


def _socket_visible(emissions) -> bool:
    """True when ``step_egress`` emitted a response the socket sees."""
    return any(visible for _, _, visible in emissions)


class Tracer:
    """Span stack plus the counters that can only be seen at a call boundary."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, child_ns, useful]
        # (caller span, span) -> [calls, busy_ns, self_ns, useful calls]
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.flits = 0
        self.head_flits = 0
        self.send_cycles = 0  # cycles in which at least one channel sent a flit
        self._last_send_cycle = -1
        self.exclusive_ok = 0
        self.exclusive_failed = 0

    def wrap(self, name: str, fn, useful=None):
        """Return ``fn`` timed as span ``name``.

        A call counts as useful when ``useful(result)`` holds, or when a
        channel sent a flit directly inside it.
        """
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0, False]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
            caller = ""
            if stack:
                parent = stack[-1]
                parent[1] += elapsed
                caller = parent[0]
            rec = spans.get((caller, name))
            if rec is None:
                rec = spans[(caller, name)] = [0, 0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]
            if frame[2] or (useful is not None and useful(result)):
                rec[3] += 1
            return result

        return traced

    @contextmanager
    def hooks(self):
        """Class- and module-level wrappers, active only inside the block."""
        orig_send, orig_deliver = ChannelStream.send, ChannelStream.deliver
        orig_serialize = nocsim.niu.serialize
        timed_send = self.wrap("link.send", orig_send)
        stack = self.stack

        def send(channel, cycle, flit):
            if stack:
                stack[-1][2] = True
            self.flits += 1
            if flit.is_head:
                self.head_flits += 1
            if cycle != self._last_send_cycle:
                self._last_send_cycle = cycle
                self.send_cycles += 1
            return timed_send(channel, cycle, flit)

        ChannelStream.send = send
        ChannelStream.deliver = self.wrap("link.deliver", orig_deliver)
        nocsim.niu.serialize = self.wrap("link.serialize", orig_serialize)
        try:
            yield self
        finally:
            ChannelStream.send = orig_send
            ChannelStream.deliver = orig_deliver
            nocsim.niu.serialize = orig_serialize

    def attach(self, engine) -> None:
        """Wrap the bound methods of one engine's runtime objects."""
        wrap = self.wrap
        self._last_send_cycle = -1  # every engine starts again at cycle 0
        for sw in engine.switches.values():
            sw.step = wrap("fabric.switch_step", sw.step)
        for niu in engine.initiators.values():
            niu.try_accept = wrap("niu.try_accept", niu.try_accept, _is_not_none)
            niu.step_inject = wrap("niu.step_inject", niu.step_inject)
            niu.step_egress = wrap("niu.step_egress", niu.step_egress, _socket_visible)
        for tgt in engine.targets.values():
            tgt.step = wrap("niu.target_step", tgt.step, bool)
        for master in engine.masters.values():
            master.offer = wrap("workload.offer", master.offer, _is_not_none)
            master.deliver = wrap("workload.deliver", self._count_exclusive(master.deliver))
        rec = engine.recorder
        rec.event = wrap("trace.record", rec.event)
        rec.packet_marker = wrap("trace.record", rec.packet_marker)
        engine.run = wrap("engine.loop", engine.run)

    def _count_exclusive(self, deliver):
        def counted(entry, response):
            if entry.request.opcode is Opcode.STORE_EXCLUSIVE:
                if response.status is Status.EXOKAY:
                    self.exclusive_ok += 1
                else:
                    self.exclusive_failed += 1
            return deliver(entry, response)

        return counted

    def totals(self) -> dict[str, list[int]]:
        """Per span name, summed over callers: [calls, busy_ns, self_ns, useful]."""
        out: dict[str, list[int]] = {}
        for (_, name), rec in self.spans.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
        return out

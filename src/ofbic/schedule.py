"""Packet schedules: what every node sends and decodes, slot by slot.

A *schedule builder* walks the timeline symbolically.  A payload bit is
addressed by its position (payload_refs order: packet, source, band), its
plan read by position too, every transmitted level is a set of positions
(an XOR combination), and receptions come from ``ofbic.channel``'s one
shift-and-superpose geometry, the value engine's code applied to position
sets.  A node may learn a bit only from a reception in which every other
contributing bit is in its knowledge set.  A relay reception with two
unknown bits waits, indexed by its unknown positions; learning a bit wakes
only the receptions waiting on it, in insertion order, so the build is
linear in the packet count.  One immutable ``Emit`` per payload bit serves
its hop-1 emission and its relay forwarding.  The builder checks causality
and side-information soundness (raising PipelineError) and emits an
explicit list of decode steps.  One slot loop serves all four schemes;
nofb-mid differs only in its hop-1 emission (MidCode columns) and in its
relays' two-slot decode recipes.

A build is one _Slot record per slot: what the slot sends, its decode steps
in execution order (each runs in the record's slot) and its feedback
levels.  The read rule: a DecodeStep's ``obs`` name slots 1 up to its own
built slot, an echo's ``echo_src`` one up to the slot before its own, and
each a level within its signal's length.  A Schedule, when made, reads its
records once: that one pass checks the rule and makes the counts of every
run and verify of it (Schedule.counts), since which bits a run delivers,
and in which slot, follow from the schedule alone, not from the values.
Every scheme repeats itself after a short warm-up: one period is
two superframes (two or four slots), and the next period is the same with
packet indices raised by a superframe (_Slot.shifted).  So build_schedule
is one build of the run's length that watches for the builder's live state
to recur, builds one period more, checks each of its records, in place, to
be the shifted record of the period before, and only then stops at the
least run that shows that period and is a whole number of superframes
shorter than the run (4 to 8 packets on the CI grid), tiled out to the
run; build time and schedule memory do not grow with the packet count.  A
build whose period never shows, or fails that check, runs on in full, with
tiling (0, 0, 0).  The engine walks the tiling over the records
directly (Schedule._walk), and the lane path reads its head, period and
tail from them; Schedule.slots() is the one reader of a run slot by slot,
each record moved to its own packets, as a full build would have it.

Timeline (packet i): phase 1 at slot 2i-1 and phase 4 at slot 2i+2 are
hop-1 uses; phases 2 and 3 at slots 2i and 2i+1 are hop-2 uses.  Every slot
carries one hop-1 and one hop-2 transmission; consecutive packets overlap.
A nofb-mid block i uses hop 1 at slots 2i-1 and 2i.  After the last hop-1
slot the relays drain their forwarding queues.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .allocation import (
    ALL_SCHEMES,
    SCHEME_FBXW,
    SCHEME_NOFB_MID,
    SCHEME_RSS,
    SCHEME_RSW,
    BitAllocation,
    allocate,
    level_map,
)
from .channel import ChannelDomainError, ChannelParams, _first_hop, _second_hop
from .midcode import MidCodeError, build_mid_code, column_levels
from .rates import InvariantError, pos, r_nom, require_scheme

SIGNALS = (
    "X_S1", "X_S2", "Y_R1", "Y_R2", "X_R1", "X_R2",
    "Y_D1", "Y_D2", "Y_S1", "Y_S2",
)
_TX_NODE = {"X_S1": "S1", "X_S2": "S2", "X_R1": "R1", "X_R2": "R2"}
_TX_SIGNALS = tuple(_TX_NODE)
_RX_SIGNALS = ("Y_R1", "Y_R2", "Y_D1", "Y_D2", "Y_S1", "Y_S2")   # hop 1, then hop 2
_FEEDBACK_SIGNALS = ("X_R1", "X_R2")
# each hop's transmitted and received signals, in the order the channel's
# _first_hop/_second_hop take and return them; hop-1 vectors have length q,
# hop-2 vectors length qbar
_HOP1_SIGNALS = ("X_S1", "X_S2", "Y_R1", "Y_R2")
_HOP2_SIGNALS = ("X_R1", "X_R2", "Y_D1", "Y_D2", "Y_S1", "Y_S2")
_NODES = ("S1", "S2", "R1", "R2", "D1", "D2")
_VERDICT_NODES = ("R1", "R2", "D1", "D2")     # the decoders node_verdicts judge
_OWN_SOURCE = {"R1": 1, "R2": 2}              # relay -> the source it forwards

WARMUP_PACKETS = 2
_EMPTY = frozenset()                  # the one empty level and side set


def _signal_lengths(p: ChannelParams) -> dict:
    return {s: p.q if s in _HOP1_SIGNALS else p.qbar for s in SIGNALS}


class PipelineError(AssertionError):
    """Internal scheduling invariant violated (a bug, not bad input)."""


# Every raised internal invariant of the rates, the mid-regime code and the
# pipeline: a bug, never bad input.
INVARIANT_ERRORS = (InvariantError, MidCodeError, PipelineError)


class Emit(NamedTuple):
    """One transmitted level: an XOR of payload bits plus how to produce it.

    Without ``echo_src`` the transmitter XORs the ``refs`` bits it already
    holds.  With it, the transmitter replays the level value it received at
    ``echo_src`` = (signal, slot, position), after cancelling the ``cancel``
    bits it knows (received combination forwarding); ``refs`` is then what
    the replayed level carries.

    Emit and DecodeStep are immutable tuples, not frozen dataclasses, because
    a build makes one per decode and per coded level, and a tuple is built
    in about a third of the time.  The value engine unpacks both by
    position, so their field order is load-bearing.
    """

    refs: frozenset             # payload_refs positions of the bits it carries
    echo_src: tuple = None
    cancel: frozenset = _EMPTY  # positions XORed off the echo


class DecodeStep(NamedTuple):
    """One decode, run in the slot of the _Slot record that holds it."""

    node: str
    obs: tuple                  # ((signal, slot, pos), ...)
    side: frozenset             # positions XOR-cancelled out of the observation
    target: int                 # payload_refs position of the decoded bit
    deliver: bool = False


class _Slot(NamedTuple):
    """One built slot: what it sends, decodes and feeds back."""

    tx: tuple                   # per _TX_SIGNALS: tuple of Emit-or-None
    steps: tuple                # (DecodeStep, ...) in execution order
    feedback: tuple             # per _FEEDBACK_SIGNALS: ((level, coop j), ...), or ()

    def shifted(self, d, per_packet):
        """This slot moved by ``d`` packets (see the packet shifts below) in
        a run of ``per_packet`` payload refs per packet."""
        if not d:
            return self
        off = d * per_packet
        tx = tuple(tuple(e and Emit(_shift_refs(e.refs, off),
                                    e.echo_src and _shift_obs(e.echo_src, d),
                                    _shift_refs(e.cancel, off)) for e in emits)
                   for emits in self.tx)
        steps = tuple(DecodeStep(s.node, tuple(_shift_obs(o, d) for o in s.obs),
                                 _shift_refs(s.side, off), s.target + off,
                                 s.deliver) for s in self.steps)
        return _Slot(tx, steps, self.feedback)


@dataclass(eq=False)
class Schedule:
    """A run's slot-by-slot plan: what each node sends and decodes.

    It is one _Builder run, ``built`` (one _Slot per built slot, slot t at
    index t - 1), laid out over ``n_slots`` slots by
    ``tiling = (start, period, shift)``: slots up to ``start + period`` are
    the build's own, the next ``2 * shift`` slots repeat its slots
    ``start + 1 .. start + period`` with packet indices advanced by
    ``period // 2`` per repetition, and the remaining slots are the build's
    last ones with packets advanced by ``shift`` and slots by ``2 * shift``.
    A full build has tiling ``(0, 0, 0)``.  ``slots()`` yields every slot
    of the run as the record a full build at ``packets`` would have; the
    engine takes the same walk (``_walk``) over the built records without
    moving them.
    """

    scheme: str
    p: ChannelParams
    packets: int
    alloc: BitAllocation
    n_slots: int
    formula_rate: int
    built: tuple = field(repr=False)
    tiling: tuple = (0, 0, 0)
    counts: tuple = field(init=False, repr=False)

    def __post_init__(self):
        """Read the built records once, in built order (_parts): refuse the
        first that breaks the read rule, and make ``counts`` = (delivered,
        steady, written): a run's delivering steps, those in slots
        2 * WARMUP_PACKETS + 2 .. 2 * packets + 1 (clear of the warm-up and
        the drain), and each _VERDICT_NODES decoder with the one range of
        packets it writes (else PipelineError); a record counts all its copies."""
        lengths = _signal_lengths(self.p)
        period, first, last = self.tiling[1], 2 * WARMUP_PACKETS + 2, 2 * self.packets + 1
        every, half = period or 1, period // 2 or 1    # one copy takes any step
        per_packet, deliver = 2 * self.formula_rate, operator.itemgetter(4)  # .deliver
        delivered = steady = 0
        written = dict.fromkeys(_NODES, 0)             # node -> bit k set: writes packet k
        for lo, hi, copies, d in self._parts:
            for k, slot in enumerate(self.built[lo:hi], start=lo + 1):
                for step in slot.steps:
                    for read in step.obs:
                        if not (0 < read[1] <= k and 0 <= read[2] < lengths.get(read[0], 0)):
                            raise self._bad_read(k, step, read, k, lengths)
                for emit in filter(None, itertools.chain.from_iterable(slot.tx)):
                    read = emit.echo_src
                    if read and not (0 < read[1] < k and 0 <= read[2] < lengths.get(read[0], 0)):
                        raise self._bad_read(k, emit, read, k - 1, lengths)
                count, t = sum(map(deliver, slot.steps)), k + 2 * d
                # its copies t + i * every, 0 <= i < copies, in the steady window
                window = range(max(0, -((t - first) // every)),
                               min(copies, (last - t) // every + 1))
                delivered, steady = delivered + count * copies, steady + count * len(window)
            bits = ((1 << copies * half) - 1) // ((1 << half) - 1)   # bits 0, half, ...
            for node, j in {(node, target // per_packet) for slot in self.built[lo:hi]
                            for node, _, _, target, _ in slot.steps}:
                written[node] |= bits << (j + d + 1)
        ranges = tuple((node, range(max(0, (mask & -mask).bit_length() - 1), mask.bit_length()))
                       for node, mask in ((node, written[node]) for node in _VERDICT_NODES))
        for node, packets in ranges:
            if written[node] != (1 << packets.stop) - (1 << packets.start):
                raise PipelineError(f"{node}'s packets are not one run at {self.p.short()}")
        self.counts = delivered, Fraction(steady, last - first + 1), ranges  # 4+ packets

    def _bad_read(self, k, record, read, last, lengths):
        """The error of ``record``, in built slot ``k``, whose ``read`` names
        a slot before the run or after ``last``, or a level its signal lacks."""
        signal, seen, position = read
        if seen < 1:
            why = f"slot {seen}, before the run"
        elif seen > last:
            why = f"slot {seen}, {'after' if last == k else 'not before'} its own"
        else:
            why = f"{signal} level {position}, outside its {lengths.get(signal, 0)} levels"
        return PipelineError(f"built slot {k} holds {record!r}, which reads {why}, "
                             f"at {self.scheme} {self.p.short()}")

    @cached_property
    def payload_refs(self):
        """Position -> ref, read only at the edge: a verify that finds wrong
        bits names them by it; no run, replay, format or parse reads it."""
        return _payload_refs(_payload_bands(self.alloc, self.formula_rate), self.packets)

    @cached_property
    def channel_maps(self):
        """The sequential engine's memo of the channel map at ``p``: hop 1
        ``(x_s1, x_s2) -> (y_r1, y_r2)`` and hop 2
        ``(x_r1, x_r2) -> (y_d1, y_d2, y_s1, y_s2)``, keyed by the transmit
        vectors a slot sent (after a fault flip, or as recorded) and filled
        by every sequential pass (_run_engine) on this schedule; a clean
        run, on lanes, uses none."""
        return {}, {}

    @property
    def _parts(self):
        """(lo, hi, copies, d) of the tiling's head, period and tail: built
        slots ``lo + 1 .. hi`` run ``copies`` times, the first ``d`` packets
        on and each next one a period further.  A full build is all tail."""
        start, period, shift = self.tiling
        return ((0, start, 1, 0), (start, start + period, 2 * shift // (period or 1) + 1, 0),
                (start + period, len(self.built), 1, shift))

    def _walk(self):
        """(built slot record, packet shift) of slots 1 .. n_slots, in order:
        each part of the tiling (_parts), copy by copy."""
        half = self.tiling[1] // 2
        for lo, hi, copies, d in self._parts:
            for k in range(copies):
                yield from zip(self.built[lo:hi], itertools.repeat(d + k * half))

    def slots(self):
        """(t, slot record) for t = 1 .. n_slots, in order, each record
        moved to its own packets: the one way to read a run slot by slot."""
        per_packet = 2 * self.formula_rate
        for t, (slot, d) in enumerate(self._walk(), start=1):
            yield t, slot.shifted(d, per_packet)

    @property
    def steps(self):
        """slot -> its decode steps, for the slots that have any.  Kept only
        for the benchmark's decode-step count; it goes when the benchmark
        counts steps from slots()."""
        return MappingProxyType({t: s.steps for t, s in self.slots() if s.steps})


# -- packet shifts of built values ---------------------------------------------
# Shifting by d packets moves every payload_refs position, which run packet
# by packet, by off = d times the refs per packet, and adds 2d to every slot
# an observation or echo names.  _Slot.shifted (behind Schedule.slots) and
# _Builder._state move values this way, and _recurs compares a record with
# another one moved this way.

def _shift_refs(refs, off):
    return frozenset(map(off.__add__, refs)) if off and refs else refs


def _shift_obs(obs, d):
    return (obs[0], obs[1] + 2 * d, obs[2]) if d else obs


def _recurs(a, b, d, off):
    """Whether slot record ``b`` is ``a.shifted(d, per_packet)``, with
    ``off = d * per_packet``: the same feedback, and field by field each
    Emit and DecodeStep of ``a`` moved, compared in place without making
    the moved records (_Builder._proves).  Both records come from one
    build, so their tx have the same shape."""
    if a.feedback != b.feedback or len(a.steps) != len(b.steps):
        return False
    slots = 2 * d
    for e, f in zip(itertools.chain.from_iterable(a.tx), itertools.chain.from_iterable(b.tx)):
        if e is None or f is None:
            if e is not f:
                return False
            continue
        refs, src, cancel = e
        if (f.refs != {i + off for i in refs}
                or f.echo_src != (src and (src[0], src[1] + slots, src[2]))
                or ((cancel or f.cancel) and f.cancel != {i + off for i in cancel})):
            return False
    for (node, obs, side, target, deliver), step in zip(a.steps, b.steps):
        if (step.node != node or step.target != target + off or step.deliver != deliver
                or ((side or step.side) and step.side != {i + off for i in side})
                or step.obs != tuple([(signal, t + slots, at) for signal, t, at in obs])):
            return False
    return True


def _payload_plan(scheme: str, p: ChannelParams, packets: int):
    """(alloc, formula_rate) of a run; alloc is None for nofb-mid.  A run
    carries 2 * formula_rate payload bits per packet.  A packet count that
    is not an int of at least 4 is a ChannelDomainError."""
    if scheme not in ALL_SCHEMES:
        raise ChannelDomainError(f"unknown scheme {scheme!r}")
    if type(packets) is not int:                  # bools excluded, as for seeds
        raise ChannelDomainError(f"packets {packets!r} is not an int")
    if packets < 4:
        raise ChannelDomainError("need at least 4 packets to fill the pipeline")
    if scheme == SCHEME_NOFB_MID:
        require_scheme(scheme, p)
        alloc, rate = None, r_nom(p)
    else:
        alloc = allocate(scheme, p)
        rate = alloc.bits_per_packet
    return alloc, rate


def _payload_bands(alloc: BitAllocation, rate: int) -> list:
    """(kind, index) of the bits a source sends in one packet, in
    transmission-plan order: band by band.  nofb-mid blocks use the single
    kind 'mb'."""
    if alloc is None:
        kinds = (("mb", rate),)
    else:
        kinds = (
            ("n1", alloc.noncoop), ("cp", alloc.coop), ("v1", alloc.private),
            ("n4", alloc.noncoop), ("v4", alloc.private),
        )
    return [(kind, j) for kind, count in kinds for j in range(count)]


def _payload_refs(bands: list, packets: int) -> tuple:
    """Payload references (source, packet, kind, index) of a run of
    ``packets`` packets in transmission-plan order: packet by packet, then
    source, then band (``bands``, from _payload_bands)."""
    # (src, pkt) + (kind, j) in that nesting order, each ref joined in C
    senders = [(src, pkt) for pkt in range(1, packets + 1) for src in (1, 2)]
    return tuple(itertools.starmap(operator.add, itertools.product(senders, bands)))


class _Builder:
    """Schedule construction for all four schemes."""

    def __init__(self, scheme: str, p: ChannelParams, packets: int):
        """A build of ``packets`` packets.  Every set it keeps holds payload
        positions, and it reads its plan by position (_at), from offset
        tables made once here; a ref is made only for an error text (_ref).
        ``unit`` holds one immutable Emit per bit, shared by every level that
        carries that bit alone; it and the sources' knowledge hold only the
        packets sent so far (_send_packet)."""
        self.scheme = scheme
        self.p = p
        self.packets = packets
        self.mid = scheme == SCHEME_NOFB_MID
        self.alloc, self.formula_rate = _payload_plan(scheme, p, packets)
        self.per_packet = 2 * self.formula_rate
        self.bands = _payload_bands(self.alloc, self.formula_rate)
        offset = {band: k for k, band in enumerate(self.bands)}   # (kind, j) -> offset
        if self.mid:
            self.code = build_mid_code(p.m, p.n, self.formula_rate)
            # the bit offsets each source sends in block slot A and slot B
            self.mid_levels = (column_levels(self.code.cols_a, 0, p.q),
                               column_levels(self.code.cols_b, self.code.split, p.q))
            self.fb_plan = {2: (), 3: ()}
        else:
            # (level, bit offset) of phase 1 and phase 4, and (level, coop j)
            # of phase 4's relayed coop band
            kinds = {"noncoop": ("n1", "n4"), "coop": ("cp",), "private": ("v1", "v4")}
            plan1, plan4 = (level_map(self.alloc, p, phase).items() for phase in (1, 4))
            self.plan1, self.plan4 = (tuple((level, offset[kinds[band][k], j])
                                            for level, (band, j) in plan if band in kinds)
                                      for k, plan in enumerate((plan1, plan4)))
            self.coop4 = tuple((level, j) for level, (band, j) in plan4 if band not in kinds)
            self.fb_plan = self._feedback_plan()
        # node -> the offsets within a packet of the bits it forwards once
        # learned: a relay its own source's, but for the fbxw coop bits
        rate, alloc = self.formula_rate, self.alloc
        own = [k for k in range(rate) if not (scheme == SCHEME_FBXW
                                              and 0 <= k - alloc.noncoop < alloc.coop)]
        self.forwards = {**dict.fromkeys(_NODES, _EMPTY), "R1": frozenset(own),
                         "R2": frozenset(k + rate for k in own)}
        self.unit = []
        self.know = {node: set() for node in _NODES}
        self.fifo = {"R1": deque(), "R2": deque()}
        # relay receptions with two unknown bits: insertion number ->
        # (obs, refs), and each unknown position -> the insertion numbers
        # waiting on it, ascending
        self.pending = {"R1": {}, "R2": {}}
        self.waiting = {"R1": {}, "R2": {}}
        self.arrivals = itertools.count()
        self.echo = {"S1": {}, "S2": {}}
        self.residual_store = {}
        self.built = []                # one _Slot per slot
        self.slot_steps = []           # this slot's decode steps so far
        self.delivered = set()
        # build_schedule sets watch: look for the first slot whose state
        # recurs one period (two superframes) later, shifted by a superframe
        self.watch = False
        self.period = 2 * (self.alloc.superframe if self.alloc else 1)
        self.period_start = None
        self.states = {}
        self.tiling = (0, 0, 0)        # the Schedule's, once a period is proved

    def _at(self, src, pkt, k=0):
        """The position of bit offset ``k`` of source ``src``'s packet ``pkt``."""
        return (pkt - 1) * self.per_packet + (src - 1) * self.formula_rate + k

    def _ref(self, i):
        """The ref (source, packet, kind, index) of position ``i``."""
        pkt, k = divmod(i, self.per_packet)
        return (k // self.formula_rate + 1, pkt + 1, *self.bands[k % self.formula_rate])

    def _send_packet(self, pkt):
        """Make packet ``pkt``'s unit Emits and its sources' knowledge of their
        own bits: a watched build that stops at P0' packets makes no others."""
        lo, hi = (pkt - 1) * self.per_packet, pkt * self.per_packet
        self.unit.extend(map(Emit, map(frozenset, zip(range(lo, hi)))))
        self.know["S1"].update(range(lo, lo + self.formula_rate))   # source 1's bits
        self.know["S2"].update(range(lo + self.formula_rate, hi))   # then source 2's

    # -- static plans -------------------------------------------------------

    def _feedback_plan(self):
        p, cp = self.p, self.alloc.coop
        plans = {2: (), 3: ()}
        if cp == 0:
            return plans
        if self.scheme == SCHEME_FBXW:
            first = (cp + 1) // 2
            if first > min(p.mbar, p.f):
                raise PipelineError(f"fbxw feedback overflows at {p.short()}")
            plans[2] = tuple((lvl, lvl) for lvl in range(first))
            plans[3] = tuple((lvl, first + lvl) for lvl in range(cp - first))
            return plans
        loss = pos(p.nbar - p.f)
        bottom = min(cp, 2 * loss)
        top = cp - bottom
        top2, bot2 = (top + 1) // 2, (bottom + 1) // 2
        if top2 > min(p.nbar, p.f) or bot2 > loss:
            raise PipelineError(f"{self.scheme} feedback overflows at {p.short()}")
        j = 0
        for phase, (kt, kb) in ((2, (top2, bot2)), (3, (top - top2, bottom - bot2))):
            levels = list(range(kt)) + [p.nbar - kb + i for i in range(kb)]
            plans[phase] = tuple((lvl, j + off) for off, lvl in enumerate(levels))
            j += len(levels)
        return plans

    # forward candidates are the destination-visible levels; levels already
    # holding feedback are skipped at fill time (in fbxw the coop lane is
    # itself forward payload, in rsw/rss it is lost to rate splitting)

    # -- knowledge propagation ----------------------------------------------

    def _record(self, node, slot, obs, refs, target):
        if len(refs) == 1:                   # the one empty side set
            side = _EMPTY
        elif len(refs) == 2:                 # the other bit's shared one-bit set
            a, b = refs
            side = self.unit[b if a == target else a].refs
        else:
            side = refs - {target}
        know = self.know[node]
        if not side <= know:
            raise PipelineError(f"{node} lacks side info for {self._ref(target)} at slot {slot}")
        if target in know:
            raise PipelineError(f"{node} relearns {self._ref(target)} at slot {slot}")
        know.add(target)
        self.slot_steps.append(DecodeStep(node, obs, side, target))
        if target % self.per_packet in self.forwards[node]:
            self.fifo[node].append((target, slot))

    def _drain_pending(self, node, slot, learned):
        """Resolve the pending receptions that ``learned`` unlocks, and the
        ones those unlock in turn, earliest arrival first.

        A pending entry has two unknown bits when it arrives, so it becomes
        resolvable exactly when one of them is learned: only the entries
        indexed under a learned position are woken, never the whole pending
        set.
        """
        pending, waiting, know = self.pending[node], self.waiting[node], self.know[node]
        ready = waiting.pop(learned, [])     # ascending, so already a heap
        while ready:
            entry = pending.pop(heapq.heappop(ready), None)
            if entry is None:
                continue                     # resolved through its other bit
            obs, refs = entry
            unknown = refs - know
            if unknown:                      # else both bits known: nothing new
                target = next(iter(unknown))
                self._record(node, slot, (obs,), refs, target)
                for arrival in waiting.pop(target, ()):
                    heapq.heappush(ready, arrival)

    def _scan_relay(self, node, signal, slot, sym_vec):
        fresh = []
        know, waiting = self.know[node], self.waiting[node]
        for position, refs in enumerate(sym_vec):
            if refs <= know:                 # nothing new, or an empty level
                continue
            unknown = refs - know
            if len(unknown) == 1:
                target, = unknown
                self._record(node, slot, ((signal, slot, position),), refs, target)
                if target in waiting:
                    self._drain_pending(node, slot, target)
            elif len(unknown) == 2:
                entry = ((signal, slot, position), refs)
                arrival = next(self.arrivals)
                self.pending[node][arrival] = entry
                for i in unknown:
                    waiting.setdefault(i, []).append(arrival)
                fresh.append(entry)
            elif len(unknown) > 2:
                raise PipelineError(f"{node} sees {len(unknown)} unknowns at slot {slot}")
        return fresh

    # -- per-slot planning ---------------------------------------------------

    def _hop1_emits(self, t):
        q, unit = self.p.q, self.unit
        emits = {1: [None] * q, 2: [None] * q}
        if t % 2 == 1 and (t + 1) // 2 <= self.packets:
            for src in (1, 2):
                lo, sent = self._at(src, (t + 1) // 2), emits[src]
                for level, k in self.plan1:
                    sent[level] = unit[lo + k]
        if t % 2 == 0 and 1 <= t // 2 - 1 <= self.packets:
            pkt = t // 2 - 1
            for src in (1, 2):
                lo, sent = self._at(src, pkt), emits[src]
                for level, k in self.plan4:
                    sent[level] = unit[lo + k]
                for level, j in self.coop4:
                    sent[level] = self._coop_relay_emit(f"S{src}", 3 - src, pkt, j, t)
        return emits

    def _mid_hop1_emits(self, t):
        """Block (t+1)//2: user 1 sends the slot-A columns in the odd slot and
        the slot-B columns in the even one, user 2 the other way round."""
        q, blk = self.p.q, (t + 1) // 2
        emits = {1: [None] * q, 2: [None] * q}
        if blk > self.packets:
            return emits
        for src in (1, 2):
            lo = self._at(src, blk)
            levels = self.mid_levels[(t % 2 == 1) != (src == 1)]    # slot A, then B
            for level, bits in enumerate(levels):
                if bits:
                    emits[src][level] = Emit(frozenset([lo + k for k in bits]))
        return emits

    def _coop_relay_emit(self, node, other, pkt, j, t):
        if self.scheme in (SCHEME_FBXW, SCHEME_RSW):
            i = self._at(other, pkt, self.alloc.noncoop + j)     # its coop bit j
            if i not in self.know[node]:
                raise PipelineError(f"{node} has not learned {self._ref(i)} by slot {t}")
            return self.unit[i]
        items = self.echo[node].get(pkt, [])
        if len(items) != self.alloc.coop:
            raise PipelineError(f"{node} captured {len(items)} echoes for packet {pkt}")
        obs, refs, cancel = items[j]
        return Emit(refs, obs, cancel)

    def _hop2_emits(self, t):
        qbar, f = self.p.qbar, self.p.f
        emits = {"R1": [None] * qbar, "R2": [None] * qbar}
        phase, pkt = 2 + t % 2, t // 2         # slot 1: packet 0, no phase, no bit queued
        if not 1 <= pkt <= self.packets:
            phase, pkt = None, None
        if phase is not None:
            for relay, own in _OWN_SOURCE.items():
                for level, j in self.fb_plan[phase]:
                    emits[relay][level] = self._feedback_emit(relay, own, pkt, j)
        for relay in ("R1", "R2"):
            fifo, sent = self.fifo[relay], emits[relay]
            for level in range(f):
                if not fifo or fifo[0][1] >= t:
                    break
                if sent[level] is None:
                    sent[level] = self.unit[fifo.popleft()[0]]
        return emits, phase, pkt

    def _feedback_emit(self, relay, own, pkt, j):
        if self.scheme == SCHEME_RSW:
            residuals = self.residual_store.get((relay, pkt), ())
            obs, refs = residuals[j]
            return Emit(refs, obs)
        # fbxw feeds back its own source's coop bit j, rss the cross one's
        src, which = (own, "own") if self.scheme == SCHEME_FBXW else (3 - own, "cross")
        i = self._at(src, pkt, self.alloc.noncoop + j)
        if i not in self.know[relay]:
            raise PipelineError(f"{relay} misses {which} coop bit {self._ref(i)}")
        return self.unit[i]

    # -- per-slot reception processing ----------------------------------------

    def _process_sources(self, t, y_s, phase, pkt):
        p = self.p
        for node, signal, sym_vec in (("S1", "Y_S1", y_s[0]), ("S2", "Y_S2", y_s[1])):
            if self.scheme == SCHEME_RSS and phase in (2, 3):
                for level, j in self.fb_plan[phase]:
                    position = p.qbar - p.nbar + level
                    refs = sym_vec[position]
                    known = frozenset(refs & self.know[node])
                    remaining = frozenset(refs - self.know[node])
                    if not remaining:
                        raise PipelineError(f"{node} echo at slot {t} carries nothing new")
                    self.echo[node].setdefault(pkt, []).append(
                        ((signal, t, position), remaining, known)
                    )
            know = self.know[node]
            for position, refs in enumerate(sym_vec):
                if refs <= know:             # nothing new, or an empty level
                    continue
                unknown = refs - know
                if len(unknown) == 1:
                    target, = unknown
                    self._record(node, t, ((signal, t, position),), refs, target)
                elif self.scheme != SCHEME_RSS:
                    raise PipelineError(f"{node} cannot track slot {t} pos {position}")

    def _process_relays(self, t, y_r):
        # literal names: one shared string object per signal across all steps
        fresh = [self._scan_relay("R1", "Y_R1", t, y_r[0]),
                 self._scan_relay("R2", "Y_R2", t, y_r[1])]
        if self.scheme == SCHEME_RSW and t % 2 == 1 and (t + 1) // 2 <= self.packets:
            cur = (t + 1) // 2
            for relay, residuals in zip(("R1", "R2"), fresh):
                if len(residuals) != self.alloc.coop:
                    raise PipelineError(
                        f"{relay} holds {len(residuals)} residuals for packet {cur}"
                    )
                self.residual_store[(relay, cur)] = tuple(residuals)

    def _mid_decode_relays(self, t):
        """At the end of a block each relay solves for its own user's bits;
        the two-slot recipes cancel the interferer, so no side information."""
        if t % 2 or t // 2 > self.packets:
            return
        done = t // 2
        for relay_idx, (relay, signal) in enumerate((("R1", "Y_R1"), ("R2", "Y_R2"))):
            lo = self._at(relay_idx + 1, done)
            for k, recipe in enumerate(self.code.own_recipes[relay_idx]):
                obs = tuple((signal, t - 1 + s_off, position)
                            for s_off, position in recipe)
                self._record(relay, t, obs, self.unit[lo + k].refs, lo + k)

    def _process_dest(self, t, y_d):
        # a destination takes a level that carries one bit of its own source,
        # whose offset within its packet is in [lo, lo + formula_rate)
        per_packet, rate, delivered = self.per_packet, self.formula_rate, self.delivered
        add_step = self.slot_steps.append
        for lo, node, signal, sym_vec in ((0, "D1", "Y_D1", y_d[0]),
                                          (rate, "D2", "Y_D2", y_d[1])):
            for position, refs in enumerate(sym_vec):
                if len(refs) == 1:
                    i, = refs
                    if 0 <= i % per_packet - lo < rate:
                        if i in delivered:
                            raise PipelineError(f"{self._ref(i)} delivered twice")
                        delivered.add(i)
                        add_step(DecodeStep(node, ((signal, t, position),), _EMPTY, i, True))

    # -- period detection ------------------------------------------------------

    def _state(self, t):
        """Everything that decides the build after slot ``t``, moved by
        d = -(t // 2) packets: packets count from ``t // 2``, slots from
        ``2 * (t // 2)`` and payload_refs positions from the first bit of
        packet ``t // 2 + 1``.  The period is even, so the two states
        _watch_period compares are offset by the same ``t % 2``: the period
        found is the one found with slots counted from ``t``.

        That is the relay FIFOs with their enqueue slots, the pending relay
        decodes in arrival order, the rss echo and rsw residual stores of
        packets not yet past their use, and what each source or relay knows (a
        destination only delivers) or is delivered, of the packets from the
        oldest one any of these names up to the newest one sent, each a set
        intersection moved by one map.  No later slot reads anything older,
        and no newer packet is made yet (_send_packet).  The relays' waiting
        index follows from these: after a slot it lists each pending decode,
        in arrival order, under the two positions of its refs its relay does
        not know, and nothing else (a learned position's list is dropped, and
        a decode leaves pending only once both its positions are known).
        """
        base, per_packet = t // 2, self.per_packet
        d, off = -base, -base * per_packet
        fifo = tuple([tuple([(i + off, slot + 2 * d) for i, slot in self.fifo[relay]])
                      for relay in ("R1", "R2")])
        pending = tuple([tuple([(_shift_obs(o, d), _shift_refs(rs, off))
                                for o, rs in self.pending[relay].values()])
                         for relay in ("R1", "R2")])
        echo = {(node, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rest, off),
                                        _shift_refs(known, off))
                                       for o, rest, known in items)
                for node, by_packet in self.echo.items()
                for pkt, items in by_packet.items() if pkt >= base}
        residual = {(relay, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rs, off))
                                            for o, rs in items)
                    for (relay, pkt), items in self.residual_store.items()
                    if pkt >= base}
        # every FIFO entry, as a FIFO is in learning order, not position order
        least = min([i for queue in fifo for i, _ in queue]
                    + [i for entries in pending for _, rs in entries for i in rs]
                    + [i for items in echo.values() for item in items for rs in item[1:]
                       for i in rs]
                    + [i for items in residual.values() for _, rs in items for i in rs],
                    default=None)
        oldest = 0 if least is None else min(0, least // per_packet + 1)
        window = range((base + oldest - 1) * per_packet, (t + 1) // 2 * per_packet)
        know = tuple([frozenset(map(off.__add__, self.know[node].intersection(window)))
                      for node in ("S1", "S2", "R1", "R2")])
        delivered = frozenset(map(off.__add__, self.delivered.intersection(window)))
        return oldest, fifo, pending, echo, residual, know, delivered

    def _watch_period(self, t):
        """Snapshot the state after slot ``t``, keeping one period of them,
        and take ``t - period`` as the period start if it matches; only
        slots whose next two periods run as in an endless build count (phase
        1 of the last packet is at slot 2P - 1).  A period later, if it is
        proved, cut the run to the least one that finds it and is a whole
        number of superframes shorter (any length at a superframe of one
        packet, the same parity at two), tiled out to this one's length."""
        period, start = self.period, self.period_start
        if start is None:
            if t + period > 2 * self.packets - 1:
                self.watch = False
                return
            state = self._state(t)
            if self.states.pop(t - period, None) == state:
                self.period_start, self.states = t - period, {}
            else:
                self.states[t] = state
        elif t == start + 2 * period:
            self.watch = False
            # the least run whose watch reaches the match at t - period: the
            # slots so far are its slots, and it finds this period
            least = max(4, (t + 2) // 2)
            least += (self.packets - least) % (period // 2)
            if least < self.packets and self._proves(start):
                self.tiling = (start, period, self.packets - least)
                self.packets = least

    def _proves(self, start):
        """Whether built slots ``start + 1 .. start + period``, moved by one
        period (``period // 2`` packets), are the build's own next period,
        each record compared with its next-period record in place (_recurs),
        and deliver their ``2 * formula_rate`` bits per packet."""
        period, d = self.period, self.period // 2
        one = self.built[start:start + period]
        two = self.built[start + period:start + 2 * period]
        return (len(two) == period
                and all(_recurs(a, b, d, d * self.per_packet) for a, b in zip(one, two))
                and sum(step.deliver for slot in one for step in slot.steps)
                == period * self.formula_rate)

    # -- main loop -------------------------------------------------------------

    def build(self) -> Schedule:
        p, P = self.p, self.packets
        lag = 0 if self.mid else 1  # hop 1 of packet i ends at 2i+2, of block i at 2i
        t, budget, n_slots = 1, 2 * P + 4, 2 * (P + lag)
        while t <= n_slots:
            if t % 2 and (t + 1) // 2 <= self.packets:    # packet or block (t + 1) // 2
                self._send_packet((t + 1) // 2)
            hop1 = self._mid_hop1_emits(t) if self.mid else self._hop1_emits(t)
            hop2, phase, pkt = self._hop2_emits(t)
            sent = (hop1[1], hop1[2], hop2["R1"], hop2["R2"])
            s1, s2, r1, r2 = [tuple([e.refs if e else _EMPTY for e in emits])
                              for emits in sent]
            y_r = _first_hop(s1, s2, p, _EMPTY)
            y_d1, y_d2, y_s1, y_s2 = _second_hop(r1, r2, p, _EMPTY)

            if self.mid:
                # sources do not listen: nothing they overhear is used
                self._mid_decode_relays(t)
            else:
                # sources first: echo capture must use start-of-slot knowledge
                self._process_sources(t, (y_s1, y_s2), phase, pkt)
                self._process_relays(t, y_r)
            self._process_dest(t, (y_d1, y_d2))
            plan = self.fb_plan[phase] if phase else ()
            self.built.append(_Slot(tuple(map(tuple, sent)), tuple(self.slot_steps),
                                    (plan, plan) if plan else ()))
            self.slot_steps = []

            if t % 2 == 0 and 1 <= t // 2 - lag <= P:
                done = t // 2 - lag
                for relay, src in _OWN_SOURCE.items():
                    lo = self._at(src, done)
                    own = range(lo, lo + self.formula_rate)
                    if not self.know[relay].issuperset(own):
                        missing = [self._ref(i) for i in own if i not in self.know[relay]]
                        raise PipelineError(f"{relay} missing {missing} after hop 1")
            if self.watch:
                self._watch_period(t)
                # a proven period cuts the run short, before any drain slot
                P = self.packets
                budget, n_slots = 2 * P + 4, 2 * (P + lag)

            if t == n_slots and any(self.fifo.values()):
                n_slots += 1
                if n_slots > budget:
                    raise PipelineError(f"drain exceeds slot budget {budget}")
            t += 1

        if any(self.fifo.values()) or any(self.pending.values()):
            raise PipelineError("undelivered bits at end of run")
        if len(self.delivered) != self.packets * self.per_packet:
            raise PipelineError("not every payload bit was delivered")
        shift = self.tiling[2]
        return Schedule(scheme=self.scheme, p=p, packets=P + shift, alloc=self.alloc,
                        n_slots=n_slots + 2 * shift, formula_rate=self.formula_rate,
                        built=tuple(self.built), tiling=self.tiling)


def build_schedule(scheme: str, p: ChannelParams, packets: int) -> Schedule:
    """The schedule of a ``packets``-packet run: one watched build.

    The build runs at ``packets`` until its state after slot b + L (L
    slots = one period = two superframes) is its state after slot b shifted
    by one superframe, then one period more, which must prove the period
    (_Builder._proves: each record, moved by a superframe, is the next
    period's record, and the period delivers every bit it carries).  Only
    then is it cut to P0 packets, the least run of at least 4 that is a
    whole number of superframes shorter and whose watch reaches the period
    (_Builder._watch_period), and tiled out to ``packets``: the input up to
    the last packet's first hop-1 slot does not depend on the run length,
    so the slots built so far are the P0 build's.  A build whose state
    never recurs, whose proof fails or whose P0 would be ``packets`` runs on
    as the full build, with tiling (0, 0, 0).  Why the tiling is the full
    build at ``packets``:

    The builder is deterministic, and its input at slot t, the hop-1
    emissions and the phase of the slot, is its input at slot t + 2k with
    every packet index raised by k, as long as neither slot reaches past the
    last packet's first hop-1 slot.  Suppose the state after slot b + L is
    the state after slot b shifted by one superframe (see _Builder._state
    for what the state holds).  Then each following period emits the slots
    b+1..b+L again, shifted by one more superframe, and ends in a state
    shifted once more, for as long as the input stays shift-invariant: up
    to packet P.  A run at P therefore reaches, after slot b + L + 2(P - P0),
    the P0 run's state after slot b + L shifted by P - P0 packets; from
    there its input is the P0 run's shifted too, last packet and drain
    included, so its remaining slots are the P0 run's remaining slots
    shifted.  The state comparison only counts where the next two periods
    of the P0 run are still far from its end, and the proof is a second
    guard on the comparison.
    """
    builder = _Builder(scheme, p, packets)
    builder.watch = True
    return builder.build()

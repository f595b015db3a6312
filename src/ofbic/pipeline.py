"""Packet-pipelined scheme execution over the bit-exact channel.

The run is split into two layers:

* A *schedule builder* walks the timeline symbolically.  A payload bit is
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
* Every clean run is evaluated *lane-parallel* (_run_lanes).  The channel
  is linear, and in a clean run every store a node reads holds its payload
  bit, so every level is the XOR of the payload bits of its position set,
  and the repeats of a tiled period are one GF(2)-linear map applied to
  payload bits one period apart.  Each level of the repeated block is one
  Python int holding one bit, a lane, per repeat; the same geometry runs on
  those ints, and every decode step is checked on all lanes at once; a
  check that fails is a PipelineError.  The head and tail of a tiled run,
  and the whole of a full build, are groups of one lane.
* A sequential *engine* (_run_engine) does what lanes cannot: a faulted
  run and the replay of a recording that differs from the clean run; it
  is also the oracle the tests hold the lanes to.  It pushes vectors of 0/1
  bytes through the same geometry slot by slot and executes the decode
  steps against the actually received vectors.  Every node's store is one
  list over the positions, and a wrong delivery names its bit by position
  too.  Reference tuples ``(source, packet, kind, index)`` name bits only
  at the edge: in error texts, and in ``generate_payload`` and
  ``SimulationTrace.payload``, drawn when read.  A run applies its faults
  only in the slots that have one.

A trace holds one column per signal (SimulationTrace.slots): its levels
slot by slot, one 0/1 byte each, as the payload bits and the lanes are laid
out, so level j of slot t is byte (t - 1) * length + j (length q on hop 1,
qbar on hop 2).  Its text is the header lines _header makes from the run,
which format_trace writes and parse_trace requires line for line, then one
row per slot.  Rows whose indices have as many digits are as long, so each
such group is a fixed-stride block, which format_trace writes and
parse_trace checks and reads with one extended slice per level and index
digit.  A run builds its schedule, draws its payload and evaluates its
clean run once: a trace from run_scheme carries all three to the one
verify_trace that follows, which compares the clean run's ten columns with
the recording; with none carried, the clean run is made on lanes.  A
recording that differs is replayed by the sequential engine, which reports
the first point where it deviates from what the protocol would have
produced.

A build is one _Slot record per slot: what the slot sends, its decode steps
in execution order (each runs in the record's slot) and its feedback
levels.  The read rule: a DecodeStep's ``obs`` name slots 1 up to its own
built slot, an echo's ``echo_src`` one up to the slot before its own, and
each a level within its signal's length; Schedule checks it when made.
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
each record moved to its own packets, as a full build would have it.  Which
bits a run delivers, and in which slot, follow from the schedule alone (the
values decide only whether each delivery is right), so every run and
verify takes its counts from Schedule.counts.

A Schedule also caches the channel map at its ``p`` for the sequential
engine (``channel_maps``): a dict per hop from the two transmitted vectors
of a slot to the vectors they are received as, with a few hundred distinct
pairs in a whole run at a small point, filled by a faulted run_scheme and
read by the replay of its trace.  They cannot change a result: a
miss calls the same geometry, the key is the vectors the slot actually sent
(after a fault flip, or as recorded), and a fault or recorded deviation in
a received vector is applied after the lookup.

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
import random
from collections import deque
from collections.abc import Mapping
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
from .channel import (
    ChannelDomainError,
    ChannelParams,
    GfVec,
    _LEVEL_TEXT,
    _TEXT_LEVEL,
    _first_hop,
    _second_hop,
)
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

DEFAULT_SEED = 1009
WARMUP_PACKETS = 2
_EMPTY = frozenset()                  # the one empty level and side set


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

    def __post_init__(self):
        """Refuse the first built record that breaks the read rule."""
        lengths = _signal_lengths(self.p)
        for k, slot in enumerate(self.built, start=1):
            for step in slot.steps:
                for read in step.obs:
                    if not (0 < read[1] <= k and 0 <= read[2] < lengths.get(read[0], 0)):
                        raise self._bad_read(k, step, read, k, lengths)
            for emit in filter(None, itertools.chain.from_iterable(slot.tx)):
                read = emit.echo_src
                if read and not (0 < read[1] < k and 0 <= read[2] < lengths.get(read[0], 0)):
                    raise self._bad_read(k, emit, read, k - 1, lengths)

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

    @cached_property
    def counts(self):
        """(delivered, steady, written) of every run of this schedule: its
        delivering steps, those in the steady window (slots
        ``2 * WARMUP_PACKETS + 2 .. 2 * packets + 1``, clear of the warm-up
        and the drain), and each _VERDICT_NODES decoder with the range of
        packets its steps write (PipelineError if they are not one range).
        Each built slot is read once: its copies (_parts) are arithmetic
        progressions of slots and packets.  run_scheme and the verify_trace
        it hands the schedule to read them."""
        period, first, last = self.tiling[1], 2 * WARMUP_PACKETS + 2, 2 * self.packets + 1
        every, half = period or 1, period // 2 or 1    # one copy takes any step
        per_packet, deliver = 2 * self.formula_rate, operator.itemgetter(4)  # .deliver
        delivered = steady = 0
        written = dict.fromkeys(_NODES, 0)             # node -> bit k set: writes packet k
        for lo, hi, copies, d in self._parts:
            for t, slot in enumerate(self.built[lo:hi], start=lo + 1 + 2 * d):
                count = sum(map(deliver, slot.steps))
                # its copies t + k * every, 0 <= k < copies, in the steady window
                window = range(max(0, -((t - first) // every)),
                               min(copies, (last - t) // every + 1))
                delivered, steady = delivered + count * copies, steady + count * len(window)
            bits = ((1 << copies * half) - 1) // ((1 << half) - 1)   # bits 0, half, ...
            for node, k in {(node, target // per_packet) for slot in self.built[lo:hi]
                            for node, _, _, target, _ in slot.steps}:
                written[node] |= bits << (k + d + 1)
        ranges = []
        for node in _VERDICT_NODES:
            mask = written[node]
            packets = range(max(0, (mask & -mask).bit_length() - 1), mask.bit_length())
            if mask != (1 << packets.stop) - (1 << packets.start):
                raise PipelineError(f"{node}'s packets are not one run at {self.p.short()}")
            ranges.append((node, packets))
        return delivered, Fraction(steady, last - first + 1), tuple(ranges)  # 4+ packets

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


# ---------------------------------------------------------------------------
# Value engine, trace, verification.

@dataclass
class SimulationTrace:
    """A run's columns (module docstring) and counts; ``payload`` (ref ->
    bit) is drawn when read from the run's plan and seed: a trace names no bit.

    run_scheme sets ``delivered_bits`` and ``steady_state_rate`` from its
    schedule's counts (Schedule.counts) and ``decode_errors`` to the number
    of deliveries its engine got wrong; a parsed trace keeps 0 in all three,
    and its verify_trace report holds what the replay finds."""

    scheme: str
    p: ChannelParams
    packets: int
    seed: int
    n_slots: int
    slots: dict                       # signal -> column, in SIGNALS order
    formula_rate: int
    alloc: BitAllocation = None
    decode_errors: int = 0
    delivered_bits: int = 0
    steady_state_rate: Fraction = Fraction(0)
    # run_scheme's (Schedule, seed, payload bits, clean columns): the columns
    # are a dict of their own, and None unless the lanes made them; held
    # for the one verify_trace that follows and dropped by it; never set by
    # parse_trace
    _run: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def payload(self) -> dict:
        return generate_payload(self, self.seed)

    @property
    def measured_sum_rate(self) -> Fraction:
        if self.n_slots == 0:
            return Fraction(0)
        return Fraction(self.delivered_bits, self.n_slots)


_TOP_BIT = bytes(b >> 7 for b in range(256))   # a byte -> its top bit


def _payload_bits(n: int, seed: int) -> bytes:
    """The payload bits, one 0/1 byte per payload_refs position.

    Bit i is the i-th ``getrandbits(1)`` of ``random.Random(seed)``, the top
    bit of the generator's i-th 32-bit output, but all n are drawn in one
    call: ``getrandbits(32 * n)`` packs those outputs little-endian, so the
    top bits are the top bits of every fourth byte from byte 3.
    """
    words = random.Random(seed).getrandbits(32 * n).to_bytes(4 * n, "little")
    return words[3::4].translate(_TOP_BIT)


def generate_payload(schedule: Schedule, seed: int) -> dict:
    """ref -> payload bit of the run ``schedule`` plans; its SimulationTrace,
    which carries the same plan, serves as well."""
    refs = _payload_refs(_payload_bands(schedule.alloc, schedule.formula_rate),
                         schedule.packets)
    return dict(zip(refs, _payload_bits(len(refs), seed)))


def _echo_value(emit, vectors, dt):
    """The received level an echo Emit replays, before its cancel bits come
    off: its ``echo_src`` read ``dt`` slots on (see _run_engine)."""
    signal, slot, position = emit.echo_src
    return vectors[signal][slot + dt - 1][position]


def _diff(found, t, signals, actual, computed):
    """Append (t, signal, first differing level) for each recorded vector of
    slot ``t`` that differs from the computed one, in ``signals`` order."""
    for signal, a, c in zip(signals, actual, computed):
        if a != c:
            found.append((t, signal, next(i for i, (x, y) in enumerate(zip(a, c))
                                          if x != y)))


def _flip(t, signals, vectors, faults):
    """``vectors`` of slot ``t`` with the level ``faults`` names flipped."""
    flipped = []
    for signal, vec in zip(signals, vectors):
        level = faults.get((t, signal))
        if level is not None:
            vec = bytes((*vec[:level], vec[level] ^ 1, *vec[level + 1:]))
        flipped.append(vec)
    return flipped


def _check_faults(schedule: Schedule, faults) -> None:
    """Raise ChannelDomainError unless ``faults`` is None or a mapping of
    ``(slot, signal)`` pairs of the run to levels of that signal, the slot
    and level ints (bools excluded)."""
    if faults is None:
        return
    if not isinstance(faults, Mapping):
        raise ChannelDomainError(f"faults {faults!r} is outside the run: "
                                 "expected a mapping (slot, signal) -> level")
    lengths = _signal_lengths(schedule.p)
    for key, level in faults.items():
        t, signal = key if type(key) is tuple and len(key) == 2 else (None, None)
        if not (type(t) is int and type(level) is int
                and 1 <= t <= schedule.n_slots and 0 <= level < lengths.get(signal, 0)):
            raise ChannelDomainError(f"fault {key!r}: {level!r} is outside the run")


def _source_stores(schedule: Schedule, bits) -> dict:
    """node -> its store over the payload_refs positions, as a run starts:
    each source holds its own bits, and nothing else is known (None)."""
    rate = schedule.formula_rate
    per_packet = 2 * rate
    stores = {node: [None] * len(bits) for node in _NODES}
    for lo in range(0, len(bits), per_packet or 1):
        mid, hi = lo + rate, lo + per_packet          # source 1's bits, then 2's
        stores["S1"][lo:mid] = bits[lo:mid]
        stores["S2"][mid:hi] = bits[mid:hi]
    return stores


def _run_engine(schedule: Schedule, bits, faults=None, recorded=None):
    """Execute (recorded=None) or replay-and-diff (recorded given), slot by
    slot: the sequential engine.

    It makes every faulted run and every replay of a recording that
    differs from its clean run (verify_trace), and the tests hold the lane
    path (_run_lanes) to it as their oracle.  Returns (columns, errors,
    faults_found, stores, wrong): ``columns`` as in SimulationTrace.slots,
    ``wrong`` the (node, position) of each store a step wrote with a value
    other than the payload bit, and ``errors`` the (slot, dest, position) of
    each delivery among them, in slot order; which steps deliver is the
    schedule's (Schedule.counts).  In replay mode the recorded vectors drive
    all node behaviour, so a corrupted level shows up exactly where the
    recording first deviates from the protocol.  ``faults`` is checked by
    run_scheme, ``recorded`` by verify_trace.

    The records name payload bits by position, read by unpacking (see
    Emit): a known Emit XORs its ``refs``, an echo XORs its ``cancel`` off
    the level it replays, and a DecodeStep XORs its ``side`` into the
    observation and stores the result at ``target``.  A node's store is one
    list over the positions, None where it lacks the bit.  A slot that
    repeats its built slot d packets on (Schedule._walk) reads the built
    records as they are, each slot they name moved by dt = 2d and each
    position by off = d * (refs per packet).  ``bits`` holds the payload by
    position (_payload_bits).

    The received vectors are looked up in the schedule's ``channel_maps``
    by the slot's transmit vectors.  A run flips its faults only in the
    slots that have one: a transmit flip before the lookup, a receive flip
    after it.  Each signal's vectors are kept slot by slot and joined into
    its column at the end of a run.  A replay cuts ``recorded`` so, never
    writing it, compares a slot's four transmit vectors in one comparison
    and its six received ones in another, looks for the differing signals
    and levels only on a mismatch, and returns ``recorded`` as its columns.
    """
    p = schedule.p
    faults = faults or {}
    fault_slots = {t for t, _ in faults} if recorded is None else ()
    hop1, hop2 = schedule.channel_maps
    per_packet = 2 * schedule.formula_rate
    stores = _source_stores(schedule, bits)
    senders = tuple(stores[_TX_NODE[signal]] for signal in _TX_SIGNALS)
    # signal -> its vectors slot by slot: none yet, or the recorded ones
    vectors = {signal: [] for signal in SIGNALS} if recorded is None else {
        signal: [recorded[signal][t * size:(t + 1) * size] for t in range(schedule.n_slots)]
        for signal, size in _signal_lengths(p).items()}
    sent_by, heard_by = [vectors[s] for s in _TX_SIGNALS], [vectors[s] for s in _RX_SIGNALS]
    errors, found, wrong = [], [], []

    for t, (slot, d) in enumerate(schedule._walk(), start=1):
        dt, off = 2 * d, d * per_packet
        tx = []
        for store, emits in zip(senders, slot.tx):
            levels = []
            for emit in emits:
                if emit is None:
                    levels.append(0)
                    continue
                known, echo_src, cancel = emit
                if echo_src:
                    value, known = _echo_value(emit, vectors, dt), cancel
                else:
                    value = 0
                for i in known:
                    value ^= store[i + off]
                levels.append(value)
            tx.append(bytes(levels))
        if recorded is None:
            if t in fault_slots:
                tx = _flip(t, _TX_SIGNALS, tx, faults)
        else:
            sent = [vecs[t - 1] for vecs in sent_by]
            if sent != tx:
                _diff(found, t, _TX_SIGNALS, sent, tx)
            tx = sent
        x_s1, x_s2, x_r1, x_r2 = tx
        y_r = hop1.get((x_s1, x_s2))
        if y_r is None:
            y_r = hop1[x_s1, x_s2] = tuple(map(bytes, _first_hop(x_s1, x_s2, p, 0)))
        y_dr = hop2.get((x_r1, x_r2))
        if y_dr is None:
            y_dr = hop2[x_r1, x_r2] = tuple(map(bytes, _second_hop(x_r1, x_r2, p, 0)))
        received = [*y_r, *y_dr]
        if recorded is None:
            if t in fault_slots:
                received = _flip(t, _RX_SIGNALS, received, faults)
            for vecs, vec in zip(sent_by + heard_by, tx + received):
                vecs.append(vec)
        else:
            heard = [vecs[t - 1] for vecs in heard_by]
            if heard != received:
                _diff(found, t, _RX_SIGNALS, heard, received)
        for node, obs, side, target, deliver in slot.steps:
            value = 0
            for signal, seen, position in obs:
                value ^= vectors[signal][seen + dt - 1][position]
            store = stores[node]
            for i in side:
                value ^= store[i + off]
            target += off
            store[target] = value
            if value != bits[target]:
                wrong.append((node, target))
                if deliver:
                    errors.append((t, node, target))
    if recorded is None:
        recorded = {signal: b"".join(vecs) for signal, vecs in vectors.items()}
    return recorded, errors, found, stores, wrong


# -- a clean run, lane-parallel -------------------------------------------------

class _PayloadLanes(dict):
    """payload_refs position i -> its lane: the int whose bit ``width - 1 - k``
    is the payload bit at ``i + off + k * step``."""

    def __init__(self, bits, off, step, width):
        super().__init__()
        self.bits, self.off, self.step, self.span = bits, off, step, width * step

    def __missing__(self, i):
        lo = i + self.off
        lane = self[i] = int(
            self.bits[lo:lo + self.span:self.step].translate(_LEVEL_TEXT), 2)
        return lane


class _LaneGroup:
    """Built slots ``lo + 1 .. hi`` of a clean run, in ``width`` lanes.

    Lane k is those slots moved ``d + k * period // 2`` packets: built slot s
    is run slot ``s + 2 * d + k * period`` and a position i is payload bit
    ``i + off + k * step``.  A level is an int whose bit ``width - 1 - k``
    is its value in lane k, so ``format`` writes the lanes in run order.
    Every store a clean run reads holds its payload bit, so a known Emit is
    the XOR of its refs' payload lanes, an echo the lane it replays XOR its
    cancel lanes, and the received levels come from the channel geometry on
    lane ints.  A level the group reads before ``lo + 1`` is, in lane k, the
    group's own lane k - j (j lanes back) or, below lane j, a level earlier
    groups wrote into ``at``, signal -> (column, vector length) (_seen).
    """

    def __init__(self, schedule, bits, at, lo, hi, width, d):
        _, self.period, _ = schedule.tiling
        per_packet = 2 * schedule.formula_rate
        self.built, self.p, self.at = schedule.built, schedule.p, at
        self.where = f"{schedule.scheme} {schedule.p.short()}"
        self.lo, self.hi, self.width, self.d = lo, hi, width, d
        off = d * per_packet
        # a one-lane level is its value, so a one-lane group's lanes are bits
        self.lanes = (memoryview(bits)[off:] if width == 1
                      else _PayloadLanes(bits, off, self.period // 2 * per_packet, width))
        # (built slot, hop) -> signal -> lane levels; None while evaluated.
        # An echo may read a later slot of an earlier lane, so the units
        # are evaluated on demand.
        self.units = {}
        self.levels = {slot: {**self._unit(slot, 1), **self._unit(slot, 2)}
                       for slot in range(lo + 1, hi + 1)}

    def _unit(self, slot, hop, signal=None, position=None):
        """The lane levels ``slot`` sends and receives on hop ``hop``; an
        echo that reads one of them, ``signal`` at ``position``, while they
        are made is a PipelineError."""
        unit = self.units.get((slot, hop), ())
        if unit is None:
            raise PipelineError(f"an echo reads {signal} position {position} of built slot "
                                f"{slot} from its own lanes at {self.where}")
        if unit:
            return unit
        self.units[slot, hop] = None
        tx = self.built[slot - 1].tx
        if hop == 1:
            x1, x2 = self._send(tx[0]), self._send(tx[1])
            unit = dict(zip(_HOP1_SIGNALS, (x1, x2, *_first_hop(x1, x2, self.p, 0))))
        else:
            x1, x2 = self._send(tx[2]), self._send(tx[3])
            unit = dict(zip(_HOP2_SIGNALS, (x1, x2, *_second_hop(x1, x2, self.p, 0))))
        self.units[slot, hop] = unit
        return unit

    def _send(self, emits):
        lanes = self.lanes
        levels = []
        for emit in emits:
            if emit is None:
                levels.append(0)
                continue
            known, echo_src, cancel = emit
            if echo_src:
                value, known = self._echo(emit), cancel
            else:
                value = 0
            for i in known:
                value ^= lanes[i]
            levels.append(value)
        return tuple(levels)

    def _echo(self, emit):
        """The lane level an echo Emit replays, before its cancel bits come
        off (the lanes' _echo_value)."""
        return self._seen(*emit.echo_src)

    def _seen(self, signal, slot, position):
        """The lane level ``signal`` carries at ``position`` in built slot
        ``slot``, which a step or echo of this group names."""
        hop = 1 if signal in _HOP1_SIGNALS else 2
        if slot > self.lo:
            return self._unit(slot, hop, signal, position)[signal][position]
        width, period = self.width, self.period
        back = (self.lo - slot) // period + 1       # lanes back into the group
        value = 0
        if back < width:
            later = self._unit(slot + back * period, hop, signal, position)
            value = later[signal][position] >> back
        column, length = self.at[signal]
        first = (slot + 2 * self.d - 1) * length + position
        for k in range(min(back, width)):
            value |= column[first + k * period * length] << (width - 1 - k)
        return value

    def decode(self):
        """Check every decode step in every lane.

        A step holds when the XOR of its observed levels and its side lanes
        is its target's lane; by induction over the slots, every store the
        sequential engine would write is then its payload bit, so the lanes
        keep no stores, and every delivery the schedule counts is right.
        The first step that does not hold is a PipelineError."""
        lanes, levels, lo = self.lanes, self.levels, self.lo
        for slot in range(lo + 1, self.hi + 1):
            for node, obs, side, target, _ in self.built[slot - 1].steps:
                value = lanes[target]
                for signal, seen, position in obs:
                    value ^= (levels[seen][signal][position] if seen > lo
                              else self._seen(signal, seen, position))
                for i in side:
                    value ^= lanes[i]
                if value:
                    raise PipelineError(f"lane check fails: {node} decodes position {target} "
                                        f"wrong in built slot {slot} at {self.where}")

    def write(self):
        """Write every level into its column: lane k of built slot s is run
        slot ``s + 2 * d + k * period``, so a level's lanes are one extended
        slice, made from its bits in C; a one-lane vector is written whole."""
        width, text = self.width, f"0{self.width}b"
        for slot, levels in self.levels.items():
            for signal, vec in levels.items():
                column, length = self.at[signal]
                first = (slot + 2 * self.d - 1) * length
                if width == 1:
                    column[first:first + length] = vec
                    continue
                step = self.period * length
                for position, lanes in enumerate(vec, start=first):
                    column[position:position + width * step:step] = (
                        format(lanes, text).encode().translate(_TEXT_LEVEL))


def _run_lanes(schedule: Schedule, bits):
    """The columns ``_run_engine(schedule, bits)`` returns for a clean run,
    evaluated lane-parallel.

    Each part of the tiling (Schedule._parts) is one group, lane k its k-th
    copy: the period has R = 2 * shift / period + 1 lanes, the head and the
    tail one; a full build is all tail.  Each group checks its decode
    steps, then writes its columns, which later groups read.  A decode check
    that does not hold, or an echo that reads its own lanes, is a
    PipelineError: a clean run of a sound schedule never fails one.
    """
    at = {signal: (bytearray(schedule.n_slots * length), length)
          for signal, length in _signal_lengths(schedule.p).items()}
    for lo, hi, width, d in schedule._parts:
        group = _LaneGroup(schedule, bits, at, lo, hi, width, d)
        group.decode()
        group.write()
    return {signal: bytes(column) for signal, (column, _) in at.items()}


def run_scheme(scheme: str, p: ChannelParams, packets: int,
               seed: int = DEFAULT_SEED, faults=None) -> SimulationTrace:
    """Run a scheme end to end and return the full per-slot trace.

    ``faults`` maps (slot, signal) -> level to flip after that signal is
    formed; the corruption then propagates through the rest of the run.  A
    faults value that is not such a mapping, a slot, signal or level the run
    does not have, or a slot or level that is not an int (bools included),
    is a ChannelDomainError, and so is a seed that is not an int (bools
    included), which the trace header could not carry.

    A clean run is evaluated lane-parallel (_run_lanes), and a lane check
    that fails is a PipelineError; a faulted run runs on the sequential
    engine.  Either way the delivered and steady counts are the schedule's
    (Schedule.counts).  The trace carries the schedule, the seed, the
    payload bits and a clean run's columns, in a dict of their own, to the
    verify_trace that follows, which then makes no clean pass of its own.
    """
    _check_seed(seed)
    schedule = build_schedule(scheme, p, packets)
    _check_faults(schedule, faults)
    bits = _payload_bits(2 * schedule.formula_rate * packets, seed)
    errors = ()
    if faults:
        columns, errors, *_ = _run_engine(schedule, bits, faults=faults)
    else:
        columns = _run_lanes(schedule, bits)
    delivered, steady, _ = schedule.counts
    trace = SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=schedule.n_slots,
        slots=columns, formula_rate=schedule.formula_rate, alloc=schedule.alloc,
        decode_errors=len(errors), delivered_bits=delivered, steady_state_rate=steady,
    )
    trace._run = (schedule, seed, bits, None if faults else dict(columns))
    return trace


def _check_seed(seed) -> None:
    """Raise ChannelDomainError unless ``seed`` is an int (bools excluded),
    which the trace header can carry, and not negative: ``random.Random``
    seeds -s as s, so a trace would name another trace's payload."""
    if type(seed) is not int:
        raise ChannelDomainError(f"seed {seed!r} is not an int")
    if seed < 0:
        raise ChannelDomainError(f"seed {seed} is negative")


@dataclass
class VerifyReport:
    ok: bool
    faults: list                      # (slot, signal, level), slot-ordered
    payload_errors: list              # (slot, dest, ref)
    delivered_bits: int
    missing_bits: int
    packet_verdicts: dict             # packet -> bool (all its bits correct)
    node_verdicts: dict = None        # (node, packet) -> bool per decoder
    measured_sum_rate: Fraction = Fraction(0)
    steady_state_rate: Fraction = Fraction(0)

    @property
    def first_fault(self):
        return self.faults[0] if self.faults else None

    def summary(self) -> str:
        if self.ok:
            return f"PASS: {self.delivered_bits} bits delivered, zero errors"
        parts = []
        if self.faults:
            t, signal, level = self.faults[0]
            parts.append(f"first deviation at slot {t} {signal} level {level + 1}")
        if self.payload_errors:
            t, dest, ref = self.payload_errors[0]
            parts.append(f"first wrong bit at slot {t} {dest} {ref}")
        if self.missing_bits:
            parts.append(f"{self.missing_bits} bits never delivered")
        return "FAIL: " + "; ".join(parts)


def verify_trace(trace: SimulationTrace) -> VerifyReport:
    """Replay a trace and check it is a faithful, fully decoded run.

    Checks, in order of severity: every recorded signal equals what the
    protocol produces from the recorded inputs (locating any injected
    fault), and every delivered bit matches the seeded payload.

    A trace from run_scheme carries its run (its schedule, seed, payload
    bits and, from the lanes, its clean columns), used only while the trace
    names the same scheme, p, packets and seed; it gives the run up here.
    A parsed trace, a changed one or a second verification starts afresh.

    The clean columns are the carried ones or else made lane-parallel
    (_run_lanes), which checks every decode and raises PipelineError if one
    fails; a recording equal to them is that clean run.  Any other recording
    is replayed by the sequential engine, which locates its faults.  _report
    takes the rest from the schedule's counts.

    A trace whose row count is not the run's is a ChannelDomainError naming
    the line of its first missing or extra row, as format_trace would write
    it, and so is a missing column or one of another length, naming its
    signal, and a column under a key that is not a signal, naming the key.
    """
    run, trace._run = trace._run, None
    if run and (run[0].scheme, run[0].p, run[0].packets, run[1]) == (
            trace.scheme, trace.p, trace.packets, trace.seed):
        schedule, _, bits, columns = run
    else:
        schedule = build_schedule(trace.scheme, trace.p, trace.packets)
        bits = columns = None
    n_slots = trace.n_slots
    if n_slots != schedule.n_slots:
        header = _header(trace.scheme, trace.p, trace.packets, trace.seed,
                         schedule.alloc, schedule.formula_rate)
        raise ChannelDomainError(
            f"line {len(header) + min(n_slots, schedule.n_slots) + 1}: "
            f"trace has {n_slots} slots, run needs {schedule.n_slots}")
    lengths = _signal_lengths(trace.p)
    unknown = [key for key in trace.slots if key not in lengths]
    if unknown:
        raise ChannelDomainError(f"recorded column {unknown[0]!r} is not a signal")
    for signal, length in lengths.items():
        column = trace.slots.get(signal)
        if column is None or len(column) != n_slots * length:
            found = "no column" if column is None else f"{len(column)} levels"
            raise ChannelDomainError(f"recorded {signal} has {found}, "
                                     f"{n_slots} slots need {n_slots * length}")
    if bits is None:
        bits = _payload_bits(2 * schedule.formula_rate * schedule.packets, trace.seed)
    if (columns or _run_lanes(schedule, bits)) == trace.slots:
        return _report(schedule)
    _, errors, found, _, wrong = _run_engine(schedule, bits, recorded=trace.slots)
    return _report(schedule, found, errors, wrong)


def _report(schedule: Schedule, found=(), errors=(), wrong=()) -> VerifyReport:
    """The VerifyReport of a replay of ``schedule``: ``found`` its recorded
    deviations, ``errors`` its wrong deliveries (slot, dest, position) and
    ``wrong`` the (node, position) of its wrong stores.  The rest, the
    delivered, missing and steady-window bits and the (node, packet) pairs
    a decoder writes, is the same for every replay of the schedule, and
    comes from Schedule.counts, whose packet ranges it expands."""
    delivered, steady, written = schedule.counts
    per_packet = 2 * schedule.formula_rate
    node_verdicts = dict.fromkeys(itertools.chain.from_iterable(
        zip(itertools.repeat(node), packets) for node, packets in written), True)
    node_verdicts.update(((node, i // per_packet + 1), False) for node, i in wrong
                         if node in _VERDICT_NODES)
    packet_verdicts = dict.fromkeys(range(1, schedule.packets + 1), True)
    packet_verdicts.update((i // per_packet + 1, False) for _, _, i in errors)
    missing = per_packet * schedule.packets - delivered
    return VerifyReport(
        ok=not found and not errors and missing == 0,
        faults=sorted(found),
        payload_errors=[(t, dest, schedule.payload_refs[i]) for t, dest, i in errors],
        delivered_bits=delivered,
        missing_bits=missing,
        packet_verdicts=packet_verdicts,
        node_verdicts=node_verdicts,
        measured_sum_rate=Fraction(delivered, schedule.n_slots),
        steady_state_rate=steady,
    )


# ---------------------------------------------------------------------------
# Trace file format: the header lines of _header, then one line per slot,
# each signal a '0'/'1' string top level first ('-' when the vector is empty).

_TRACE_VERSION = "# ofbic-trace v1"


def _signal_lengths(p: ChannelParams) -> dict:
    return {s: p.q if s in _HOP1_SIGNALS else p.qbar for s in SIGNALS}


def _header(scheme: str, p: ChannelParams, packets: int, seed: int,
            alloc: BitAllocation, formula_rate: int) -> list:
    """The lines above a trace's rows, in order: the version line, the run
    line, ``# alloc`` (packet schemes only), ``# formula_rate=`` and
    ``# columns:``.  format_trace writes them and parse_trace requires them."""
    lines = [
        _TRACE_VERSION,
        f"# scheme={scheme} m={p.m} n={p.n} mbar={p.mbar} "
        f"nbar={p.nbar} f={p.f} packets={packets} seed={seed}",
    ]
    if alloc is not None:
        lines.append(
            f"# alloc noncoop={alloc.noncoop} coop={alloc.coop} "
            f"private={alloc.private} per_phase_coop={alloc.per_phase_coop[0]},"
            f"{alloc.per_phase_coop[1]} superframe={alloc.superframe}")
    lines.append(f"# formula_rate={formula_rate}")
    lines.append("# columns: slot " + " ".join(SIGNALS))
    return lines


def _row_layout(p: ChannelParams):
    """A row's vectors at ``p`` with every level '1', and per signal (signal,
    start, length): level j of its field is character ``start + j`` of the
    vectors, so in a block of rows (_row_groups) it is one extended slice."""
    fields, start = [], 0
    for signal, length in _signal_lengths(p).items():
        fields.append((signal, start, length))
        start += (length or 1) + 1
    return " ".join("1" * length or "-" for _, _, length in fields), fields


def _row_groups(n_slots: int, shape: str):
    """(width, lo, hi, row) per index width of rows 1..n_slots: each row lo..hi
    is laid out as ``row`` (``width`` digits '1', the row shape), one block."""
    width, lo = 1, 1
    while lo <= n_slots:
        yield width, lo, min(10 * lo - 1, n_slots), f"{'1' * width} {shape}\n".encode()
        width, lo = width + 1, 10 * lo


def _index_digits(width: int, j: int, lo: int, hi: int) -> bytes:
    """Digit j (0 the leading one) of the ``width``-digit indices lo..hi, in
    ASCII: a cycle of '0'..'9', each held for 10 ** (width - 1 - j) indices."""
    cycle = b"".join([bytes((digit,)) * 10 ** (width - 1 - j) for digit in b"0123456789"])
    return (cycle * (hi // len(cycle) + 1))[lo:hi + 1]


def format_trace(trace: SimulationTrace) -> str:
    """The trace file text: the _header lines, then the rows block by block
    (_row_groups): the block's row repeated, each level written from its
    column in one extended slice, the ``_vec_str`` table applied, then each
    index digit written in one extended slice."""
    shape, fields = _row_layout(trace.p)
    text = ["\n".join([*_header(trace.scheme, trace.p, trace.packets, trace.seed,
                                trace.alloc, trace.formula_rate), ""])]
    for width, lo, hi, row in _row_groups(trace.n_slots, shape):
        block = bytearray(row) * (hi - lo + 1)
        for signal, start, length in fields:
            # stop counts from the column's end: a column of another length does not fit
            column, stop = trace.slots[signal], (hi - trace.n_slots) * length or None
            for level in range(length):
                block[width + 1 + start + level::len(row)] = \
                    column[(lo - 1) * length + level:stop:length]
        block = block.translate(_LEVEL_TEXT)
        for j in range(width):
            block[j::len(row)] = _index_digits(width, j, lo, hi)
        text.append(block.decode())
    return "".join(text)


def _read_rows(data, at: int, shape: str, fields):
    """(n_slots, columns) from the rows of ASCII ``data`` past ``at``, their
    count from their length, or None unless they are what format_trace
    writes: per block (_row_groups), each index digit compared and made '1',
    the levels moved out, the block, every '0' made '1', compared with its row."""
    n_slots, left = 0, len(data) - at
    for width, lo, hi, row in _row_groups(left, shape):
        count = min(left // len(row), hi - lo + 1)
        n_slots, left = n_slots + count, left - count * len(row)
    if left:
        return None
    columns = {signal: bytearray(n_slots * length) for signal, _, length in fields}
    for width, lo, hi, row in _row_groups(n_slots, shape):
        block = bytearray(data[at:at + (hi - lo + 1) * len(row)])
        at += len(block)
        for j in range(width):
            if block[j::len(row)] != _index_digits(width, j, lo, hi):
                return None
            block[j::len(row)] = b"1" * (hi - lo + 1)
        for signal, start, length in fields:
            for level in range(length):
                columns[signal][(lo - 1) * length + level:hi * length:length] = \
                    block[width + 1 + start + level::len(row)]
        block = block.translate(bytes.maketrans(b"0", b"1"))   # frees the text's copy
        if block != row * (hi - lo + 1):
            return None
    return n_slots, {signal: bytes(column).translate(_TEXT_LEVEL)
                     for signal, column in columns.items()}


def _name_bad_line(text: str, header: list, shape: str, fields) -> None:
    """Raise the error of the first line of ``text`` that format_trace would
    not write: a header line, named with the line expected there, or a row,
    read field by field.  Only a refused text comes here: finding none is a bug."""
    lines = text[:-1].split("\n")
    for lineno, want in enumerate(header, start=1):
        if lines[lineno - 1:lineno] != [want]:
            found = repr(lines[lineno - 1]) if lineno <= len(lines) else "end of text"
            raise ChannelDomainError(f"line {lineno}: found {found}, expected {want!r}")
    for lineno, line in enumerate(lines[len(header):], start=len(header) + 1):
        slot, (index, _, vectors) = lineno - len(header), line.partition(" ")
        if index == str(slot) and vectors.replace("0", "1") == shape:
            continue
        texts = line.split(" ")
        if len(texts) != 1 + len(SIGNALS):
            raise ChannelDomainError(
                f"line {lineno}: {len(texts)} columns, expected {1 + len(SIGNALS)}")
        if texts[0] != str(slot):
            raise ChannelDomainError(f"line {lineno}: slot index {texts[0]!r}, expected {slot}")
        for (signal, _, length), field_text in zip(fields, texts[1:]):
            try:
                vec = GfVec.from_string(field_text)   # the one vector reader
            except ChannelDomainError as exc:
                raise ChannelDomainError(f"line {lineno}: {signal}: {exc}") from exc
            if len(vec) != length:
                raise ChannelDomainError(
                    f"line {lineno}: {signal} has length {len(vec)}, expected {length}")
    raise PipelineError("trace rows refused as blocks were read row by row")


def parse_trace(text: str) -> SimulationTrace:
    """Read a trace written by format_trace; reject anything malformed.

    Only a newline ends a line, and errors name the 1-based line they were
    found on; a text without its final newline reads as with it.  The run
    line (line 2) names the run: a field missing from it or not an integer,
    or a run that cannot exist, raises on line 2 what run_scheme would,
    RegimeError included.  The text must then begin with exactly the
    _header lines format_trace writes for that run, and every other line is
    a row: the slot index, then one vector per signal, each of its signal's
    length, joined by single spaces.  The rows are read as blocks
    (_read_rows); a text that is not ASCII (format_trace writes none) or
    that fails those checks goes to _name_bad_line, which names its first
    bad line and field.  A parsed trace carries no schedule, draws no
    payload and holds no counts (its ``delivered_bits`` and
    ``steady_state_rate`` are 0): the allocation and formula rate follow
    from the run line, and verify_trace builds a fresh schedule.
    """
    if not text.endswith("\n"):
        text += "\n"
    version, run_line = text.split("\n", 2)[:2]    # the text has two lines or more
    if version != _TRACE_VERSION:
        _name_bad_line(text, [_TRACE_VERSION], "", ())
    run = dict(token.partition("=")[::2] for token in run_line.split())

    def value(key, cast=int):
        if key not in run:
            raise ChannelDomainError(f"run line has no {key}= field")
        try:
            return cast(run[key])
        except ValueError:
            raise ChannelDomainError(
                f"header field {key}={run[key]!r} is not an integer") from None

    try:
        p = ChannelParams(*map(value, ("m", "n", "mbar", "nbar", "f")))
        scheme, packets, seed = value("scheme", str), value("packets"), value("seed")
        _check_seed(seed)
        alloc, formula_rate = _payload_plan(scheme, p, packets)
    except ChannelDomainError as exc:
        raise type(exc)(f"line 2: {exc}") from exc
    header = _header(scheme, p, packets, seed, alloc, formula_rate)
    head, (shape, fields) = "\n".join([*header, ""]), _row_layout(p)
    rows = text.isascii() and text.startswith(head) and _read_rows(
        memoryview(text.encode()), len(head), shape, fields)
    if not rows:
        _name_bad_line(text, header, shape, fields)
    return SimulationTrace(scheme=scheme, p=p, packets=packets, seed=seed, n_slots=rows[0],
                           slots=rows[1], formula_rate=formula_rate, alloc=alloc)

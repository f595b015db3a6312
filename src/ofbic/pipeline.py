"""Packet-pipelined scheme execution over the bit-exact channel.

The run is split into two layers:

* A *schedule builder* walks the timeline symbolically.  A payload bit is
  addressed by its position in ``payload_refs``, every transmitted level is
  a set of such positions (an XOR combination), and receptions come from
  ``ofbic.channel``'s one shift-and-superpose geometry, the same code the
  value engine uses, applied to position sets instead of bits.  Decoding is
  modelled as knowledge-set propagation: a node may learn a bit only from a
  reception in which every other contributing bit is already in its
  knowledge set.  A relay reception with two unknown bits waits in a
  pending set indexed by its unknown positions; learning a bit wakes
  only the receptions waiting on it, which resolve in insertion order, so
  the build is linear in the packet count.  Levels are immutable and shared:
  one ``Emit`` per payload bit serves its hop-1 emission and its relay
  forwarding.  The builder checks causality and side-information soundness
  (raising PipelineError) and emits an explicit list of decode steps.
  One slot loop serves all four schemes; nofb-mid differs from the packet
  schemes only in its hop-1 emission (MidCode columns) and in how its relays
  decode (two-slot recipes instead of single receptions).
* An *engine* evaluates the schedule on concrete payload bits, pushing
  tuples of 0/1 levels through the same geometry and executing the decode
  steps against the actually received vectors.  It reads the records'
  positions as they are, unpacking each Emit and DecodeStep by position (so
  their field order is load-bearing), and every node's store is one list
  over them.  Reference tuples ``(source, packet, kind, index)`` appear
  only at the edge: the builder looks up a position where it reads its
  plan, and deliveries, the payload dict and error texts name bits by
  ``payload_refs[i]``.  A run applies its faults only in the slots that
  have one.  verify_trace replays a recorded trace through the same engine
  and reports the first point where the recording deviates from what the
  protocol would have produced; the replay compares whole slots, looks for
  the deviating signals only in a slot that differs, and reads the
  recorded rows in place, without copying or writing them.

A build is one _Slot record per slot: what the slot sends, its decode steps
in execution order (each runs in the record's slot, so a step names no
slot of its own) and its feedback levels.  Every scheme repeats itself
after a short warm-up: one period is two superframes (two or four slots),
and the next period is the same with packet indices raised by a superframe,
which is what _Slot.shifted computes.  So build_schedule builds a run of
more than TILE_PACKETS packets once, at TILE_PACKETS or TILE_PACKETS + 1
packets, finds the period by checking that the builder's live state recurs
and that the next period's records are the shifted ones, and tiles it:
build time and schedule memory do not grow with the packet count.  The
engine walks the tiling over the records directly (Schedule._walk), with
no copy of a repeated record; Schedule.slots() is the one reader of a
run slot by slot, each record moved to its own packets, as a full build
at that packet count would have it.  A run whose period check fails is
built in full.

A run builds its schedule once: a trace from run_scheme carries that
schedule until it is verified, and verify_trace releases it, so no trace
holds one afterwards.  A parsed trace is verified against a fresh build.

A Schedule also caches the channel map at its ``p`` for the engine
(``channel_maps``): a dict per hop from the two transmitted vectors of a
slot to the vectors they are received as.  Each received vector is a fixed
function of the two transmitted ones, and a small point has only a few
hundred distinct pairs in a whole run.  run_scheme fills the maps, the
verify_trace it hands the schedule to finds every unchanged slot there, and
they are freed with the schedule; a fresh build starts with empty maps.
They cannot change a result: a miss calls the same geometry, the key is the
vectors the slot actually sent (after a fault flip, or as recorded), and a
fault or recorded deviation in a received vector is applied after the
lookup, so the maps only ever hold what the geometry returns.

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
from dataclasses import dataclass, field, replace
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
    _first_hop,
    _second_hop,
    _vec_str,
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
_NODES = ("S1", "S2", "R1", "R2", "D1", "D2")

DEFAULT_SEED = 1009
WARMUP_PACKETS = 2
TILE_PACKETS = 12                     # P0: longer runs tile a build of this size
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

    @cached_property
    def payload_refs(self):
        return _payload_refs(self.alloc, self.formula_rate, self.packets)

    @cached_property
    def channel_maps(self):
        """The engine's memo of the channel map at ``p``: hop 1
        ``(x_s1, x_s2) -> (y_r1, y_r2)`` and hop 2
        ``(x_r1, x_r2) -> (y_d1, y_d2, y_s1, y_s2)``, keyed by the transmit
        vectors a slot sent (after a fault flip, or as recorded) and filled
        by every engine pass on this schedule."""
        return {}, {}

    def _walk(self):
        """(built slot record, packet shift) of slots 1 .. n_slots, in order:
        the build's own slots up to ``start + period``, the period repeated
        ``2 * shift`` slots long and moved ``period // 2`` packets further
        each time, then the build's remaining slots moved ``shift``."""
        start, period, shift = self.tiling
        own = start + period
        yield from zip(self.built[:own], itertools.repeat(0))
        if shift:
            repeats = ((slot, k * period // 2)
                       for k in itertools.count(1) for slot in self.built[start:own])
            yield from itertools.islice(repeats, 2 * shift)
        yield from zip(self.built[own:], itertools.repeat(shift))

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
# an observation or echo names.  _Slot.shifted (behind Schedule.slots and
# _tile's period check) and _Builder._state all move values this way.

def _shift_refs(refs, off):
    return frozenset(i + off for i in refs) if off and refs else refs


def _shift_obs(obs, d):
    return (obs[0], obs[1] + 2 * d, obs[2]) if d else obs


def _payload_plan(scheme: str, p: ChannelParams, packets: int):
    """(alloc, formula_rate, payload_refs) of a run; alloc is None for nofb-mid.

    Payload references are (source, packet, kind, index) in transmission-plan
    order: packet by packet, then source, then band.  nofb-mid blocks use the
    single kind 'mb'.
    """
    if scheme not in ALL_SCHEMES:
        raise ChannelDomainError(f"unknown scheme {scheme!r}")
    if packets < 4:
        raise ChannelDomainError("need at least 4 packets to fill the pipeline")
    if scheme == SCHEME_NOFB_MID:
        require_scheme(scheme, p)
        alloc, rate = None, r_nom(p)
    else:
        alloc = allocate(scheme, p)
        rate = alloc.bits_per_packet
    return alloc, rate, _payload_refs(alloc, rate, packets)


def _payload_refs(alloc: BitAllocation, rate: int, packets: int) -> tuple:
    if alloc is None:
        kinds = (("mb", rate),)
    else:
        kinds = (
            ("n1", alloc.noncoop), ("cp", alloc.coop), ("v1", alloc.private),
            ("n4", alloc.noncoop), ("v4", alloc.private),
        )
    # (src, pkt) + (kind, j) in that nesting order, each ref joined in C
    senders = [(src, pkt) for pkt in range(1, packets + 1) for src in (1, 2)]
    bands = [(kind, j) for kind, count in kinds for j in range(count)]
    return tuple(itertools.starmap(operator.add, itertools.product(senders, bands)))


class _Builder:
    """Schedule construction for all four schemes."""

    def __init__(self, scheme: str, p: ChannelParams, packets: int):
        self.scheme = scheme
        self.p = p
        self.packets = packets
        self.mid = scheme == SCHEME_NOFB_MID
        self.alloc, self.formula_rate, self.payload_refs = _payload_plan(
            scheme, p, packets)
        if self.mid:
            self.code = build_mid_code(p.m, p.n, self.formula_rate)
            self.fb_plan = {2: (), 3: ()}
        else:
            self.lmap1 = level_map(self.alloc, p, 1)
            self.lmap4 = level_map(self.alloc, p, 4)
            self.fb_plan = self._feedback_plan()
        self.per_packet = 2 * self.formula_rate
        # every set below holds payload_refs positions; index maps a ref of
        # the plan to its position
        self.index = {ref: i for i, ref in enumerate(self.payload_refs)}
        self.know = {node: set() for node in _NODES}
        # one immutable Emit per payload bit, shared by every level that
        # carries that bit alone (hop-1 emission and relay forwarding)
        self.unit = []
        for i, ref in enumerate(self.payload_refs):
            self.know[f"S{ref[0]}"].add(i)
            self.unit.append(Emit(frozenset((i,))))
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

    def _learn(self, node, slot, obs, refs, target):
        self._record(node, slot, obs, refs, target)
        if node in ("R1", "R2"):
            self._drain_pending(node, slot, target)

    def _record(self, node, slot, obs, refs, target):
        side = refs - {target}
        if len(side) == 1:                   # share the one-bit set
            side = self.unit[next(iter(side))].refs
        elif not side:                       # and the one empty set
            side = _EMPTY
        ref = self.payload_refs[target]
        if not side <= self.know[node]:
            raise PipelineError(f"{node} lacks side info for {ref} at slot {slot}")
        if target in self.know[node]:
            raise PipelineError(f"{node} relearns {ref} at slot {slot}")
        self.know[node].add(target)
        self.slot_steps.append(DecodeStep(node, obs, side, target))
        if node in ("R1", "R2"):
            own = 1 if node == "R1" else 2
            if ref[0] == own and not (
                self.scheme == SCHEME_FBXW and ref[2] == "cp"
            ):
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
        know = self.know[node]
        for position, refs in enumerate(sym_vec):
            unknown = refs - know
            if len(unknown) == 1:
                self._learn(node, slot, ((signal, slot, position),), refs,
                            next(iter(unknown)))
            elif len(unknown) == 2:
                entry = ((signal, slot, position), refs)
                arrival = next(self.arrivals)
                self.pending[node][arrival] = entry
                for i in unknown:
                    self.waiting[node].setdefault(i, []).append(arrival)
                fresh.append(entry)
            elif len(unknown) > 2:
                raise PipelineError(f"{node} sees {len(unknown)} unknowns at slot {slot}")
        return fresh

    # -- per-slot planning ---------------------------------------------------

    def _hop1_emits(self, t):
        q = self.p.q
        emits = {1: [None] * q, 2: [None] * q}
        kind1 = {"noncoop": "n1", "coop": "cp", "private": "v1"}
        kind4 = {"noncoop": "n4", "private": "v4"}
        unit, index = self.unit, self.index
        if t % 2 == 1 and (t + 1) // 2 <= self.packets:
            pkt = (t + 1) // 2
            for src in (1, 2):
                for level, (band, j) in self.lmap1.items():
                    emits[src][level] = unit[index[(src, pkt, kind1[band], j)]]
        if t % 2 == 0 and 1 <= t // 2 - 1 <= self.packets:
            pkt = t // 2 - 1
            for src in (1, 2):
                node, other = f"S{src}", 3 - src
                for level, (band, j) in self.lmap4.items():
                    if band == "coop_relay":
                        emits[src][level] = self._coop_relay_emit(node, other, pkt, j, t)
                    else:
                        emits[src][level] = unit[index[(src, pkt, kind4[band], j)]]
        return emits

    def _mid_hop1_emits(self, t):
        """Block (t+1)//2: user 1 sends the slot-A columns in the odd slot and
        the slot-B columns in the even one, user 2 the other way round."""
        q, code, blk = self.p.q, self.code, (t + 1) // 2
        emits = {1: [None] * q, 2: [None] * q}
        if blk > self.packets:
            return emits
        for src in (1, 2):
            use_a = (t % 2 == 1) == (src == 1)
            cols, base = (code.cols_a, 0) if use_a else (code.cols_b, code.split)
            for level, bits in enumerate(column_levels(cols, base, q)):
                if bits:
                    emits[src][level] = Emit(frozenset(
                        self.index[(src, blk, "mb", k)] for k in bits))
        return emits

    def _coop_relay_emit(self, node, other, pkt, j, t):
        if self.scheme in (SCHEME_FBXW, SCHEME_RSW):
            ref = (other, pkt, "cp", j)
            if self.index[ref] not in self.know[node]:
                raise PipelineError(f"{node} has not learned {ref} by slot {t}")
            return self.unit[self.index[ref]]
        items = self.echo[node].get(pkt, [])
        if len(items) != self.alloc.coop:
            raise PipelineError(f"{node} captured {len(items)} echoes for packet {pkt}")
        obs, refs, cancel = items[j]
        return Emit(refs, obs, cancel)

    def _hop2_emits(self, t):
        qbar, f = self.p.qbar, self.p.f
        emits = {"R1": [None] * qbar, "R2": [None] * qbar}
        if t < 2:
            return emits, None, None
        phase = 2 if t % 2 == 0 else 3
        pkt = t // 2 if phase == 2 else (t - 1) // 2
        if not 1 <= pkt <= self.packets:
            phase, pkt = None, None
        if phase is not None:
            for relay in ("R1", "R2"):
                own = 1 if relay == "R1" else 2
                for level, j in self.fb_plan[phase]:
                    emits[relay][level] = self._feedback_emit(relay, own, pkt, j)
        for relay in ("R1", "R2"):
            for level in range(f):
                if emits[relay][level] is not None:
                    continue
                if self.fifo[relay] and self.fifo[relay][0][1] < t:
                    i, _ = self.fifo[relay].popleft()
                    emits[relay][level] = self.unit[i]
        return emits, phase, pkt

    def _feedback_emit(self, relay, own, pkt, j):
        if self.scheme == SCHEME_FBXW:
            ref = (own, pkt, "cp", j)
            if self.index[ref] not in self.know[relay]:
                raise PipelineError(f"{relay} misses own coop bit {ref}")
            return self.unit[self.index[ref]]
        if self.scheme == SCHEME_RSW:
            residuals = self.residual_store.get((relay, pkt), ())
            obs, refs = residuals[j]
            return Emit(refs, obs)
        ref = (3 - own, pkt, "cp", j)
        if self.index[ref] not in self.know[relay]:
            raise PipelineError(f"{relay} misses cross coop bit {ref}")
        return self.unit[self.index[ref]]

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
            for position, refs in enumerate(sym_vec):
                unknown = refs - self.know[node]
                if len(unknown) == 1:
                    self._learn(node, t, ((signal, t, position),), refs,
                                next(iter(unknown)))
                elif len(unknown) > 1 and self.scheme != SCHEME_RSS:
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
            for k, recipe in enumerate(self.code.own_recipes[relay_idx]):
                obs = tuple((signal, t - 1 + s_off, position)
                            for s_off, position in recipe)
                target = self.index[(relay_idx + 1, done, "mb", k)]
                self._learn(relay, t, obs, self.unit[target].refs, target)

    def _process_dest(self, t, y_d):
        for dst, node, signal, sym_vec in ((1, "D1", "Y_D1", y_d[0]),
                                           (2, "D2", "Y_D2", y_d[1])):
            for position, refs in enumerate(sym_vec):
                if len(refs) != 1:
                    continue
                i = next(iter(refs))
                if self.payload_refs[i][0] != dst:
                    continue
                if i in self.delivered:
                    raise PipelineError(f"{self.payload_refs[i]} delivered twice")
                self.delivered.add(i)
                self.slot_steps.append(DecodeStep(
                    node, ((signal, t, position),), _EMPTY, i, deliver=True))

    # -- period detection ------------------------------------------------------

    def _state(self, t):
        """Everything that decides the build after slot ``t``, moved by
        d = -(t // 2) packets: packets count from ``t // 2``, slots from
        ``2 * (t // 2)`` and payload_refs positions from the first bit of
        packet ``t // 2 + 1``.  The period is even, so the two states
        _watch_period compares are offset by the same ``t % 2``: the period
        found is the one found with slots counted from ``t``.

        That is the relay FIFOs with their enqueue slots, the pending relay
        decodes and their waiting index (arrivals as ranks), the rss echo and
        rsw residual stores of packets not yet past their use, and what each
        node knows or has delivered of the packets from the oldest one any of
        these names up to the newest one sent.  No later slot reads anything
        older, and of newer packets only the sources' own bits are known.
        """
        base, per_packet = t // 2, self.per_packet
        d, off = -base, -base * per_packet
        fifo = tuple(tuple((i + off, slot + 2 * d) for i, slot in self.fifo[relay])
                     for relay in ("R1", "R2"))
        pending = []
        for relay in ("R1", "R2"):
            rank = {arrival: i for i, arrival in enumerate(self.pending[relay])}
            pending.append((
                tuple((_shift_obs(o, d), _shift_refs(rs, off))
                      for o, rs in self.pending[relay].values()),
                {i + off: tuple(rank.get(a, -1) for a in arrivals)
                 for i, arrivals in self.waiting[relay].items()},
            ))
        echo = {(node, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rest, off),
                                        _shift_refs(known, off))
                                       for o, rest, known in items)
                for node, by_packet in self.echo.items()
                for pkt, items in by_packet.items() if pkt >= base}
        residual = {(relay, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rs, off))
                                            for o, rs in items)
                    for (relay, pkt), items in self.residual_store.items()
                    if pkt >= base}
        named = [i for queue in fifo for i, _ in queue]
        named += [i for entries, _ in pending for _, rs in entries for i in rs]
        named += [i for items in echo.values() for item in items
                  for rs in item[1:] for i in rs]
        named += [i for items in residual.values() for _, rs in items for i in rs]
        oldest = min([0] + [i // per_packet + 1 for i in named])
        window = range((base + oldest - 1) * per_packet, (t + 1) // 2 * per_packet)
        know = tuple(frozenset(i + off for i in window if i in self.know[node])
                     for node in _NODES)
        delivered = frozenset(i + off for i in window if i in self.delivered)
        return oldest, fifo, pending, echo, residual, know, delivered

    def _watch_period(self, t):
        """Snapshot the state after slot ``t`` and take ``t - period`` as the
        period start if it matches.  Only slots whose next two periods are
        still run as in an endless build count (phase 1 of the last packet
        is at slot 2P - 1)."""
        if t + self.period > 2 * self.packets - 1:
            self.watch = False
            return
        self.states[t] = self._state(t)
        if self.states.get(t - self.period) == self.states[t]:
            self.period_start = t - self.period
            self.watch = False
            self.states = {}

    # -- main loop -------------------------------------------------------------

    def build(self) -> Schedule:
        p, P = self.p, self.packets
        lag = 0 if self.mid else 1  # hop 1 of packet i ends at 2i+2, of block i at 2i
        budget = 2 * P + 4
        t, n_slots = 1, 2 * (P + lag)
        while t <= n_slots:
            hop1 = self._mid_hop1_emits(t) if self.mid else self._hop1_emits(t)
            hop2, phase, pkt = self._hop2_emits(t)
            sent = (hop1[1], hop1[2], hop2["R1"], hop2["R2"])
            s1, s2, r1, r2 = (tuple(e.refs if e else _EMPTY for e in emits)
                              for emits in sent)
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
                for relay, src in (("R1", 1), ("R2", 2)):
                    lo = (done - 1) * self.per_packet + (src - 1) * self.formula_rate
                    missing = [self.payload_refs[i]
                               for i in range(lo, lo + self.formula_rate)
                               if i not in self.know[relay]]
                    if missing:
                        raise PipelineError(f"{relay} missing {missing} after hop 1")
            if self.watch:
                self._watch_period(t)

            if t == n_slots and any(self.fifo.values()):
                n_slots += 1
                if n_slots > budget:
                    raise PipelineError(f"drain exceeds slot budget {budget}")
            t += 1

        if any(self.fifo.values()) or any(self.pending.values()):
            raise PipelineError("undelivered bits at end of run")
        if len(self.delivered) != len(self.payload_refs):
            raise PipelineError("not every payload bit was delivered")
        return Schedule(
            scheme=self.scheme,
            p=p,
            packets=P,
            alloc=self.alloc,
            n_slots=n_slots,
            formula_rate=self.formula_rate,
            built=tuple(self.built),
        )


def build_schedule(scheme: str, p: ChannelParams, packets: int) -> Schedule:
    """The schedule of a ``packets``-packet run.

    Up to TILE_PACKETS packets it is one full build.  A longer run is built
    at P0 = TILE_PACKETS or TILE_PACKETS + 1, whichever has the parity of
    ``packets`` (so P - P0 is a whole number of superframes), and tiled out
    to ``packets``.  Why that is the full build at ``packets``:

    The builder is deterministic, and its input at slot t, the hop-1
    emissions and the phase of the slot, is its input at slot t + 2k with
    every packet index raised by k, as long as neither slot reaches past the
    last packet's first hop-1 slot.  Suppose the state after slot b + L (L
    slots = one period = two superframes, see _Builder._state for what the
    state holds) is the state after slot b shifted by one superframe.  Then
    each following period emits the slots b+1..b+L again, shifted by one
    more superframe, and ends in a state shifted once more, for as long as
    the input stays shift-invariant: up to packet P.  A run at P therefore
    reaches, after slot b + L + 2(P - P0), the P0 run's state after slot
    b + L shifted by P - P0 packets; from there its input is the P0 run's
    shifted too, last packet and drain included, so its remaining slots are
    the P0 run's remaining slots shifted.  The state comparison only counts
    where the next two periods of the P0 run are still far from its end.
    As a second guard the two periods' emitted slots must agree, and the
    tiled deliveries must cover every payload bit.  When any of this fails,
    or no state recurs, the run is built in full at ``packets``.
    """
    if packets <= TILE_PACKETS:
        return _Builder(scheme, p, packets).build()
    builder = _Builder(scheme, p, TILE_PACKETS + (packets - TILE_PACKETS) % 2)
    builder.watch = True
    base = builder.build()
    if builder.packets == packets:
        return base
    tiled = _tile(base, builder.period_start, builder.period, packets)
    return tiled or _Builder(scheme, p, packets).build()


def _tile(base: Schedule, start, period: int, packets: int):
    """``base`` tiled out to ``packets`` by repeating its slots
    ``start + 1 .. start + period``, or None if those slots, moved by one
    period (``period // 2`` packets), are not the build's own next period or
    do not deliver every bit."""
    if start is None:
        return None
    one = base.built[start:start + period]
    two = base.built[start + period:start + 2 * period]
    per_packet = 2 * base.formula_rate
    if len(two) < period or any(a.shifted(period // 2, per_packet) != b
                                for a, b in zip(one, two)):
        return None
    # the P0 build delivered its 2 * formula_rate bits per packet
    delivered = sum(step.deliver for slot in one for step in slot.steps)
    if delivered != period * base.formula_rate:
        return None
    shift = packets - base.packets
    return replace(base, packets=packets, n_slots=base.n_slots + 2 * shift,
                   tiling=(start, period, shift))


# ---------------------------------------------------------------------------
# Value engine, trace, verification.

@dataclass
class SimulationTrace:
    scheme: str
    p: ChannelParams
    packets: int
    seed: int
    n_slots: int
    slots: list                       # per slot: dict signal -> 0/1 tuple
    payload: dict
    deliveries: list                  # (slot, dest, ref, value, ok)
    formula_rate: int
    alloc: BitAllocation = None
    decode_errors: int = 0
    # the Schedule run_scheme built, held for the one verify_trace that
    # follows and dropped by it; never set by parse_trace
    _schedule: Schedule = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def delivered_bits(self) -> int:
        return len(self.deliveries)

    @property
    def measured_sum_rate(self) -> Fraction:
        if self.n_slots == 0:
            return Fraction(0)
        return Fraction(self.delivered_bits, self.n_slots)

    @property
    def steady_window(self):
        lo = 2 * WARMUP_PACKETS + 2
        hi = 2 * self.packets + 1
        return lo, hi

    @property
    def steady_state_rate(self) -> Fraction:
        return _steady_rate(self.deliveries, *self.steady_window)


def _steady_rate(deliveries, lo: int, hi: int) -> Fraction:
    """Deliveries per slot in slots lo..hi; 0 when the window is empty."""
    if hi < lo:
        return Fraction(0)
    return Fraction(sum(1 for d in deliveries if lo <= d[0] <= hi), hi - lo + 1)


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


def _draw_payload(payload_refs, seed: int) -> dict:
    return dict(zip(payload_refs, _payload_bits(len(payload_refs), seed)))


def generate_payload(schedule: Schedule, seed: int) -> dict:
    return _draw_payload(schedule.payload_refs, seed)


def _echo_value(emit, rows, dt):
    """The received level an echo Emit replays, before its cancel bits come
    off: its ``echo_src`` read ``dt`` slots on (see _run_engine)."""
    signal, slot, position = emit.echo_src
    return rows[slot + dt - 1][signal][position]


def _diff(found, t, signals, actual, computed):
    """Append (t, signal, first differing level) for each recorded vector of
    slot ``t`` that differs from the computed one, in ``signals`` order."""
    for signal, a, c in zip(signals, actual, computed):
        if len(a) != len(c):
            raise ChannelDomainError(f"recorded {signal} at slot {t} has length {len(a)}")
        if a != c:
            found.append((t, signal, next(i for i, (x, y) in enumerate(zip(a, c))
                                          if x != y)))


def _flip(t, signals, vectors, faults):
    """``vectors`` of slot ``t`` with the level ``faults`` names flipped."""
    flipped = []
    for signal, vec in zip(signals, vectors):
        level = faults.get((t, signal))
        if level is not None:
            vec = (*vec[:level], vec[level] ^ 1, *vec[level + 1:])
        flipped.append(vec)
    return flipped


def _run_engine(schedule: Schedule, bits, faults=None, recorded=None):
    """Execute (recorded=None) or replay-and-diff (recorded given).

    Returns (slot_vectors, deliveries, faults_found, stores).  In replay mode
    the recorded vectors drive all node behaviour, so a corrupted level shows
    up exactly where the recording first deviates from the protocol.

    Every payload bit is addressed by its position in ``payload_refs``, the
    one address the builder writes into the records: a known Emit XORs its
    ``refs``, an echo XORs its ``cancel`` off the level it replays, and a
    DecodeStep XORs its ``side`` into the observation and stores the result
    at ``target``.  The records are read by tuple unpacking, so the field
    order of Emit and DecodeStep is load-bearing.  A node's store is one
    list over those positions, None where the node does not know the bit.
    The engine walks the tiling itself (Schedule._walk): a slot that repeats
    its built slot d packets on reads the built records as they are, each
    slot they name moved by dt = 2d and each position by off = d * (refs per
    packet), as ``payload_refs`` run packet by packet.  ``bits`` holds the
    payload by position (_payload_bits), and deliveries name their bit by its
    ref, ``payload_refs[i]``.

    The received vectors are looked up in the schedule's ``channel_maps``
    (see the module docstring) by the slot's transmit vectors.  A run flips
    its faults only in the slots that have one: a transmit flip before the
    lookup, a receive flip after it, so the maps hold only what the geometry
    returns.  A replay compares the slot's four computed transmit vectors
    with the recorded ones in one tuple comparison, and its six received
    ones in another, and looks for the differing signals and levels only on
    a mismatch.  It reads ``recorded`` in place, never copying or writing a
    row, and returns it as its rows: every observation and echo names the
    current slot or an earlier one, so the replay never reads ahead.
    """
    p = schedule.p
    faults = faults or {}
    lengths = _signal_lengths(p)
    for (t, signal), level in faults.items():
        if not (type(t) is int and type(level) is int
                and 1 <= t <= schedule.n_slots and 0 <= level < lengths.get(signal, 0)):
            raise ChannelDomainError(f"fault {(t, signal, level)} is outside the run")
    fault_slots = {t for t, _ in faults} if recorded is None else ()
    refs = schedule.payload_refs
    hop1, hop2 = schedule.channel_maps
    rate = schedule.formula_rate
    per_packet = 2 * rate
    stores = {node: [None] * len(refs) for node in _NODES}
    for lo in range(0, schedule.packets * per_packet, per_packet or 1):
        mid, hi = lo + rate, lo + per_packet          # source 1's bits, then 2's
        stores["S1"][lo:mid] = bits[lo:mid]
        stores["S2"][mid:hi] = bits[mid:hi]
    senders = tuple(stores[_TX_NODE[signal]] for signal in _TX_SIGNALS)
    rows = [] if recorded is None else recorded
    deliveries = []
    found = []

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
                    value, known = _echo_value(emit, rows, dt), cancel
                else:
                    value = 0
                for i in known:
                    value ^= store[i + off]
                levels.append(value)
            tx.append(tuple(levels))
        if recorded is None:
            if t in fault_slots:
                tx = _flip(t, _TX_SIGNALS, tx, faults)
            x_s1, x_s2, x_r1, x_r2 = tx
        else:
            row = recorded[t - 1]
            sent = row["X_S1"], row["X_S2"], row["X_R1"], row["X_R2"]
            if sent != tuple(tx):
                _diff(found, t, _TX_SIGNALS, sent, tx)
            x_s1, x_s2, x_r1, x_r2 = sent
        y_r = hop1.get((x_s1, x_s2))
        if y_r is None:
            y_r = hop1[x_s1, x_s2] = _first_hop(x_s1, x_s2, p, 0)
        y_dr = hop2.get((x_r1, x_r2))
        if y_dr is None:
            y_dr = hop2[x_r1, x_r2] = _second_hop(x_r1, x_r2, p, 0)
        received = (*y_r, *y_dr)
        if recorded is None:
            if t in fault_slots:
                received = _flip(t, _RX_SIGNALS, received, faults)
            y_r1, y_r2, y_d1, y_d2, y_s1, y_s2 = received
            rows.append({"X_S1": x_s1, "X_S2": x_s2, "X_R1": x_r1, "X_R2": x_r2,
                         "Y_R1": y_r1, "Y_R2": y_r2, "Y_D1": y_d1, "Y_D2": y_d2,
                         "Y_S1": y_s1, "Y_S2": y_s2})
        else:
            heard = (row["Y_R1"], row["Y_R2"], row["Y_D1"], row["Y_D2"],
                     row["Y_S1"], row["Y_S2"])
            if heard != received:
                _diff(found, t, _RX_SIGNALS, heard, received)
        for node, obs, side, target, deliver in slot.steps:
            value = 0
            for signal, seen, position in obs:
                value ^= rows[seen + dt - 1][signal][position]
            store = stores[node]
            for i in side:
                value ^= store[i + off]
            target += off
            store[target] = value
            if deliver:
                deliveries.append((t, node, refs[target], value, value == bits[target]))
    return rows, deliveries, found, stores


def run_scheme(scheme: str, p: ChannelParams, packets: int,
               seed: int = DEFAULT_SEED, faults=None) -> SimulationTrace:
    """Run a scheme end to end and return the full per-slot trace.

    ``faults`` maps (slot, signal) -> level to flip after that signal is
    formed; the corruption then propagates through the rest of the run.  A
    slot, signal or level the run does not have, or a slot or level that is
    not an int (bools included), is a ChannelDomainError.
    """
    schedule = build_schedule(scheme, p, packets)
    refs = schedule.payload_refs
    bits = _payload_bits(len(refs), seed)
    slot_rows, deliveries, _, _ = _run_engine(schedule, bits, faults=faults)
    trace = SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=schedule.n_slots,
        slots=slot_rows, payload=dict(zip(refs, bits)), deliveries=deliveries,
        formula_rate=schedule.formula_rate, alloc=schedule.alloc,
        decode_errors=sum(1 for d in deliveries if not d[4]),
    )
    trace._schedule = schedule
    return trace


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

    A trace from run_scheme carries the schedule it was run on; the replay
    uses it when the trace still names the same (scheme, p, packets), and
    the trace gives it up here either way, so it is freed with this call.
    A parsed trace, a changed one or a second verification builds afresh.
    """
    schedule, trace._schedule = trace._schedule, None
    if schedule is None or (schedule.scheme, schedule.p, schedule.packets) != (
            trace.scheme, trace.p, trace.packets):
        schedule = build_schedule(trace.scheme, trace.p, trace.packets)
    bits = _payload_bits(len(schedule.payload_refs), trace.seed)
    if len(trace.slots) != schedule.n_slots:
        raise ChannelDomainError(
            f"trace has {len(trace.slots)} slots, run needs {schedule.n_slots}"
        )
    _, deliveries, found, stores = _run_engine(schedule, bits, recorded=trace.slots)
    errors = [(t, dest, ref) for (t, dest, ref, _, ok) in deliveries if not ok]
    verdicts = dict.fromkeys(range(1, trace.packets + 1), True)
    for _, _, ref, _, ok in deliveries:
        verdicts[ref[1]] &= ok
    missing = len(bits) - len(deliveries)
    per_packet = 2 * schedule.formula_rate
    node_verdicts = {}
    for node in ("R1", "R2", "D1", "D2"):
        values = stores[node]
        for pkt in range(1, trace.packets + 1):
            lo, hi = (pkt - 1) * per_packet, pkt * per_packet
            known = [v == b for v, b in zip(values[lo:hi], bits[lo:hi]) if v is not None]
            if known:
                node_verdicts[(node, pkt)] = all(known)
    return VerifyReport(
        ok=not found and not errors and missing == 0,
        faults=sorted(found),
        payload_errors=errors,
        delivered_bits=len(deliveries),
        missing_bits=missing,
        packet_verdicts=verdicts,
        node_verdicts=node_verdicts,
        measured_sum_rate=Fraction(len(deliveries), schedule.n_slots),
        steady_state_rate=_steady_rate(deliveries, *trace.steady_window),
    )


# ---------------------------------------------------------------------------
# Trace file format: a version line, header comments, then one line per slot,
# each signal a '0'/'1' string top level first ('-' when the vector is empty).

_TRACE_VERSION = "# ofbic-trace v1"
_COLUMNS = "slot " + " ".join(SIGNALS)                # the "# columns:" line
_HOP1_SIGNALS = ("X_S1", "X_S2", "Y_R1", "Y_R2")     # length q; the rest qbar


def _signal_lengths(p: ChannelParams) -> dict:
    return {s: p.q if s in _HOP1_SIGNALS else p.qbar for s in SIGNALS}


_ALLOC_KEYS = ("noncoop", "coop", "private", "per_phase_coop", "superframe")


def _alloc_fields(alloc: BitAllocation) -> dict:
    """The ``# alloc`` header fields of a run as written, by _ALLOC_KEYS;
    none for nofb-mid, which has no allocation."""
    if alloc is None:
        return {}
    return dict(zip(_ALLOC_KEYS, (
        str(alloc.noncoop), str(alloc.coop), str(alloc.private),
        f"{alloc.per_phase_coop[0]},{alloc.per_phase_coop[1]}", str(alloc.superframe))))


def format_trace(trace: SimulationTrace) -> str:
    """The trace file text.  Each distinct vector is written once per call
    by ``_vec_str``, the one writer; rows that repeat it share that text, as
    rows of a run share the received vectors of its channel maps."""
    p = trace.p
    lines = [
        _TRACE_VERSION,
        f"# scheme={trace.scheme} m={p.m} n={p.n} mbar={p.mbar} "
        f"nbar={p.nbar} f={p.f} packets={trace.packets} seed={trace.seed}",
    ]
    alloc = _alloc_fields(trace.alloc)
    if alloc:
        lines.append("# alloc " + " ".join(f"{k}={v}" for k, v in alloc.items()))
    lines.append(f"# formula_rate={trace.formula_rate}")
    lines.append("# columns: " + _COLUMNS)
    texts = {}                        # vector -> field text, for this call only
    for t, row in enumerate(trace.slots, start=1):
        fields = [str(t)]
        for signal in SIGNALS:
            vec = row[signal]
            text = texts.get(vec)
            if text is None:
                text = texts[vec] = _vec_str(vec)
            fields.append(text)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> SimulationTrace:
    """Read a trace written by format_trace; reject anything malformed.

    Errors name the 1-based line they were found on, and a vector error
    names its signal too.  A header that names no run (a negative link
    strength, an unknown scheme, too few packets, a scheme outside its
    regime) raises what run_scheme would, RegimeError included, named by the
    first line holding the header fields involved.  The ``# columns:`` line
    must list ``slot`` and then SIGNALS in order, so vectors are never read
    into the wrong signal.
    Each distinct vector string is parsed once by ``GfVec.from_string``, the
    one reader; rows that repeat it share that ``GfVec``.  A bad string
    raises before it is kept, so its error names the first line it is on.
    Only the recorded vectors are read back: the payload, the allocation and
    the formula rate follow from the scheme and parameters, and a ``# alloc``
    or ``formula_rate`` field that says otherwise is rejected.  A parsed
    trace carries no schedule, so verify_trace builds a fresh one to replay
    the vectors.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != _TRACE_VERSION:
        raise ChannelDomainError(f"line 1: expected {_TRACE_VERSION!r}")
    header = {}                       # key -> (value, line number)
    vectors = {}                      # field text -> GfVec, for this call only
    slots = []
    slot_lines = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens[:1] == ["columns:"]:
                columns = " ".join(tokens[1:])
                if columns != _COLUMNS:
                    raise ChannelDomainError(
                        f"line {lineno}: columns {columns!r}, expected {_COLUMNS!r}"
                    )
                continue
            for token in tokens:
                if "=" in token:
                    key, _, value = token.partition("=")
                    if key in header:
                        raise ChannelDomainError(
                            f"line {lineno}: header key {key!r} repeated "
                            f"(first on line {header[key][1]})"
                        )
                    header[key] = (value, lineno)
            continue
        fields = line.split()
        if len(fields) != 1 + len(SIGNALS):
            raise ChannelDomainError(
                f"line {lineno}: {len(fields)} columns, expected {1 + len(SIGNALS)}"
            )
        if fields[0] != str(len(slots) + 1):
            raise ChannelDomainError(
                f"line {lineno}: slot index {fields[0]!r}, expected {len(slots) + 1}"
            )
        row = {}
        for signal, field_text in zip(SIGNALS, fields[1:]):
            vec = vectors.get(field_text)
            if vec is None:
                try:
                    vec = vectors[field_text] = GfVec.from_string(field_text)
                except ChannelDomainError as exc:
                    raise ChannelDomainError(f"line {lineno}: {signal}: {exc}") from exc
            row[signal] = vec
        slots.append(row)
        slot_lines.append(lineno)

    def field(key, cast=int):
        if key not in header:
            raise ChannelDomainError(f"trace header missing {key!r}")
        value, lineno = header[key]
        try:
            return cast(value)
        except ValueError:
            raise ChannelDomainError(
                f"line {lineno}: header field {key}={value!r} is not an integer"
            ) from None

    def on_line(keys, make, *args):
        """make(*args); a ChannelDomainError it raises, class kept, names the
        first line holding one of the header fields ``keys``."""
        try:
            return make(*args)
        except ChannelDomainError as exc:
            raise type(exc)(f"line {min(header[k][1] for k in keys)}: {exc}") from exc

    params = ("m", "n", "mbar", "nbar", "f")
    p = on_line(params, ChannelParams, *map(field, params))
    scheme, packets, seed = field("scheme", str), field("packets"), field("seed")
    lengths = _signal_lengths(p)
    for lineno, row in zip(slot_lines, slots):
        for signal, vec in row.items():
            if len(vec) != lengths[signal]:
                raise ChannelDomainError(
                    f"line {lineno}: {signal} has length {len(vec)}, "
                    f"expected {lengths[signal]}"
                )
    alloc, formula_rate, payload_refs = on_line(
        ("scheme", "packets", *params), _payload_plan, scheme, p, packets)
    planned = dict.fromkeys(_ALLOC_KEYS)
    planned.update(_alloc_fields(alloc), formula_rate=str(formula_rate))
    for key, want in planned.items():
        if key in header and header[key][0] != want:
            value, lineno = header[key]
            expected = f"{key}={want}" if want else f"no {key} in a {scheme} run"
            raise ChannelDomainError(
                f"line {lineno}: header field {key}={value!r} contradicts the "
                f"run's plan: expected {expected}"
            )
    return SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=len(slots),
        slots=slots, payload=_draw_payload(payload_refs, seed), deliveries=[],
        formula_rate=formula_rate, alloc=alloc,
    )

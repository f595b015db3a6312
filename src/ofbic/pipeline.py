"""Packet-pipelined scheme execution over the bit-exact channel.

The run is split into two layers:

* A *schedule builder* walks the timeline symbolically.  Every transmitted
  level is a set of payload-bit references (an XOR combination), and
  receptions come from ``ofbic.channel``'s one shift-and-superpose geometry,
  the same code the value engine uses, applied to reference sets instead of
  bits.  Decoding is modelled as knowledge-set propagation: a node may learn
  a bit only from a reception in which every other contributing bit is
  already in its knowledge set.  A relay reception with two unknown bits
  waits in a pending set indexed by its unknown refs; learning a bit wakes
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
  steps against the actually received vectors.  verify_trace replays a
  recorded trace through the same engine and reports the first point where
  the recording deviates from what the protocol would have produced.

A build is one _Slot record per slot: what the slot sends, its decode steps
in execution order and its feedback levels.  Every scheme repeats itself
after a short warm-up: one period is two superframes (two or four slots),
and the next period is the same with packet indices raised by a superframe,
which is what _Slot.shifted computes.  So build_schedule builds a run of
more than TILE_PACKETS packets once, at TILE_PACKETS or TILE_PACKETS + 1
packets, finds the period by checking that the builder's live state recurs
and that the next period's records are the shifted ones, and tiles it:
build time and schedule memory do not grow with the packet count.  The
engine walks the tiling over the records directly, so nothing in a run
reads the Schedule's ``tx``, ``steps`` and ``feedback_levels``: they are
read-only views of the records with the keys, values and order of a full
build, built once on first read.  A run whose period check fails is built
in full.

A run builds its schedule once: a trace from run_scheme carries that
schedule until it is verified, and verify_trace releases it, so no trace
holds one afterwards.  A parsed trace is verified against a fresh build.

Timeline (packet i): phase 1 at slot 2i-1 and phase 4 at slot 2i+2 are
hop-1 uses; phases 2 and 3 at slots 2i and 2i+1 are hop-2 uses.  Every slot
carries one hop-1 and one hop-2 transmission; consecutive packets overlap.
A nofb-mid block i uses hop 1 at slots 2i-1 and 2i.  After the last hop-1
slot the relays drain their forwarding queues.
"""

from __future__ import annotations

import heapq
import itertools
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


@dataclass(frozen=True, slots=True)
class Emit:
    """One transmitted level: an XOR of payload bits plus how to produce it.

    mode 'known': the transmitter XORs bit values it already holds.
    mode 'echo': the transmitter replays a previously received level value,
    after cancelling the ``cancel`` bits it knows (received combination
    forwarding).
    """

    refs: frozenset
    mode: str = "known"
    echo_src: tuple = None
    cancel: frozenset = _EMPTY


@dataclass(frozen=True, slots=True)
class DecodeStep:
    node: str
    slot: int
    obs: tuple                  # ((signal, slot, pos), ...)
    side: frozenset             # bits XOR-cancelled out of the observation
    target: tuple
    deliver: bool = False


class _Slot(NamedTuple):
    """One built slot: what it sends, decodes and feeds back."""

    tx: tuple                   # per _TX_SIGNALS: tuple of Emit-or-None
    steps: tuple                # (DecodeStep, ...) in execution order
    feedback: tuple             # per _FEEDBACK_SIGNALS: ((level, coop j), ...), or ()

    def shifted(self, d):
        """This slot moved by ``d`` packets (see the packet shifts below)."""
        if not d:
            return self
        tx = tuple(tuple(e and Emit(_shift_refs(e.refs, d), e.mode,
                                    e.echo_src and _shift_obs(e.echo_src, d),
                                    _shift_refs(e.cancel, d)) for e in emits)
                   for emits in self.tx)
        steps = tuple(DecodeStep(s.node, s.slot + 2 * d,
                                 tuple(_shift_obs(o, d) for o in s.obs),
                                 _shift_refs(s.side, d), _shift_ref(s.target, d),
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
    A full build has tiling ``(0, 0, 0)``.  ``tx``, ``steps`` and
    ``feedback_levels`` are read-only views of those slot records with the
    keys, values and order a full build at ``packets`` would have, filled
    together by one walk on the first read of any of them.  Nothing in a
    run reads them: the engine reads ``built`` and the tiling directly.
    """

    scheme: str
    p: ChannelParams
    packets: int
    alloc: BitAllocation
    n_slots: int
    formula_rate: int
    built: tuple = field(repr=False)
    tiling: tuple = (0, 0, 0)

    def _source(self, t):
        """(built slot, packet shift) that slot ``t`` copies."""
        start, period, shift = self.tiling
        own = start + period
        if t <= own:
            return t, 0
        if t <= own + 2 * shift:
            k, r = divmod(t - start - 1, period)
            return start + 1 + r, k * period // 2
        return t - 2 * shift, shift

    @cached_property
    def payload_refs(self):
        return _payload_refs(self.alloc, self.formula_rate, self.packets)

    def _expand(self):
        """(t, slot record) for every slot of the run, in order."""
        for t in range(1, self.n_slots + 1):
            tt, d = self._source(t)
            yield t, self.built[tt - 1].shifted(d)

    @cached_property
    def _tables(self):
        """tx, steps and feedback_levels, filled in one walk of the run."""
        tx, steps, feedback = {}, {}, {}
        for t, slot in self._expand():
            tx.update(((s, t), emits) for s, emits in zip(_TX_SIGNALS, slot.tx))
            if slot.steps:
                steps[t] = slot.steps
            feedback.update(((s, t), plan)
                            for s, plan in zip(_FEEDBACK_SIGNALS, slot.feedback))
        return MappingProxyType(tx), MappingProxyType(steps), MappingProxyType(feedback)

    tx = property(lambda self: self._tables[0])
    steps = property(lambda self: self._tables[1])
    feedback_levels = property(lambda self: self._tables[2])

    @cached_property
    def deliveries(self):
        """(slot, dest, ref) of every delivering decode step, in order."""
        return tuple((step.slot, step.node, step.target)
                     for steps in self.steps.values() for step in steps
                     if step.deliver)


# -- packet shifts of built values ---------------------------------------------
# Shifting by d packets adds d to every ref's packet index and 2d to every
# slot an observation or echo names.  _Slot.shifted (behind the expanded
# tables, _tile's period check) and _Builder._state all move values this way.

def _shift_ref(ref, d):
    return (ref[0], ref[1] + d, ref[2], ref[3]) if d else ref


def _shift_refs(refs, d):
    return frozenset(_shift_ref(r, d) for r in refs) if d and refs else refs


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
    return tuple(
        (src, pkt, kind, j)
        for pkt in range(1, packets + 1)
        for src in (1, 2)
        for kind, count in kinds
        for j in range(count)
    )


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
        self.know = {node: set() for node in _NODES}
        self.refs_by_packet = {}
        # one immutable Emit per payload bit, shared by every level that
        # carries that bit alone (hop-1 emission and relay forwarding)
        self.unit = {}
        for ref in self.payload_refs:
            self.know[f"S{ref[0]}"].add(ref)
            self.refs_by_packet.setdefault((ref[0], ref[1]), []).append(ref)
            self.unit[ref] = Emit(frozenset((ref,)))
        self.fifo = {"R1": deque(), "R2": deque()}
        # relay receptions with two unknown bits: insertion number ->
        # (obs, refs), and each unknown ref -> the insertion numbers waiting
        # on it, ascending
        self.pending = {"R1": {}, "R2": {}}
        self.waiting = {"R1": {}, "R2": {}}
        self.arrivals = itertools.count()
        self.echo = {"S1": {}, "S2": {}}
        self.residual_store = {}
        self.built = []                # one _Slot per slot
        self.slot_steps = []           # this slot's decode steps so far
        self.delivered = {}
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
        if len(side) <= 1:                   # share the one-ref or empty set
            side = self.unit[next(iter(side))].refs if side else _EMPTY
        if not side <= self.know[node]:
            raise PipelineError(f"{node} lacks side info for {target} at slot {slot}")
        if target in self.know[node]:
            raise PipelineError(f"{node} relearns {target} at slot {slot}")
        self.know[node].add(target)
        self.slot_steps.append(DecodeStep(node, slot, obs, side, target))
        if node in ("R1", "R2"):
            own = 1 if node == "R1" else 2
            if target[0] == own and not (
                self.scheme == SCHEME_FBXW and target[2] == "cp"
            ):
                self.fifo[node].append((target, slot))

    def _drain_pending(self, node, slot, learned):
        """Resolve the pending receptions that ``learned`` unlocks, and the
        ones those unlock in turn, earliest arrival first.

        A pending entry has two unknown refs when it arrives, so it becomes
        resolvable exactly when one of them is learned: only the entries
        indexed under a learned ref are woken, never the whole pending set.
        """
        pending, waiting, know = self.pending[node], self.waiting[node], self.know[node]
        ready = waiting.pop(learned, [])     # ascending, so already a heap
        while ready:
            entry = pending.pop(heapq.heappop(ready), None)
            if entry is None:
                continue                     # resolved through its other ref
            obs, refs = entry
            unknown = refs - know
            if unknown:                      # else both refs known: nothing new
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
                for ref in unknown:
                    self.waiting[node].setdefault(ref, []).append(arrival)
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
        if t % 2 == 1 and (t + 1) // 2 <= self.packets:
            pkt = (t + 1) // 2
            for src in (1, 2):
                for level, (band, j) in self.lmap1.items():
                    emits[src][level] = self.unit[(src, pkt, kind1[band], j)]
        if t % 2 == 0 and 1 <= t // 2 - 1 <= self.packets:
            pkt = t // 2 - 1
            for src in (1, 2):
                node, other = f"S{src}", 3 - src
                for level, (band, j) in self.lmap4.items():
                    if band == "coop_relay":
                        emits[src][level] = self._coop_relay_emit(node, other, pkt, j, t)
                    else:
                        emits[src][level] = self.unit[(src, pkt, kind4[band], j)]
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
            emits[src] = [Emit(frozenset((src, blk, "mb", k) for k in bits))
                          if bits else None for bits in column_levels(cols, base, q)]
        return emits

    def _coop_relay_emit(self, node, other, pkt, j, t):
        if self.scheme in (SCHEME_FBXW, SCHEME_RSW):
            ref = (other, pkt, "cp", j)
            if ref not in self.know[node]:
                raise PipelineError(f"{node} has not learned {ref} by slot {t}")
            return self.unit[ref]
        items = self.echo[node].get(pkt, [])
        if len(items) != self.alloc.coop:
            raise PipelineError(f"{node} captured {len(items)} echoes for packet {pkt}")
        obs, refs, cancel = items[j]
        return Emit(refs, mode="echo", echo_src=obs, cancel=cancel)

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
                    ref, _ = self.fifo[relay].popleft()
                    emits[relay][level] = self.unit[ref]
        return emits, phase, pkt

    def _feedback_emit(self, relay, own, pkt, j):
        if self.scheme == SCHEME_FBXW:
            ref = (own, pkt, "cp", j)
            if ref not in self.know[relay]:
                raise PipelineError(f"{relay} misses own coop bit {ref}")
            return self.unit[ref]
        if self.scheme == SCHEME_RSW:
            residuals = self.residual_store.get((relay, pkt), ())
            obs, refs = residuals[j]
            return Emit(refs, mode="echo", echo_src=obs)
        ref = (3 - own, pkt, "cp", j)
        if ref not in self.know[relay]:
            raise PipelineError(f"{relay} misses cross coop bit {ref}")
        return self.unit[ref]

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
                target = (relay_idx + 1, done, "mb", k)
                self._learn(relay, t, obs, self.unit[target].refs, target)

    def _process_dest(self, t, y_d):
        for dst, node, signal, sym_vec in ((1, "D1", "Y_D1", y_d[0]),
                                           (2, "D2", "Y_D2", y_d[1])):
            for position, refs in enumerate(sym_vec):
                if len(refs) != 1:
                    continue
                ref = next(iter(refs))
                if ref[0] != dst:
                    continue
                if ref in self.delivered:
                    raise PipelineError(f"{ref} delivered twice")
                self.delivered[ref] = t
                self.slot_steps.append(DecodeStep(
                    node, t, ((signal, t, position),), _EMPTY, ref, deliver=True))

    # -- period detection ------------------------------------------------------

    def _state(self, t):
        """Everything that decides the build after slot ``t``, moved by
        d = -(t // 2) packets: packets count from ``t // 2`` and slots from
        ``2 * (t // 2)``.  The period is even, so the two states _watch_period
        compares are offset by the same ``t % 2``: the period found is the one
        found with slots counted from ``t``.

        That is the relay FIFOs with their enqueue slots, the pending relay
        decodes and their waiting index (arrivals as ranks), the rss echo and
        rsw residual stores of packets not yet past their use, and what each
        node knows or has delivered of the packets from the oldest one any of
        these names up to the newest one sent.  No later slot reads anything
        older, and of newer packets only the sources' own bits are known.
        """
        base = t // 2
        d = -base
        fifo = tuple(tuple((_shift_ref(r, d), slot + 2 * d)
                           for r, slot in self.fifo[relay])
                     for relay in ("R1", "R2"))
        pending = []
        for relay in ("R1", "R2"):
            rank = {arrival: i for i, arrival in enumerate(self.pending[relay])}
            pending.append((
                tuple((_shift_obs(o, d), _shift_refs(rs, d))
                      for o, rs in self.pending[relay].values()),
                {_shift_ref(r, d): tuple(rank.get(a, -1) for a in arrivals)
                 for r, arrivals in self.waiting[relay].items()},
            ))
        echo = {(node, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rest, d),
                                        _shift_refs(known, d))
                                       for o, rest, known in items)
                for node, by_packet in self.echo.items()
                for pkt, items in by_packet.items() if pkt >= base}
        residual = {(relay, pkt + d): tuple((_shift_obs(o, d), _shift_refs(rs, d))
                                            for o, rs in items)
                    for (relay, pkt), items in self.residual_store.items()
                    if pkt >= base}
        named = [r for queue in fifo for r, _ in queue]
        named += [r for entries, _ in pending for _, rs in entries for r in rs]
        named += [r for items in echo.values() for item in items
                  for rs in item[1:] for r in rs]
        named += [r for items in residual.values() for _, rs in items for r in rs]
        oldest = min([0] + [r[1] for r in named])
        window = [r for pkt in range(base + oldest, (t + 1) // 2 + 1)
                  for src in (1, 2) for r in self.refs_by_packet.get((src, pkt), ())]
        know = tuple(frozenset(_shift_ref(r, d) for r in window if r in self.know[node])
                     for node in _NODES)
        delivered = frozenset(_shift_ref(r, d) for r in window if r in self.delivered)
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
                    missing = [r for r in self.refs_by_packet.get((src, done), ())
                               if r not in self.know[relay]]
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
    if len(two) < period or any(a.shifted(period // 2) != b for a, b in zip(one, two)):
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


def _draw_payload(payload_refs, seed: int) -> dict:
    rng = random.Random(seed)
    return {ref: rng.getrandbits(1) for ref in payload_refs}


def generate_payload(schedule: Schedule, seed: int) -> dict:
    return _draw_payload(schedule.payload_refs, seed)


def _emit_value(emit, node_store, rows, moved):
    """One sent bit: the XOR of known bits, or a received level replayed with
    its cancel bits removed.  ``moved = (dt, off, index, refs)`` carries the
    level to a slot that repeats its built slot (see _run_engine)."""
    if emit is None:
        return 0
    dt, off, index, refs = moved
    value = 0
    bits = emit.refs
    if emit.mode == "echo":
        signal, slot, position = emit.echo_src
        value = rows[slot + dt - 1][signal][position]
        bits = emit.cancel
    for ref in bits:
        value ^= node_store[refs[index[ref] + off] if off else ref]
    return value


def _run_engine(schedule: Schedule, payload: dict, faults=None, recorded=None):
    """Execute (recorded=None) or replay-and-diff (recorded given).

    Returns (slot_vectors, deliveries, faults_found, stores).  In replay mode
    the recorded vectors drive all node behaviour, so a corrupted level shows
    up exactly where the recording first deviates from the protocol.

    The engine walks the tiling itself.  A slot that repeats its built slot
    d packets on reads the built Emits and DecodeSteps as they are: each
    slot they name moves by dt = 2d, and each payload ref by off = d * (refs
    per packet) places in ``payload_refs``, which are packet by packet.
    """
    p = schedule.p
    faults = faults or {}
    lengths = _signal_lengths(p)
    for (t, signal), level in faults.items():
        if not (1 <= t <= schedule.n_slots and 0 <= level < lengths.get(signal, 0)):
            raise ChannelDomainError(f"fault {(t, signal, level)} is outside the run")
    built, refs = schedule.built, schedule.payload_refs
    per_packet = len(refs) // schedule.packets
    index = None
    if schedule.tiling[2]:
        index = {ref: i for i, ref in enumerate(
            refs[:per_packet * (schedule.packets - schedule.tiling[2])])}
    store = {node: {} for node in _NODES}
    for ref, bit in payload.items():
        store[f"S{ref[0]}"][ref] = bit
    slot_rows = []
    deliveries = []
    found = []

    def settle(signal, t, computed):
        if (t, signal) in faults and recorded is None:
            level = faults[(t, signal)]
            computed = (*computed[:level], computed[level] ^ 1, *computed[level + 1:])
        if recorded is None:
            return computed
        actual = recorded[t - 1][signal]
        if len(actual) != len(computed):
            raise ChannelDomainError(
                f"recorded {signal} at slot {t} has length {len(actual)}"
            )
        if actual != computed:
            level = next(i for i, (a, b) in enumerate(zip(actual, computed))
                         if a != b)
            found.append((t, signal, level))
        return actual

    for t in range(1, schedule.n_slots + 1):
        built_slot, d = schedule._source(t)
        slot = built[built_slot - 1]
        dt, off = 2 * d, d * per_packet
        moved = (dt, off, index, refs)
        row = {}
        for signal, emits in zip(_TX_SIGNALS, slot.tx):
            node_store = store[_TX_NODE[signal]]
            bits = tuple(_emit_value(e, node_store, slot_rows, moved) for e in emits)
            row[signal] = settle(signal, t, bits)
        received = zip(("Y_R1", "Y_R2", "Y_D1", "Y_D2", "Y_S1", "Y_S2"),
                       (*_first_hop(row["X_S1"], row["X_S2"], p, 0),
                        *_second_hop(row["X_R1"], row["X_R2"], p, 0)))
        for signal, vec in received:
            row[signal] = settle(signal, t, vec)
        slot_rows.append(row)
        for step in slot.steps:
            value = 0
            for signal, seen, position in step.obs:
                value ^= slot_rows[seen + dt - 1][signal][position]
            node_store = store[step.node]
            for ref in step.side:
                value ^= node_store[refs[index[ref] + off] if off else ref]
            target = refs[index[step.target] + off] if off else step.target
            node_store[target] = value
            if step.deliver:
                ok = value == payload[target]
                deliveries.append((t, step.node, target, value, ok))
    return slot_rows, deliveries, found, store


def run_scheme(scheme: str, p: ChannelParams, packets: int,
               seed: int = DEFAULT_SEED, faults=None) -> SimulationTrace:
    """Run a scheme end to end and return the full per-slot trace.

    ``faults`` maps (slot, signal) -> level to flip after that signal is
    formed; the corruption then propagates through the rest of the run.  A
    slot, signal or level the run does not have is a ChannelDomainError.
    """
    schedule = build_schedule(scheme, p, packets)
    payload = generate_payload(schedule, seed)
    slot_rows, deliveries, _, _ = _run_engine(schedule, payload, faults=faults)
    trace = SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=schedule.n_slots,
        slots=slot_rows, payload=payload, deliveries=deliveries,
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
    payload = generate_payload(schedule, trace.seed)
    if len(trace.slots) != schedule.n_slots:
        raise ChannelDomainError(
            f"trace has {len(trace.slots)} slots, run needs {schedule.n_slots}"
        )
    _, deliveries, found, stores = _run_engine(schedule, payload,
                                               recorded=trace.slots)
    errors = [(t, dest, ref) for (t, dest, ref, _, ok) in deliveries if not ok]
    verdicts = dict.fromkeys(range(1, trace.packets + 1), True)
    for _, _, ref, _, ok in deliveries:
        verdicts[ref[1]] &= ok
    missing = len(schedule.payload_refs) - len(deliveries)
    node_verdicts = {}
    for node in ("R1", "R2", "D1", "D2"):
        for ref, value in stores[node].items():
            key = (node, ref[1])
            node_verdicts[key] = (node_verdicts.get(key, True)
                                  and value == payload[ref])
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
_HOP1_SIGNALS = ("X_S1", "X_S2", "Y_R1", "Y_R2")     # length q; the rest qbar


def _signal_lengths(p: ChannelParams) -> dict:
    return {s: p.q if s in _HOP1_SIGNALS else p.qbar for s in SIGNALS}


def format_trace(trace: SimulationTrace) -> str:
    p = trace.p
    lines = [
        _TRACE_VERSION,
        f"# scheme={trace.scheme} m={p.m} n={p.n} mbar={p.mbar} "
        f"nbar={p.nbar} f={p.f} packets={trace.packets} seed={trace.seed}",
    ]
    if trace.alloc is not None:
        a = trace.alloc
        lines.append(
            f"# alloc noncoop={a.noncoop} coop={a.coop} private={a.private} "
            f"per_phase_coop={a.per_phase_coop[0]},{a.per_phase_coop[1]} "
            f"superframe={a.superframe}"
        )
    lines.append(f"# formula_rate={trace.formula_rate}")
    lines.append("# columns: slot " + " ".join(SIGNALS))
    for t, row in enumerate(trace.slots, start=1):
        lines.append(f"{t} " + " ".join(_vec_str(row[s]) for s in SIGNALS))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> SimulationTrace:
    """Read a trace written by format_trace; reject anything malformed.

    Errors name the 1-based line they were found on.  Only the recorded
    vectors are read back: the payload and the formula rate follow from the
    header.  A parsed trace carries no schedule, so verify_trace builds a
    fresh one to replay the vectors.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != _TRACE_VERSION:
        raise ChannelDomainError(f"line 1: expected {_TRACE_VERSION!r}")
    header = {}                       # key -> (value, line number)
    slots = []
    slot_lines = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
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
        try:
            slots.append({s: GfVec.from_string(v) for s, v in zip(SIGNALS, fields[1:])})
        except ChannelDomainError as exc:
            raise ChannelDomainError(f"line {lineno}: {exc}") from exc
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

    p = ChannelParams(field("m"), field("n"), field("mbar"), field("nbar"), field("f"))
    scheme, packets, seed = field("scheme", str), field("packets"), field("seed")
    lengths = _signal_lengths(p)
    for lineno, row in zip(slot_lines, slots):
        for signal, vec in row.items():
            if len(vec) != lengths[signal]:
                raise ChannelDomainError(
                    f"line {lineno}: {signal} has length {len(vec)}, "
                    f"expected {lengths[signal]}"
                )
    alloc, formula_rate, payload_refs = _payload_plan(scheme, p, packets)
    return SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=len(slots),
        slots=slots, payload=_draw_payload(payload_refs, seed), deliveries=[],
        formula_rate=formula_rate, alloc=alloc,
    )

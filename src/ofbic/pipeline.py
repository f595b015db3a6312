"""Packet-pipelined scheme execution over the bit-exact channel.

A scheme's schedule (ofbic.schedule) is evaluated on one of two paths:

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
  too.  A run applies its faults only in the slots that have one.

A run builds its schedule, draws its payload and evaluates its clean run
once: a trace (ofbic.trace) from run_scheme carries all three to the one
verify_trace that follows, which compares the clean run's ten columns with
the recording; with none carried, the clean run is made on lanes.  A
recording that differs is replayed by the sequential engine, which reports
the first point where it deviates from what the protocol would have
produced.  The engine's channel map memo (Schedule.channel_maps) is keyed
by the vectors a slot actually sent, so it cannot change a result.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .channel import (
    ChannelDomainError,
    ChannelParams,
    _LEVEL_TEXT,
    _TEXT_LEVEL,
    _first_hop,
    _second_hop,
)
from .schedule import (
    SIGNALS,
    PipelineError,
    Schedule,
    _HOP1_SIGNALS,
    _HOP2_SIGNALS,
    _NODES,
    _RX_SIGNALS,
    _TX_NODE,
    _TX_SIGNALS,
    _VERDICT_NODES,
    _signal_lengths,
    build_schedule,
)
from .trace import SimulationTrace, _check_seed, _header, _payload_bits
from .trace import format_trace, generate_payload, parse_trace  # bench/run.py reads them here

DEFAULT_SEED = 1009


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
    a decoder writes, is the same for every replay of the schedule: the
    counts it made when made (Schedule.counts), their ranges expanded."""
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

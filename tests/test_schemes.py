"""End-to-end scheme runs: exact rates, replay, fault injection, structure."""

import copy
import functools
import hashlib
import itertools
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofbic import (
    ChannelDomainError,
    ChannelParams,
    GfVec,
    RegimeError,
    Schedule,
    build_schedule,
    format_trace,
    parse_trace,
    run_scheme,
    verify_trace,
)
from ofbic import pipeline
from ofbic.channel import _LEVEL_TEXT, _TEXT_LEVEL, _first_hop, _second_hop
from ofbic.pipeline import (
    DEFAULT_SEED,
    SIGNALS,
    WARMUP_PACKETS,
    DecodeStep,
    Emit,
    PipelineError,
    _FEEDBACK_SIGNALS,
    _TX_SIGNALS,
    _Builder,
    _payload_bits,
    _run_engine,
    _run_lanes,
    generate_payload,
)
from ofbic.rates import schemes_at

WORKED = [
    ("fbxw", ChannelParams(2, 4, 1, 1, 3), 6),
    ("rsw", ChannelParams(2, 4, 0, 1, 3), 5),
    ("rss", ChannelParams(4, 1, 1, 1, 2), 3),
    ("rsw", ChannelParams(2, 4, 0, 4, 3), 6),
    ("rss", ChannelParams(4, 1, 1, 3, 2), 4),
    ("nofb-mid", ChannelParams(3, 3, 0, 0, 10), 3),
    ("nofb-mid", ChannelParams(2, 3, 0, 0, 1), 2),
]


@pytest.mark.parametrize("scheme,p,rate", WORKED)
def test_worked_examples_exact(scheme, p, rate):
    trace = run_scheme(scheme, p, 12)
    assert trace.steady_state_rate == rate
    assert trace.decode_errors == 0
    assert trace.n_slots <= 2 * 12 + 4
    assert verify_trace(trace).ok


def test_all_payload_delivered():
    trace = run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 10)
    assert trace.delivered_bits == 2 * 6 * 10
    report = verify_trace(trace)
    assert report.missing_bits == 0
    assert all(report.packet_verdicts.values())
    # per-decoder verdicts cover both relays and both destinations
    nodes = {node for node, _ in report.node_verdicts}
    assert nodes == {"R1", "R2", "D1", "D2"}
    assert all(report.node_verdicts.values())


def test_node_verdicts_localize_corrupt_decoder():
    trace = run_scheme("rsw", ChannelParams(2, 4, 0, 1, 3), 10,
                       faults={(11, "Y_R1"): 0})
    report = verify_trace(trace)
    assert not report.ok
    assert not all(ok for (node, _), ok in report.node_verdicts.items()
                   if node == "R1")
    assert all(ok for (node, _), ok in report.node_verdicts.items()
               if node == "R2")


def test_determinism():
    p = ChannelParams(4, 1, 1, 3, 2)
    a = run_scheme("rss", p, 9, seed=42)
    b = run_scheme("rss", p, 9, seed=42)
    assert a.slots == b.slots and a.payload == b.payload
    c = run_scheme("rss", p, 9, seed=43)
    assert c.slots != a.slots


def test_per_window_delivery_is_constant_after_warmup():
    for scheme, p, rate in WORKED:
        trace = run_scheme(scheme, p, 10)
        schedule = trace._run[0]
        _assert_counts_are_delivering_steps(trace, schedule)
        assert trace.decode_errors == 0
        per_window = {}
        for slot, _, _ in _deliveries(schedule):
            per_window[slot // 2] = per_window.get(slot // 2, 0) + 1
        for w in range(WARMUP_PACKETS + 1, trace.packets + 1):
            got = per_window.get(w, 0)
            assert got == 2 * rate, (scheme, p.short(), w, got)


def test_trace_roundtrip_and_verify():
    p = ChannelParams(2, 4, 0, 4, 3)
    trace = run_scheme("rsw", p, 8)
    text = format_trace(trace)
    parsed = parse_trace(text)
    assert parsed.n_slots == trace.n_slots
    assert parsed.slots == trace.slots
    report = verify_trace(parsed)
    assert report.ok
    # a parsed trace carries no delivery log; the replay reconstructs rates
    assert report.steady_state_rate == 6
    assert report.measured_sum_rate == trace.measured_sum_rate


FROZEN_TRACE = """\
# ofbic-trace v1
# scheme=rss m=4 n=1 mbar=1 nbar=1 f=2 packets=4 seed=1009
# alloc noncoop=1 coop=1 private=0 per_phase_coop=1,0 superframe=2
# formula_rate=3
# columns: slot X_S1 X_S2 Y_R1 Y_R2 X_R1 X_R2 Y_D1 Y_D2 Y_S1 Y_S2
1 0000 1000 1000 0001 00 00 00 00 00 00
2 0000 0000 0000 0000 00 01 00 01 00 00
3 1000 1100 1101 1001 00 00 00 00 00 00
4 0000 1000 1000 0001 11 01 11 01 01 01
5 1100 1100 1101 1101 00 01 00 01 00 00
6 1100 0000 0001 1100 11 11 11 11 00 00
7 0000 0000 0000 0000 01 10 01 10 01 01
8 1100 0100 0101 1100 00 00 00 00 00 00
9 0000 0000 0000 0000 11 10 11 10 00 00
10 0000 0000 0000 0000 00 00 00 00 00 00
11 0000 0000 0000 0000 00 00 00 00 00 00
"""


def test_trace_format_frozen_golden():
    # diff-based regression anchor for the documented export format
    trace = run_scheme("rss", ChannelParams(4, 1, 1, 1, 2), 4)
    assert format_trace(trace) == FROZEN_TRACE


# (scheme, point, packets) -> number of decode steps in the schedule and
# SHA-256 of the formatted trace: the five worked examples, the nofb-mid points
# (3,4,1,1,3 is the case where a source overhears the other user's relay), and
# short, medium and long runs.
FROZEN_DIGESTS = [
    ("fbxw", (2, 4, 1, 1, 3), 4, 134,
     "e4f22881586b4d11813227b04982be1d47dc0b0c9a4b1d764011ba7d9b2af530"),
    ("fbxw", (2, 4, 1, 1, 3), 8, 262,
     "e44cc6e9dadc92ba18ef2c154aece6c4aaa4a05e2c362946c045e830b4c626d9"),
    ("fbxw", (2, 4, 1, 1, 3), 30, 966,
     "06e401a482d059bd9147693ea212a8f4a393dd32f0d67a42f0abf9f543c1bbaa"),
    ("rsw", (2, 4, 0, 1, 3), 4, 96,
     "5ea18c977e3e2f864d990298e9d62f588b165299bc5053a0d34d3a0a52ee38ca"),
    ("rsw", (2, 4, 0, 1, 3), 8, 192,
     "ac8c22702a08d4e4950ea0b563564063c897cdbbfc54546c6a76285ba630b654"),
    ("rsw", (2, 4, 0, 1, 3), 30, 720,
     "9bceb0cf748f7b7ba79775ec1031531532c9162620e6ca70bfa649a37c48981e"),
    ("rss", (4, 1, 1, 1, 2), 4, 80,
     "6effbb52185c136e19cd0383e471a1df2f025ecdc21e5fddb73361f748794c8f"),
    ("rss", (4, 1, 1, 1, 2), 8, 160,
     "69405ffb6e377dfa2837ff28a46134acb4ef915eb2042c5ad004f56ff9108116"),
    ("rss", (4, 1, 1, 1, 2), 30, 600,
     "ef15c07666e09ff9dabfc7bd36bc175b4bfe539e4f0464f3a0491e6ce2839724"),
    ("rsw", (2, 4, 0, 4, 3), 4, 128,
     "008a14ce119b951b6a5602c12e86003960ff83e9391919429ae44b0b0a7bf135"),
    ("rsw", (2, 4, 0, 4, 3), 8, 256,
     "eb27d51d6542a3ed234a8eb9c119b93e00c78e5ea78b07ddd7af850a8b74c531"),
    ("rsw", (2, 4, 0, 4, 3), 30, 960,
     "dba4f55cda00747aeefc1156a9310bfb01daf6d1af9ea83ae4ba21fd1a554cae"),
    ("rss", (4, 1, 1, 3, 2), 4, 104,
     "f36f8b8e7fd22cb1344254455e17f6bda7e268975670593d1a5409f65c051ca0"),
    ("rss", (4, 1, 1, 3, 2), 8, 200,
     "29684eb1348159e7c2cb430f89ce115aa764b0a28f9f22fc7a4d5227f622f942"),
    ("rss", (4, 1, 1, 3, 2), 30, 728,
     "b06f20b7601f4e531ad87c207187d87e1f4b299a9501ff55f94eaed043d594ad"),
    ("nofb-mid", (3, 3, 0, 0, 10), 4, 48,
     "27d07a516b55b8d1aa318546e3386a7c02fdb0689ff0cfab2b4abef4979aa32a"),
    ("nofb-mid", (3, 3, 0, 0, 10), 8, 96,
     "7b7ca57cc4baa4208603aa7fe5399e712d2d324de93ca518454dc9de95361423"),
    ("nofb-mid", (3, 3, 0, 0, 10), 30, 360,
     "c3d2a1d99e909fc72fed75a6a576a741740fbd3b10b790b996c6991fb29aa6f3"),
    ("nofb-mid", (2, 3, 0, 0, 1), 4, 32,
     "16f6dc83095727158109207a1243c604fd94a4ab57f813c212f07886960a33da"),
    ("nofb-mid", (2, 3, 0, 0, 1), 8, 64,
     "32dc4e4098b14b71c348decc9f7695e522036a81b6713c579b2a8c4698aaf870"),
    ("nofb-mid", (2, 3, 0, 0, 1), 30, 240,
     "91129df2a0b646dd923268f30d11dbc92d089d347e29b5c47d56db7097f14c24"),
    ("nofb-mid", (3, 4, 0, 0, 8), 4, 80,
     "19b9d20e6145080e71d64a2e30cf2edae82b68d663fe5cce691b804ab7ce3df3"),
    ("nofb-mid", (3, 4, 0, 0, 8), 8, 160,
     "8509d834620b5fd605b16bcc2406da0634d9339dc79a01369adb8d08c82b6201"),
    ("nofb-mid", (3, 4, 0, 0, 8), 30, 600,
     "376ba638e59de6dc16132bba633495cd88e5160bcf5edc8a30279b5aa17ef427"),
    ("nofb-mid", (3, 4, 1, 1, 3), 4, 80,
     "5cf0e15597cbd8a370685d34e34eaaed0b22fa359ea57864a014dc2118db71ff"),
    ("nofb-mid", (3, 4, 1, 1, 3), 8, 160,
     "6f7ad669fc8b1895591838f50b5a232df1b8a0bc3f466fb16f919765dd5184dd"),
    ("nofb-mid", (3, 4, 1, 1, 3), 30, 600,
     "4c6f0bda43533fcf7b91adec42b1c2f55061c851fc1ff5ed5561e4694450d8f5"),
    # the default-seed 300-packet traces `ofbic simulate` writes: four small
    # points and the wide point of the simulate-wide benchmark
    ("fbxw", (2, 4, 1, 1, 3), 300, 9606,
     "5813f9915dd1955f64478da2052d611574c6145c82a1efecd8ed2d54c6e5b6f2"),
    ("nofb-mid", (3, 4, 0, 0, 8), 300, 6000,
     "6a1ce18d4442343ff4c6e6903ded0bf43f5c1d2a19befeb1ddcb000922c5583f"),
    ("rss", (4, 1, 1, 3, 2), 300, 7208,
     "25dd2bb498f4674d242c234f07bf3caeb69e67d59c6ed1206b5164265c2d145a"),
    ("rsw", (2, 4, 0, 4, 3), 300, 9600,
     "4cfc56624a3b3da71626c8e1a59846669a5a960003af32072646f35d672ff3e5"),
    ("fbxw", (16, 32, 8, 8, 24), 300, 76848,
     "82778e88a356340f29b4226df40eb92a6a9b41d17d87e7a66de8023ad4a2c521"),
]


@functools.lru_cache(maxsize=None)
def _run_text(scheme, point, packets):
    """The trace text of the default-seed run, as `ofbic simulate` writes it."""
    return format_trace(run_scheme(scheme, ChannelParams(*point), packets))


@pytest.mark.parametrize("scheme,point,packets,steps,digest", FROZEN_DIGESTS)
def test_trace_digest_golden(scheme, point, packets, steps, digest):
    text = _run_text(scheme, point, packets)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    schedule = build_schedule(scheme, ChannelParams(*point), packets)
    assert sum(len(slot.steps) for _, slot in schedule.slots()) == steps


# (scheme, point, packets) -> SHA-256 of a canonical rendering of the whole
# Schedule: the trace digests above cannot see the order of decode steps
# inside a slot, and this pins it, with every tx level, delivery and feedback
# level.  Ref sets are rendered sorted, so only the order the protocol fixes
# counts.
FROZEN_SCHEDULE_DIGESTS = {
    ("fbxw", (2, 4, 1, 1, 3), 4):
        "7500b8a6d2f674085e3b952aa1001de0c608e08458c3c42be1d8d3711955cd30",
    ("fbxw", (2, 4, 1, 1, 3), 8):
        "b21ccff78224600ea50b1a2641c2ffb89f9d0749d57b5071f1d7c35f8f3b599a",
    ("fbxw", (2, 4, 1, 1, 3), 30):
        "e4065401e08fa8c5dee6f09ab4ee36faf17be781ad12e778e13bf48eca73dd34",
    ("rsw", (2, 4, 0, 1, 3), 4):
        "b0b9d4ad875deb6814a89e5a90c0121db50561f9acfc1eadf566e399382541f4",
    ("rsw", (2, 4, 0, 1, 3), 8):
        "d0e26064b1ce06a9c61e7f3784af87dfc45b579cbf90252819c364572a5dd4f6",
    ("rsw", (2, 4, 0, 1, 3), 30):
        "1c7e246f86a082662ab97e059d3b7aafcaa8350fed872b7d21bc5f2f64a7a9e2",
    ("rss", (4, 1, 1, 1, 2), 4):
        "230015866630a65baf0ba8bd1ca256aaa5315452e366521295477941eb0fb7d4",
    ("rss", (4, 1, 1, 1, 2), 8):
        "204c39a6b4a516c3dba893573154c0ec597deb1b54b567c9a3d2a0c5f83e63cb",
    ("rss", (4, 1, 1, 1, 2), 30):
        "add285abdcbc51b8210531c4b6fc1c30f6aaae1ce6637dfba1d7ffae3d3a38ac",
    ("rsw", (2, 4, 0, 4, 3), 4):
        "1e2124125588fc15e1c2c01231c1fc11cb511e083d0a4e8fdf10ddd07e4349b0",
    ("rsw", (2, 4, 0, 4, 3), 8):
        "099239edbb97e1c0bdc9f4e8b51f8605faf2a82fdbf9f2cdb2f225514eb5a24f",
    ("rsw", (2, 4, 0, 4, 3), 30):
        "251c13089d94d041b9d7b8a6871d189d29b93e16f0acac17ae9ea89b226f0ece",
    ("rss", (4, 1, 1, 3, 2), 4):
        "ec08bfce3a9494e2f9ae95fa47892a4dcdd0225b52b81290a0ec92db1331c58e",
    ("rss", (4, 1, 1, 3, 2), 8):
        "caf886392994786f407abf9561d7ed948dfc6a513f3454a3a21735332b4a1c71",
    ("rss", (4, 1, 1, 3, 2), 30):
        "c58336e4f8f27a9980056172a590584c049522b94988c8975cbf05065a1ad7c4",
    ("nofb-mid", (3, 3, 0, 0, 10), 4):
        "02c289355ce09da8486ff15c8a02c62d1ce5612ce38c9a4095b1208c5bc04f08",
    ("nofb-mid", (3, 3, 0, 0, 10), 8):
        "846e0b9d85f39b1f5685390b9aa0681d4be3e2bed1eed8c7ad7bb3e0ac958c70",
    ("nofb-mid", (3, 3, 0, 0, 10), 30):
        "a8e2a67eb4e48cccf808761ccd919574dc20492462a20dcf780e596dfaca58fb",
    ("nofb-mid", (2, 3, 0, 0, 1), 4):
        "e1047b36dd8a0b70116c4e8ef22c9229b3479fef0b82b557d51c96f3ebc06e94",
    ("nofb-mid", (2, 3, 0, 0, 1), 8):
        "4c1d45c0ddafe8a05079471a9f145215179f053582be0f59cea92df586508304",
    ("nofb-mid", (2, 3, 0, 0, 1), 30):
        "6f8637df460d96cdbe8b36c94ba086f42d82fc97cc724f3e11190abc739c39aa",
    ("nofb-mid", (3, 4, 0, 0, 8), 4):
        "b9b6493bd4d972a5bb8fc049400f9dfefc1162582655c7d978324c8bfc46899e",
    ("nofb-mid", (3, 4, 0, 0, 8), 8):
        "e0313e3a731bfee5c55ab03f6898cc6aff39a0b65d125334ef0cee317fc86bee",
    ("nofb-mid", (3, 4, 0, 0, 8), 30):
        "453923d9770e844587c8be98e0baaf6d5d5bc84ea9b3714f6c0a870d20ec5236",
    ("nofb-mid", (3, 4, 1, 1, 3), 4):
        "a8e55d076286aab4f4e77a80646b836d49123b337a0b166ca577d25fccfd5466",
    ("nofb-mid", (3, 4, 1, 1, 3), 8):
        "b49025ffb480ac0cd4e15fc976a50e50c6ff17423b47f51be3c994d01b76472e",
    ("nofb-mid", (3, 4, 1, 1, 3), 30):
        "2b8d8d471367b0743613c250b4d28c8e260c3f7322e8483360a57ec11180b8c8",
    ("fbxw", (16, 32, 8, 8, 24), 12):
        "803f2c494f251697506f21851b78bcd6250c080e03d0f013ea65fafdea5b178f",
}


def _emit_key(emit, refs):
    """An Emit with its payload_refs positions named by their refs."""
    if emit is None:
        return None
    mode = "echo" if emit.echo_src else "known"
    return (sorted(refs[i] for i in emit.refs), mode, emit.echo_src,
            sorted(refs[i] for i in emit.cancel))


def _schedule_digest(schedule):
    """The rendering the digests were taken of: every tx level keyed by
    (signal, slot), the decode steps of each slot that has any (each with
    its slot), the (slot, dest, ref) deliveries and the feedback levels
    keyed by (signal, slot), read from Schedule.slots()."""
    refs = schedule.payload_refs
    slots = list(schedule.slots())
    tx = sorted(((signal, t), [_emit_key(e, refs) for e in emits])
                for t, slot in slots for signal, emits in zip(_TX_SIGNALS, slot.tx))
    steps = [(t, [(d.node, t, d.obs, sorted(refs[i] for i in d.side),
                   refs[d.target], d.deliver)
                  for d in slot.steps])
             for t, slot in slots if slot.steps]
    feedback = sorted(((signal, t), plan) for t, slot in slots
                      for signal, plan in zip(_FEEDBACK_SIGNALS, slot.feedback))
    text = repr((tx, steps, _deliveries(schedule), feedback, schedule.n_slots))
    return hashlib.sha256(text.encode()).hexdigest()


def _deliveries(schedule):
    """(slot, dest, ref) of every delivering decode step, in order."""
    refs = schedule.payload_refs
    return tuple((t, step.node, refs[step.target]) for t, slot in schedule.slots()
                 for step in slot.steps if step.deliver)


def _counts_slot_by_slot(schedule):
    """The oracle of Schedule.counts, read from ``schedule.slots()`` one slot
    at a time: the delivering steps, those in the steady window, and the
    (node, packet) pairs each verdict decoder's steps write, node by node
    in packet order."""
    per_packet = 2 * schedule.formula_rate
    lo, hi = 2 * WARMUP_PACKETS + 2, 2 * schedule.packets + 1
    delivered = steady = 0
    written = {node: set() for node in ("R1", "R2", "D1", "D2")}
    for t, slot in schedule.slots():
        for step in slot.steps:
            delivered += step.deliver
            steady += step.deliver and lo <= t <= hi
            if step.node in written:
                written[step.node].add(step.target // per_packet + 1)
    pairs = [(node, packet) for node, packets in written.items() for packet in sorted(packets)]
    return delivered, Fraction(steady, hi - lo + 1), pairs


def _written_pairs(schedule):
    """The (node, packet) pairs of ``schedule.counts``, its ranges expanded."""
    return [(node, packet) for node, packets in schedule.counts[2] for packet in packets]


def _assert_counts_are_delivering_steps(trace, schedule):
    """A run's delivered bits, steady-state rate and measured sum rate are
    counted over the delivering steps of ``schedule`` read slot by slot:
    one delivery per step, the steady window clear of the warm-up packets
    and the drain; and its schedule's written pairs are the ones its
    verdict decoders' steps write, read slot by slot."""
    slots = [t for t, _, _ in _deliveries(schedule)]
    lo, hi = 2 * WARMUP_PACKETS + 2, 2 * trace.packets + 1
    assert trace.delivered_bits == len(slots)
    assert trace.steady_state_rate == Fraction(sum(lo <= t <= hi for t in slots),
                                               hi - lo + 1)
    assert trace.measured_sum_rate == Fraction(len(slots), schedule.n_slots)
    assert _written_pairs(schedule) == _counts_slot_by_slot(schedule)[2]


@pytest.mark.parametrize("case", FROZEN_SCHEDULE_DIGESTS,
                         ids=lambda c: f"{c[0]}-{'.'.join(map(str, c[1]))}-P{c[2]}")
def test_schedule_order_golden(case):
    scheme, point, packets = case
    schedule = build_schedule(scheme, ChannelParams(*point), packets)
    assert _schedule_digest(schedule) == FROZEN_SCHEDULE_DIGESTS[case]


def test_trace_header_carries_run_identity():
    trace = run_scheme("rss", ChannelParams(4, 1, 1, 1, 2), 8, seed=77)
    text = format_trace(trace)
    assert "scheme=rss" in text and "seed=77" in text and "packets=8" in text
    parsed = parse_trace(text)
    assert parsed.seed == 77 and parsed.scheme == "rss"


def _edit_line(text, lineno, edit):
    lines = text.splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    return "".join(lines)


@pytest.mark.parametrize("lineno,edit", [
    (8, lambda line: line.rsplit(" ", 1)[0] + "\n"),       # too few columns
    (8, lambda line: line.rstrip("\n") + " 00\n"),         # extra column
    (8, lambda line: "4" + line[1:]),                       # slot index skips 3
    (2, lambda line: line.replace("m=4", "m=two")),         # non-integer field
    (1, lambda line: ""),                                   # no version line
    (1, lambda line: line.replace("v1", "v2")),             # wrong version
    (8, lambda line: line.replace(" 1000 ", " 100 ", 1)),   # X_S1 shorter than q
    (8, lambda line: line.rstrip("\n") + "0\n"),            # Y_S2 longer than qbar
    (2, lambda line: line.rstrip("\n") + " m=5\n"),         # header key repeated
    (4, lambda line: line.replace("=3", "=99")),            # formula_rate not the plan's
    (3, lambda line: line.replace("noncoop=1", "noncoop=7")),
    (3, lambda line: line.replace(" coop=1", " coop=7")),
    (3, lambda line: line.replace("private=0", "private=1")),
    (3, lambda line: line.replace("=1,0", "=0,1")),
    (3, lambda line: line.replace("superframe=2", "superframe=4")),
    (5, lambda line: line.replace("X_S1 X_S2", "X_S2 X_S1")),  # columns reordered
    (8, lambda line: line.replace(" 1000 ", " 10x0 ", 1)),  # X_S1 bad character
    (8, lambda line: line.replace(" 1100 ", " 1\u0660\u0660\u0660 ", 1)),  # int() takes it
    (8, lambda line: line.replace(" 1000 ", " - ", 1)),     # X_S1 empty
    (8, lambda line: line.replace(" 1000 ", "  ", 1)),      # X_S1 an empty field
    (2, lambda line: line.replace("scheme=rss", "scheme=bogus")),
    (2, lambda line: line.replace("packets=4", "packets=3")),
    (2, lambda line: line.replace("m=4", "m=-2")),
    (2, lambda line: line.replace("m=4 n=1", "m=1 n=4")),   # rss at a weak point
    (2, lambda line: line.replace("seed=1009", "seed=1009 sede=1")),  # unknown key
    (2, lambda line: line.replace("m=4", "m=+4")),          # int() takes each of
    (2, lambda line: line.replace("seed=1009", "seed=1_009")),   # these, but none
    (2, lambda line: line.replace("packets=4", "packets=\u0664")),  # formats back
    (1, lambda line: line.replace("\n", "  \n")),         # version, trailing spaces
    (2, lambda line: line.replace(" seed=1009", "")),       # run line without seed
    (8, lambda line: line.replace(" ", "\t", 2)),           # row, tabs for spaces
    (8, lambda line: line.replace(" ", "  ", 1)),           # row, a doubled space
    (8, lambda line: " " + line),                           # row, leading space
    (8, lambda line: line.replace("\n", " \n")),            # row, trailing space
    (8, lambda line: line.replace("\n", "\r\n")),           # row, carriage return
    (8, lambda line: line.replace(" ", "\t", 2).replace("\n", "\r\n")),
], ids=["short-line", "extra-column", "slot-index", "header-not-int",
        "version-missing", "version-wrong", "length-q", "length-qbar",
        "header-key-repeated", "formula-rate", "alloc-noncoop", "alloc-coop",
        "alloc-private", "alloc-per-phase-coop", "alloc-superframe",
        "columns-order", "vector-ascii", "vector-unicode-digit", "vector-empty",
        "vector-empty-field",
        "scheme-unknown", "packets-too-few", "link-negative", "scheme-regime",
        "header-key-unknown", "header-int-plus", "header-int-underscore",
        "header-int-unicode-digit", "version-trailing-spaces", "seed-missing",
        "row-tabs", "row-doubled-space", "row-leading-space", "row-trailing-space",
        "row-carriage-return", "row-tabs-and-carriage-return"])
def test_parse_trace_rejects_malformed_line(lineno, edit):
    assert FROZEN_TRACE.splitlines()[7].startswith("3 ")
    text = _edit_line(FROZEN_TRACE, lineno, edit)
    with pytest.raises(ChannelDomainError, match=f"^line {lineno}: "):
        parse_trace(text)


def _note_after_header(lines):
    """``lines`` with "# note" just below the "# columns:" line."""
    header = 1 + next(i for i, line in enumerate(lines) if line.startswith("# columns:"))
    return lines[:header] + ["# note"] + lines[header:]


@pytest.mark.parametrize("run,lineno,edit", [
    (None, 8, lambda ls: ls[:7] + ["# a note"] + ls[7:]),
    (None, 8, lambda ls: ls[:7] + [""] + ls[7:]),
    (None, 4, lambda ls: ls[:3] + ls[4:] + ls[3:4]),
    (None, 5, lambda ls: ls[:4] + ls[5:] + ls[4:5]),
    (None, 2, lambda ls: [ls[0], ls[2], ls[1]] + ls[3:]),
    (None, 2, lambda ls: [ls[0], *ls[1].replace(" nbar=", "\n# nbar=").split("\n")] + ls[2:]),
    (None, 3, lambda ls: ls[:2] + [ls[2] + " formula_rate=3"] + ls[4:]),
    (("fbxw", (16, 32, 8, 8, 24), 300), 6, _note_after_header),
], ids=["note-among-rows", "blank-among-rows", "formula-rate-below-rows",
        "columns-at-end", "alloc-before-run", "run-line-split",
        "formula-rate-on-alloc-line", "note-after-header-wide"])
def test_parse_trace_rejects_moved_line(run, lineno, edit):
    """Header lines come in the order format_trace writes them, and every
    line below them is a row: in FROZEN_TRACE, and in the wide 300-packet
    trace, whose five header lines end at line 5."""
    text = "\n".join(edit((_run_text(*run) if run else FROZEN_TRACE).splitlines())) + "\n"
    with pytest.raises(ChannelDomainError, match=f"^line {lineno}: "):
        parse_trace(text)


def test_parse_trace_header_error_keeps_its_class():
    """A scheme outside its regime is the RegimeError run_scheme raises,
    named by its line."""
    text = _edit_line(FROZEN_TRACE, 2, lambda line: line.replace("m=4 n=1", "m=1 n=4"))
    with pytest.raises(RegimeError, match="^line 2: scheme rss needs"):
        parse_trace(text)


def _on_line_8(old, new):
    return lambda text: _edit_line(text, 8, lambda line: line.replace(old, new, 1))


@pytest.mark.parametrize("edit,message", [
    (_on_line_8(" 1000 ", " 10x0 "), "line 8: X_S1: bad vector string '10x0'"),
    (_on_line_8(" 1100 ", " 1\u0660\u0660\u0660 "),
     "line 8: X_S2: bad vector string '1\u0660\u0660\u0660'"),
    (_on_line_8(" 1000 ", " - "), "line 8: X_S1 has length 0, expected 4"),
    (_on_line_8(" 1000 ", "  "), "line 8: X_S1: bad vector string ''"),
    # an empty field is no vector where the vectors are empty ('-') either
    (lambda _: format_trace(run_scheme("nofb-mid", ChannelParams(0, 0, 0, 0, 0), 4))
     .replace("\n1 - ", "\n1  ", 1), "line 5: X_S1: bad vector string ''"),
    (lambda text: text.replace(" 1100 ", " 11x0 "),
     "line 8: X_S2: bad vector string '11x0'"),
    (lambda text: text.replace("X_S1 X_S2", "X_S1"),
     "line 5: found '# columns: slot X_S1 Y_R1 Y_R2 X_R1 X_R2 Y_D1 Y_D2 Y_S1 Y_S2', "
     "expected '# columns: slot X_S1 X_S2 Y_R1 "),
], ids=["ascii", "unicode-digit", "empty", "empty-field", "empty-field-empty-vectors",
        "repeated-bad-string", "columns-missing"])
def test_parse_trace_names_line_and_signal(edit, message):
    """A vector error names its line and signal.  A bad string on many lines
    (every "1100" in the repeated case, first on line 8) is reported on its
    first line."""
    with pytest.raises(ChannelDomainError) as info:
        parse_trace(edit(FROZEN_TRACE))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("scheme,point,packets", [
    ("fbxw", (16, 32, 8, 8, 24), 300),
    ("nofb-mid", (0, 0, 0, 0, 0), 8),
    ("nofb-mid", (0, 0, 0, 1, 2), 8),
    ("fbxw", (2, 4, 1, 1, 3), 300),
    ("nofb-mid", (3, 4, 0, 0, 8), 300),
    ("rss", (4, 1, 1, 3, 2), 300),
    ("rsw", (2, 4, 0, 4, 3), 300),
], ids=["fbxw-wide-P300", "nofb-mid-empty-P8", "nofb-mid-empty-hop1-P8",
        "fbxw-P300", "nofb-mid-P300", "rss-P300", "rsw-P300"])
def test_trace_text_round_trip(scheme, point, packets):
    """format_trace(parse_trace(text)) is the text itself, beyond the small
    points of FROZEN_DIGESTS: thousands of distinct strings at the wide
    point, the only points whose vectors are empty ('-'), and the pinned
    300-packet traces.  The parsed trace holds the run's columns: per
    signal, n_slots vectors of its length, one 0/1 byte per level."""
    p = ChannelParams(*point)
    trace = run_scheme(scheme, p, packets)
    text = _run_text(scheme, point, packets)
    parsed = parse_trace(text)
    assert format_trace(parsed) == text
    assert verify_trace(parsed).ok
    assert (" - " in text) == (0 in (p.q, p.qbar))
    assert parsed.slots == trace.slots
    assert list(parsed.slots) == list(SIGNALS)
    for signal, column in parsed.slots.items():
        length = p.q if signal[:3] in ("X_S", "Y_R") else p.qbar
        assert type(column) is bytes and len(column) == parsed.n_slots * length
        assert set(column) <= {0, 1}


def test_parse_trace_rejects_header_against_the_plan():
    """formula_rate=99 with noncoop=7 coop=7 once verified as a pass; the
    first contradicting line is named.  A nofb-mid run has no allocation."""
    text = format_trace(run_scheme("rss", ChannelParams(4, 1, 1, 1, 2), 8))
    text = text.replace("formula_rate=3", "formula_rate=99")
    text = text.replace("noncoop=1 coop=1", "noncoop=7 coop=7")
    with pytest.raises(ChannelDomainError, match="^line 3: found '# alloc noncoop=7 coop=7 "
                       ".*', expected '# alloc noncoop=1 coop=1 "):
        parse_trace(text)
    mid = format_trace(run_scheme("nofb-mid", ChannelParams(3, 4, 0, 0, 8), 4))
    assert "# alloc" not in mid
    with pytest.raises(ChannelDomainError,
                       match="^line 3: found '# alloc coop=0', expected '# formula_rate=5'$"):
        parse_trace(_edit_line(mid, 3, lambda line: "# alloc coop=0\n" + line))


def _add_row(text):
    last = text.splitlines(keepends=True)[-1]
    assert last.startswith("19 ")
    return text + "20" + last[2:]


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace(" packets=8 ", " packets=9 "),
     "line 25: trace has 19 slots, run needs 21"),
    (_add_row, "line 25: trace has 20 slots, run needs 19"),
], ids=["packets-raised", "row-added"])
def test_row_count_against_the_run_names_its_line(edit, message):
    """A trace with fewer or more rows than its run needs parses, each line
    being well formed, and formats back; its verify_trace names the line of
    the first missing or extra row: line 25, below the 5 header lines and
    the 19 rows of the rss (4,1,1,1,2) P=8 run."""
    text = edit(_p8_text("rss"))
    parsed = parse_trace(text)
    assert format_trace(parsed) == text
    with pytest.raises(ChannelDomainError, match=f"^{message}$"):
        verify_trace(parsed)


def _flip_level(text, slot, signal, level):
    """``text`` with level ``level`` of ``signal`` flipped in the row of
    slot ``slot``."""
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.split()[0] == str(slot))
    fields = lines[row].split()
    column = 1 + SIGNALS.index(signal)
    vec = fields[column]
    fields[column] = vec[:level] + "10"[int(vec[level])] + vec[level + 1:]
    lines[row] = " ".join(fields)
    return "\n".join(lines) + "\n"


def test_flipped_received_level_of_the_wide_trace_is_located():
    """A flipped Y_D1 level in the last packet's row of the written wide
    300-packet trace is the first fault its replay reports."""
    text = _flip_level(_run_text("fbxw", (16, 32, 8, 8, 24), 300), 300, "Y_D1", 5)
    report = verify_trace(parse_trace(text))
    assert not report.ok and report.first_fault == (300, "Y_D1", 5)


def test_flipped_echo_source_of_a_tiled_trace_is_located_with_its_echo():
    """A flipped level that the first echo after slot 200 of a tiled rss
    300-packet run replays is reported, and so is that echo's transmission,
    and nothing else."""
    schedule = build_schedule("rss", ChannelParams(4, 1, 1, 1, 2), 300)
    assert schedule.tiling[2]
    signal, slot, level = next(
        emit.echo_src for t, record in schedule.slots() if t > 200
        for emits in record.tx for emit in emits if emit and emit.echo_src)
    text = _flip_level(_run_text("rss", (4, 1, 1, 1, 2), 300), slot, signal, level)
    assert verify_trace(parse_trace(text)).faults == [(200, "Y_S1", 1), (202, "X_S1", 1)]


# one trace per scheme at P=8; nofb-mid has no "# alloc" line
P8_POINTS = {"fbxw": (2, 4, 1, 1, 3), "rsw": (2, 4, 0, 1, 3),
             "rss": (4, 1, 1, 1, 2), "nofb-mid": (3, 4, 0, 0, 8)}


def _p8_text(scheme):
    return _run_text(scheme, P8_POINTS[scheme], 8)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(sorted(P8_POINTS)), data=st.data())
def test_parse_trace_takes_only_what_format_trace_writes(scheme, data):
    """One edit of a written trace (a blank, "#" or repeated header line
    inserted anywhere, one character of a header line changed, to a line
    break too, or a row's space, start or end changed to other whitespace)
    is either rejected on a line of the edited text or still formats back
    to it."""
    lines = _p8_text(scheme).splitlines()
    header = 1 + next(i for i, line in enumerate(lines) if line.startswith("# columns:"))
    edit = data.draw(st.sampled_from(["insert", "header", "row"]), label="edit")
    if edit == "row":
        row = data.draw(st.integers(header, len(lines) - 1), label="row")
        line = lines[row]
        cuts = [(i, i + 1) for i, c in enumerate(line) if c == " "]
        lo, hi = data.draw(st.sampled_from(cuts + [(0, 0), (len(line), len(line))]),
                           label="cut")
        space = data.draw(st.text(" \t\r\x0b\x0c\x1c\x85\u00a0\u2003", max_size=3),
                          label="whitespace")
        lines[row] = line[:lo] + space + line[hi:]
    elif edit == "insert":
        comment = st.text(st.characters(exclude_characters="\n"),
                          max_size=12).map(lambda s: "#" + s)
        new = data.draw(st.one_of(st.just(""), comment, st.sampled_from(lines[:header])),
                        label="line")
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), new)
    else:
        row = data.draw(st.integers(0, header - 1), label="row")
        col = data.draw(st.integers(0, len(lines[row]) - 1), label="col")
        char = data.draw(st.characters().filter(lambda c: c != lines[row][col]), label="char")
        lines[row] = lines[row][:col] + char + lines[row][col + 1:]
    edited = "\n".join(lines) + "\n"
    try:
        parsed = parse_trace(edited)
    except ChannelDomainError as exc:
        named = re.match(r"line (\d+): ", str(exc))
        assert named and 1 <= int(named.group(1)) <= edited.count("\n"), str(exc)
    else:
        assert format_trace(parsed) == edited


# The trace codec as it was before traces were written and read in
# fixed-stride blocks: one row at a time.  The block codec must write the
# same text, and read back the same trace or raise the same error.

def _oracle_format_trace(trace):
    shape, fields = pipeline._row_layout(trace.p)
    rows = bytearray((shape + "\n").encode() * trace.n_slots)
    for signal, start, length in fields:
        for level in range(length):
            rows[start + level::len(shape) + 1] = trace.slots[signal][level::length]
    rows = rows.translate(_LEVEL_TEXT).decode().split("\n")
    lines = pipeline._header(trace.scheme, trace.p, trace.packets, trace.seed,
                             trace.alloc, trace.formula_rate)
    lines.extend(map(" ".join, zip(map(str, range(1, trace.n_slots + 1)), rows)))
    return "\n".join([*lines, ""])


def _oracle_parse_trace(text):
    lines = text.removesuffix("\n").split("\n")

    def expect(lineno, want):
        if lines[lineno - 1:lineno] != [want]:
            found = repr(lines[lineno - 1]) if lineno <= len(lines) else "end of text"
            raise ChannelDomainError(f"line {lineno}: found {found}, expected {want!r}")

    expect(1, pipeline._TRACE_VERSION)
    run_line = lines[1] if len(lines) > 1 else ""
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
        pipeline._check_seed(seed)
        alloc, formula_rate = pipeline._payload_plan(scheme, p, packets)
    except ChannelDomainError as exc:
        raise type(exc)(f"line 2: {exc}") from exc
    header = pipeline._header(scheme, p, packets, seed, alloc, formula_rate)
    for lineno, want in enumerate(header, start=1):
        expect(lineno, want)
    shape, fields = pipeline._row_layout(p)
    rows = []
    for lineno, line in enumerate(lines[len(header):], start=len(header) + 1):
        index, _, vectors = line.partition(" ")
        if index != str(len(rows) + 1) or vectors.replace("0", "1") != shape:
            texts = line.split(" ")
            if len(texts) != 1 + len(SIGNALS):
                raise ChannelDomainError(
                    f"line {lineno}: {len(texts)} columns, expected {1 + len(SIGNALS)}")
            if texts[0] != str(len(rows) + 1):
                raise ChannelDomainError(f"line {lineno}: slot index {texts[0]!r}, "
                                         f"expected {len(rows) + 1}")
            for (signal, _, length), field_text in zip(fields, texts[1:]):
                try:
                    vec = GfVec.from_string(field_text)
                except ChannelDomainError as exc:
                    raise ChannelDomainError(f"line {lineno}: {signal}: {exc}") from exc
                if len(vec) != length:
                    raise ChannelDomainError(
                        f"line {lineno}: {signal} has length {len(vec)}, expected {length}")
        rows.append(vectors)
    levels = " ".join(rows).encode().translate(_TEXT_LEVEL)
    slots = {}
    for signal, start, length in fields:
        column = bytearray(len(rows) * length)
        for level in range(length):
            column[level::length] = levels[start + level::len(shape) + 1]
        slots[signal] = bytes(column)
    return pipeline.SimulationTrace(
        scheme=scheme, p=p, packets=packets, seed=seed, n_slots=len(rows),
        slots=slots, formula_rate=formula_rate, alloc=alloc,
    )


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the trace, or the error's class and
    message."""
    try:
        return parse(text)
    except ChannelDomainError as exc:
        return type(exc), str(exc)


# row counts on and next to 9/10, 99/100 and 999/1000, where the index widens
INDEX_WIDTH_POINTS = [(point, packets)
                      for point in ((0, 0, 0, 0, 0), (3, 4, 0, 0, 8))
                      for packets in (4, 5, 49, 50, 499, 500)]


@functools.lru_cache(maxsize=None)
def _width_trace(point, packets):
    return run_scheme("nofb-mid", ChannelParams(*point), packets)


def test_index_width_corpus_spans_each_width_change():
    counts = sorted(_width_trace(*case).n_slots for case in INDEX_WIDTH_POINTS)
    assert counts == [8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001]


@pytest.mark.parametrize("point,packets", INDEX_WIDTH_POINTS)
def test_trace_codec_equals_the_row_by_row_codec(point, packets):
    """At every row count by an index width change, format_trace writes the
    row-by-row codec's text, which parse_trace reads back as that codec
    does, and so does its text without the final newline."""
    trace = _width_trace(point, packets)
    text = format_trace(trace)
    assert text == _oracle_format_trace(trace)
    parsed = parse_trace(text)
    assert parsed == _oracle_parse_trace(text) and parsed.slots == trace.slots
    assert parse_trace(text[:-1]) == _oracle_parse_trace(text[:-1]) == parsed


_ONE_CHARACTERS = ["0", "1", "5", "9", " ", "\r", "\t", "\n", "-", "é", "١", "\ud800"]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(INDEX_WIDTH_POINTS), data=st.data())
def test_parse_trace_of_an_edited_trace_is_the_row_by_row_parse(case, data):
    """One character of a trace changed, inserted or deleted anywhere (an
    index digit, a space or a newline in particular), to a digit, a space,
    a ``\\r``, a tab, a newline, a non-ASCII character or a lone surrogate:
    parse_trace returns the trace the row-by-row parse returns, or raises
    the same error class with the same message."""
    text = format_trace(_width_trace(*case))
    where = data.draw(st.sampled_from(["anywhere", "index", "space", "newline"]), label="where")
    if where == "anywhere":
        at = data.draw(st.integers(0, len(text) - 1), label="at")
    else:
        char = {"index": "\n", "space": " ", "newline": "\n"}[where]
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c == char]), label="at")
        at += where == "index"
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
    char = data.draw(st.sampled_from(_ONE_CHARACTERS), label="char")
    at = min(at, len(text) - 1)
    edited = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]
    assert _outcome(parse_trace, edited) == _outcome(_oracle_parse_trace, edited)


@pytest.mark.parametrize("packets", [8, 300, 1000])
@pytest.mark.parametrize("scheme", sorted(P8_POINTS))
def test_valid_trace_is_read_without_the_row_reader(scheme, packets, monkeypatch):
    """A valid trace is read as blocks alone: neither the row reader, which
    only names the error of a refused text, nor GfVec.from_string runs.  A
    text without its final newline reads as with it, and a header-only
    text, with or without its final newline, has no slots."""
    trace = run_scheme(scheme, ChannelParams(*P8_POINTS[scheme]), packets)
    text = format_trace(trace)

    def refused(*args):
        raise AssertionError("a valid trace took the row path")
    monkeypatch.setattr(pipeline, "_name_bad_line", refused)
    monkeypatch.setattr(GfVec, "from_string", refused)
    parsed = parse_trace(text)
    assert parsed.slots == trace.slots and parse_trace(text[:-1]) == parsed
    head = text[:text.index("\n1 ") + 1]
    for header_only in (head, head[:-1]):
        parsed = parse_trace(header_only)
        assert parsed.n_slots == 0 and set(parsed.slots.values()) == {b""}


def test_row_reader_that_finds_no_bad_line_is_an_invariant_error():
    """The row reader runs only on a text the block reader refused; one it
    would accept means the two readers disagree, a PipelineError."""
    text = _p8_text("rss")
    header = text.splitlines()[:5]
    shape, fields = pipeline._row_layout(ChannelParams(*P8_POINTS["rss"]))
    with pytest.raises(pipeline.PipelineError):
        pipeline._name_bad_line(text, header, shape, fields)


class TestFaultInjection:
    @pytest.mark.parametrize("scheme,p,rate", WORKED[:5])
    def test_relay_flip_caught_at_injection_slot(self, scheme, p, rate):
        packets = 10
        slot = 2 * (packets // 2)  # a mid-run phase-2 slot
        fault = {(slot, "X_R1"): 0}
        trace = run_scheme(scheme, p, packets, faults=fault)
        report = verify_trace(trace)
        assert not report.ok
        assert report.first_fault == (slot, "X_R1", 0)

    def test_flip_on_idle_level_still_caught(self):
        p = ChannelParams(2, 4, 1, 1, 3)
        # in the first phase-2 slot the forwarding queue is still empty, so
        # the bottom forward level transmits zero; flipping it must still fail
        fault = {(2, "X_R1"): 2}
        trace = run_scheme("fbxw", p, 10, faults=fault)
        assert trace.slots["X_R1"][1 * p.qbar + 2] == 1
        report = verify_trace(trace)
        assert not report.ok and report.first_fault == (2, "X_R1", 2)

    def test_received_signal_flip_caught(self):
        p = ChannelParams(2, 4, 0, 1, 3)
        fault = {(7, "Y_R1"): 0}
        trace = run_scheme("rsw", p, 10, faults=fault)
        report = verify_trace(trace)
        assert not report.ok
        assert report.first_fault == (7, "Y_R1", 0)

    def test_source_flip_produces_payload_errors(self):
        p = ChannelParams(4, 1, 1, 1, 2)
        fault = {(9, "X_S1"): 0}
        trace = run_scheme("rss", p, 10, faults=fault)
        report = verify_trace(trace)
        assert not report.ok and report.first_fault[0] == 9

    def test_clean_run_verifies(self):
        trace = run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 10)
        assert verify_trace(trace).ok

    @settings(max_examples=200, deadline=None)
    @given(case=st.integers(0, len(WORKED) - 1), data=st.data())
    def test_any_single_flip_located_exactly(self, case, data):
        scheme, p, _ = WORKED[case]
        slot, signal, level = _draw_flip(data, scheme, p, 6)
        trace = run_scheme(scheme, p, 6, faults={(slot, signal): level})
        assert verify_trace(trace).faults == [(slot, signal, level)]


@pytest.mark.parametrize("faults", [
    {(slot, signal): level} for slot, signal, level in (
        (999, "X_R1", 0), (0, "X_R1", 0), (5, "X_R9", 0), (5, "x_r1", 0),
        (5, "X_R1", 3), (5, "X_R1", -1), (5, "Y_R1", 4),
        (5.0, "X_R1", 0), (True, "X_R1", 0), (5, "X_R1", 1.5), (5, "X_R1", True))
] + [{5: 1}, {(5, "X_R1", 0): 1}, [((5, "X_R1"), 0)]],
    ids=["slot-late", "slot-zero", "signal-unknown", "signal-lowercase",
         "level-past-qbar", "level-negative", "level-past-q",
         "slot-float", "slot-bool", "level-float", "level-bool",
         "key-not-a-pair", "key-of-three", "not-a-mapping"])
def test_fault_outside_the_run_is_rejected(faults):
    """A fault the run would never reach, or a faults value that names no
    (slot, signal) of it, is bad input, not a clean control."""
    with pytest.raises(ChannelDomainError, match="outside the run"):
        run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 8, faults=faults)


@pytest.mark.parametrize("seed", [True, 2.5, "x", None],
                         ids=["bool", "float", "str", "none"])
def test_seed_that_is_not_an_int_is_rejected(seed, builds):
    """A seed the trace header could not carry as an integer is bad input,
    refused before the schedule is built."""
    with pytest.raises(ChannelDomainError, match=f"^seed {re.escape(repr(seed))} is not an int$"):
        run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 8, seed=seed)
    assert builds == []


@pytest.mark.parametrize("packets", [4.5, 8.0, "8", None, True],
                         ids=["float", "whole-float", "str", "none", "bool"])
def test_packets_that_is_not_an_int_is_rejected(packets, builds):
    """A packet count that is not an int (bools included) is bad input, a
    ChannelDomainError before any build, not an internal invariant of the
    build or a TypeError."""
    match = f"^packets {re.escape(repr(packets))} is not an int$"
    with pytest.raises(ChannelDomainError, match=match):
        run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), packets)
    with pytest.raises(ChannelDomainError, match=match):
        build_schedule("fbxw", ChannelParams(2, 4, 1, 1, 3), packets)
    assert builds == []


@pytest.mark.parametrize("seed", [-1, -5, -2**64])
def test_negative_seed_is_rejected(seed, builds):
    """random.Random(-s) seeds as Random(s), so a negative seed would draw the
    payload of its absolute value under another header seed: run_scheme
    refuses it before the build, and parse_trace on the run line."""
    with pytest.raises(ChannelDomainError, match=f"^seed {seed} is negative$"):
        run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 8, seed=seed)
    assert builds == []
    text = _edit_line(FROZEN_TRACE, 2, lambda line: line.replace("seed=1009", f"seed={seed}"))
    with pytest.raises(ChannelDomainError, match=f"^line 2: seed {seed} is negative$"):
        parse_trace(text)
    assert run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 8, seed=0).seed == 0


def _draw_flip(data, scheme, p, packets):
    """Any (slot, signal, level) of a run, on a signal with a non-empty vector."""
    n_slots = build_schedule(scheme, p, packets).n_slots
    lengths = {s: p.q if s[:3] in ("X_S", "Y_R") else p.qbar for s in SIGNALS}
    slot = data.draw(st.integers(1, n_slots), label="slot")
    signal = data.draw(st.sampled_from([s for s in SIGNALS if lengths[s]]),
                       label="signal")
    level = data.draw(st.integers(0, lengths[signal] - 1), label="level")
    return slot, signal, level


class TestGates:
    def test_regime_mismatch(self):
        with pytest.raises(RegimeError):
            run_scheme("rss", ChannelParams(2, 4, 1, 1, 3), 8)
        with pytest.raises(RegimeError):
            run_scheme("fbxw", ChannelParams(4, 1, 1, 1, 2), 8)
        with pytest.raises(RegimeError):
            run_scheme("rsw", ChannelParams(2, 4, 1, 1, 3), 8)
        with pytest.raises(RegimeError, match="needs the mid regime, got weak at"):
            run_scheme("nofb-mid", ChannelParams(1, 4, 0, 0, 3), 8)
        with pytest.raises(RegimeError, match="needs the mid regime, got strong at"):
            run_scheme("nofb-mid", ChannelParams(4, 1, 0, 0, 3), 8)

    def test_pipeline_needs_four_packets(self):
        with pytest.raises(ChannelDomainError):
            run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 3)

    def test_unknown_scheme(self):
        with pytest.raises(ChannelDomainError):
            run_scheme("dfb", ChannelParams(2, 4, 1, 1, 3), 8)


class TestStructure:
    """The rate-splitting and dual-use properties, read off the schedule."""

    def test_fbxw_feedback_levels_also_deliver(self):
        p = ChannelParams(2, 4, 1, 1, 3)
        sched = build_schedule("fbxw", p, 8)
        slot = 2 * 5  # phase 2 of packet 5
        slots = dict(sched.slots())
        assert slots[slot].feedback[0] == ((0, 0),)     # X_R1
        delivered_here = [
            d for d in _deliveries(sched)
            if d[0] == slot and d[1] == "D1" and d[2][2] == "cp"
        ]
        assert delivered_here, "coop feedback level must double as payload"

    def test_rsw_feedback_level_delivers_nothing(self):
        p = ChannelParams(2, 4, 0, 1, 3)
        slots = dict(build_schedule("rsw", p, 8).slots())
        phase2 = 2 * 5
        phase3 = 2 * 5 + 1
        assert slots[phase2].feedback[0] == ((0, 0),)   # X_R1
        assert slots[phase3].feedback == ()
        # the top level delivers payload in phase 3 but not in phase 2
        top_pos = p.qbar - p.f
        def delivers(slot):
            return any(
                step.deliver and step.obs[0] == ("Y_D1", slot, top_pos)
                for step in slots[slot].steps
            )
        assert not delivers(phase2)
        assert delivers(phase3)

    def test_rss_bottom_band_feedback(self):
        p = ChannelParams(4, 1, 1, 3, 2)
        slots = dict(build_schedule("rss", p, 8).slots())
        slot = 2 * 5
        levels = [lvl for lvl, _ in slots[slot].feedback[0]]    # X_R1
        assert levels == [p.nbar - 1]  # lowermost visible level, below f

    def test_side_information_soundness(self):
        # every cancellation consumes only bits the node already decoded or
        # originated; replaying the step list in order must never look ahead
        for scheme, p, _ in WORKED:
            sched = build_schedule(scheme, p, 8)
            known = {node: set() for node in ("S1", "S2", "R1", "R2",
                                              "D1", "D2")}
            for i, ref in enumerate(sched.payload_refs):
                known[f"S{ref[0]}"].add(i)
            delivered = 0
            for slot, record in sched.slots():
                for step in record.steps:
                    assert step.side <= known[step.node], (scheme, slot)
                    known[step.node].add(step.target)
                    delivered += step.deliver
            # and the engine, running those steps, gets every bit right
            bits = _payload_bits(len(sched.payload_refs), DEFAULT_SEED)
            _, errors, _, _, wrong = _run_engine(sched, bits)
            assert (errors, wrong) == ([], []), scheme
            trace = run_scheme(scheme, p, 8)
            assert (trace.delivered_bits, trace.decode_errors) == (delivered, 0), scheme

    def test_causality_of_schedule(self):
        for scheme, p, _ in WORKED:
            for slot, record in build_schedule(scheme, p, 8).slots():
                for step in record.steps:
                    assert all(obs[1] <= slot for obs in step.obs)
                for signal, emits in zip(_TX_SIGNALS, record.tx):
                    for emit in emits:
                        if emit is not None and emit.echo_src:
                            assert emit.echo_src[1] < slot, (signal, slot)


def test_measured_rate_converges_with_explicit_bound():
    # raw throughput differs from the closed form only through warm-up and
    # drain, so the deficit is at most 2*rate/P for a P-packet run
    for scheme, p, rate in WORKED:
        for packets in (8, 16, 32):
            trace = run_scheme(scheme, p, packets)
            deficit = rate - trace.measured_sum_rate
            assert 0 <= deficit <= Fraction(2 * rate, packets), (scheme, packets)
    fbxw = run_scheme("fbxw", ChannelParams(2, 4, 1, 1, 3), 100)
    assert fbxw.measured_sum_rate == Fraction(1200, 204)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.integers(0, len(WORKED) - 1))
def test_rate_and_correctness_independent_of_payload(seed, case):
    scheme, p, rate = WORKED[case]
    trace = run_scheme(scheme, p, 6, seed=seed)
    assert trace.steady_state_rate == rate
    assert trace.decode_errors == 0


def test_zero_capacity_runs_cleanly():
    for scheme, p in (
        ("fbxw", ChannelParams(2, 4, 1, 1, 0)),
        ("rsw", ChannelParams(2, 4, 0, 2, 0)),
        ("rss", ChannelParams(4, 1, 0, 2, 0)),
        ("nofb-mid", ChannelParams(0, 0, 0, 0, 4)),
    ):
        trace = run_scheme(scheme, p, 8)
        assert trace.steady_state_rate == 0
        assert verify_trace(trace).ok


def test_full_regime_coverage_small_grid():
    """Every in-regime tuple on a small grid hits its closed form exactly."""
    from ofbic.rates import Regime, r_fbxw, r_nom, r_rss, r_rsw, regime_of

    for m, n, mbar, nbar, f in itertools.product(
        range(5), range(5), range(3), range(3), range(5)
    ):
        p = ChannelParams(m, n, mbar, nbar, f)
        tags = regime_of(p)
        jobs = []
        if Regime.WEAK in tags:
            jobs.append(("fbxw", r_fbxw(p)))
            if mbar == 0:
                jobs.append(("rsw", r_rsw(p)))
        if Regime.STRONG in tags:
            jobs.append(("rss", r_rss(p)))
        if Regime.MID in tags or Regime.DEGENERATE in tags:
            jobs.append(("nofb-mid", r_nom(p)))
        for scheme, want in jobs:
            trace = run_scheme(scheme, p, 8)
            assert trace.steady_state_rate == want, (scheme, p.short())
            assert trace.n_slots <= 2 * 8 + 4
            assert verify_trace(trace).ok, (scheme, p.short())


# ---------------------------------------------------------------------------
# Schedule handoff: run_scheme -> verify_trace builds the schedule once.

@pytest.fixture
def builds(monkeypatch):
    """The (scheme, packets) of every schedule build, in order."""
    calls = []
    real = _Builder.build

    def counting(self):
        calls.append((self.scheme, self.packets))
        return real(self)

    monkeypatch.setattr(_Builder, "build", counting)
    return calls


FBXW_SMALL = ChannelParams(2, 4, 1, 1, 3)


def test_run_then_verify_builds_once(builds):
    trace = run_scheme("fbxw", FBXW_SMALL, 8)
    assert verify_trace(trace).ok
    assert builds == [("fbxw", 8)]


def test_parsed_trace_verify_builds_once(builds):
    text = format_trace(run_scheme("fbxw", FBXW_SMALL, 8))
    del builds[:]
    parsed = parse_trace(text)
    assert builds == []
    assert verify_trace(parsed).ok
    assert builds == [("fbxw", 8)]


def test_second_verify_rebuilds_and_agrees(builds):
    trace = run_scheme("rsw", ChannelParams(2, 4, 0, 1, 3), 8,
                       faults={(7, "Y_R1"): 0})
    first = verify_trace(trace)
    assert len(builds) == 1           # the run's build, carried to verify
    second = verify_trace(trace)
    assert len(builds) == 2           # released by the first verify
    assert second == first and not first.ok


def test_changed_trace_verified_against_fresh_build(builds):
    trace = run_scheme("fbxw", FBXW_SMALL, 8)
    trace.packets = 9
    # a 9-packet schedule needs more slots than the 8-packet run recorded;
    # the carried 8-packet schedule would have verified it as clean
    with pytest.raises(ChannelDomainError, match="slots"):
        verify_trace(trace)
    assert builds == [("fbxw", 8), ("fbxw", 9)]
    trace.packets = 8
    assert verify_trace(trace).ok
    assert builds == [("fbxw", 8), ("fbxw", 9), ("fbxw", 8)]


def test_run_then_verify_draws_the_payload_once(monkeypatch):
    """A trace from run_scheme carries the payload bits it drew to its one
    verify_trace, which drops them with the rest of its run; a second
    verification, and one of a trace whose seed was changed, draw afresh."""
    draws = []
    real = pipeline._payload_bits

    def counting(n, seed):
        draws.append(seed)
        return real(n, seed)
    monkeypatch.setattr(pipeline, "_payload_bits", counting)
    trace = run_scheme("fbxw", FBXW_SMALL, 30)
    assert trace._run[3] is not None
    assert verify_trace(trace).ok and draws == [DEFAULT_SEED]
    assert trace._run is None
    assert verify_trace(trace).ok and draws == [DEFAULT_SEED] * 2
    changed = run_scheme("fbxw", FBXW_SMALL, 30)
    changed.seed += 1
    assert not verify_trace(changed).ok
    assert draws == [DEFAULT_SEED] * 3 + [DEFAULT_SEED + 1]


def test_carried_schedule_outside_repr_and_eq():
    carried = run_scheme("fbxw", FBXW_SMALL, 8)
    released = run_scheme("fbxw", FBXW_SMALL, 8)
    verify_trace(released)
    assert carried._run is not None and released._run is None
    assert carried._run[3] is not None
    assert carried == released
    assert repr(carried) == repr(released)
    assert "Schedule" not in repr(carried) and "_run" not in repr(carried)
    parsed = parse_trace(format_trace(carried))
    assert parsed._run is None


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(WORKED) - 1), packets=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1), faulty=st.booleans(), data=st.data())
def test_trace_roundtrip_property(case, packets, seed, faulty, data):
    """format/parse keeps every vector, and the carried and built schedules
    give the same report, faults included."""
    scheme, p, _ = WORKED[case]
    faults = None
    if faulty:
        slot, signal, level = _draw_flip(data, scheme, p, packets)
        faults = {(slot, signal): level}
    trace = run_scheme(scheme, p, packets, seed=seed, faults=faults)
    parsed = parse_trace(format_trace(trace))
    assert parsed.slots == trace.slots
    carried = verify_trace(trace)
    assert verify_trace(parsed) == carried
    assert carried.ok == (faults is None)


@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**64 + 1])
@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 28800])
def test_payload_bits_are_the_per_bit_draw(n, seed):
    """One getrandbits(32 * n) gives the bits of n getrandbits(1) calls."""
    rng = random.Random(seed)
    assert _payload_bits(n, seed) == bytes(rng.getrandbits(1) for _ in range(n))


def test_generate_payload_is_the_per_ref_draw():
    schedule = build_schedule("rss", ChannelParams(4, 1, 1, 3, 2), 30)
    rng = random.Random(DEFAULT_SEED)
    expected = [(ref, rng.getrandbits(1)) for ref in schedule.payload_refs]
    assert list(generate_payload(schedule, DEFAULT_SEED).items()) == expected
    trace = run_scheme("rss", ChannelParams(4, 1, 1, 3, 2), 30)
    assert list(trace.payload.items()) == expected
    assert list(parse_trace(format_trace(trace)).payload.items()) == expected


# ---------------------------------------------------------------------------
# Tiling: a run whose period shows is one small build, repeated.

FBXW_WIDE = ChannelParams(16, 32, 8, 8, 24)
TILE_CASES = [(scheme, p) for scheme, p, _ in WORKED] + [
    ("nofb-mid", ChannelParams(3, 4, 1, 1, 3)),
    ("fbxw", FBXW_WIDE),
]
# the benchmark's six simulate-examples chains and its wide point
EXAMPLE_CHAINS = [(scheme, p) for scheme, p, _ in WORKED[:5]] + [
    ("nofb-mid", ChannelParams(3, 4, 0, 0, 8)),
    ("fbxw", FBXW_WIDE),
]
# every in-regime (scheme, point) of the CI grid: m, n, f in 0..4, mbar, nbar in 0..2
CI_GRID_PAIRS = tuple((scheme, p) for point in itertools.product(
    range(5), range(5), range(3), range(3), range(5))
    for p in [ChannelParams(*point)] for scheme, _ in schemes_at(p))


def _ids(cases):
    return [f"{s}-{p.m}.{p.n}.{p.mbar}.{p.nbar}.{p.f}" for s, p in cases]


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(TILE_CASES) - 1),
       packets=st.integers(4, 18))
def test_tiled_schedule_equals_full_build(case, packets):
    """From 4 to 18 packets, the tiled schedule renders as the full build
    and reads, slot by slot, as the full build's records.  The engine,
    which moves the built positions itself, gives the same rows, wrong
    deliveries and node stores on both."""
    scheme, p = TILE_CASES[case]
    tiled = build_schedule(scheme, p, packets)
    full = _Builder(scheme, p, packets).build()
    assert _schedule_digest(tiled) == _schedule_digest(full)
    assert list(tiled.slots()) == list(full.slots())
    assert tiled.n_slots == full.n_slots == len(full.built)
    assert tiled.payload_refs == full.payload_refs
    bits = _payload_bits(len(full.payload_refs), 1)
    # rows, no wrong delivery, no faults found, stores, no wrong store
    assert _run_engine(tiled, bits) == _run_engine(full, bits)


@pytest.mark.parametrize("packets", [13, 14, 30, 31, 41])
@pytest.mark.parametrize("scheme,p", EXAMPLE_CHAINS, ids=_ids(EXAMPLE_CHAINS))
def test_tiled_run_of_every_example_chain_is_its_full_build(scheme, p, packets):
    """Runs of 13, 14, 30 and 31 packets, and an odd run at superframe 2
    (41), tile, read slot by slot as their full builds and count as them,
    and the columns of the run are the sequential engine's on the full
    build, with no wrong delivery."""
    tiled = build_schedule(scheme, p, packets)
    full = _Builder(scheme, p, packets).build()
    assert tiled.tiling[2]
    assert tiled.n_slots == full.n_slots and list(tiled.slots()) == list(full.slots())
    assert tiled.counts == full.counts
    trace = run_scheme(scheme, p, packets)
    columns, errors, *_ = _run_engine(full, _payload_bits(2 * full.formula_rate * packets,
                                                          trace.seed))
    assert (trace.slots, errors, trace.decode_errors) == (columns, [], 0)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(TILE_CASES) - 1), packets=st.integers(20, 30),
       data=st.data())
def test_tiled_fault_report_same_on_warm_and_cold_channel_maps(case, packets, data):
    """A flipped level in a tiled run is reported alike by the replay on the
    carried schedule, whose channel maps the run filled, and by the replay
    of the parsed trace, on a fresh build with empty maps."""
    scheme, p = TILE_CASES[case]
    slot, signal, level = _draw_flip(data, scheme, p, packets)
    trace = run_scheme(scheme, p, packets, faults={(slot, signal): level})
    assert trace._run[0].tiling != (0, 0, 0)
    assert any(trace._run[0].channel_maps)
    parsed = parse_trace(format_trace(trace))
    warm = verify_trace(trace)
    assert verify_trace(parsed) == warm
    assert warm.faults == [(slot, signal, level)]


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(TILE_CASES) - 1),
       packets=st.sampled_from([6, 8, 20, 30]), data=st.data())
def test_several_faults_located_exactly(case, packets, data):
    """One to four flips on distinct (slot, signal) pairs, often sharing a
    slot and mixing its transmit and receive signals, are each reported at
    their slot, signal and level, and nothing else is: a replay checks whole
    slots, but names every deviating signal of a slot that differs."""
    scheme, p = TILE_CASES[case]
    n_slots = build_schedule(scheme, p, packets).n_slots
    shared = data.draw(st.integers(1, n_slots), label="shared slot")
    faults = {}
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        slot, signal, level = _draw_flip(data, scheme, p, packets)
        if data.draw(st.booleans(), label="in shared slot"):
            slot = shared
        faults.setdefault((slot, signal), level)
    report = verify_trace(run_scheme(scheme, p, packets, faults=faults))
    assert report.faults == sorted((t, s, level) for (t, s), level in faults.items())


@pytest.mark.parametrize("signal", ["X_R1", "Y_D2"])
def test_recorded_vector_of_wrong_length_is_rejected(signal):
    """A run's trace whose recorded transmit or received column was cut
    short fails verify_trace's column check, which names its signal;
    format_trace, whose extended slices no longer fit, refuses it too, and
    parse_trace, which checks lengths first, never hands such a trace on."""
    trace = run_scheme("fbxw", FBXW_SMALL, 8)
    assert (trace.n_slots, FBXW_SMALL.qbar) == (20, 3)
    trace.slots[signal] = trace.slots[signal][:-1]
    with pytest.raises(ValueError):
        format_trace(trace)
    with pytest.raises(ChannelDomainError,
                       match=f"^recorded {signal} has 59 levels, 20 slots need 60$"):
        verify_trace(trace)


@pytest.mark.parametrize("carried", [True, False], ids=["carried", "fresh"])
@pytest.mark.parametrize("scheme,p,signal,need", [
    ("fbxw", FBXW_SMALL, "Y_D1", "12 slots need 36"),
    ("nofb-mid", ChannelParams(0, 0, 0, 0, 0), "X_S1", "8 slots need 0"),
], ids=["fbxw-Y_D1", "empty-vectors-X_S1"])
def test_missing_recorded_column_is_rejected(scheme, p, signal, need, carried):
    """A hand-built trace without one of its columns fails verify_trace's
    column check, naming the signal, as a column of another length does;
    so does one whose vectors are all empty, where the missing column would
    have no levels either."""
    trace = run_scheme(scheme, p, 4)
    if not carried:
        trace = replace(trace)
    del trace.slots[signal]
    with pytest.raises(ChannelDomainError, match=f"^recorded {signal} has no column, {need}$"):
        verify_trace(trace)


@pytest.mark.parametrize("carried", [True, False], ids=["carried", "fresh"])
@pytest.mark.parametrize("key", ["EXTRA", 5])
def test_column_under_a_key_that_is_not_a_signal_is_rejected(key, carried):
    """A trace whose columns hold one more, under a key that is not a
    signal, fails verify_trace's column check, naming the key: the lane
    columns would differ from it as dicts, and the replay, which reads
    signals only, would pass it."""
    trace = run_scheme("fbxw", FBXW_SMALL, 8)
    if not carried:
        trace = replace(trace)
    trace.slots[key] = b"\x01"
    with pytest.raises(ChannelDomainError, match=f"^recorded column {key!r} is not a signal$"):
        verify_trace(trace)


@pytest.mark.parametrize("faults", [None, {(9, "Y_R2"): 1, (9, "X_S1"): 0}],
                         ids=["clean", "faulty"])
def test_replay_reads_the_recorded_rows_in_place(faults):
    """verify_trace neither copies nor writes the recorded rows: the replay
    returns them as its rows, and they are unchanged after it."""
    trace = run_scheme("rss", ChannelParams(4, 1, 1, 3, 2), 30, faults=faults)
    rows, before = trace.slots, copy.deepcopy(trace.slots)
    verify_trace(trace)
    assert trace.slots is rows and rows == before
    parsed = parse_trace(format_trace(trace))
    before = copy.deepcopy(parsed.slots)
    schedule = build_schedule(parsed.scheme, parsed.p, parsed.packets)
    bits = _payload_bits(len(schedule.payload_refs), parsed.seed)
    assert _run_engine(schedule, bits, recorded=parsed.slots)[0] is parsed.slots
    assert parsed.slots == before


def test_record_fields_are_pinned():
    """The engine unpacks Emit and DecodeStep by position, so their field
    order is part of the record format."""
    assert Emit._fields == ("refs", "echo_src", "cancel")
    assert DecodeStep._fields == ("node", "obs", "side", "target", "deliver")


@pytest.mark.parametrize("scheme,p", TILE_CASES, ids=_ids(TILE_CASES))
def test_clean_run_rows_are_the_channel_map(scheme, p):
    """Every slot of a clean run receives what the channel geometry, called
    directly, makes of the slot's transmitted vectors, each read from its
    column as levels ``(t - 1) * length .. t * length``."""
    trace = run_scheme(scheme, p, 30)
    for t in range(1, trace.n_slots + 1):
        row = {signal: tuple(column[(t - 1) * length:t * length])
               for signal, column in trace.slots.items()
               for length in [p.q if signal[:3] in ("X_S", "Y_R") else p.qbar]}
        assert (row["Y_R1"], row["Y_R2"]) == _first_hop(row["X_S1"], row["X_S2"], p, 0)
        assert (row["Y_D1"], row["Y_D2"], row["Y_S1"], row["Y_S2"]) == _second_hop(
            row["X_R1"], row["X_R2"], p, 0)


def _count_engine_hops(monkeypatch):
    """The hop (1 or 2) of every call the sequential value engine makes to
    the channel geometry; the builder's calls, on position sets, and the
    lane path's, on lane ints, are not counted."""
    calls, engines = [], []
    real_engine = pipeline._run_engine

    def engine(*args, **kwargs):
        engines.append(None)
        try:
            return real_engine(*args, **kwargs)
        finally:
            engines.pop()
    monkeypatch.setattr(pipeline, "_run_engine", engine)
    for hop, name in ((1, "_first_hop"), (2, "_second_hop")):
        def counting(x1, x2, p, zero, hop=hop, real=getattr(pipeline, name)):
            if engines:
                calls.append(hop)
            return real(x1, x2, p, zero)
        monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_replay_of_a_run_reads_its_channel_maps(monkeypatch):
    """run_scheme fills the schedule's maps with one entry per distinct
    input pair; the verify_trace it hands the schedule to computes no hop,
    and a parsed trace's fresh build starts with empty maps."""
    calls = _count_engine_hops(monkeypatch)
    trace = run_scheme("fbxw", FBXW_SMALL, 300, faults={(100, "X_R2"): 1})
    hop1, hop2 = trace._run[0].channel_maps
    assert (calls.count(1), calls.count(2)) == (len(hop1), len(hop2))
    assert len(hop1) + len(hop2) < trace.n_slots
    text = format_trace(trace)
    del calls[:]
    assert verify_trace(trace).faults == [(100, "X_R2", 1)]
    assert calls == [] and trace._run is None
    assert verify_trace(parse_trace(text)).faults == [(100, "X_R2", 1)]
    assert (calls.count(1), calls.count(2)) == (len(hop1), len(hop2))


# (start, period, shift) of each TILE_CASES point at 30 packets, and the
# slots its base build holds: the least run that shows the period, a whole
# number of superframes short of 30
TILING_AT_30 = [(4, 2, 25), (3, 4, 24), (3, 4, 24), (4, 2, 25), (8, 2, 23),
                (2, 2, 26), (2, 2, 26), (2, 2, 26), (4, 2, 25)]
BUILT_AT_30 = [14, 15, 15, 14, 18, 9, 10, 10, 14]


@pytest.mark.parametrize("case,tiling,built", zip(TILE_CASES, TILING_AT_30, BUILT_AT_30),
                         ids=_ids(TILE_CASES))
def test_tiling_at_30_packets_is_pinned(case, tiling, built):
    scheme, p = case
    schedule = build_schedule(scheme, p, 30)
    assert schedule.tiling == tiling
    assert len(schedule.built) == built


@pytest.mark.parametrize("packets", [12, 13])
@pytest.mark.parametrize("scheme,p", TILE_CASES, ids=_ids(TILE_CASES))
def test_watched_build_stops_at_the_least_run_showing_its_period(scheme, p, packets):
    """A watched build that proves its period stops as the least run a whole
    number of superframes shorter whose watch reaches that slot: its records
    are a direct watched build of that length, record for record, which
    finds the same period but is not cut, and one superframe fewer would be
    under 4 or would stop watching before the period shows."""
    watched = _Builder(scheme, p, packets)
    watched.watch = True
    tiled = watched.build()
    least, period = watched.packets, watched.period
    sf = period // 2                              # packets per superframe
    assert 4 <= least < packets and (packets - least) % sf == 0
    direct = _Builder(scheme, p, least)
    direct.watch = True
    short = direct.build()
    assert (tiled.built, tiled.packets, tiled.n_slots) == (
        short.built, packets, short.n_slots + 2 * (packets - least))
    assert tiled.tiling == (watched.period_start, period, packets - least)
    assert short.tiling == (0, 0, 0) and short.packets == least
    assert watched.period_start == direct.period_start is not None
    found = watched.period_start + period         # the slot the watch found it at
    assert least - sf < 4 or found + period > 2 * (least - sf) - 1


@pytest.mark.parametrize("packets", [12, 13])
@pytest.mark.parametrize("scheme,p", TILE_CASES, ids=_ids(TILE_CASES))
def test_watched_base_build_makes_tables_for_its_packets_only(scheme, p, packets):
    """A watched build that stops at P0' packets makes the unit Emits and the
    sources' knowledge of exactly those P0' packets, and names each of their
    positions, for its error texts, by the ref the run's payload_refs gives
    it."""
    watched = _Builder(scheme, p, packets)
    watched.watch = True
    watched.build()
    least, per_packet = watched.packets, watched.per_packet
    assert least < packets
    assert len(watched.unit) == least * per_packet
    assert [emit.refs for emit in watched.unit] == [{i} for i in range(least * per_packet)]
    refs = build_schedule(scheme, p, least).payload_refs
    assert tuple(map(watched._ref, range(least * per_packet))) == refs
    assert watched.know["S1"] | watched.know["S2"] >= set(range(least * per_packet))
    assert max(watched.know["S1"] | watched.know["S2"]) == least * per_packet - 1


def test_waiting_index_follows_from_the_pending_decodes(monkeypatch):
    """The period state leaves out the relays' waiting index because, after
    every watched slot of every in-regime CI-grid pair at 14 packets, and of
    the tile cases at 12, it is the pending decodes, in arrival order,
    listed under the two positions of their refs the relay does not know,
    and nothing else."""
    snapshot, seen = _Builder._state, []

    def checked(self, t):
        for relay in ("R1", "R2"):
            derived = {}
            for arrival, (_, refs) in self.pending[relay].items():
                unknown = refs - self.know[relay]
                assert len(unknown) == 2
                for i in unknown:
                    derived.setdefault(i, []).append(arrival)
            assert self.waiting[relay] == derived, (self.scheme, self.p, t)
        seen.append(t)
        return snapshot(self, t)
    monkeypatch.setattr(_Builder, "_state", checked)
    cases = [(scheme, p, 14) for scheme, p in CI_GRID_PAIRS]
    cases += [(scheme, p, 12) for scheme, p in TILE_CASES]
    for scheme, p, packets in cases:
        build_schedule(scheme, p, packets)
    assert len(seen) > 1395


class _DestinationKnowledgeBuilder(_Builder):
    """A builder whose period state also holds what D1 and D2 know, as the
    state did before it left them out."""

    def _state(self, t):
        assert not self.know["D1"] and not self.know["D2"], (self.scheme, self.p, t)
        return *super()._state(t), frozenset(self.know["D1"]), frozenset(self.know["D2"])


def test_period_state_without_the_destinations_finds_the_same_period():
    """A destination learns only through its deliveries, so its knowledge
    set stays empty and the period state leaves it out: on every in-regime
    CI-grid pair at 14 packets, and at the tile cases at 12 packets, a build
    whose state holds it finds the same period start and builds the same
    records."""
    cases = [(scheme, p, 14) for scheme, p in CI_GRID_PAIRS]
    cases += [(scheme, p, 12) for scheme, p in TILE_CASES]
    for scheme, p, packets in cases:
        builders = _Builder(scheme, p, packets), _DestinationKnowledgeBuilder(scheme, p, packets)
        for builder in builders:
            builder.watch = True
            builder.build()
        plain, full = builders
        assert (plain.period_start, plain.built) == (full.period_start, full.built), (scheme, p)


def test_every_ci_grid_pair_tiles():
    """Every in-regime (scheme, point) of the CI grid finds its period, so a
    long run never falls back to a full build without notice."""
    rate_zero, untiled = 0, []
    for scheme, p in CI_GRID_PAIRS:
        schedule = build_schedule(scheme, p, 30)
        if schedule.formula_rate == 0:
            rate_zero += 1
        if schedule.tiling == (0, 0, 0):
            untiled.append((scheme, p))
    # A rate-0 pair tiles while delivering nothing, so its delivery check is
    # vacuous: count it apart, so that a pair that falls to rate 0 shows.
    assert (len(CI_GRID_PAIRS) - rate_zero, rate_zero) == (1032, 363)
    assert untiled == []


# the in-regime CI-grid pairs that tile at 4 to 8 packets
@pytest.mark.parametrize("packets,tiled", [(4, 0), (5, 1222), (6, 1270), (7, 1277), (8, 1389)])
def test_every_ci_grid_pair_reads_as_its_full_build(packets, tiled):
    """At 4 to 8 packets every in-regime CI-grid pair, tiled or not, reads
    as its full build slot by slot and counts as it, and every untiled
    pair's lanes give the sequential engine's columns, with no wrong
    delivery.  The number of pairs that tile is pinned, so a tiling
    regression fails here."""
    assert len(CI_GRID_PAIRS) == 1395
    count = 0
    for scheme, p in CI_GRID_PAIRS:
        schedule, full = build_schedule(scheme, p, packets), _Builder(scheme, p, packets).build()
        count += bool(schedule.tiling[2])
        assert (schedule.n_slots, schedule.counts) == (full.n_slots, full.counts), (scheme, p)
        assert list(schedule.slots()) == list(full.slots()), (scheme, p)
        if not schedule.tiling[2]:
            bits = _payload_bits(2 * schedule.formula_rate * packets, 7)
            columns, errors, *_ = _run_engine(schedule, bits)
            assert (_run_lanes(schedule, bits), errors) == (columns, []), (scheme, p)
    assert count == tiled


@pytest.mark.parametrize("packets", [8, 13, 14, 31])
def test_counts_are_the_slot_by_slot_oracle_on_the_ci_grid(packets):
    """On every in-regime (scheme, point) of the CI grid, rate-0 pairs
    included, Schedule.counts, counted once per built slot, is the oracle
    that reads the run slot by slot: delivered bits, steady rate, and the
    written (node, packet) pairs in order.  Each verdict decoder writes
    every packet of the run, or none at rate 0."""
    full, none = 0, 0
    for scheme, p in CI_GRID_PAIRS:
        schedule = build_schedule(scheme, p, packets)
        delivered, steady, _ = schedule.counts
        assert (delivered, steady, _written_pairs(schedule)) == _counts_slot_by_slot(
            schedule), (scheme, p)
        ranges = {written for _, written in schedule.counts[2]}
        if schedule.formula_rate:
            full += ranges == {range(1, packets + 1)}
        else:
            none += ranges == {range(0)}
    assert (full, none) == (1032, 363)


def test_decoder_packets_that_are_not_one_run_are_an_invariant_error():
    """counts holds each decoder's written packets as one range, so a
    schedule in which D1 writes no bit of packet 4 of 8 cannot be counted."""
    schedule = build_schedule("fbxw", FBXW_SMALL, 8)
    per_packet = 2 * schedule.formula_rate
    built = tuple(slot._replace(steps=tuple(
        step for step in slot.steps
        if (step.node, step.target // per_packet + 1) != ("D1", 4)))
        for slot in schedule.built)
    with pytest.raises(pipeline.PipelineError, match="^D1's packets are not one run"):
        replace(schedule, built=built).counts


def test_superframe_two_points_tile_by_two_packets():
    for scheme, p in (("rsw", ChannelParams(2, 4, 0, 1, 3)),
                      ("rss", ChannelParams(4, 1, 1, 1, 2))):
        assert build_schedule(scheme, p, 30).tiling[1] == 4   # slots per period


def test_superframe_one_base_does_not_depend_on_the_parity_of_the_run():
    """At superframe 1 every run is a whole number of superframes longer
    than the least run that shows its period, so runs of 30 and 31 packets
    tile the same base build: every superframe-1 TILE_CASES point and
    example chain, and every tenth superframe-1 in-regime pair of the CI
    grid."""
    one = [(scheme, p) for scheme, p in CI_GRID_PAIRS if _Builder(scheme, p, 4).period == 2]
    named = TILE_CASES + [case for case in EXAMPLE_CHAINS if case not in TILE_CASES]
    cases = [(scheme, p) for scheme, p in named
             if _Builder(scheme, p, 4).period == 2] + one[::10]
    assert len(cases) == 8 + 128
    for scheme, p in cases:
        even, odd = build_schedule(scheme, p, 30), build_schedule(scheme, p, 31)
        assert even.built == odd.built, (scheme, p)
        assert odd.tiling == (*even.tiling[:2], even.tiling[2] + 1) != (0, 0, 1)


def test_long_run_builds_once_at_tile_size(builds):
    wide = build_schedule("fbxw", FBXW_WIDE, 300)
    short = build_schedule("fbxw", FBXW_WIDE, 1000)
    long = build_schedule("fbxw", FBXW_WIDE, 2000)
    assert builds == [("fbxw", 300), ("fbxw", 1000), ("fbxw", 2000)]
    # cut to the least run showing its period
    assert len(wide.built) == len(long.built) == 14
    assert long.n_slots - short.n_slots == 2 * 1000
    assert long.built is not short.built
    assert len(long.built) == len(short.built)   # the same small build


def test_failed_period_check_builds_in_full(builds, monkeypatch):
    monkeypatch.setattr(_Builder, "_state", lambda self, t: object())
    case = ("rsw", (2, 4, 0, 1, 3), 30)
    schedule = build_schedule("rsw", ChannelParams(2, 4, 0, 1, 3), 30)
    assert builds == [("rsw", 30)]
    assert schedule.tiling == (0, 0, 0)
    assert _schedule_digest(schedule) == FROZEN_SCHEDULE_DIGESTS[case]


@pytest.mark.parametrize("refused", [None, "state", "period"])
@pytest.mark.parametrize("packets", [4, 8, 13, 30, 300, 2000])
def test_build_schedule_builds_once(packets, refused, builds, monkeypatch):
    """build_schedule makes one build at the run's length, whether it tiles,
    its state never recurs or its period proof fails (_recurs refusing every
    record): the last two run on as the full build, which is the one
    FROZEN_SCHEDULE_DIGESTS pins."""
    if refused == "state":
        monkeypatch.setattr(_Builder, "_state", lambda self, t: object())
    elif refused == "period":
        monkeypatch.setattr(pipeline, "_recurs", lambda *args: False)
    schedule = build_schedule("fbxw", FBXW_SMALL, packets)
    assert builds == [("fbxw", packets)]
    assert bool(schedule.tiling[2]) == (refused is None and packets > UNTILED_UP_TO[0])
    assert schedule.packets == packets and schedule.n_slots == 2 * packets + 4
    case = ("fbxw", (2, 4, 1, 1, 3), packets)
    if case in FROZEN_SCHEDULE_DIGESTS:
        assert _schedule_digest(schedule) == FROZEN_SCHEDULE_DIGESTS[case]


def test_watch_keeps_the_last_period_of_snapshots(monkeypatch):
    """After every watched slot the builder holds at most one period of state
    snapshots, also when its state never recurs and it watches to the end."""
    watch, most = _Builder._watch_period, []

    def checked(self, t):
        watch(self, t)
        assert len(self.states) <= self.period, (self.scheme, self.p, t)
        most.append(len(self.states) == self.period)
    monkeypatch.setattr(_Builder, "_watch_period", checked)
    for scheme, p in TILE_CASES:
        build_schedule(scheme, p, 30)
    monkeypatch.setattr(_Builder, "_state", lambda self, t: object())
    for scheme, p in TILE_CASES:
        build_schedule(scheme, p, 30)
    assert any(most)


def _watched_build():
    """A watched 12-packet fbxw build that proved its period, and the
    records it built."""
    builder = _Builder("fbxw", FBXW_SMALL, 12)
    builder.watch = True
    assert builder.build().tiling[2]
    return builder, tuple(builder.built)


def _proves(builder, built):
    """Whether ``builder``'s period proof holds on ``built`` as its records."""
    builder.built = list(built)
    return builder._proves(builder.period_start)


def test_period_whose_slots_do_not_recur_is_refused():
    builder, built = _watched_build()
    assert builder.period_start is not None and _proves(builder, built)
    # slots 1-2 (hop 1 only) do not recur in slots 3-4
    assert not builder._proves(0)
    # a state that never recurs leaves no period to prove
    never = _Builder("fbxw", FBXW_SMALL, 12)
    never.watch, never._state = True, lambda t: object()
    assert never.build().tiling == (0, 0, 0) and never.period_start is None


def test_period_past_the_end_of_the_build_is_refused():
    """A next period cut short by the end of the build is refused, although
    every slot it does have repeats the period."""
    builder, built = _watched_build()
    start, period = builder.period_start, builder.period
    assert _proves(builder, built[:start + 2 * period])
    assert not _proves(builder, built[:start + 2 * period - 1])


def test_period_differing_only_in_feedback_is_refused():
    builder, own = _watched_build()
    start, period = builder.period_start, builder.period
    built = list(own)
    slot = built[start + period]             # first slot of the next period
    *kept, (level, j) = slot.feedback[1]
    built[start + period] = slot._replace(
        feedback=(slot.feedback[0], (*kept, (level, j + 1))))
    assert _proves(builder, own)
    assert not _proves(builder, built)


def test_period_differing_only_in_a_target_position_is_refused():
    builder, own = _watched_build()
    start, period = builder.period_start, builder.period
    built = list(own)
    k = next(k for k in range(start + period, start + 2 * period) if built[k].steps)
    step, *rest = built[k].steps
    built[k] = built[k]._replace(
        steps=(step._replace(target=step.target + 1), *rest))
    assert _proves(builder, own)
    assert not _proves(builder, built)


def _next_period_changed(own, start, period, field):
    """(the records ``own`` with ``field`` changed in one record of the
    period after the proved one, whether the changed record had the field
    set): the first Emit or DecodeStep there, or slot for the feedback, that
    has it set, or else the first one.  Field ``tx`` leaves the first sent
    level of that period unsent, and ``steps`` drops the last decode step of
    its first slot that has any."""
    built = list(own)
    slots = range(start + period, start + 2 * period)
    if field == "steps":
        k = next(k for k in slots if built[k].steps)
        built[k] = built[k]._replace(steps=built[k].steps[:-1])
        return built, True
    if field == "feedback":
        k = next((k for k in slots if built[k].feedback), slots[0])
        feedback = built[k].feedback
        if feedback:
            *kept, (level, j) = feedback[1]
            changed = (feedback[0], (*kept, (level, j + 1)))
        else:
            changed = (((0, 0),), ())
        built[k] = built[k]._replace(feedback=changed)
        return built, bool(feedback)
    change = {
        "tx": lambda e: None,
        "refs": lambda e: e._replace(refs=e.refs ^ {0}),
        "echo_src": lambda e: e._replace(echo_src=("Y_S1", 1, 0) if e.echo_src is None
                                         else (*e.echo_src[:2], e.echo_src[2] + 1)),
        "cancel": lambda e: e._replace(cancel=e.cancel ^ {0}),
        "node": lambda s: s._replace(node="D2" if s.node == "D1" else "D1"),
        "obs": lambda s: s._replace(obs=((*s.obs[0][:2], s.obs[0][2] + 1), *s.obs[1:])),
        "side": lambda s: s._replace(side=s.side ^ {0}),
        "target": lambda s: s._replace(target=s.target + 1),
        "deliver": lambda s: s._replace(deliver=not s.deliver),
    }[field]
    if field in ("tx", *Emit._fields):
        places = [(k, i, level) for k in slots for i, emits in enumerate(built[k].tx)
                  for level, emit in enumerate(emits) if emit]
        k, i, level = next((place for place in places
                            if getattr(built[place[0]].tx[place[1]][place[2]], field, None)),
                           places[0])
        record = built[k].tx[i][level]
        emits = list(built[k].tx[i])
        emits[level] = change(record)
        built[k] = built[k]._replace(tx=(*built[k].tx[:i], tuple(emits), *built[k].tx[i + 1:]))
    else:
        places = [(k, n) for k in slots for n in range(len(built[k].steps))]
        k, n = next((place for place in places
                     if getattr(built[place[0]].steps[place[1]], field)), places[0])
        record = built[k].steps[n]
        steps = list(built[k].steps)
        steps[n] = change(record)
        built[k] = built[k]._replace(steps=tuple(steps))
    assert built[k] != own[k]
    return built, bool(getattr(record, field, True))


@pytest.mark.parametrize("field", ["refs", "echo_src", "cancel", "node", "obs", "side",
                                   "target", "deliver", "feedback", "tx", "steps"])
def test_period_differing_in_one_field_of_one_record_is_refused(field):
    """The period proof compares every field of every record with its
    next-period record: one field changed in one record of the next
    period, a level left unsent or a decode step dropped, at every
    TILE_CASES build, refuses the period, and the records as built prove
    it.  Some build changes a record that has the field set, so the moved
    value is compared, not only its presence."""
    set_somewhere = False
    for scheme, p in TILE_CASES:
        builder = _Builder(scheme, p, 12)
        builder.watch = True
        assert builder.build().tiling[2]
        own, start, period = tuple(builder.built), builder.period_start, builder.period
        assert _proves(builder, own)
        changed, was_set = _next_period_changed(own, start, period, field)
        assert not _proves(builder, changed), (scheme, p)
        set_somewhere |= was_set
    assert set_somewhere


def test_short_runs_build_once(builds):
    build_schedule("fbxw", FBXW_SMALL, 12)
    build_schedule("fbxw", FBXW_SMALL, 5)
    assert builds == [("fbxw", 12), ("fbxw", 5)]


def test_schedule_views_are_read_only_mappings():
    schedule = build_schedule("rsw", ChannelParams(2, 4, 0, 1, 3), 30)
    assert not hasattr(schedule.steps, "__setitem__")
    assert all(type(steps) is tuple for steps in schedule.steps.values())
    assert all(type(slot.steps) is tuple for slot in schedule.built)
    assert schedule.steps.get(schedule.n_slots + 1) is None
    assert 40 in schedule.steps


ONE_PER_SCHEME = [
    ("fbxw", ChannelParams(2, 4, 1, 1, 3)),
    ("rsw", ChannelParams(2, 4, 0, 1, 3)),
    ("rss", ChannelParams(4, 1, 1, 1, 2)),
    ("nofb-mid", ChannelParams(3, 3, 0, 0, 10)),
]


@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_runs_read_no_schedule_table(scheme, p, monkeypatch):
    """A tiled run, its replay and the parse round trip read the built
    records only, never a slot moved to its packets (slots()) or the
    steps table."""
    def refuse(self, *args):
        raise AssertionError("a schedule table was expanded")
    monkeypatch.setattr(Schedule, "slots", refuse)
    monkeypatch.setattr(Schedule, "steps", property(refuse))
    trace = run_scheme(scheme, p, 30)
    text = format_trace(trace)
    assert verify_trace(trace).ok
    assert verify_trace(parse_trace(text)).ok


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_clean_runs_name_no_bits(scheme, p, packets, monkeypatch):
    """A clean run, its replay, its formatting and its parse, full build (4)
    and tiled (8, 30) alike, read no ref table and draw no payload dict; a
    faulted replay names its wrong bits, and only those, by ref.  Every
    ONE_PER_SCHEME point shows its period within 8 packets, and a run of 4
    cannot stop shorter, so it is built in full."""
    def refuse(*args):
        raise AssertionError("a payload bit was named")
    monkeypatch.setattr(Schedule, "payload_refs", property(refuse))
    monkeypatch.setattr(pipeline, "generate_payload", refuse)
    trace = run_scheme(scheme, p, packets)
    assert bool(trace._run[0].tiling[2]) == (packets > 4)
    text = format_trace(trace)
    assert verify_trace(trace).ok
    assert verify_trace(parse_trace(text)).ok
    monkeypatch.undo()
    schedule = build_schedule(scheme, p, packets)
    after = 10 if packets > 4 else 4          # a delivery past the warm-up
    t, step = next((t, step) for t, slot in schedule.slots() if t > after
                   for step in slot.steps if step.deliver)
    signal, _, level = step.obs[0]
    faults = {(t, signal): level}
    trace = run_scheme(scheme, p, packets, faults=faults)
    report = verify_trace(trace)
    ref = schedule.payload_refs[step.target]
    assert report.payload_errors[0] == (t, step.node, ref)
    bits = _payload_bits(len(schedule.payload_refs), trace.seed)
    errors = _run_engine(schedule, bits, faults=faults)[1]
    assert report.payload_errors == [(slot, d, schedule.payload_refs[i])
                                     for slot, d, i in errors]
    assert trace.decode_errors == len(errors)
    assert report.packet_verdicts[ref[1]] is False


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_deliveries_name_bits_by_position(scheme, p, packets):
    """A wrong delivery's third field is its bit's payload_refs position,
    full build (4) and tiled schedule (8, 30) alike: a flipped delivering level
    makes the engine list that step's (slot, dest, position), and every
    delivery it lists, named through payload_refs, is a delivering step of
    the schedule."""
    schedule = build_schedule(scheme, p, packets)
    refs = schedule.payload_refs
    t, step = next((t, step) for t, slot in schedule.slots() if t > 6
                   for step in slot.steps if step.deliver)
    signal, _, level = step.obs[0]
    bits = _payload_bits(len(refs), DEFAULT_SEED)
    errors = _run_engine(schedule, bits, faults={(t, signal): level})[1]
    assert (t, step.node, step.target) in errors
    assert {(slot, d, refs[i]) for slot, d, i in errors} <= set(_deliveries(schedule))


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_runs_make_no_gfvec(scheme, p, packets, monkeypatch):
    """A run, its replay and its formatting pass plain level tuples through
    the channel's private geometry, full build (4) and tiled (8, 30) alike;
    only parse_trace, which reads outside input, makes GfVecs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a GfVec was constructed")
    monkeypatch.setattr(GfVec, "__new__", refuse)
    trace = run_scheme(scheme, p, packets)
    assert verify_trace(trace).ok
    last = format_trace(trace).splitlines()[-1]
    assert last.startswith(f"{trace.n_slots} ")


# ---------------------------------------------------------------------------
# Hand-off: a clean run's result is carried to the one verify_trace that
# follows, which evaluates nothing again.

@pytest.mark.parametrize("scheme,p,packets",
                         [(s, p, n) for n in (8, 30) for s, p in ONE_PER_SCHEME]
                         + [("fbxw", FBXW_WIDE, 300)] + [(s, p, 4) for s, p in ONE_PER_SCHEME])
def test_carried_verify_makes_no_lane_or_engine_pass(scheme, p, packets, monkeypatch):
    """A clean run's verify_trace takes the columns the run's lanes made,
    full build (4) and tiled alike, and reports as a fresh verify of the
    same columns does, key order included."""
    trace = run_scheme(scheme, p, packets)
    fresh = verify_trace(replace(trace))      # the same columns, nothing carried
    _refuse_clean_passes(monkeypatch)
    carried = verify_trace(trace)
    assert carried == fresh and carried.ok
    assert list(carried.node_verdicts) == list(fresh.node_verdicts)
    assert list(carried.packet_verdicts) == list(fresh.packet_verdicts)
    assert trace._run is None


def _refuse_clean_passes(monkeypatch):
    """Make a lane or engine pass an AssertionError."""
    def refuse(*args, **kwargs):
        raise AssertionError("the clean run was evaluated again")
    monkeypatch.setattr(pipeline, "_run_lanes", refuse)
    monkeypatch.setattr(pipeline, "_run_engine", refuse)


def _traced(call, *args):
    """``call(*args)`` under tracemalloc: its result, and the MB still
    traced after it and at its peak."""
    tracemalloc.start()
    try:
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held / 1e6, peak / 1e6


@pytest.mark.parametrize("scheme,p", EXAMPLE_CHAINS, ids=_ids(EXAMPLE_CHAINS))
def test_long_run_is_the_sequential_engine_and_carries_its_verify(scheme, p, monkeypatch):
    """At 3000 packets a clean run's lanes give the sequential engine's
    columns, with no wrong delivery, and deliver every bit; no run, engine
    pass or verify reads the ref table; the carried verify makes no lane
    or engine pass, counts as the run, and is the report a sequential
    replay of the trace makes, key order included.  At the wide point the
    trace holds at most 6 MB after its run and verify_trace peaks at most
    at 5 MB (tracemalloc)."""
    trace, held_mb, _ = _traced(run_scheme, scheme, p, 3000)
    schedule = trace._run[0]
    bits = _payload_bits(2 * schedule.formula_rate * schedule.packets, trace.seed)
    columns, errors, *_ = _run_engine(schedule, bits)
    with monkeypatch.context() as patched:
        _refuse_clean_passes(patched)
        report, _, peak_mb = _traced(verify_trace, trace)
    assert "payload_refs" not in vars(schedule)
    assert (trace.slots, errors, trace.decode_errors) == (columns, [], 0)
    assert ((trace.delivered_bits, trace.steady_state_rate)
            == (report.delivered_bits, report.steady_state_rate))
    assert trace.delivered_bits == 2 * schedule.formula_rate * schedule.packets
    assert report.ok
    if p == FBXW_WIDE:
        assert peak_mb <= 5 and held_mb <= 6, (peak_mb, held_mb)
    with mock.patch.object(pipeline, "_run_lanes", return_value=None) as lanes:
        replayed = verify_trace(trace)
    assert lanes.called and replayed == report
    assert list(replayed.node_verdicts) == list(report.node_verdicts)
    assert list(replayed.packet_verdicts) == list(report.packet_verdicts)


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("whole", [False, True], ids=["in-place", "new-dict"])
def test_column_replaced_after_the_run_is_located(packets, whole):
    """The carried result is a dict of its own: a column replaced after the
    run, in the trace's dict or by a new dict, is compared and located."""
    trace = run_scheme("fbxw", FBXW_SMALL, packets)
    column = bytearray(trace.slots["Y_D1"])
    column[(9 - 1) * FBXW_SMALL.qbar + 2] ^= 1           # slot 9, level 2
    if whole:
        trace.slots = {**trace.slots, "Y_D1": bytes(column)}
    else:
        trace.slots["Y_D1"] = bytes(column)
    report = verify_trace(trace)
    assert report.faults == [(9, "Y_D1", 2)] and not report.ok


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("change", ["schedule", "seed", "packets"])
def test_changed_run_does_not_use_the_carried_columns(change, packets):
    """The carried run is used only while its schedule's scheme, p and
    packets and its seed are the trace's: a run record holding a schedule
    of another packet count or a changed seed makes a lane or engine pass,
    and a changed packet count meets a fresh build."""
    trace = run_scheme("fbxw", FBXW_SMALL, packets)
    if change == "schedule":
        trace._run = (build_schedule("fbxw", FBXW_SMALL, packets + 1), *trace._run[1:])
    elif change == "seed":
        trace.seed += 1
    else:
        trace.packets += 1
    with mock.patch.object(pipeline, "_run_lanes", wraps=_run_lanes) as lanes, \
            mock.patch.object(pipeline, "_run_engine", wraps=_run_engine) as engine:
        if change == "packets":
            with pytest.raises(ChannelDomainError, match="slots"):
                verify_trace(trace)
        else:
            assert verify_trace(trace).ok == (change == "schedule")
            assert lanes.called or engine.called
    assert trace._run is None


def test_faulted_run_carries_no_result():
    trace = run_scheme("fbxw", FBXW_SMALL, 30, faults={(9, "Y_R1"): 0})
    assert trace._run[3] is None and trace._run[0] is not None
    assert verify_trace(trace).faults[0] == (9, "Y_R1", 0)


# per WORKED point, the longest run whose period does not show within its
# own length, so that it is built in full; one packet more tiles
UNTILED_UP_TO = [5, 7, 7, 5, 7, 4, 4]


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, len(WORKED) - 1), seed=st.integers(0, 2**32 - 1),
       faulty=st.booleans(), data=st.data())
def test_untiled_verify_is_the_replay(case, seed, faulty, data):
    """A full build's clean recording is verified on lanes, carried from its
    run or made afresh for its parse, and one with a flip is replayed by the
    sequential engine; either way the report is _report of the sequential
    replay of the recording, key order included."""
    scheme, p, _ = WORKED[case]
    packets = data.draw(st.integers(4, UNTILED_UP_TO[case]), label="packets")
    assert build_schedule(scheme, p, UNTILED_UP_TO[case] + 1).tiling[2]
    faults = None
    if faulty:
        slot, signal, level = _draw_flip(data, scheme, p, packets)
        faults = {(slot, signal): level}
    trace = run_scheme(scheme, p, packets, seed=seed, faults=faults)
    parsed = parse_trace(format_trace(trace))
    schedule = build_schedule(scheme, p, packets)
    assert not schedule.tiling[2]
    bits = _payload_bits(len(schedule.payload_refs), seed)
    _, errors, found, _, wrong = _run_engine(schedule, bits, recorded=trace.slots)
    oracle = pipeline._report(schedule, found, errors, wrong)
    with mock.patch.object(pipeline, "_run_lanes", wraps=_run_lanes) as lanes, \
            mock.patch.object(pipeline, "_run_engine", wraps=_run_engine) as engine:
        reports = verify_trace(trace), verify_trace(parsed)
    # the clean run carries its lane columns, so only the parse makes lanes;
    # the faulted run carries none, and both recordings are replayed
    assert lanes.call_count == 1 + bool(faults)
    assert [call.kwargs for call in engine.call_args_list] == (
        [{"recorded": trace.slots}] * (2 * bool(faults)))
    for report in reports:
        assert report == oracle and report.ok == (faults is None)
        assert list(report.node_verdicts) == list(oracle.node_verdicts)
        assert list(report.packet_verdicts) == list(oracle.packet_verdicts)


# ---------------------------------------------------------------------------
# Lane path: a clean tiled run evaluated lane-parallel, checked against the
# sequential engine.

def _assert_stores_are_decode_targets(schedule, bits, stores):
    """A clean run's stores hold the payload bit exactly where a source
    starts with it or a decode step of the schedule writes it, and None
    elsewhere: what verify_trace's counts from the schedule rely on."""
    want = pipeline._source_stores(schedule, bits)
    for _, slot in schedule.slots():
        for step in slot.steps:
            want[step.node][step.target] = bits[step.target]
    assert stores == want


def _assert_lane_report_is_sequential(trace, stores):
    """verify_trace's report of a clean tiled run, ``from_lanes``, made from
    the lane result its run carried, is the one verify_trace makes when the
    sequential engine replays the same columns (the lanes mocked to make
    none), and the one _report makes of that replay, key order included;
    its counts are the schedule's delivering steps read slot by slot, and
    the (node, packet) pairs the engine's decoder ``stores`` hold."""
    run = trace._run
    schedule = run[0]
    _assert_counts_are_delivering_steps(trace, schedule)
    from_lanes = verify_trace(trace)
    trace._run = (*run[:3], None)              # the run, without its lane columns
    with mock.patch.object(pipeline, "_run_lanes", return_value=None) as lanes:
        replayed = verify_trace(trace)
    assert lanes.called and from_lanes.ok
    assert replayed == from_lanes
    bits = _payload_bits(len(stores["S1"]), trace.seed)
    _, errors, found, _, wrong = _run_engine(schedule, bits, recorded=trace.slots)
    assert pipeline._report(schedule, found, errors, wrong) == from_lanes
    assert list(replayed.node_verdicts) == list(from_lanes.node_verdicts)
    assert list(replayed.packet_verdicts) == list(from_lanes.packet_verdicts)
    per_packet = 2 * schedule.formula_rate
    written = dict.fromkeys((node, i // per_packet + 1) for node in ("R1", "R2", "D1", "D2")
                            for i, value in enumerate(stores[node]) if value is not None)
    assert list(from_lanes.node_verdicts) == list(written)
    assert from_lanes.delivered_bits == trace.delivered_bits
    assert from_lanes.steady_state_rate == trace.steady_state_rate


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(TILE_CASES) - 1), packets=st.integers(14, 60),
       seed=st.integers(0, 2**32 - 1))
def test_lane_path_equals_sequential_engine(case, packets, seed):
    """The sequential engine is the oracle of a clean tiled run: it gets every bit right, the lane path gives its
    columns, a replay of those columns finds nothing, the engine's stores
    are the schedule's decode targets, verify_trace's report from the lanes
    is the one it makes from a sequential replay of the same columns, and a
    changed column makes verify_trace replay it sequentially."""
    scheme, p = TILE_CASES[case]
    schedule = build_schedule(scheme, p, packets)
    assert schedule.tiling[2]
    bits = _payload_bits(len(schedule.payload_refs), seed)
    columns, errors, found, stores, wrong = _run_engine(schedule, bits)
    assert (errors, found, wrong) == ([], [], [])
    _assert_stores_are_decode_targets(schedule, bits, stores)
    assert _run_lanes(schedule, bits) == columns
    assert _run_engine(schedule, bits, recorded=columns)[1:] == ([], [], stores, [])
    trace = run_scheme(scheme, p, packets, seed=seed)
    assert (trace.slots, trace.decode_errors) == (columns, 0)
    _assert_lane_report_is_sequential(trace, stores)
    signal = next(s for s in SIGNALS if columns[s])
    changed = bytearray(columns[signal])
    changed[len(changed) // 2] ^= 1
    trace.slots = {**columns, signal: bytes(changed)}
    with mock.patch.object(pipeline, "_run_engine", wraps=_run_engine) as engine:
        report = verify_trace(trace)
    assert engine.call_args.kwargs == {"recorded": trace.slots}
    length = len(columns[signal]) // trace.n_slots
    assert report.first_fault == (len(changed) // 2 // length + 1, signal,
                                  len(changed) // 2 % length)


@settings(max_examples=100, deadline=None)
@given(case=st.integers(0, len(TILE_CASES) - 1), packets=st.sampled_from([4, 8, 30]),
       data=st.data())
def test_flipped_column_byte_is_the_first_fault(case, packets, data):
    """Byte i of one column of a clean trace flipped, on a full build (4)
    and a tiled run (8, 30) alike, is the first fault verify_trace reports:
    slot i // L + 1, the column's signal, level i % L, where L is that
    signal's vector length."""
    scheme, p = TILE_CASES[case]
    trace = run_scheme(scheme, p, packets)
    signal = data.draw(st.sampled_from(SIGNALS), label="signal")
    length = p.q if signal[:3] in ("X_S", "Y_R") else p.qbar
    column = bytearray(trace.slots[signal])
    i = data.draw(st.integers(0, len(column) - 1), label="byte")
    column[i] ^= 1
    trace.slots[signal] = bytes(column)
    assert verify_trace(trace).first_fault == (i // length + 1, signal, i % length)


@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_clean_tiled_run_and_its_verify_take_the_lane_path(scheme, p, monkeypatch):
    """Every clean run, tiled (30 packets or the sweep's 8) or a full build
    (4 packets, which shows no period), and the verify of its trace and of
    its parse run on lanes; a faulted run runs on the sequential engine."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sequential engine ran")
    monkeypatch.setattr(pipeline, "_run_engine", refuse)
    for packets in (30, 8, 4):
        trace = run_scheme(scheme, p, packets)
        assert bool(trace._run[0].tiling[2]) == (packets > 4)
        text = format_trace(trace)
        assert verify_trace(trace).ok
        assert verify_trace(parse_trace(text)).ok
    with pytest.raises(AssertionError, match="sequential engine"):
        run_scheme(scheme, p, 30, faults={(20, "X_S1"): 0})


def _drop_side_position(schedule):
    """The schedule with one side position dropped from the first decode
    step of the repeated block that has one."""
    start, period, _ = schedule.tiling
    built = list(schedule.built)
    k, j = next((k, j) for k in range(start, start + period)
                for j, step in enumerate(built[k].steps) if step.side)
    steps = list(built[k].steps)
    steps[j] = steps[j]._replace(side=frozenset(sorted(steps[j].side)[1:]))
    built[k] = built[k]._replace(steps=tuple(steps))
    return replace(schedule, built=tuple(built))


def _drop_cancel_position(schedule):
    """The schedule with one cancel position dropped from the first rss
    echo Emit of the repeated block that has one."""
    start, period, _ = schedule.tiling
    built = list(schedule.built)
    k, n, i = next((k, n, i) for k in range(start, start + period)
                   for n, emits in enumerate(built[k].tx)
                   for i, emit in enumerate(emits)
                   if emit and emit.echo_src and emit.cancel)
    tx = [list(emits) for emits in built[k].tx]
    tx[n][i] = tx[n][i]._replace(cancel=frozenset(sorted(tx[n][i].cancel)[1:]))
    built[k] = built[k]._replace(tx=tuple(map(tuple, tx)))
    return replace(schedule, built=tuple(built))


def _echo_own_unit(schedule):
    """The schedule with the first rss echo Emit of the repeated block that
    lies past the first period made to replay a hop-1 level one period
    back, a slot of the run: in lanes it reads its own hop's lanes of the
    previous repeat, which the lane path cannot evaluate."""
    start, period, _ = schedule.tiling
    built = list(schedule.built)
    k, n, i = next((k, n, i) for k in range(max(start, period), start + period)
                   for n, emits in enumerate(built[k].tx[:2])
                   for i, emit in enumerate(emits) if emit and emit.echo_src)
    tx = [list(emits) for emits in built[k].tx]
    tx[n][i] = tx[n][i]._replace(echo_src=("Y_R1", k + 1 - period, 0))
    built[k] = built[k]._replace(tx=tuple(map(tuple, tx)))
    return replace(schedule, built=tuple(built))


@pytest.mark.parametrize("scheme,p,mutate", [
    ("fbxw", FBXW_SMALL, _drop_side_position),
    ("fbxw", FBXW_WIDE, _drop_side_position),
    ("rss", ChannelParams(4, 1, 1, 1, 2), _drop_side_position),
    ("rss", ChannelParams(4, 1, 1, 1, 2), _drop_cancel_position),
    ("rss", ChannelParams(4, 1, 1, 1, 2), _echo_own_unit),
], ids=["side-fbxw", "side-fbxw-wide", "side-rss", "cancel-rss", "echo-own-unit"])
def test_broken_lane_check_raises(scheme, p, mutate, monkeypatch):
    """A schedule whose lanes do not check out is a PipelineError naming
    the node or signal, the built slot and the point, in run_scheme and in
    a fresh verify_trace of a clean trace: no evaluator stands in for the
    lanes.  The sequential engine, the tests' oracle, still runs the mutant
    and reports its wrong stores, and the wrong deliveries among them."""
    mutant = mutate(build_schedule(scheme, p, 60))
    bits = _payload_bits(len(mutant.payload_refs), DEFAULT_SEED)
    _, errors, _, _, wrong = _run_engine(mutant, bits)
    assert wrong and {(node, i) for _, node, i in errors} <= set(wrong)
    text = (r"^an echo reads Y_R1 position 0 of built slot \d+ from its own lanes"
            if mutate is _echo_own_unit
            else r"^lane check fails: [SRD][12] decodes position \d+ wrong in built slot \d+")
    text += f" at {scheme} {re.escape(p.short())}$"
    with pytest.raises(PipelineError, match=text):
        _run_lanes(mutant, bits)
    trace = run_scheme(scheme, p, 60)
    monkeypatch.setattr(pipeline, "build_schedule", lambda *args: mutant)
    with pytest.raises(PipelineError, match=text):
        run_scheme(scheme, p, 60)
    with pytest.raises(PipelineError, match=text):
        verify_trace(replace(trace))


def _move_read(schedule, field, move):
    """The records of ``schedule`` with the reads of its first decode step
    (``field`` "obs") or its first echo Emit ("echo_src") moved:
    ``move(k, read, length)`` gives each read's new value, from its
    record's built slot k and the length of its signal; with k and the
    moved record."""
    built, lengths = list(schedule.built), pipeline._signal_lengths(schedule.p)
    if field == "obs":
        k = next(k for k, slot in enumerate(built, start=1) if slot.steps)
        first, *rest = built[k - 1].steps
        record = first._replace(
            obs=tuple(move(k, read, lengths[read[0]]) for read in first.obs))
        built[k - 1] = built[k - 1]._replace(steps=(record, *rest))
    else:
        k, n, i = next((k, n, i) for k, slot in enumerate(built, start=1)
                       for n, emits in enumerate(slot.tx)
                       for i, emit in enumerate(emits) if emit and emit.echo_src)
        tx = [list(emits) for emits in built[k - 1].tx]
        read = tx[n][i].echo_src
        record = tx[n][i] = tx[n][i]._replace(echo_src=move(k, read, lengths[read[0]]))
        built[k - 1] = built[k - 1]._replace(tx=tuple(map(tuple, tx)))
    return tuple(built), k, record


def _slot_0(k, read, length):
    return read[0], 0, read[2]


def _own_slot(k, read, length):
    return read[0], k, read[2]


def _next_slot(k, read, length):
    return read[0], k + 1, read[2]


def _past_its_levels(k, read, length):
    return read[0], read[1], length


RSS_SMALL, RSW_SMALL = ChannelParams(4, 1, 1, 1, 2), ChannelParams(2, 4, 0, 1, 3)


@pytest.mark.parametrize("packets", [4, 8, 30])
@pytest.mark.parametrize("scheme,p,field,move,why", [
    ("fbxw", FBXW_SMALL, "obs", _slot_0, "slot {1}, before the run"),
    ("fbxw", FBXW_SMALL, "obs", _next_slot, "slot {1}, after its own"),
    ("fbxw", FBXW_SMALL, "obs", _past_its_levels, "{0} level {2}, outside its {2} levels"),
    ("rss", RSS_SMALL, "echo_src", _slot_0, "slot {1}, before the run"),
    ("rss", RSS_SMALL, "echo_src", _own_slot, "slot {1}, not before its own"),
    ("rsw", RSW_SMALL, "echo_src", _own_slot, "slot {1}, not before its own"),
    ("rss", RSS_SMALL, "echo_src", _next_slot, "slot {1}, not before its own"),
    ("rsw", RSW_SMALL, "echo_src", _next_slot, "slot {1}, not before its own"),
    ("rss", RSS_SMALL, "echo_src", _past_its_levels, "{0} level {2}, outside its {2} levels"),
], ids=["obs-fbxw", "obs-next-fbxw", "obs-level-fbxw", "echo-rss", "echo-own-rss",
        "echo-own-rsw", "echo-next-rss", "echo-next-rsw", "echo-level-rss"])
def test_record_that_reads_before_the_run_is_refused(scheme, p, field, move, why, packets):
    """The read rule: a record may read only a level the run has made
    before it runs.  A decode step that reads slot 0 or the slot after its
    own, an echo that reads slot 0, its own slot or the next one, and
    either reading a level past its signal's length is a PipelineError
    naming the record, its built slot, the read and the point, raised where
    the Schedule is made, full build (4) and tiled alike: no evaluator ever
    sees it."""
    schedule = build_schedule(scheme, p, packets)
    built, k, record = _move_read(schedule, field, move)
    read = record.obs[0] if field == "obs" else record.echo_src
    text = (f"^built slot {k} holds {re.escape(repr(record))}, which reads "
            f"{re.escape(why.format(*read))}, at {scheme} {re.escape(p.short())}$")
    with pytest.raises(PipelineError, match=text):
        replace(schedule, built=built)


def test_every_ci_grid_pair_runs_on_lanes():
    """Every in-regime (scheme, point) of the CI grid, rate-0 pairs
    included, runs clean on the lane path and gives the sequential engine's
    rows, which has no wrong delivery; the engine's stores are the
    schedule's decode targets, and verify_trace's report from the lanes is
    the one a sequential replay makes."""
    for scheme, p in CI_GRID_PAIRS:
        trace = run_scheme(scheme, p, 14, seed=7)
        schedule = trace._run[0]
        bits = _payload_bits(len(schedule.payload_refs), 7)
        lanes = _run_lanes(schedule, bits)
        rows, errors, _, stores, _ = _run_engine(schedule, bits)
        assert lanes == rows == trace.slots
        assert errors == [] and trace.decode_errors == 0
        _assert_stores_are_decode_targets(schedule, bits, stores)
        _assert_lane_report_is_sequential(trace, stores)


@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_clean_tiled_run_and_verify_keep_no_store(scheme, p, monkeypatch):
    """The lane path keeps no node store: a clean tiled run and its verify
    never make one, and verify_trace counts its report from the schedule."""
    def refuse(*args, **kwargs):
        raise AssertionError("node stores were made")
    monkeypatch.setattr(pipeline, "_source_stores", refuse)
    trace = run_scheme(scheme, p, 30)
    assert trace.decode_errors == 0
    report = verify_trace(trace)
    assert report.ok and report.delivered_bits == trace.delivered_bits
    assert report.steady_state_rate == trace.steady_state_rate


@pytest.mark.parametrize("packets,faults",
                         [(30, None), (4, None), (30, {(20, "Y_R1"): 0})],
                         ids=["lanes", "sequential", "faulted"])
@pytest.mark.parametrize("scheme,p", ONE_PER_SCHEME)
def test_deliveries_are_in_slot_order(scheme, p, packets, faults):
    """On every path, lanes, sequential and faulted, a run's counts are its
    schedule's delivering steps read in slot order, whatever the values;
    the engine lists a faulted run's wrong deliveries in slot order too."""
    schedule = build_schedule(scheme, p, packets)
    if faults:
        # also flip two delivering observations, so that every scheme
        # delivers wrong bits in two slots at least
        for after in (10, 25):
            t, step = next((t, step) for t, slot in schedule.slots() if t > after
                           for step in slot.steps if step.deliver)
            signal, _, level = step.obs[0]
            faults = {**faults, (t, signal): level}
    trace = run_scheme(scheme, p, packets, faults=faults)
    _assert_counts_are_delivering_steps(trace, schedule)
    bits = _payload_bits(len(schedule.payload_refs), trace.seed)
    errors = _run_engine(schedule, bits, faults=faults)[1]
    assert trace.decode_errors == len(errors)
    assert len({error[0] for error in errors}) >= 2 if faults else errors == []
    assert errors == sorted(errors, key=lambda error: error[0])

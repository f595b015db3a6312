"""Run traces: a run's columns and counts, and the trace text.

A trace holds one column per signal (SimulationTrace.slots): its levels
slot by slot, one 0/1 byte each, as the payload bits and the lanes are laid
out, so level j of slot t is byte (t - 1) * length + j (length q on hop 1,
qbar on hop 2).  Its text is the header lines _header makes from the run,
which format_trace writes and parse_trace requires line for line, then one
row per slot.  Rows whose indices have as many digits are as long, so each
such group is a fixed-stride block, which format_trace writes and
parse_trace checks and reads with one extended slice per level and index
digit.  A trace names no payload bit: generate_payload and
SimulationTrace.payload draw reference tuples ``(source, packet, kind,
index)`` from the seed when read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .allocation import BitAllocation
from .channel import ChannelDomainError, ChannelParams, GfVec, _LEVEL_TEXT, _TEXT_LEVEL
from .schedule import (
    SIGNALS,
    PipelineError,
    Schedule,
    _payload_bands,
    _payload_plan,
    _payload_refs,
    _signal_lengths,
)


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


def _check_seed(seed) -> None:
    """Raise ChannelDomainError unless ``seed`` is an int (bools excluded),
    which the trace header can carry, and not negative: ``random.Random``
    seeds -s as s, so a trace would name another trace's payload."""
    if type(seed) is not int:
        raise ChannelDomainError(f"seed {seed!r} is not an int")
    if seed < 0:
        raise ChannelDomainError(f"seed {seed} is negative")


# ---------------------------------------------------------------------------
# Trace file format: the header lines of _header, then one line per slot,
# each signal a '0'/'1' string top level first ('-' when the vector is empty).

_TRACE_VERSION = "# ofbic-trace v1"


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

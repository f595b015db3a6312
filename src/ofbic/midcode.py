"""Hop-1 linear block code for the mid-regime no-feedback scheme.

In the intermediate regime the uncoded single-slot level assignment cannot
reach max(2n-m, m) bits per channel use (the colliding common band blocks
it), so each user encodes over two channel uses.  User 1 sends its first
``a`` message bits through the slot-A column set and the rest through the
slot-B set; user 2 uses the same column sets with the slots swapped.  The
column sets are built chain-by-chain along the cross-link shift orbits and
chosen so that at each relay, in each slot, the direct image of the wanted
user and the cross image of the interferer span disjoint subspaces.  Levels
are GF(2) masks (bit j = level j, top level = bit 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import _superpose


class MidCodeError(ValueError):
    """The mid-regime code construction failed verification."""


def hop1_rate_cap(m: int, n: int) -> int:
    return max(2 * n - m, m)


def _mask(levels) -> int:
    out = 0
    for j in levels:
        out |= 1 << j
    return out


def column_levels(cols, base: int, q: int) -> tuple:
    """Per level (top first), the message-bit indices base+k whose column k
    sets that level: the levels a source transmits for one column set."""
    return tuple(
        tuple(base + k for k, col in enumerate(cols) if (col >> j) & 1)
        for j in range(q)
    )


def _chain_families_low(length: int):
    """Per-chain bases for m < n (chain coordinate L-1 is the private level)."""
    if length < 3:
        raise MidCodeError(f"chain of length {length} is too short for m < n")
    if length % 2:
        base = [{length - 1}, {0}] + [{i} for i in range(2, length - 2, 2)]
        return base, list(base)
    fam_a = [{length - 1}, {0}] + [{i} for i in range(2, length - 3, 2)]
    fam_b = fam_a + [{length - 3, length - 2}]
    return fam_a, fam_b


def _chain_families_high(length: int):
    """Per-chain bases for m > n (chain coordinate L-1 is unusable)."""
    if length < 2:
        raise MidCodeError(f"chain of length {length} is too short for m > n")
    if length % 2 == 0:
        base = [{0}] + [{2 * i - 1, 2 * i} for i in range(1, (length - 2) // 2 + 1)]
        return base, list(base)
    pairs = [{2 * i, 2 * i + 1} for i in range(1, (length - 3) // 2 + 2)]
    pairs = [s for s in pairs if max(s) <= length - 2]
    fam_a = [{0}, {1}] + pairs
    fam_b = [{0, 1}] + pairs
    return fam_a, fam_b


def _chains(total: int, step: int):
    for start in range(step):
        coords = list(range(start, total, step))
        if coords:
            yield coords


def _column_sets(m: int, n: int):
    """Full-rate (X, Y) column sets before pruning."""
    if m == n:
        half = (n + 1) // 2
        return ([1 << j for j in range(half)], [1 << j for j in range(half, n)])
    cols_x, cols_y = [], []
    if m < n:
        step, total, families = n - m, n, _chain_families_low
    else:
        step, total, families = m - n, m, _chain_families_high
    for idx, coords in enumerate(_chains(total, step)):
        fam_a, fam_b = families(len(coords))
        vec_a = [_mask(coords[c] for c in s) for s in fam_a]
        vec_b = [_mask(coords[c] for c in s) for s in fam_b]
        if idx % 2 == 0:
            cols_x += vec_a
            cols_y += vec_b
        else:
            cols_x += vec_b
            cols_y += vec_a
    return cols_x, cols_y


def _solve_targets(rows, n_unknowns, targets):
    """Express each target unit vector as an XOR of rows; None if impossible."""
    aug = [(row, 1 << i) for i, row in enumerate(rows) if row]
    pivots = []
    for col in range(n_unknowns):
        hit = next((i for i, (r, _) in enumerate(aug) if (r >> col) & 1), None)
        if hit is None:
            continue
        pivot = aug.pop(hit)
        aug = [
            (r ^ pivot[0], c ^ pivot[1]) if (r >> col) & 1 else (r, c)
            for (r, c) in aug
        ]
        pivots.append((col, pivot))
    out = {}
    for target in targets:
        vec, combo = 1 << target, 0
        for col, (row, rcombo) in pivots:
            if (vec >> col) & 1:
                vec ^= row
                combo ^= rcombo
        out[target] = combo if vec == 0 else None
    return out


@dataclass(frozen=True)
class MidCode:
    m: int
    n: int
    rate: int
    split: int                  # bits sent in the first slot of a block
    cols_a: tuple               # level masks, slot-A role
    cols_b: tuple               # level masks, slot-B role
    own_recipes: tuple          # per relay (0,1): per own bit: ((slot, pos), ...)

    @property
    def q(self) -> int:
        return max(self.m, self.n)


def _observation_rows(m, n, q, cols_a, cols_b, relay):
    """Row masks of the 2q block observations at one relay.

    Unknowns are ordered own bits then interferer bits; relay 0 serves the
    user that transmits cols_a in the first slot.  Each row is one received
    level, formed by the channel's hop-1 geometry on unknown-bit masks.
    """
    a, r = len(cols_a), len(cols_a) + len(cols_b)

    def sent(cols, base):
        return tuple(_mask(bits) for bits in column_levels(cols, base, q))

    own = (sent(cols_a, 0), sent(cols_b, a))
    interferer = (sent(cols_a, r), sent(cols_b, r + a))
    rows = []
    for slot in (0, 1):
        use = slot ^ relay              # 0: the own user sends cols_a now
        rows += _superpose(0, (own[use], n), (interferer[1 - use], m))
    return rows, r


def build_mid_code(m: int, n: int, rate: int) -> MidCode:
    """Construct and verify the two-slot code at the requested rate."""
    if not (2 * n <= 3 * m and m <= 2 * n):
        raise MidCodeError(f"(m={m}, n={n}) is outside the mid regime")
    cap = hop1_rate_cap(m, n)
    if not 0 <= rate <= cap:
        raise MidCodeError(f"rate {rate} outside [0, {cap}] for (m={m}, n={n})")
    q = max(m, n)
    cols_x, cols_y = _column_sets(m, n) if rate else ([], [])
    if rate and len(cols_x) + len(cols_y) != cap:
        raise MidCodeError(f"column sets miss the rate cap {cap} for (m={m}, n={n})")
    while len(cols_x) + len(cols_y) > rate:
        (cols_x if len(cols_x) >= len(cols_y) else cols_y).pop()

    recipes = []
    for relay in (0, 1):
        rows, r = _observation_rows(m, n, q, cols_x, cols_y, relay)
        solved = _solve_targets(rows, 2 * r, range(r))
        if any(v is None for v in solved.values()):
            raise MidCodeError(
                f"mid-code decode failed at relay {relay} for (m={m}, n={n})"
            )
        per_bit = []
        for k in range(r):
            obs = tuple(
                (i // q, i % q) for i in range(2 * q) if (solved[k] >> i) & 1
            )
            per_bit.append(obs)
        recipes.append(tuple(per_bit))

    return MidCode(
        m=m,
        n=n,
        rate=rate,
        split=len(cols_x),
        cols_a=tuple(cols_x),
        cols_b=tuple(cols_y),
        own_recipes=tuple(recipes),
    )

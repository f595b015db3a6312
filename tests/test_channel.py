"""Channel model: shift-matrix semantics, superposition, algebraic laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofbic import (
    ChannelDomainError,
    ChannelParams,
    GfVec,
    first_hop,
    second_hop,
    shift,
)
from ofbic.channel import _vec_str


def vec(*bits):
    return GfVec(bits)


class TestShift:
    def test_identity_at_full_strength(self):
        assert shift(vec(1, 0, 1, 1), 4) == vec(1, 0, 1, 1)

    def test_top_bits_land_bottom_aligned(self):
        assert shift(vec(1, 0, 1, 1), 2) == vec(0, 0, 1, 0)

    def test_length_seven_hand_applied(self):
        # top 4 bits survive, bottom-aligned
        assert shift(vec(1, 1, 0, 0, 1, 1, 1), 4) == vec(0, 0, 0, 1, 1, 0, 0)

    def test_zero_strength_erases(self):
        assert shift(vec(1, 1, 1), 0) == GfVec.zeros(3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ChannelDomainError):
            shift(vec(1, 0), 3)

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=12), st.data())
    def test_exactly_top_k_survive(self, bits, data):
        x = GfVec(bits)
        k = data.draw(st.integers(0, len(x)))
        out = shift(x, k)
        assert len(out) == len(x)
        assert all(b == 0 for b in out[: len(x) - k])
        assert tuple(out[len(x) - k:]) == tuple(x[:k])


class TestFirstHop:
    def test_weak_example_layout(self):
        # m=2, n=4: privates of one source collide with commons of the other
        p = ChannelParams(2, 4, 0, 0, 3)
        a = vec(1, 0, 1, 1)
        b = vec(0, 1, 1, 0)
        y_r1, y_r2 = first_hop(a, b, p)
        assert y_r1 == vec(a[0], a[1], a[2] ^ b[0], a[3] ^ b[1])
        assert y_r2 == vec(b[0], b[1], b[2] ^ a[0], b[3] ^ a[1])

    def test_zero_second_source_is_pure_shift(self):
        p = ChannelParams(3, 5, 0, 0, 2)
        x = vec(1, 1, 0, 1, 0)
        y_r1, y_r2 = first_hop(x, GfVec.zeros(5), p)
        assert y_r1 == shift(x, p.n)
        assert y_r2 == shift(x, p.m)

    def test_cross_band_placement_m4_n7(self):
        # the other source's top 4 levels land on levels 4..7 (1-based)
        p = ChannelParams(4, 7, 0, 0, 5)
        b = vec(1, 1, 1, 0, 1, 1, 1)
        y_r1, _ = first_hop(GfVec.zeros(7), b, p)
        assert y_r1 == vec(0, 0, 0, 1, 1, 1, 0)

    def test_length_mismatch_rejected(self):
        p = ChannelParams(2, 4, 0, 0, 3)
        with pytest.raises(ChannelDomainError):
            first_hop(vec(1, 0, 1), vec(0, 0, 0, 0), p)

    def test_degenerate_channel_accepts_empty(self):
        p = ChannelParams(0, 0, 0, 0, 5)
        y_r1, y_r2 = first_hop(GfVec(), GfVec(), p)
        assert y_r1 == GfVec() and y_r2 == GfVec()


class TestSecondHop:
    def test_backward_superposition_top_levels(self):
        # mbar = nbar = 1, f = 3: sources see the XOR of the relay tops
        p = ChannelParams(0, 0, 1, 1, 3)
        x_r1 = vec(1, 0, 1)
        x_r2 = vec(0, 1, 1)
        _, _, y_s1, y_s2 = second_hop(x_r1, x_r2, p)
        assert y_s1 == vec(0, 0, x_r1[0] ^ x_r2[0])
        assert y_s2 == vec(0, 0, x_r2[0] ^ x_r1[0])

    def test_no_backward_cross_link(self):
        p = ChannelParams(0, 0, 0, 2, 3)
        x_r1 = vec(1, 1, 0)
        _, _, y_s1, _ = second_hop(x_r1, GfVec.zeros(3), p)
        assert y_s1 == shift(x_r1, p.nbar)

    def test_relay_bottom_levels_hidden_from_destination(self):
        # nbar=3, f=2: the relay's level 3 reaches its source, not the dest
        p = ChannelParams(0, 0, 1, 3, 2)
        x_r1 = vec(0, 0, 1)
        y_d1, _, y_s1, _ = second_hop(x_r1, GfVec.zeros(3), p)
        assert y_d1 == GfVec.zeros(3)
        assert y_s1 == x_r1

    def test_destination_sees_only_top_f(self):
        p = ChannelParams(0, 0, 1, 1, 3)
        x_r1 = vec(1, 0, 1)
        y_d1, y_d2, _, _ = second_hop(x_r1, GfVec.zeros(3), p)
        assert y_d1 == shift(x_r1, p.f) == x_r1
        assert y_d2 == GfVec.zeros(3)


params_st = st.builds(
    ChannelParams,
    m=st.integers(0, 6), n=st.integers(0, 6),
    mbar=st.integers(0, 4), nbar=st.integers(0, 4), f=st.integers(0, 6),
)


@settings(max_examples=200)
@given(params_st, st.data())
def test_first_hop_linearity_and_symmetry(p, data):
    bits = st.lists(st.integers(0, 1), min_size=p.q, max_size=p.q)
    x, xp, y = (GfVec(data.draw(bits)) for _ in range(3))
    zero = GfVec.zeros(p.q)
    lhs = first_hop(x ^ xp, y, p)
    a = first_hop(x, y, p)
    b = first_hop(xp, zero, p)
    assert lhs == (a[0] ^ b[0], a[1] ^ b[1])
    swapped = first_hop(y, x, p)
    direct = first_hop(x, y, p)
    assert swapped == (direct[1], direct[0])
    assert first_hop(x, y, p) == first_hop(x, y, p)  # pure


@settings(max_examples=200)
@given(params_st, st.data())
def test_second_hop_linearity(p, data):
    bits = st.lists(st.integers(0, 1), min_size=p.qbar, max_size=p.qbar)
    x, xp, y = (GfVec(data.draw(bits)) for _ in range(3))
    zero = GfVec.zeros(p.qbar)
    lhs = second_hop(x ^ xp, y, p)
    a = second_hop(x, y, p)
    b = second_hop(xp, zero, p)
    assert lhs == tuple(u ^ v for u, v in zip(a, b))


def test_params_validation():
    with pytest.raises(ChannelDomainError):
        ChannelParams(-1, 0, 0, 0, 0)
    with pytest.raises(ChannelDomainError):
        ChannelParams(1, 1, 1, 1, True)
    p = ChannelParams(3, 4, 1, 2, 5)
    assert (p.q, p.qbar) == (4, 5)


def test_alpha_values():
    from fractions import Fraction
    import math

    assert ChannelParams(2, 4, 0, 0, 0).alpha == Fraction(1, 2)
    assert ChannelParams(3, 0, 0, 0, 0).alpha == math.inf
    assert ChannelParams(0, 0, 0, 0, 0).alpha is None


def test_gfvec_value_semantics():
    v = vec(1, 0, 1)
    assert v ^ GfVec.zeros(3) == v
    assert str(v) == "101" and str(GfVec()) == "-"
    assert GfVec.from_string("101") == v
    assert GfVec.from_string("-") == GfVec()
    # _vec_str writes an empty vector as "-", never as ""
    with pytest.raises(ChannelDomainError, match="^bad vector string ''$"):
        GfVec.from_string("")
    assert v.flip(1) == vec(1, 1, 1)
    with pytest.raises(ChannelDomainError):
        v ^ vec(1, 0)
    with pytest.raises(ChannelDomainError):
        GfVec((0, 2))


@given(st.lists(st.integers(0, 1), min_size=0, max_size=40).map(tuple))
def test_vec_str_round_trip(levels):
    """The bytes writer matches the per-level writer it replaced, and the
    reader inverts it, for plain tuples and GfVec alike."""
    text = _vec_str(levels)
    assert text == ("".join(map(str, levels)) or "-")
    assert _vec_str(GfVec(levels)) == text
    assert GfVec.from_string(text) == levels
    assert type(GfVec.from_string(text)) is GfVec


@given(st.text(alphabet="01", min_size=1, max_size=40))
def test_from_string_is_the_per_character_read(text):
    """The translated bytes are the levels int() reads character by
    character, in a GfVec."""
    vec = GfVec.from_string(text)
    assert vec == tuple(map(int, text))
    assert type(vec) is GfVec
    assert all(type(level) is int for level in vec)

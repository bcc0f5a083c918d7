from __future__ import annotations

from fractions import Fraction

import pytest

from approxcommute import SplitMix64, derive_seed


def test_stream_is_deterministic():
    a = [SplitMix64(42).next_u64() for _ in range(5)]
    b = [SplitMix64(42).next_u64() for _ in range(5)]
    assert a == b


def test_known_splitmix_values():
    # Reference outputs of the standard splitmix64 sequence from seed 0.
    stream = SplitMix64(0)
    first = stream.next_u64()
    assert first == 0xE220A8397B1DCDAF


def test_below_range_and_reproducibility():
    stream = SplitMix64(7)
    draws = [stream.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) == 10


def test_event_exact_probabilities():
    # event(p) must hit exactly when u * denom < num * 2^64.
    stream = SplitMix64(3)
    n = 4000
    hits = sum(stream.event(Fraction(1, 3)) for _ in range(n))
    assert abs(hits / n - 1 / 3) < 0.05
    always = SplitMix64(5)
    assert all(always.event(Fraction(1)) for _ in range(50))
    never = SplitMix64(5)
    assert not any(never.event(Fraction(0)) for _ in range(50))


def test_derive_seed_order_sensitivity():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)


def test_split_streams_diverge():
    base = SplitMix64(9)
    s1 = base.split("left")
    s2 = base.split("right")
    assert [s1.next_u64() for _ in range(4)] != [s2.next_u64() for _ in range(4)]


def test_choice_picks_all_members():
    stream = SplitMix64(11)
    options = ("x", "y", "z")
    seen = {stream.choice(options) for _ in range(200)}
    assert seen == set(options)


# Golden values of the stream contract, recorded from the per-draw
# implementation: any faster draw path must reproduce them bit for bit.
GOLDEN_SEEDS = [
    ((0,), 0x0),
    ((1, "suite"), 0x060EBF58F78B725E),
    ((42, "P2.1", 3), 0xF0DF65E16172BC8F),
    ((2**64 - 1, "a", "b", 7), 0xCA641F428CB4AB9B),
]
GOLDEN_U64 = [
    0x9F6D8FECF88EECD5, 0x18E430BB1511F2D2, 0x4C6F7CBF58DBA57F, 0x1DBE69E0AE9BB859,
    0xD4A0C1656476437A, 0x8D6B7B6D69455AEB, 0x230249CAE3603297, 0x98AA033E99C4A792,
]
# 256 events at p from SplitMix64(derive_seed(7, "golden", str(p))), first draw
# as the top bit, and the stream state after them.
GOLDEN_EVENTS = {
    Fraction(1, 6): (0xC120160808080000288A3200C8920230211024C0034482000041493A12200000,
                     0xDCD83726D031846F),
    Fraction(1, 4): (0x4800087012C2020010A090A8112309000864600C18A24080858882A010002844,
                     0xDCD83926D03127C5),
    Fraction(1, 3): (0x122C6AAA4E628808AC26118048514E30281C0D1229A810428217823883008D6E,
                     0xDCD83226D0312CEC),
    Fraction(1, 2): (0x067D3DAED7B180638115EDF13968C97A0AC98DF88883611A4C2196C82F464C3A,
                     0xDCD83326D0312B23),
}


def test_golden_derive_seed():
    for args, expect in GOLDEN_SEEDS:
        assert derive_seed(*args) == expect


def test_golden_next_u64():
    stream = SplitMix64(2024)
    assert [stream.next_u64() for _ in range(8)] == GOLDEN_U64


def test_golden_events():
    for p, (bits, state) in GOLDEN_EVENTS.items():
        stream = SplitMix64(derive_seed(7, "golden", str(p)))
        drawn = [stream.event(p) for _ in range(256)]
        assert drawn == [bool(bits >> (255 - i) & 1) for i in range(256)]
        assert stream._state == state


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_events_is_successive_event_calls(count):
    # start + 5 * gamma == 0 mod 2^64: a block of 5 or more draws wraps through state 0.
    start = (-5 * 0x9E3779B97F4A7C15) % 2**64
    probabilities = [Fraction(-1), Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3),
                     Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2**64 - 1, 2**64)]
    for p in probabilities:
        ref, one, block = SplitMix64(start), SplitMix64(start), SplitMix64(start)
        expect = [ref.next_u64() < p * 2**64 for _ in range(count)]  # the exact rule
        assert [one.event(p) for _ in range(count)] == expect
        drawn = block.events(p, count)
        assert drawn.dtype == bool and drawn.tolist() == expect
        assert block.next_u64() == one.next_u64() == ref.next_u64()


def _unmix(x: int) -> int:
    """The z with splitmix64 finalizer mix(z) == x: each step inverted in turn."""

    def unshift(y: int, k: int) -> int:  # inverse of z -> z ^ (z >> k)
        z = y
        for _ in range(64 // k):
            z = y ^ (z >> k)
        return z

    x = unshift(x, 31)
    x = unshift(x * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    return unshift(x * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 6), Fraction(2**64 - 1, 2**64)])
def test_event_threshold_is_exact_at_the_boundary(p):
    # Start states whose next draw is the last hit and the first miss, x*q < a*2^64.
    first_miss = -(-p.numerator * 2**64 // p.denominator)
    for x in (first_miss - 1, first_miss):
        start = (_unmix(x) - 0x9E3779B97F4A7C15) % 2**64
        assert SplitMix64(start).next_u64() == x
        assert SplitMix64(start).event(p) == (x < p * 2**64) == (x < first_miss)
        assert SplitMix64(start).events(p, 1).tolist() == [x < first_miss]

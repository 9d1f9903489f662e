"""``generators._ScalarDraws`` against numpy's own scalar ``Generator`` calls.

The helper reimplements numpy's scalar ``random()`` and ``integers(high)``
on raw words; if numpy ever changes either algorithm, these tests fail
before any graph does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.generators import _ScalarDraws

U32 = 2**32 - 1

#: ``high == 1`` (no draw), small highs, and highs in [2**31, 2**32 - 1],
#: where up to half of all Lemire draws are rejected.
highs = st.one_of(st.just(1), st.integers(2, 1000),
                  st.integers(2**31, U32), st.just(U32))
calls = st.lists(st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), highs),
    st.tuples(st.just("integers2"), st.integers(-1000, 1000), highs),
), max_size=300)


def _pair(seed, pre_draws=0):
    """A fresh generator and a helper wrapping an identical one.

    ``pre_draws`` integer draws on both first: an odd count leaves a half
    word pending in the bit generator's buffer, which the helper must use.
    """
    reference = np.random.default_rng(seed)
    wrapped = np.random.default_rng(seed)
    for _ in range(pre_draws):
        assert reference.integers(100) == wrapped.integers(100)
    return reference, _ScalarDraws(wrapped)


@given(st.integers(0, 2**32), st.integers(0, 3), st.sampled_from([1, 2, 3, 64]),
       calls)
@settings(max_examples=150, deadline=None)
def test_mixed_calls_match_generator(seed, pre_draws, block, sequence):
    # Small blocks refill mid-sequence, also between the two halves of a word.
    saved = generators._DRAW_BLOCK
    generators._DRAW_BLOCK = block
    try:
        _check_mixed_calls(seed, pre_draws, sequence)
    finally:
        generators._DRAW_BLOCK = saved


def _check_mixed_calls(seed, pre_draws, sequence):
    reference, draws = _pair(seed, pre_draws)
    for call in sequence:
        if call[0] == "random":
            assert draws.random() == reference.random()
        elif call[0] == "integers":
            assert draws.integers(call[1]) == reference.integers(call[1])
        else:
            _, low, high = call
            assert low + draws.integers(high) == reference.integers(low, low + high)
    # The streams are still in step after the sequence.
    assert draws.random() == reference.random()
    assert draws.integers(7) == reference.integers(7)


def test_integer_draws_split_words_low_half_first():
    raw = np.random.default_rng(3).bit_generator.random_raw(1).tolist()[0]
    draws = _ScalarDraws(np.random.default_rng(3))
    low = draws.integers(U32)
    assert draws.random() == (
        np.random.default_rng(3).bit_generator.random_raw(2)[1] >> 11) * 2.0**-53
    high = draws.integers(U32)
    # Lemire on a half h with high = 2**32 - 1 gives (h * high) >> 32.
    assert low == ((raw & U32) * U32) >> 32
    assert high == ((raw >> 32) * U32) >> 32


def test_high_one_draws_nothing():
    reference, draws = _pair(5)
    assert [draws.integers(1) for _ in range(10)] == [0] * 10
    assert draws.random() == reference.random()


def test_rejections_draw_the_next_half():
    reference, draws = _pair(11)
    high = 2**31 + 1  # rejects about half of all halves
    got = [draws.integers(high) for _ in range(200)]
    assert got == [reference.integers(high) for _ in range(200)]
    words = generators._DRAW_BLOCK - len(draws._words)
    halves = 2 * words - (draws._half is not None)
    assert halves > 250
    assert draws.random() == reference.random()


@pytest.mark.parametrize("high", [0, -3, 2**32, 2**40])
def test_highs_outside_32_bits_raise(high):
    with pytest.raises(ValueError):
        _ScalarDraws(np.random.default_rng(0)).integers(high)


def test_numpy_integer_highs_do_not_overflow():
    reference, draws = _pair(2)
    for _ in range(50):
        assert draws.integers(np.int64(U32)) == reference.integers(U32)


def test_only_pcg64_streams_are_reproduced():
    with pytest.raises(TypeError):
        _ScalarDraws(np.random.Generator(np.random.MT19937(0)))

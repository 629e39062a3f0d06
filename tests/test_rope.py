"""Tests for the rope text substrate."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rope import Rope
from repro.rope.rope import CHUNK_SIZE


class TestRopeBasics:
    def test_empty(self):
        rope = Rope()
        assert len(rope) == 0
        assert str(rope) == ""

    def test_construct_from_string(self):
        rope = Rope("hello world")
        assert str(rope) == "hello world"
        assert len(rope) == 11

    def test_insert_at_start_middle_end(self):
        rope = Rope("bd")
        rope.insert(0, "a")
        rope.insert(2, "c")
        rope.insert(4, "e")
        assert str(rope) == "abcde"

    def test_delete_returns_removed_text(self):
        rope = Rope("hello world")
        assert rope.delete(5, 6) == " world"
        assert str(rope) == "hello"

    def test_char_at(self):
        rope = Rope("abc")
        assert [rope.char_at(i) for i in range(3)] == ["a", "b", "c"]

    def test_char_at_out_of_range(self):
        with pytest.raises(IndexError):
            Rope("ab").char_at(2)

    def test_slice(self):
        rope = Rope("hello world")
        assert rope.slice(6, 11) == "world"
        assert rope.slice(0, 0) == ""

    def test_slice_out_of_range(self):
        with pytest.raises(IndexError):
            Rope("abc").slice(1, 9)

    def test_insert_out_of_range(self):
        with pytest.raises(IndexError):
            Rope("abc").insert(5, "x")

    def test_delete_out_of_range(self):
        with pytest.raises(IndexError):
            Rope("abc").delete(2, 5)

    def test_equality_with_strings_and_ropes(self):
        assert Rope("abc") == "abc"
        assert Rope("abc") == Rope("abc")
        assert Rope("abc") != "abd"

    def test_iteration(self):
        assert list(Rope("abc")) == ["a", "b", "c"]

    def test_large_text_splits_into_chunks(self):
        text = "x" * (CHUNK_SIZE * 3 + 17)
        rope = Rope(text)
        assert rope.chunk_count() >= 3
        assert str(rope) == text

    def test_repeated_inserts_split_oversized_chunks(self):
        rope = Rope()
        for _ in range(5):
            rope.insert(len(rope) // 2, "y" * CHUNK_SIZE)
        assert rope.chunk_count() > 1
        assert len(rope) == 5 * CHUNK_SIZE


class TestDifferentialAgainstString:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_edit_sequences(self, seed):
        rng = random.Random(seed)
        reference = ""
        buffer = Rope("")
        for _ in range(400):
            if not reference or rng.random() < 0.65:
                pos = rng.randint(0, len(reference))
                text = rng.choice(["a", "bc", "def", "x" * 50])
                reference = reference[:pos] + text + reference[pos:]
                buffer.insert(pos, text)
            else:
                pos = rng.randrange(len(reference))
                length = min(rng.randint(1, 5), len(reference) - pos)
                reference = reference[:pos] + reference[pos + length :]
                buffer.delete(pos, length)
            assert len(buffer) == len(reference)
        assert str(buffer) == reference


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000), st.text(max_size=8), st.booleans()),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_rope_matches_string_semantics(operations):
    """Property: a Rope behaves exactly like an immutable Python string."""
    reference = ""
    rope = Rope()
    for pos_seed, text, is_delete in operations:
        if is_delete and reference:
            pos = pos_seed % len(reference)
            length = 1 + pos_seed % 3
            length = min(length, len(reference) - pos)
            reference = reference[:pos] + reference[pos + length :]
            rope.delete(pos, length)
        elif text:
            pos = pos_seed % (len(reference) + 1)
            reference = reference[:pos] + text + reference[pos:]
            rope.insert(pos, text)
    assert str(rope) == reference

"""Canonical prefix codes in radix 2 and 3, against brute-force oracles."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imgdna import ternary
from imgdna.prefix import canonical_codes, huffman_depths, window_lookup


def huffman_depths_oracle(weights, radix):
    """Merge the radix lightest nodes of a plain list, sorted afresh each
    round by (weight, id); a merged node takes the next id."""
    nodes = [(w, i, [i]) for i, w in enumerate(weights)]
    depth = [0] * len(weights)
    next_id = len(weights)
    while len(nodes) > 1:
        nodes.sort(key=lambda node: node[:2])
        merged, nodes = nodes[:radix], nodes[radix:]
        leaves = [leaf for _, _, members in merged for leaf in members]
        for leaf in leaves:
            depth[leaf] += 1
        nodes.append((sum(w for w, _, _ in merged), next_id, leaves))
        next_id += 1
    return depth


def lookup_oracle(codes, radix, width):
    """Each window's digits matched against every codeword's digits."""
    words = {
        symbol: [code // radix ** (length - 1 - j) % radix for j in range(length)]
        for symbol, (code, length) in codes.items()
    }
    symbols, lengths = [], []
    for window in range(radix**width):
        digits = [window // radix ** (width - 1 - j) % radix for j in range(width)]
        hits = [s for s, word in words.items() if digits[: len(word)] == word]
        assert len(hits) <= 1, "codes are not prefix-free"
        symbols.append(hits[0] if hits else 0)
        lengths.append(len(words[hits[0]]) if hits else 0)
    return symbols, lengths


@st.composite
def weight_lists(draw, radix):
    merges = draw(st.integers(0, 10 if radix == 2 else 5))
    n = 1 + merges * (radix - 1)
    return draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda r: st.tuples(st.just(r), weight_lists(r))))
@example((2, [5]))
@example((3, [1] * 9))
@example((2, [0, 0, 0, 0, 0]))
def test_huffman_depths_match_list_oracle(case):
    radix, weights = case
    depths = huffman_depths(weights, radix)
    assert depths == huffman_depths_oracle(weights, radix)
    if len(weights) > 1:  # a full tree: the code is complete
        assert sum(Fraction(1, radix**d) for d in depths) == 1


@pytest.mark.parametrize("radix, n", [(2, 0), (3, 0), (3, 2), (3, 258)])
def test_huffman_depths_reject_counts_without_a_full_tree(radix, n):
    with pytest.raises(ValueError):
        huffman_depths([1] * n, radix)


@st.composite
def prefix_codes(draw):
    """(codes, radix, width): a complete code from Huffman depths, or an
    incomplete one from lengths drawn under the Kraft bound, on distinct
    symbols up to 300."""
    radix = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        lengths = huffman_depths(draw(weight_lists(radix)), radix)
    else:
        drawn = draw(st.lists(st.integers(0, 9 if radix == 2 else 5), max_size=12))
        lengths, room = [], Fraction(1)
        for length in drawn:
            if Fraction(1, radix**length) <= room:
                lengths.append(length)
                room -= Fraction(1, radix**length)
    symbols = draw(
        st.lists(st.integers(0, 300), min_size=len(lengths), max_size=len(lengths), unique=True)
    )
    width = max(lengths, default=0) + draw(st.integers(0, 1))
    return canonical_codes(dict(zip(symbols, lengths)), radix), radix, width


@settings(max_examples=150, deadline=None)
@given(prefix_codes())
@example(({}, 2, 3))
@example(({7: (0, 0)}, 3, 2))
def test_window_lookup_matches_prefix_matching(case):
    codes, radix, width = case
    symbols, lengths = window_lookup(codes, radix, width)
    assert symbols.dtype == np.min_scalar_type(max(codes, default=0))
    assert (symbols.tolist(), lengths.tolist()) == lookup_oracle(codes, radix, width)


def test_ternary_codewords_are_pinned():
    # recorded from the byte code before it was built through prefix.py
    words = ";".join("".join(map(str, ternary.codeword(s))) for s in range(257))
    digest = hashlib.sha256(words.encode()).hexdigest()
    assert digest == "09f3eaa4b61d8633bba76394ca8307003e10825fe91d30df124b8e82d1ebac4e"

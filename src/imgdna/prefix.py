"""Canonical prefix codes in any radix, for the binary entropy code
(streams.py) and the ternary byte code (ternary.py). A codeword is an
integer code read as length radix digits, most significant first.
"""

from __future__ import annotations

import heapq

import numpy as np


def huffman_depths(weights, radix: int) -> list[int]:
    """Huffman code length of each symbol, by index into weights.

    Each merge takes the radix lightest nodes, ties to the lower id:
    symbol i has id i and each merged node takes the next id. Every merge
    takes exactly radix nodes, so len(weights) - 1 must be a multiple of
    radix - 1; a single symbol has depth 0.
    """
    n = len(weights)
    if n < 1 or (n - 1) % (radix - 1):
        raise ValueError(f"{n} symbols do not make a full {radix}-ary tree")
    heap = [(w, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    parent = list(range(n))
    while len(heap) > 1:
        node = len(parent)
        parent.append(node)
        weight = 0
        for _ in range(radix):
            w, child = heapq.heappop(heap)
            parent[child] = node
            weight += w
        heapq.heappush(heap, (weight, node))
    depth = [0] * len(parent)
    for node in range(len(parent) - 2, -1, -1):  # a parent's id is above its children's
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


def canonical_codes(lengths: dict[int, int], radix: int) -> dict[int, tuple[int, int]]:
    """{symbol: (code, length)}: symbols in (length, symbol) order, each
    code the one before plus one, times radix per digit of added length."""
    out = {}
    code = prev = 0
    for symbol in sorted(lengths, key=lambda s: (lengths[s], s)):
        code *= radix ** (lengths[symbol] - prev)
        prev = lengths[symbol]
        out[symbol] = (code, prev)
        code += 1
    return out


def window_lookup(codes: dict[int, tuple[int, int]], radix: int, width: int):
    """(symbols, lengths) indexed by every width-digit window: the codeword
    of codes ({symbol: (code, length)}, no length above width) that the
    window starts with and its length, 0 where none does. symbols has the
    narrowest unsigned dtype that holds the largest symbol."""
    symbols = np.zeros(radix**width, dtype=np.min_scalar_type(max(codes, default=0)))
    lengths = np.zeros(radix**width, dtype=np.uint8)
    for symbol, (code, length) in codes.items():
        span = radix ** (width - length)
        window = slice(code * span, (code + 1) * span)
        symbols[window] = symbol
        lengths[window] = length
    return symbols, lengths

"""Transform-stage tests with an independent brute-force DCT oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from imgdna import jpeg


def dct2_oracle(block: np.ndarray) -> np.ndarray:
    """Direct 64-term orthonormal type-II DCT, written from the definition."""
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            cu = math.sqrt(0.5) if u == 0 else 1.0
            cv = math.sqrt(0.5) if v == 0 else 1.0
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (
                        block[x, y]
                        * math.cos((2 * x + 1) * u * math.pi / 16)
                        * math.cos((2 * y + 1) * v * math.pi / 16)
                    )
            out[u, v] = 0.25 * cu * cv * total
    return out


def test_dct_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        block = rng.integers(0, 256, size=(8, 8)).astype(np.float64) - 128.0
        fast = jpeg.dct2(block)
        slow = dct2_oracle(block)
        assert np.max(np.abs(fast - slow)) < 1e-8


def test_idct_inverts_dct():
    rng = np.random.default_rng(8)
    block = rng.integers(0, 256, size=(3, 8, 8)).astype(np.float64)
    back = jpeg.idct2(jpeg.dct2(block))
    assert np.max(np.abs(back - block)) < 1e-9


def test_round_half_away_from_zero():
    values = np.array([2.5, -2.5, 2.4, -2.4, 0.5, -0.5, 0.0, 63.5])
    expected = np.array([3, -3, 2, -2, 1, -1, 0, 64])
    assert np.array_equal(jpeg.round_half_away(values), expected)


def test_quality_50_is_unscaled():
    assert np.array_equal(jpeg.quality_scaled_table(50), jpeg.BASE_QUANT_TABLE)


def test_quality_100_is_all_ones():
    assert np.array_equal(jpeg.quality_scaled_table(100), np.ones((8, 8), dtype=np.int64))


def test_quality_extremes_and_monotonicity():
    prev = jpeg.quality_scaled_table(1)
    assert (prev >= 1).all()
    for q in (10, 25, 50, 75, 90):
        table = jpeg.quality_scaled_table(q)
        assert (table <= prev).all()
        prev = table
    with pytest.raises(ValueError):
        jpeg.quality_scaled_table(0)
    with pytest.raises(ValueError):
        jpeg.quality_scaled_table(101)


def test_zigzag_is_standard_order():
    assert list(jpeg.ZIGZAG[:10]) == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
    assert list(jpeg.ZIGZAG[-3:]) == [55, 62, 63]
    # bijection
    assert sorted(jpeg.ZIGZAG) == list(range(64))


def test_flat_image_transforms_to_zero_blocks():
    image = np.full((16, 16), 128, dtype=np.uint8)
    blocks, meta = jpeg.forward_transform(image, quality=50)
    assert blocks.shape == (4, 8, 8)
    assert not blocks.any()
    assert meta.block_count == 4


def test_white_image_dc_value():
    image = np.full((8, 8), 255, dtype=np.uint8)
    blocks, _ = jpeg.forward_transform(image, quality=50)
    # oracle: DC of a constant 127 block is 127*8 = 1016; 1016/16 = 63.5
    # rounds away from zero to 64.
    oracle_dc = dct2_oracle(np.full((8, 8), 127.0))[0, 0]
    assert oracle_dc == pytest.approx(1016.0)
    assert blocks[0, 0, 0] == 64
    assert not blocks[0].ravel()[1:].any()


def test_forward_inverse_close_to_original():
    rng = np.random.default_rng(9)
    ramp = np.linspace(0, 255, 32 * 32).reshape(32, 32)
    image = np.clip(ramp + rng.normal(0, 8, (32, 32)), 0, 255).astype(np.uint8)
    blocks, meta = jpeg.forward_transform(image, quality=90)
    restored = jpeg.inverse_transform(blocks, meta)
    assert restored.shape == image.shape
    assert np.mean(np.abs(restored.astype(int) - image.astype(int))) < 6.0


def test_inverse_transform_is_deterministic():
    rng = np.random.default_rng(10)
    image = rng.integers(0, 256, size=(24, 40), dtype=np.uint8)
    blocks, meta = jpeg.forward_transform(image, quality=75)
    once = jpeg.inverse_transform(blocks, meta)
    twice = jpeg.inverse_transform(blocks.copy(), meta)
    assert np.array_equal(once, twice)
    assert once.dtype == np.uint8


def test_padding_of_odd_sizes():
    rng = np.random.default_rng(11)
    image = rng.integers(0, 256, size=(130, 141), dtype=np.uint8)
    blocks, meta = jpeg.forward_transform(image, quality=75)
    assert meta.block_count == 17 * 18
    restored = jpeg.inverse_transform(blocks, meta)
    assert restored.shape == (130, 141)


def test_blocks_are_row_major():
    image = np.zeros((16, 16), dtype=np.uint8)
    image[0:8, 8:16] = 200  # second block of the first block row
    blocks, _ = jpeg.forward_transform(image, quality=50)
    dcs = blocks[:, 0, 0]
    assert dcs[1] > 0
    assert dcs[0] < 0 and dcs[2] < 0 and dcs[3] < 0  # the dark blocks


def test_metadata_rejects_bad_tables():
    with pytest.raises(ValueError):
        jpeg.ImageMetadata(8, 8, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        jpeg.ImageMetadata(8, 8, np.ones((4, 4)))

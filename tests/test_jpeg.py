"""Transform-stage tests with an independent brute-force DCT oracle."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from imgdna import jpeg
from imgdna.corpus import corpus_image


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


# jpeg.dct2/idct2 replay pocketfft's operations, so scipy is their exact
# reference: every comparison below is array_equal, not a tolerance.
def scipy_dct2(blocks):
    return scipy.fft.dctn(blocks, type=2, norm="ortho", axes=(-2, -1))


def scipy_idct2(coefficients):
    return scipy.fft.idctn(coefficients, type=2, norm="ortho", axes=(-2, -1))


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_dct_is_bit_exact_on_random_blocks():
    rng = np.random.default_rng(30)
    blocks = rng.integers(-128, 128, size=(120_000, 8, 8)).astype(np.float64)
    assert_bits_equal(jpeg.dct2(blocks), scipy_dct2(blocks))


def test_idct_is_bit_exact_out_to_coefficient_bounds():
    rng = np.random.default_rng(31)
    for quality in (1, 50, 75, 100):
        quant = jpeg.quality_scaled_table(quality)
        bound = jpeg.coefficient_bounds(quant)
        levels = rng.integers(-bound, bound + 1, size=(20_000, 8, 8))
        coefficients = (levels * quant).astype(np.float64)
        assert_bits_equal(jpeg.idct2(coefficients), scipy_idct2(coefficients))


@pytest.mark.parametrize("quality", [1, 10, 25, 50, 75, 90, 95, 100])
def test_forward_transform_of_corpus_matches_scipy(quality):
    table = jpeg.quality_scaled_table(quality)
    for idx in range(20):
        image = corpus_image(idx)
        blocks, meta = jpeg.forward_transform(image, quality)
        shifted = np.ascontiguousarray(jpeg.to_blocks(image))
        want = jpeg.round_half_away(scipy_dct2(shifted) / table).astype(np.int32)
        assert blocks.flags.c_contiguous
        assert np.array_equal(blocks, want)
        restored = jpeg.inverse_transform(blocks, meta)
        pixels = scipy_idct2(blocks.astype(np.float64) * table) + 128.0
        want_pixels = np.clip(jpeg.round_half_away(pixels), 0, 255).astype(np.uint8)
        hb, wb = -(-meta.height // 8), -(-meta.width // 8)
        grid = want_pixels.reshape(hb, wb, 8, 8).transpose(0, 2, 1, 3).reshape(hb * 8, wb * 8)
        assert np.array_equal(restored, grid[: meta.height, : meta.width])


def test_dct_shapes_and_strides():
    rng = np.random.default_rng(32)
    block = rng.integers(-128, 128, size=(8, 8)).astype(np.float64)
    assert_bits_equal(jpeg.dct2(block), scipy_dct2(block))
    assert_bits_equal(jpeg.idct2(block), scipy_idct2(block))
    empty = np.zeros((0, 8, 8))
    assert jpeg.dct2(empty).shape == (0, 8, 8)
    assert jpeg.idct2(empty).shape == (0, 8, 8)
    wide = rng.integers(-128, 128, size=(5, 16, 16)).astype(np.float64)
    strided = wide[:, ::2, 1::2]  # non-contiguous (5, 8, 8)
    assert_bits_equal(jpeg.dct2(strided), scipy_dct2(strided))
    assert_bits_equal(jpeg.idct2(strided), scipy_idct2(strided))
    stacked = rng.integers(-128, 128, size=(2, 3, 8, 8)).astype(np.float64)
    assert_bits_equal(jpeg.dct2(stacked), scipy_dct2(stacked))
    with pytest.raises(ValueError):
        jpeg.dct2(np.zeros((4, 4)))


def test_import_loads_no_scipy():
    code = (
        "import sys, numpy as np, imgdna\n"
        "image = np.arange(64 * 48, dtype=np.uint8).reshape(48, 64)\n"
        "blocks, meta = imgdna.forward_transform(image)\n"
        "imgdna.inverse_transform(blocks, meta)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(__import__("pathlib").Path(jpeg.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

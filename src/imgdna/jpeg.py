"""Block transform stage: 8x8 DCT, quality-scaled quantization, zigzag order.

Images are plain (height, width) uint8 arrays. The transform follows the
usual still-image recipe: level shift by -128, orthonormal type-II DCT per
8x8 block, division by a quality-scaled luminance table with rounding half
away from zero. Images whose sides are not multiples of 8 are padded by edge
replication and cropped back after reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft

# Standard luminance quantization table, row-major. Quality 50 uses it as-is.
BASE_QUANT_TABLE = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int64,
).reshape(8, 8)

# Zigzag scan: ZIGZAG[k] = flat row-major position of the k-th scanned entry.
def _zigzag_order() -> np.ndarray:
    order = sorted(
        ((r, c) for r in range(8) for c in range(8)),
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([r * 8 + c for r, c in order], dtype=np.int64)


ZIGZAG = _zigzag_order()


@dataclass
class ImageMetadata:
    """Per-image side information stored on an error-free channel.

    The entropy tables are canonical Huffman code lengths per symbol,
    filled in by the stream encoder; the transform stage leaves them None.
    """

    width: int
    height: int
    quant_table: np.ndarray  # (8, 8) int64, every entry >= 1
    dc_code_lengths: Optional[dict[int, int]] = None
    ac_code_lengths: Optional[dict[int, int]] = None

    def __post_init__(self):
        self.quant_table = np.asarray(self.quant_table, dtype=np.int64)
        if self.quant_table.shape != (8, 8):
            raise ValueError(f"quant table must be 8x8, got {self.quant_table.shape}")
        if (self.quant_table < 1).any():
            raise ValueError("quant table entries must be >= 1")

    @property
    def block_count(self) -> int:
        return blocks_per_image(self.width, self.height)


def quality_scaled_table(quality: int) -> np.ndarray:
    """Scale the base table for quality in [1, 100]; 50 returns it unchanged."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    table = (BASE_QUANT_TABLE * scale + 50) // 100
    return np.maximum(table, 1)


def blocks_per_image(width: int, height: int) -> int:
    return ((height + 7) // 8) * ((width + 7) // 8)


def round_half_away(values: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties going away from zero."""
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def to_blocks(image: np.ndarray) -> np.ndarray:
    """Split an image into (n, 8, 8) float blocks, edge-padding as needed.

    Blocks are ordered row-major: all blocks of the first block row left to
    right, then the next block row.
    """
    image = np.asarray(image)
    h, w = image.shape
    ph, pw = (-h) % 8, (-w) % 8
    padded = np.pad(image, ((0, ph), (0, pw)), mode="edge").astype(np.float64)
    hb, wb = padded.shape[0] // 8, padded.shape[1] // 8
    return padded.reshape(hb, 8, wb, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)

def from_blocks(blocks: np.ndarray, width: int, height: int) -> np.ndarray:
    """Inverse of to_blocks: reassemble and crop to (height, width)."""
    hb, wb = (height + 7) // 8, (width + 7) // 8
    grid = blocks.reshape(hb, wb, 8, 8).transpose(0, 2, 1, 3).reshape(hb * 8, wb * 8)
    return grid[:height, :width]


def dct2(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D type-II DCT over the last two axes."""
    return scipy.fft.dctn(blocks, type=2, norm="ortho", axes=(-2, -1))


def idct2(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of dct2 (orthonormal type-III DCT)."""
    return scipy.fft.idctn(coefficients, type=2, norm="ortho", axes=(-2, -1))


def forward_transform(image: np.ndarray, quality: int = 75) -> tuple[np.ndarray, ImageMetadata]:
    """Transform an image into quantized coefficient blocks plus metadata.

    Returns (blocks, metadata) where blocks is (n, 8, 8) int32 of quantized
    coefficients in row-major block order.
    """
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("expected a (height, width) uint8 image")
    height, width = image.shape
    table = quality_scaled_table(quality)
    shifted = to_blocks(image) - 128.0
    coefficients = dct2(shifted)
    quantized = round_half_away(coefficients / table).astype(np.int32)
    return quantized, ImageMetadata(width=width, height=height, quant_table=table)


# Valid quantized-coefficient bounds: samples live in [-128, 127] after the
# level shift, so no orthonormal 8x8 DCT coefficient can exceed 8*128 = 1024
# in magnitude. Decoded values outside are necessarily corrupt and are clamped
# so damaged streams cannot produce unbounded pixel excursions.
COEFF_LIMIT = 1024


def coefficient_bounds(quant) -> np.ndarray:
    # ceil: an all-black block quantizes DC to round(-1024/q), which can
    # sit one above 1024//q
    return -(-COEFF_LIMIT // np.asarray(quant, dtype=np.int64))


def inverse_transform(blocks: np.ndarray, meta: ImageMetadata) -> np.ndarray:
    """Reconstruct a uint8 image from quantized coefficient blocks."""
    dequantized = blocks.astype(np.float64) * meta.quant_table
    pixels = idct2(dequantized) + 128.0
    clipped = np.clip(round_half_away(pixels), 0, 255).astype(np.uint8)
    return from_blocks(clipped, meta.width, meta.height)

"""Block transform stage: 8x8 DCT, quality-scaled quantization, zigzag order.

Images are plain (height, width) uint8 arrays. The transform follows the
usual still-image recipe: level shift by -128, orthonormal type-II DCT per
8x8 block, division by a quality-scaled luminance table with rounding half
away from zero. Images whose sides are not multiples of 8 are padded by edge
replication and cropped back after reconstruction.

The DCT is numpy code that performs pocketfft's own sequence of
floating-point operations, so `dct2` and `idct2` equal
`scipy.fft.dctn`/`idctn(type=2, norm="ortho", axes=(-2, -1))` bit for bit
without importing scipy. The bits matter: quantization rounds at .5,
and a DCT with other rounding error moves values across it. A
matrix-product DCT quantizes 77 of the 330,816 coefficients of the 20
corpus images differently at quality 75, which would change pools and
decoded images. The contract is
pocketfft's `T_dcst23` (length 8) over axis -2, then axis -1, with the
orthonormal factor 1/16 on the first axis: the type-II pass runs its
pre-step, the backward real FFT (`radb2`, then `radb4`) and its
post-twiddle, and the type-III pass runs its pre-twiddle, the forward real
FFT (`radf4`, then `radf2`) and its post-step. The twiddles are
pocketfft's doubles, which are not all correctly rounded cosines. Every
factor of two, and the 1/16, is folded into a constant instead: scaling by
a power of two is exact, so this changes no rounding.

The transform works on an (8, 8, m) layout, the two in-block axes ahead
of the block axis, so each of its operations runs over whole contiguous
rows; `to_blocks`, `from_blocks` and the quantizer read and write that
layout through transposed views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    """Round to nearest integer with ties going away from zero.

    values + copysign(0.5, values) is +-(|values| + 0.5) rounded once, as
    the textbook sign(v) * floor(|v| + 0.5) rounds it, so both agree on
    every double."""
    return np.trunc(values + np.copysign(0.5, values))


def to_blocks(image: np.ndarray) -> np.ndarray:
    """Split an image into (n, 8, 8) level-shifted float blocks, edge-padding
    as needed.

    Blocks are ordered row-major: all blocks of the first block row left to
    right, then the next block row. The result is a view of an (8, 8, n)
    array, the transform's layout.
    """
    image = np.asarray(image)
    h, w = image.shape
    padded = np.pad(image, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    hb, wb = padded.shape[0] // 8, padded.shape[1] // 8
    layout = _empty_aligned((8, 8, hb, wb))
    np.subtract(padded.reshape(hb, 8, wb, 8).transpose(1, 3, 0, 2), 128.0, out=layout)
    return layout.reshape(8, 8, hb * wb).transpose(2, 0, 1)


def from_blocks(blocks: np.ndarray, width: int, height: int) -> np.ndarray:
    """Reassemble (n, 8, 8) level-shifted float blocks into a uint8 image of
    (height, width): shift back, round half away from zero and clip."""
    hb, wb = (height + 7) // 8, (width + 7) // 8
    image = np.empty((hb * 8, wb * 8), dtype=np.uint8)
    pixels = blocks.transpose(1, 2, 0).reshape(8, 8, hb, wb) + 128.0
    # below 0 both roundings clip to 0, so floor(p + 0.5) serves
    pixels += 0.5
    np.floor(pixels, out=pixels)
    np.clip(
        pixels, 0, 255, out=image.reshape(hb, 8, wb, 8).transpose(1, 3, 0, 2),
        casting="unsafe",
    )
    return image[:height, :width]


# pocketfft's twiddles for length 8: cos(k pi / 16) for k = 1..7 in
# T_dcst23, and (cos, sin)(pi / 4) in the real FFT's radix-2 pass. Not all
# are the correctly rounded values.
_COS = [float.fromhex(h) for h in (
    "0x1.f6297cff75cb0p-1", "0x1.d906bcf328d46p-1", "0x1.a9b66290ea1a3p-1",
    "0x1.6a09e667f3bccp-1", "0x1.1c73b39ae68c8p-1", "0x1.87de2a6aea963p-2",
    "0x1.8f8b83c69a60ap-3",
)]
_WA = (float.fromhex("0x1.6a09e667f3bccp-1"), float.fromhex("0x1.6a09e667f3bcdp-1"))
_SQRT2 = float.fromhex("0x1.6a09e667f3bcdp+0")
_SCRATCH_ROWS = 24


def _empty_aligned(shape: tuple) -> np.ndarray:
    """np.empty(shape) starting on a 64-byte boundary. numpy's vector loops
    run about 20% faster on rows aligned to the 64-byte vector width than on
    the 16-byte alignment a large allocation usually gets."""
    size = int(np.prod(shape))
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _copy_aligned(a: np.ndarray) -> np.ndarray:
    out = _empty_aligned(a.shape)
    np.copyto(out, a)
    return out


def _pair(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rows i and j of a, in that order, as one view."""
    return a[i :: j - i][:2]


def _dct_ii(x: np.ndarray, y: np.ndarray, fct: float, w: np.ndarray) -> None:
    """y = fct * orthonormal DCT-II of x along axis 0, as pocketfft rounds it.

    x and y are (8, ...) and w is (_SCRATCH_ROWS, ...) scratch. pocketfft
    doubles c[0] and c[7] before its FFT, doubles in radb2 and radb4, and
    halves after it; those factors and fct live in the post-twiddle
    constants, so w holds half of pocketfft's values until then.
    """
    add, sub, mul = np.add, np.subtract, np.multiply
    # MPINPLACE(c[k + 1], c[k]) for k = 1, 3, 5: w0..w5 = a1..a6
    add(x[2:7:2], x[1:6:2], out=w[0:6:2])
    sub(x[2:7:2], x[1:6:2], out=w[1:6:2])
    # radb2: w6 = b0, w7 = b4, w8..w13 = b1 b2 b5 b6 ti2 tr2 (b3 = a3, b7 = -a4)
    add(x[0], x[7], out=w[6])
    sub(x[0], x[7], out=w[7])
    add(w[0:2], w[4:6], out=w[8:13:4])  # b1, ti2
    sub(w[0:2], w[4:6], out=w[13:8:-4])  # tr2, b2
    mul(w[12:14], _WA[0], out=w[14:16])  # wa0 ti2, wa0 tr2
    mul(w[13:11:-1], _WA[1], out=w[16:18])  # wa1 tr2, wa1 ti2
    add(w[14], w[16], out=w[11])  # b6
    sub(w[15], w[17], out=w[10])  # b5
    # radb4: w14..w17 = tr2, tr1 of its first pass, then tr2, tr1 of its second
    add(w[6:8], w[2:4], out=w[14:18:3])
    sub(w[6:8], w[2:4], out=w[15:17])
    # w0..w7 = r0 r6 r1 r7 r4 r2 r5 r3, the FFT's output
    add(w[14:18], w[8:12], out=w[0:4])
    sub(w[14:18], w[8:12], out=w[4:8])
    # post-twiddle, k = 1..3 and kc = 8 - k: w8..w19 = products, w20..w22 = t1
    for j, (k, rk, rkc) in enumerate(((1, 2, 3), (2, 5, 1), (3, 7, 6))):
        mul(_pair(w, rkc, rk), fct * _COS[k - 1], out=_pair(w, 8 + j, 11 + j))
        mul(_pair(w, rk, rkc), fct * _COS[7 - k], out=_pair(w, 14 + j, 17 + j))
    add(w[8:11], w[14:17], out=w[20:23])  # t1
    sub(w[11:14], w[17:20], out=w[8:11])  # t2
    add(w[20:23], w[8:11], out=y[1:4])
    sub(w[20:23], w[8:11], out=y[7:4:-1])
    mul(w[4], 2 * fct * _COS[3], out=y[4])
    mul(w[0], 2 * fct * (_SQRT2 * 0.5), out=y[0])  # ortho: c[0] *= sqrt2 * 0.5


def _dct_iii(c: np.ndarray, y: np.ndarray, fct: float, w: np.ndarray) -> None:
    """y = fct * orthonormal DCT-III of c along axis 0, as pocketfft rounds it.

    Shapes as in _dct_ii. pocketfft multiplies by fct after its FFT and by
    2 * twiddle[3] before it; here fct scales the pre-twiddle constants.
    """
    add, sub, mul = np.add, np.subtract, np.multiply
    # pre-twiddle, k = 1..3 and kc = 8 - k: w0..w2 = t1, w3..w5 = t2
    add(c[1:4], c[7:4:-1], out=w[0:3])
    sub(c[1:4], c[7:4:-1], out=w[3:6])
    for j, k in enumerate((1, 2, 3)):
        mul(_pair(w, 3 + j, j), fct * _COS[k - 1], out=_pair(w, 6 + j, 9 + j))
        mul(_pair(w, j, 3 + j), fct * _COS[7 - k], out=_pair(w, 12 + j, 15 + j))
    d = w[0:8]
    add(w[6:9], w[12:15], out=d[1:4])
    sub(w[9:12], w[15:18], out=d[7:4:-1])
    mul(c[0], _SQRT2 * fct, out=d[0])  # ortho: c[0] *= sqrt2
    mul(c[4], 2 * fct * _COS[3], out=d[4])
    # radf4: w8, w9 = tr1 and w10, w11 = tr2 of its two passes; f = w12..w19
    f = w[12:20]
    add(d[6:8], d[2:4], out=w[8:10])
    sub(d[6:8], d[2:4], out=f[2::4])
    add(d[0:2], d[4:6], out=w[10:12])
    sub(d[0:2], d[4:6], out=f[1::4])
    add(w[10:12], w[8:10], out=f[0::4])
    sub(w[10:12], w[8:10], out=f[3::4])
    # radf2 (ch[3] = f3, ch[4] = -f7), then MPINPLACE(c[k], c[k + 1]) for k = 1, 3, 5
    add(f[0], f[4], out=y[0])
    sub(f[0], f[4], out=y[7])
    mul(f[5:7], _WA[0], out=w[0:2])  # wa0 f5, wa0 f6
    mul(f[6:4:-1], _WA[1], out=w[2:4])  # wa1 f6, wa1 f5
    add(w[0], w[2], out=w[4])  # tr2
    sub(w[1], w[3], out=w[5])  # ti2
    add(_pair(w, 13, 5), _pair(w, 4, 14), out=w[6:8])  # e1 = f1 + tr2, e2 = ti2 + f2
    sub(_pair(w, 13, 5), _pair(w, 4, 14), out=w[8:10])  # e5 = f1 - tr2, e6 = ti2 - f2
    sub(w[6:9:2], w[7:10:2], out=y[1:6:4])
    add(w[6:9:2], w[7:10:2], out=y[2:7:4])
    add(f[3], f[7], out=y[3])
    sub(f[3], f[7], out=y[4])


def _transform(blocks: np.ndarray, kernel) -> np.ndarray:
    """kernel over axis -2 with the factor 1/16, then over axis -1."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected (..., 8, 8) blocks, got {blocks.shape}")
    lead = blocks.shape[:-2]
    m = blocks.size // 64
    # (8, 8, m) with contiguous rows; a view when blocks came from to_blocks.
    # The passes see (8, 8m) arrays: numpy runs a 1-D row about twice as
    # fast as the same row seen as (8, m).
    t = np.moveaxis(blocks.reshape(m, 8, 8), 0, 2)
    if not t.flags.c_contiguous or t.ctypes.data % 64:
        t = _copy_aligned(t)
    w = _empty_aligned((_SCRATCH_ROWS, 8 * m))
    out = _empty_aligned((8, 8, m))
    kernel(t.reshape(8, 8 * m), out.reshape(8, 8 * m), 1 / 16, w)
    first = _copy_aligned(out.swapaxes(0, 1))  # axis -1 ahead: the second pass reads rows
    kernel(first.reshape(8, 8 * m), out.reshape(8, 8 * m), 1.0, w)
    return out.transpose(2, 1, 0).reshape(lead + (8, 8))


def dct2(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D type-II DCT over the last two axes, which must be 8 x 8."""
    return _transform(blocks, _dct_ii)


def idct2(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of dct2 (orthonormal type-III DCT)."""
    return _transform(coefficients, _dct_iii)


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
    quantized = round_half_away(dct2(to_blocks(image)) / table)
    return quantized.astype(np.int32, order="C"), ImageMetadata(width, height, table)


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
    dequantized = _empty_aligned((8, 8, len(blocks)))  # the transform's layout
    np.multiply(blocks.transpose(1, 2, 0), meta.quant_table[:, :, None], out=dequantized)
    return from_blocks(idct2(dequantized.transpose(2, 0, 1)), meta.width, meta.height)

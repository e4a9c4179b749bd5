"""Image quality and cost metrics.

SSIM uses the standard constants K1=0.01, K2=0.03 over a dynamic range of
255 and an 8x8 uniform sliding window with stride 1 (valid windows only,
population moments). Identical images score exactly 1.0.

Inputs must be integer images (uint8 in practice). The five window means
come from int64 summed-area tables (Crow, SIGGRAPH 1984): each window sum
is four table reads, and dividing an integer sum below 2**53 by 64 gives
exactly the float64 mean of the window's pixels, so the score is the one a
float64 sliding-window mean would give, to the last bit. That holds while
pixel magnitudes stay below 2**23, which covers 8- and 16-bit images.
"""

from __future__ import annotations

import csv

import numpy as np

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255


def _window_sums(v: np.ndarray) -> np.ndarray:
    """Sum of every valid SSIM_WINDOW x SSIM_WINDOW window of an int64 image."""
    table = np.zeros((v.shape[0] + 1, v.shape[1] + 1), dtype=np.int64)
    np.cumsum(v, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    w = SSIM_WINDOW
    return table[w:, w:] - table[:-w, w:] - table[w:, :-w] + table[:-w, :-w]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"need two equal-shape 2d images, got {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels per side")
    for img in (a, b):
        if not np.issubdtype(img.dtype, np.integer):
            raise ValueError(f"need integer pixels, got dtype {img.dtype}")
    x = a.astype(np.int64)
    y = b.astype(np.int64)
    area = SSIM_WINDOW * SSIM_WINDOW
    mx = _window_sums(x) / area
    my = _window_sums(y) / area
    vx = _window_sums(x * x) / area - mx * mx
    vy = _window_sums(y * y) / area - my * my
    cov = _window_sums(x * y) / area - mx * my
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2
    score = ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )
    return float(score.mean())


def encoding_density(payload_bits: float, nt_count: int) -> float:
    """Stored payload bits per pool nucleotide (primers and index excluded)."""
    if nt_count <= 0:
        raise ValueError("nt_count must be positive")
    return payload_bits / nt_count


def barrier_overhead(
    barrier_nt: int, payload_bits: float, payload_trits: int, raw_bytes: int
) -> float:
    """Barrier cost as a fraction of the raw image size.

    Each barrier nucleotide displaces one trit of stream capacity, worth
    the stream's average bits per trit; that bit budget is expressed in
    bytes and divided by the uncompressed image size.
    """
    if raw_bytes <= 0 or payload_trits <= 0:
        raise ValueError("raw_bytes and payload_trits must be positive")
    equivalent_bytes = barrier_nt * (payload_bits / payload_trits) / 8.0
    return equivalent_bytes / raw_bytes


def ci90_half_width(samples) -> float:
    """Half width of the two-sided 90% t confidence interval for the mean."""
    values = np.asarray(list(samples), dtype=np.float64)
    n = values.size
    if n < 2:
        return 0.0
    spread = values.std(ddof=1)
    if spread == 0.0:
        return 0.0
    # deferred, as imgdna needs scipy nowhere else; stats.t.ppf calls this
    # same function, and scipy.special imports in a third of the time
    from scipy.special import stdtrit

    return float(stdtrit(n - 1, 0.95) * spread / np.sqrt(n))


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    """CSV with stable float formatting so reruns diff cleanly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.6f}" if isinstance(v, float) else v for v in row]
            )

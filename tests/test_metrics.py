import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from imgdna.corpus import corpus_image
from imgdna.metrics import (
    barrier_overhead,
    ci90_half_width,
    encoding_density,
    ssim,
    write_csv,
)
from imgdna.pipeline import reference_image


def ssim_by_hand(a, b):
    """Windowed structural similarity, written as the plain textbook loops."""
    k1, k2, depth, win = 0.01, 0.03, 255.0, 8
    c1 = (k1 * depth) ** 2
    c2 = (k2 * depth) ** 2
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    scores = []
    for i in range(a.shape[0] - win + 1):
        for j in range(a.shape[1] - win + 1):
            x = a[i : i + win, j : j + win]
            y = b[i : i + win, j : j + win]
            mx, my = x.mean(), y.mean()
            vx = (x * x).mean() - mx * mx
            vy = (y * y).mean() - my * my
            cov = (x * y).mean() - mx * my
            scores.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(scores))


def test_ssim_matches_direct_window_loop():
    rng = np.random.default_rng(42)
    for _ in range(4):
        a = rng.integers(0, 256, size=(24, 31)).astype(np.uint8)
        b = np.clip(
            a.astype(np.int64) + rng.integers(-30, 31, size=a.shape), 0, 255
        ).astype(np.uint8)
        assert ssim(a, b) == pytest.approx(ssim_by_hand(a, b), abs=1e-9)


def ssim_sliding_window(a, b):
    """The float64 sliding-window formula: every window's moments as
    numpy means over an 8x8 view, then the same score expression."""
    x = a.astype(np.float64)
    y = b.astype(np.float64)
    wx = sliding_window_view(x, (8, 8))
    wy = sliding_window_view(y, (8, 8))
    mx = wx.mean(axis=(-2, -1))
    my = wy.mean(axis=(-2, -1))
    vx = (wx * wx).mean(axis=(-2, -1)) - mx * mx
    vy = (wy * wy).mean(axis=(-2, -1)) - my * my
    cov = (wx * wy).mean(axis=(-2, -1)) - mx * my
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    score = ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )
    return float(score.mean())


def _noisy(img, rng, spread):
    noise = rng.integers(-spread, spread + 1, size=img.shape)
    return np.clip(img.astype(np.int64) + noise, 0, 255).astype(np.uint8)


def test_ssim_equals_sliding_window_formula_on_corpus_pairs():
    rng = np.random.default_rng(7)
    for idx in (0, 3, 7, 15):
        img = corpus_image(idx)
        pairs = [
            (img, reference_image(img)),
            (img, reference_image(img, quality=10)),
            (img, _noisy(img, rng, 40)),
            (img, img[::-1, ::-1].copy()),
            (img, np.zeros_like(img)),
        ]
        for a, b in pairs:
            assert ssim(a, b) == ssim_sliding_window(a, b), idx
            assert ssim(b, a) == ssim_sliding_window(b, a), idx


@pytest.mark.parametrize(
    "shape", [(8, 8), (8, 9), (8, 57), (57, 8), (9, 13), (31, 17), (129, 8), (65, 127)]
)
def test_ssim_equals_sliding_window_formula_on_any_shape(shape):
    rng = np.random.default_rng(sum(shape))
    for spread in (0, 3, 60, 255):
        a = rng.integers(0, 256, size=shape).astype(np.uint8)
        b = _noisy(a, rng, spread)
        assert ssim(a, b) == ssim_sliding_window(a, b)
    extremes = np.full(shape, 255, dtype=np.uint8)
    extremes[::2] = 0
    assert ssim(extremes, extremes) == 1.0
    assert ssim(extremes, 255 - extremes) == ssim_sliding_window(extremes, 255 - extremes)


def test_ssim_accepts_only_integer_pixels():
    img = np.arange(144, dtype=np.uint8).reshape(12, 12)
    for dtype in (np.int16, np.uint16, np.int64):
        assert ssim(img.astype(dtype), img.astype(dtype)) == 1.0
    for dtype in (np.float32, np.float64, np.bool_, np.complex128):
        with pytest.raises(ValueError, match="integer"):
            ssim(img.astype(dtype), img)
        with pytest.raises(ValueError, match="integer"):
            ssim(img, img.astype(dtype))


def test_identical_images_score_exactly_one():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    assert ssim(img, img) == 1.0
    flat = np.full((12, 12), 77, dtype=np.uint8)
    assert ssim(flat, flat) == 1.0


def test_ssim_orders_degradation():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    mild = img.copy()
    mild[::7, ::7] ^= 0x10
    harsh = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    s_mild = ssim(img, mild)
    s_harsh = ssim(img, harsh)
    assert 1.0 > s_mild > s_harsh


def test_ssim_rejects_bad_shapes():
    a = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        ssim(a, np.zeros((16, 17), dtype=np.uint8))
    with pytest.raises(ValueError):
        ssim(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        ssim(a.ravel(), a.ravel())


def test_encoding_density():
    # 8 bits carried by 5 nucleotides
    assert encoding_density(8, 5) == pytest.approx(1.6)
    with pytest.raises(ValueError):
        encoding_density(8, 0)


def test_barrier_overhead_arithmetic():
    # 198 barrier nt at 1.5 bits/trit over a 4096-byte image:
    # 198 * 1.5 / 8 / 4096
    got = barrier_overhead(
        barrier_nt=198, payload_bits=1500, payload_trits=1000, raw_bytes=4096
    )
    assert got == pytest.approx(198 * 1.5 / 8 / 4096)
    assert barrier_overhead(0, 1500, 1000, 4096) == 0.0


def test_ci90_half_width():
    assert ci90_half_width([3.0]) == 0.0
    assert ci90_half_width([2.0, 2.0, 2.0]) == 0.0
    # n=5, s=1: published t table gives t_{0.95,4} = 2.131847
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    s = np.std(samples, ddof=1)
    expect = 2.131847 * s / np.sqrt(5)
    assert ci90_half_width(samples) == pytest.approx(expect, rel=1e-6)


def test_write_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_csv(path, ["scheme", "rate", "score"], [["IMG-DNA", 0.001, 0.987654321]])
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,rate,score"
    assert lines[1] == "IMG-DNA,0.001000,0.987654"


def test_ci90_t_quantile_matches_scipy_stats():
    from scipy import special, stats

    for n in range(2, 201):
        assert special.stdtrit(n - 1, 0.95) == stats.t.ppf(0.95, n - 1)
    samples = [1.0, 2.5, 2.0, 4.0]
    spread = np.std(samples, ddof=1)
    expected = stats.t.ppf(0.95, 3) * spread / np.sqrt(4)
    assert ci90_half_width(samples) == expected

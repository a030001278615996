"""Synthetic word-image generator for toy-scale training.

Renders case-folded alphanumeric strings into 1x32x100 grayscale bitmaps
using an embedded 5x7 dot-matrix font, with per-sample random horizontal and
vertical shift, glyph scale, and additive Gaussian noise. Pixel values are in
[-1, 1] (background -1). Generation is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predict import ALPHABET

IMAGE_H = 32
IMAGE_W = 100

# Classic 5x7 dot-matrix glyphs, one 5-byte column strip per character; each
# byte is a column with the least-significant bit at the top row.
_FONT_COLUMNS = {
    "0": (0x3E, 0x51, 0x49, 0x45, 0x3E),
    "1": (0x00, 0x42, 0x7F, 0x40, 0x00),
    "2": (0x42, 0x61, 0x51, 0x49, 0x46),
    "3": (0x21, 0x41, 0x45, 0x4B, 0x31),
    "4": (0x18, 0x14, 0x12, 0x7F, 0x10),
    "5": (0x27, 0x45, 0x45, 0x45, 0x39),
    "6": (0x3C, 0x4A, 0x49, 0x49, 0x30),
    "7": (0x01, 0x71, 0x09, 0x05, 0x03),
    "8": (0x36, 0x49, 0x49, 0x49, 0x36),
    "9": (0x06, 0x49, 0x49, 0x29, 0x1E),
    "a": (0x7E, 0x11, 0x11, 0x11, 0x7E),
    "b": (0x7F, 0x49, 0x49, 0x49, 0x36),
    "c": (0x3E, 0x41, 0x41, 0x41, 0x22),
    "d": (0x7F, 0x41, 0x41, 0x22, 0x1C),
    "e": (0x7F, 0x49, 0x49, 0x49, 0x41),
    "f": (0x7F, 0x09, 0x09, 0x09, 0x01),
    "g": (0x3E, 0x41, 0x49, 0x49, 0x7A),
    "h": (0x7F, 0x08, 0x08, 0x08, 0x7F),
    "i": (0x00, 0x41, 0x7F, 0x41, 0x00),
    "j": (0x20, 0x40, 0x41, 0x3F, 0x01),
    "k": (0x7F, 0x08, 0x14, 0x22, 0x41),
    "l": (0x7F, 0x40, 0x40, 0x40, 0x40),
    "m": (0x7F, 0x02, 0x0C, 0x02, 0x7F),
    "n": (0x7F, 0x04, 0x08, 0x10, 0x7F),
    "o": (0x3E, 0x41, 0x41, 0x41, 0x3E),
    "p": (0x7F, 0x09, 0x09, 0x09, 0x06),
    "q": (0x3E, 0x41, 0x51, 0x21, 0x5E),
    "r": (0x7F, 0x09, 0x19, 0x29, 0x46),
    "s": (0x46, 0x49, 0x49, 0x49, 0x31),
    "t": (0x01, 0x01, 0x7F, 0x01, 0x01),
    "u": (0x3F, 0x40, 0x40, 0x40, 0x3F),
    "v": (0x1F, 0x20, 0x40, 0x20, 0x1F),
    "w": (0x3F, 0x40, 0x38, 0x40, 0x3F),
    "x": (0x63, 0x14, 0x08, 0x14, 0x63),
    "y": (0x07, 0x08, 0x70, 0x08, 0x07),
    "z": (0x61, 0x51, 0x49, 0x45, 0x43),
}


def glyph_bitmap(ch: str) -> np.ndarray:
    """(7, 5) binary bitmap for one alphabet character."""
    cols = _FONT_COLUMNS[ch]
    out = np.zeros((7, 5), dtype=np.uint8)
    for x, col in enumerate(cols):
        for y in range(7):
            out[y, x] = (col >> y) & 1
    return out


@dataclass
class ToyDataset:
    images: np.ndarray  # (n, 1, 32, 100) float32 in [-1, 1]
    labels: list

    def __len__(self):
        return self.images.shape[0]


def render_word(word: str, rng: np.random.Generator, noise: float = 0.05) -> np.ndarray:
    """Render one word to a (1, 32, 100) array in [-1, 1]."""
    canvas = np.zeros((IMAGE_H, IMAGE_W), dtype=np.float32)
    scale = int(rng.integers(2, 4))  # glyph pixel size 2 or 3
    gw, gh = 5 * scale, 7 * scale
    spacing = scale
    total_w = len(word) * gw + max(len(word) - 1, 0) * spacing
    total_w = min(total_w, IMAGE_W)
    x0 = int(rng.integers(0, max(IMAGE_W - total_w, 0) + 1))
    y0 = int(rng.integers(0, max(IMAGE_H - gh, 0) + 1))
    x = x0
    for ch in word:
        bm = np.kron(glyph_bitmap(ch), np.ones((scale, scale), dtype=np.uint8))
        if x + gw > IMAGE_W:
            break
        canvas[y0:y0 + gh, x:x + gw] = np.maximum(canvas[y0:y0 + gh, x:x + gw],
                                                  bm.astype(np.float32))
        x += gw + spacing
    img = canvas * 2.0 - 1.0
    if noise > 0:
        img = img + rng.normal(0.0, noise, img.shape)
    return np.clip(img, -1.0, 1.0).astype(np.float32)[None]


def synth_toydata(n: int, max_len: int = 5, seed: int = 0, charset: str = ALPHABET,
                  min_len: int = 1, noise: float = 0.05) -> ToyDataset:
    """Generate n labeled word images, deterministic per seed."""
    rng = np.random.default_rng(seed)
    chars = list(charset)
    images = np.empty((n, 1, IMAGE_H, IMAGE_W), dtype=np.float32)
    labels = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        word = "".join(rng.choice(chars) for _ in range(length))
        images[i] = render_word(word, rng, noise=noise)
        labels.append(word)
    return ToyDataset(images, labels)

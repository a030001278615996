"""The CTC test oracles: restricted-alphabet label encoding and brute-force
path enumeration.

Posteriors over fewer than 37 classes are treated as restricted alphabets:
classes 0..C-2 stand for 'a', 'b', ... and the last class is the blank (in the
full 37-class case the blank is likewise the last class, index 36).
"""

import numpy as np

from strforge.predict import CODEC, NUM_CLASSES, CodecError
from strforge.tensor import Tensor


def encode_for(classes: int, y: str) -> np.ndarray:
    """Class indices of `y` for posteriors over `classes` classes."""
    if classes == NUM_CLASSES:
        return CODEC.encode(y)
    sub = "abcdefghijklmnopqrstuvwxyz"[:classes - 1]
    try:
        return np.array([sub.index(ch) for ch in y], dtype=np.int64)
    except ValueError:
        raise CodecError(f"label {y!r} outside restricted alphabet {sub!r}") from None


def ctc_brute_force(h, y: str) -> float:
    """Exact sum over every collapsing alignment; test oracle for small instances."""
    h = np.asarray(h.data if isinstance(h, Tensor) else h, dtype=np.float64)
    steps, classes = h.shape
    if steps > 8:
        raise ValueError("brute-force oracle limited to T <= 8")
    if classes > 4:
        raise ValueError("brute-force oracle limited to <= 4 classes")
    blank = classes - 1
    target = list(encode_for(classes, y))
    total = 0.0
    probs = np.exp(h)

    def mapped(path):
        out = []
        prev = None
        for i in path:
            if i != prev and i != blank:
                out.append(i)
            prev = i
        return out

    for flat in np.ndindex(*([classes] * steps)):
        if mapped(flat) == target:
            p = 1.0
            for t, c in enumerate(flat):
                p *= probs[t, c]
            total += p
    return total

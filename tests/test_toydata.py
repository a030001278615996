import numpy as np
import pytest

from strforge.toydata import IMAGE_W, MAX_WORD_LEN, glyph_bitmap, render_word, synth_toydata


class EdgeDraws:
    """Stands in for the generator: each integer draw takes its lowest value, or
    its highest with `high`, and the noise is zero."""

    def __init__(self, high):
        self.high = high

    def integers(self, low, high):
        return high - 1 if self.high else low

    def normal(self, loc, scale, size):
        return np.zeros(size)


# high draws scale 3 and places the word at the bottom-right corner; low draws
# scale 2 at the top-left. A word wider than IMAGE_W at scale 3 is drawn at 2.
@pytest.mark.parametrize("high", [False, True])
@pytest.mark.parametrize("length", range(1, MAX_WORD_LEN + 1))
def test_every_glyph_of_the_label_is_drawn(length, high):
    word = "mw8wm0bq"[:length]
    scale = 3 if high and 18 * length - 3 <= IMAGE_W else 2
    ink = scale * scale * sum(int(glyph_bitmap(ch).sum()) for ch in word)
    assert (render_word(word, EdgeDraws(high))[0] > 0).sum() == ink


def test_a_label_longer_than_eight_raises():
    with pytest.raises(ValueError, match="exceeds 8"):
        synth_toydata(1, max_len=9)
    with pytest.raises(ValueError, match="does not fit"):
        render_word("abcdefghi", EdgeDraws(False))

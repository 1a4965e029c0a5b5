import numpy as np
import pytest

from prbench.pgm import read_pgm, write_pgm


@pytest.fixture
def image():
    rng = np.random.default_rng(4)
    return rng.random((5, 7))


def test_round_trip(tmp_path, image):
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert path.read_bytes()[:11] == b"P5\n7 5\n255\n"
    back = read_pgm(path)
    assert back.shape == image.shape
    assert np.array_equal(back, np.rint(image * 255) / 255)


def test_reads_16bit_binary(tmp_path):
    # big-endian 16-bit samples 0, 256, 65535
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n3 1\n65535\n\x00\x00\x01\x00\xff\xff")
    assert np.array_equal(read_pgm(path), [[0.0, 256 / 65535, 1.0]])


def test_reads_16bit_ascii(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P2\n2 2\n65535\n0 300\n65535 1\n")
    expected = np.array([[0, 300], [65535, 1]]) / 65535
    assert np.array_equal(read_pgm(path), expected)


def test_reads_ascii_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 128\n# more\n255 64\n")
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 1] == pytest.approx(128 / 255)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="bad.pgm"):
        read_pgm(path)


def test_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="short.pgm"):
        read_pgm(path)


def test_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-0.5, 1.5]]))
    img = read_pgm(path)
    assert img[0, 0] == 0.0 and img[0, 1] == 1.0


@pytest.mark.parametrize("data", [
    b"P2\n2 1\n255\n300 -5\n",
    b"P2\n2 1\n255\n3 -5\n",
    b"P2\n2 1\n255\n3 0.5\n",
    b"P5\n1 1\n100\n\xc8",
    b"P5\n1 1\n1000\n\x03\xe9",
    b"P2\n2 x\n255\n0 1\n",
], ids=["ascii_above", "ascii_negative", "ascii_fraction", "binary_above", "wide_above",
        "header_word"])
def test_rejects_non_integer_or_out_of_range_values(tmp_path, data):
    # each sample must be an integer in [0, maxval], so the image lies in [0, 1];
    # a header value that is no integer is named with the file too
    path = tmp_path / "range.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="range.pgm"):
        read_pgm(path)

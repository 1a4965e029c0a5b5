"""Portable graymap reading and writing.

Images are exchanged as float arrays in [0, 1].  The reader takes P2
(ascii) and P5 (binary) files at 8 or 16 bits; the writer writes 8-bit P5
only, quantized to maxval 255.
"""

from __future__ import annotations

import numpy as np


def _tokens(data: bytes):
    pos = 0
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end == -1 else end + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        yield pos, data[pos:end]
        pos = end


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 graymap as a float array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tok = _tokens(data)
    try:
        _, magic = next(tok)
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"{path}: not a P2/P5 graymap (magic {magic!r})")
        _, width = next(tok)
        _, height = next(tok)
        pos, maxval_tok = next(tok)
    except StopIteration:
        raise ValueError(f"{path}: truncated graymap header") from None
    width, height, maxval = int(width), int(height), int(maxval_tok)
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad graymap dimensions")
    count = width * height
    if magic == b"P2":
        values = np.array([int(t) for _, t in tok], dtype=np.int64)
        if values.shape[0] != count:
            raise ValueError(f"{path}: expected {count} pixels, got {values.shape[0]}")
    else:
        start = pos + len(maxval_tok) + 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        if len(data) - start < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated pixel data")
        raw = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        values = raw.astype(np.int64)
    return (values / maxval).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a float image in [0, 1] as 8-bit P5, clipping out-of-range values."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("graymap images must be two-dimensional")
    quantized = np.clip(np.rint(image * 255), 0, 255).astype(np.uint8)
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())

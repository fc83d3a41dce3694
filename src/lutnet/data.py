"""IDX dataset ingestion plus the bundled toy digit set.

One codec serves every IDX file by the format's header rule: the magic
0x000008r (unsigned bytes, rank r), r big-endian u32 dimensions, then their
product in bytes.  load_dataset decides which file of a split must hold
images (rank 3) and which labels (rank 1).

Images stay in their stored form, uint8 pixel intensities, until a batch
reaches the network: the layer walk (model._forward_stack) reads a uint8
input p as p/127.5 - 1, one batch at a time, so a data set holds one byte
per pixel.

The toy set is a deterministic, seeded render of 10 digit glyphs onto 28x28
u8 images (shifts, intensity jitter, blur, salt noise), written as standard
IDX files so the loader path is exercised end to end.  No downloading."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError

U8_MAGIC = 0x00000800   # IDX magic of unsigned bytes; the low byte is the rank
MAX_RANK = 4            # the highest rank load_idx reads: (count, channels, rows, cols)

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"
SPLITS = ((TRAIN_IMAGES, TRAIN_LABELS), (TEST_IMAGES, TEST_LABELS))   # train, then test
TOY_SEED = 123   # the seed of the bundled toy set


def _read_u32(f, path, offset):
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated at byte {offset} (wanted 4, got {len(raw)})")
    return struct.unpack(">I", raw)[0]


def _read_body(f, path, offset, want, what):
    """The want bytes of f from offset.  A file that does not end right
    after them is a FormatError before any is read, whatever size the header
    claims: one too short is cut off, one too long holds more than its
    header declares."""
    have = max(os.fstat(f.fileno()).st_size - offset, 0)
    if have < want:
        raise FormatError(f"{path}: truncated at byte {offset + have} "
                          f"(wanted {want} {what} bytes, got {have})")
    if have > want:
        raise FormatError(f"{path}: trailing bytes from byte {offset + want} "
                          f"(wanted {want} {what} bytes, got {have})")
    return f.read(want)


def load_idx(path):
    """The uint8 array of the shape an IDX file's header declares, rank 1
    (labels) to MAX_RANK.  A magic of another data type or rank, or a file
    cut short of or running past the bytes its header declares, is a
    FormatError."""
    with open(path, "rb") as f:
        magic = _read_u32(f, path, 0)
        rank = magic - U8_MAGIC
        if not 1 <= rank <= MAX_RANK:
            raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")
        shape = [_read_u32(f, path, 4 * i) for i in range(1, rank + 1)]
        raw = _read_body(f, path, 4 + 4 * rank, math.prod(shape),
                         "label" if rank == 1 else "pixel")
        return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def _save_idx(path, values, ndim, what):
    """Write values as an IDX file of rank ndim.  FormatError, before the
    file is opened, unless they are integers in 0..255 of rank ndim: a plain
    uint8 cast would wrap 300 to 44 and -1 to 255 and truncate 1.7 to 1."""
    values = np.asarray(values)
    if values.ndim != ndim or not np.issubdtype(values.dtype, np.integer):
        raise FormatError(f"{path}: {what} must be a rank-{ndim} integer array; got shape "
                          f"{values.shape} of {values.dtype}")
    if values.size and (values.min() < 0 or values.max() > 255):
        raise FormatError(f"{path}: {what} must lie in 0..255; got {values.min()} to "
                          f"{values.max()}")
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + ndim}I", U8_MAGIC | ndim, *values.shape))
        f.write(values.astype(np.uint8).tobytes())


def save_idx_images(path, images):
    """Write (n, rows, cols) integer pixels in 0..255 as an IDX image file."""
    _save_idx(path, images, 3, "images")


def save_idx_labels(path, labels):
    """Write (n,) integer labels in 0..255 as an IDX label file."""
    _save_idx(path, labels, 1, "labels")


GLYPHS = [
    ["..####..", ".#....#.", ".#...##.", ".#..#.#.", ".#.#..#.", ".##...#.", ".#....#.", "..####.."],
    ["...##...", "..###...", "...##...", "...##...", "...##...", "...##...", "...##...", ".######."],
    ["..####..", ".#....#.", "......#.", ".....#..", "....#...", "...#....", "..#.....", ".######."],
    ["..####..", ".#....#.", "......#.", "...###..", "......#.", "......#.", ".#....#.", "..####.."],
    ["....##..", "...#.#..", "..#..#..", ".#...#..", ".######.", ".....#..", ".....#..", ".....#.."],
    [".######.", ".#......", ".#......", ".#####..", "......#.", "......#.", ".#....#.", "..####.."],
    ["..####..", ".#......", "#.......", "#.####..", "##....#.", "#.....#.", ".#....#.", "..####.."],
    [".######.", "......#.", ".....#..", "....#...", "....#...", "...#....", "...#....", "...#...."],
    ["..####..", ".#....#.", ".#....#.", "..####..", ".#....#.", ".#....#.", ".#....#.", "..####.."],
    ["..####..", ".#....#.", ".#....#.", "..#####.", "......#.", ".....#..", "....#...", "..##...."],
]


def _glyph_array(digit):
    g = GLYPHS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in g])


RENDER_CHUNK = 1000   # images per batch: keeps the float64 temporaries to a few MB


def _glyph_bases():
    """(10, 3, 16, 16): each digit glyph at twice its size, then thickened by
    adding it rolled one pixel along axis 0, then along axis 1."""
    bases = np.empty((10, 3, 16, 16))
    for digit in range(10):
        base = np.kron(_glyph_array(digit), np.ones((2, 2)))
        bases[digit, 0] = base
        for axis in (0, 1):
            bases[digit, 1 + axis] = np.clip(base + np.roll(base, 1, axis=axis), 0, 1)
    return bases


def _render_digits(bases, labels, rng):
    """One noisy 28x28 u8 rendering per label: the glyph (its strokes
    thickened half the time), shifted by up to 4 pixels, intensity-jittered,
    3x3 box-blurred 60 % of the time, plus Gaussian and salt noise.  Each
    image draws from rng in turn; the pixel arithmetic runs on the batch."""
    n = len(labels)
    variant, scale, blur = np.zeros(n, np.int64), np.empty(n), np.empty(n, bool)
    shift = np.empty((n, 2), np.int64)
    noise, salt, salt_values = np.empty((n, 28, 28)), np.empty((n, 28, 28), bool), []
    for i in range(n):
        if rng.random() < 0.5:   # thicken strokes
            variant[i] = 1 + rng.integers(0, 2)
        shift[i] = rng.integers(-4, 5), rng.integers(-4, 5)
        scale[i] = rng.uniform(0.65, 1.0)
        blur[i] = rng.random() < 0.6
        noise[i] = rng.normal(0.0, 14.0, size=(28, 28))
        salt[i] = rng.random((28, 28)) < 0.01
        salt_values.append(rng.uniform(0, 255, size=int(salt[i].sum())))
    img = np.zeros((n, 28, 28))
    y = (6 + shift[:, 0, None, None]) + np.arange(16)[:, None]
    x = (6 + shift[:, 1, None, None]) + np.arange(16)
    img[np.arange(n)[:, None, None], y, x] = bases[labels, variant] * scale[:, None, None]
    padded = np.pad(img[blur], ((0, 0), (1, 1), (1, 1)))
    img[blur] = sum(padded[:, i:i + 28, j:j + 28] for i in range(3) for j in range(3)) / 9.0
    img = img * 255.0 + noise
    img[salt] = np.concatenate(salt_values)
    return np.clip(img, 0, 255).astype(np.uint8)


def generate_toy_dataset(data_dir, n_train=10000, n_test=2000, seed=TOY_SEED):
    """Write the deterministic toy digit set as IDX files under data_dir."""
    os.makedirs(data_dir, exist_ok=True)
    bases = _glyph_bases()
    for salt, ((images_file, labels_file), count) in enumerate(zip(SPLITS, (n_train, n_test))):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(salt,)))
        labels = rng.integers(0, 10, size=count)
        images = np.concatenate([_render_digits(bases, labels[i:i + RENDER_CHUNK], rng)
                                 for i in range(0, count, RENDER_CHUNK)])
        save_idx_images(os.path.join(data_dir, images_file), images)
        save_idx_labels(os.path.join(data_dir, labels_file), labels)


def _load_rank(path, ndim, kind):
    """load_idx(path), FormatError unless it has rank ndim."""
    values = load_idx(path)
    if values.ndim != ndim:
        found = {1: "labels", 3: "images"}.get(values.ndim, f"rank {values.ndim}")
        raise FormatError(f"{path}: expected {kind} file, found {found}")
    return values


def load_dataset(data_dir):
    """(x_train, y_train, x_test, y_test) from the IDX files of SPLITS in
    data_dir: images as (n, rows*cols) uint8 pixels, labels widened to int64.
    FormatError unless each split's images file holds rank-3 images and its
    labels file rank-1 labels, as many as images, at least one."""
    arrays = []
    for images_file, labels_file in SPLITS:
        x = _load_rank(os.path.join(data_dir, images_file), 3, "an image")
        y = _load_rank(os.path.join(data_dir, labels_file), 1, "a label")
        if x.shape[0] != y.shape[0]:
            raise FormatError(f"{data_dir}: {images_file} holds {x.shape[0]} images but "
                              f"{labels_file} {y.shape[0]} labels")
        if not x.shape[0]:
            raise FormatError(f"{data_dir}: {images_file} holds no images")
        arrays += [x.reshape(x.shape[0], -1), y.astype(np.int64)]
    return tuple(arrays)


def ensure_dataset(data_dir, n_train, n_test):
    """Materialise the bundled toy set if data_dir has no IDX files yet."""
    if not os.path.exists(os.path.join(data_dir, TRAIN_IMAGES)):
        generate_toy_dataset(data_dir, n_train, n_test)
    return data_dir

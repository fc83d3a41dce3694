"""IDX dataset ingestion plus the bundled toy digit set.

The toy set is a deterministic, seeded render of 10 digit glyphs onto 28x28
u8 images (shifts, intensity jitter, blur, salt noise), written as standard
IDX files so the loader path is exercised end to end.  No downloading."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError

IMAGE_MAGIC = 0x00000803   # u8, rank 3
LABEL_MAGIC = 0x00000801   # u8, rank 1

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def _read_u32(f, path, offset):
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated at byte {offset} (wanted 4, got {len(raw)})")
    return struct.unpack(">I", raw)[0]


def load_idx(path):
    """Parse an IDX file; images come back as float64 in [-1, 1] via
    x/127.5 - 1, labels as int64."""
    with open(path, "rb") as f:
        magic = _read_u32(f, path, 0)
        if magic == LABEL_MAGIC:
            count = _read_u32(f, path, 4)
            raw = f.read(count)
            if len(raw) != count:
                raise FormatError(f"{path}: truncated at byte {8 + len(raw)} "
                                  f"(wanted {count} label bytes, got {len(raw)})")
            return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if magic == IMAGE_MAGIC:
            count = _read_u32(f, path, 4)
            rows = _read_u32(f, path, 8)
            cols = _read_u32(f, path, 12)
            want = count * rows * cols
            raw = f.read(want)
            if len(raw) != want:
                raise FormatError(f"{path}: truncated at byte {16 + len(raw)} "
                                  f"(wanted {want} pixel bytes, got {len(raw)})")
            pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
            return pixels.astype(np.float64) / 127.5 - 1.0
        raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")


def load_idx_images(path):
    x = load_idx(path)
    if x.ndim != 3:
        raise FormatError(f"{path}: expected an image file, found labels")
    return x


def load_idx_labels(path):
    y = load_idx(path)
    if y.ndim != 1:
        raise FormatError(f"{path}: expected a label file, found images")
    return y


def save_idx_images(path, images_u8):
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    n, rows, cols = images_u8.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())


def save_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


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


def generate_toy_dataset(data_dir, n_train=10000, n_test=2000, seed=123):
    """Write the deterministic toy digit set as IDX files under data_dir."""
    os.makedirs(data_dir, exist_ok=True)
    bases = _glyph_bases()
    for split, count, salt in (("train", n_train, 0), ("test", n_test, 1)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(salt,)))
        labels = rng.integers(0, 10, size=count)
        images = np.concatenate([_render_digits(bases, labels[i:i + RENDER_CHUNK], rng)
                                 for i in range(0, count, RENDER_CHUNK)])
        if split == "train":
            save_idx_images(os.path.join(data_dir, TRAIN_IMAGES), images)
            save_idx_labels(os.path.join(data_dir, TRAIN_LABELS), labels)
        else:
            save_idx_images(os.path.join(data_dir, TEST_IMAGES), images)
            save_idx_labels(os.path.join(data_dir, TEST_LABELS), labels)


def load_dataset(data_dir):
    """(x_train, y_train, x_test, y_test) from IDX files in data_dir; images are
    scaled to [-1, 1] and flattened to vectors."""
    xtr = load_idx_images(os.path.join(data_dir, TRAIN_IMAGES))
    ytr = load_idx_labels(os.path.join(data_dir, TRAIN_LABELS))
    xte = load_idx_images(os.path.join(data_dir, TEST_IMAGES))
    yte = load_idx_labels(os.path.join(data_dir, TEST_LABELS))
    for images, labels, x, y in ((TRAIN_IMAGES, TRAIN_LABELS, xtr, ytr),
                                 (TEST_IMAGES, TEST_LABELS, xte, yte)):
        if x.shape[0] != y.shape[0]:
            raise FormatError(f"{data_dir}: {images} holds {x.shape[0]} images but "
                              f"{labels} {y.shape[0]} labels")
        if not x.shape[0]:
            raise FormatError(f"{data_dir}: {images} holds no images")
    return xtr.reshape(xtr.shape[0], -1), ytr, xte.reshape(xte.shape[0], -1), yte


def ensure_dataset(data_dir, n_train=10000, n_test=2000, seed=123):
    """Materialise the bundled toy set if data_dir has no IDX files yet."""
    if not os.path.exists(os.path.join(data_dir, TRAIN_IMAGES)):
        generate_toy_dataset(data_dir, n_train, n_test, seed)
    return data_dir

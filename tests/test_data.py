import hashlib
import re
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from lutnet import cli
from lutnet import data as dataio
from lutnet.errors import FormatError

# sha256 of each IDX file of generate_toy_dataset(tmp, 300, 100, seed=123),
# recorded from the renderer that drew each image on its own
TOY_SET_PIN = {
    dataio.TEST_IMAGES: "83993302647d892ce57b8af3facbeca521f54207008b523c478b40c6192fbd2e",
    dataio.TEST_LABELS: "0e3287d34942b729c6c170f0c4e0bfb17491327f5da8b174d027982cf5dd21f3",
    dataio.TRAIN_IMAGES: "ad85dfcdf4b5792156009df1f5fba897ec902ffbd6b2c394879fca88987c04e6",
    dataio.TRAIN_LABELS: "18544951808334e250ebe44740957edee70aa39b065f2664c07cc51ba28d9e7b",
}


def test_toy_set_matches_pin(tmp_path):
    dataio.generate_toy_dataset(tmp_path, 300, 100, seed=123)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TOY_SET_PIN}
    assert got == TOY_SET_PIN


def test_a_saved_set_loads_back_as_the_very_bytes_written(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 256, (5, 3, 4), dtype=np.uint8)
    labels = rng.integers(0, 256, 5)   # int64 in 0..255 is written as bytes too
    dataio.save_idx_images(tmp_path / "images", images)
    dataio.save_idx_labels(tmp_path / "labels", labels)
    got_images = dataio.load_idx(tmp_path / "images")
    got_labels = dataio.load_idx(tmp_path / "labels")
    assert got_images.dtype == np.uint8 and np.array_equal(got_images, images)
    assert got_labels.dtype == np.uint8 and np.array_equal(got_labels, labels)


@pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 3, 4), (2, 3, 4, 5), (0, 3)])
def test_load_idx_reads_the_rank_its_header_declares(shape, tmp_path):
    values = np.random.default_rng(9).integers(0, 256, shape, dtype=np.uint8)
    (tmp_path / "file").write_bytes(_idx_bytes(values))
    got = dataio.load_idx(tmp_path / "file")
    assert got.dtype == np.uint8 and got.shape == shape and np.array_equal(got, values)


def test_a_loaded_set_holds_one_byte_per_pixel(toy_dir):
    # 300 + 100 images of 784 uint8 pixels, int64 labels and array headers:
    # float64 pixels would take 8x as much
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = dataio.load_dataset(toy_dir)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    budget = (300 + 100) * 784 + 16384
    assert [a.dtype for a in data] == [np.uint8, np.int64, np.uint8, np.int64]
    assert [a.shape for a in data] == [(300, 784), (300,), (100, 784), (100,)]
    assert held <= budget and peak <= budget, (held, peak)


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _set_u32(path, offset, value):
    raw = path.read_bytes()
    path.write_bytes(raw[:offset] + struct.pack(">I", value) + raw[offset + 4:])


def _extend(path, size):
    path.write_bytes(path.read_bytes() + bytes(size))


def _swap(path, other):
    path.write_bytes(other.read_bytes())


def _idx_bytes(values):
    """An IDX file of the uint8 array values, its rank in the magic."""
    header = struct.pack(f">{1 + values.ndim}I", 0x800 | values.ndim, *values.shape)
    return header + values.tobytes()


def _as_shape(path, *shape):
    """Rewrite the IDX file at path to hold its bytes in the shape given."""
    path.write_bytes(_idx_bytes(dataio.load_idx(path).reshape(shape)))


# (file of the toy set to spoil, how, the message load_idx gives)
IDX_FAULTS = {
    "bad magic": (dataio.TRAIN_IMAGES, lambda p: _set_u32(p, 0, 0x0D03),
                  "bad magic 0x00000d03 at byte 0"),
    "count past the file": (dataio.TRAIN_IMAGES, lambda p: _set_u32(p, 4, 2**32 - 1),
                            f"truncated at byte 235216 (wanted {(2**32 - 1) * 784} pixel "
                            f"bytes, got 235200)"),
    "header cut short": (dataio.TRAIN_IMAGES, lambda p: _cut(p, 10),
                         "truncated at byte 8 (wanted 4, got 2)"),
    "pixel bytes cut short": (dataio.TRAIN_IMAGES, lambda p: _cut(p, 16 + 1000),
                              "truncated at byte 1016 (wanted 235200 pixel bytes, got 1000)"),
    "label bytes cut short": (dataio.TEST_LABELS, lambda p: _cut(p, 8 + 99),
                              "truncated at byte 107 (wanted 100 label bytes, got 99)"),
    # one image or one label more than the header declares
    "extra pixel bytes": (dataio.TRAIN_IMAGES, lambda p: _extend(p, 784),
                          "trailing bytes from byte 235216 (wanted 235200 pixel bytes, "
                          "got 235984)"),
    "extra label bytes": (dataio.TEST_LABELS, lambda p: _extend(p, 1),
                          "trailing bytes from byte 108 (wanted 100 label bytes, got 101)"),
    "labels for images": (dataio.TEST_IMAGES,
                          lambda p: _swap(p, p.parent / dataio.TEST_LABELS),
                          "expected an image file, found labels"),
    "images for labels": (dataio.TRAIN_LABELS,
                          lambda p: _swap(p, p.parent / dataio.TRAIN_IMAGES),
                          "expected a label file, found images"),
    "rank-2 file for images": (dataio.TRAIN_IMAGES, lambda p: _as_shape(p, 300, 784),
                               "expected an image file, found rank 2"),
    "rank-4 file for images": (dataio.TRAIN_IMAGES, lambda p: _as_shape(p, 300, 1, 28, 28),
                               "expected an image file, found rank 4"),
    "rank-2 file for labels": (dataio.TEST_LABELS, lambda p: _as_shape(p, 100, 1),
                               "expected a label file, found rank 2"),
}


@pytest.mark.parametrize("fault", list(IDX_FAULTS))
def test_a_spoilt_idx_file_is_a_format_error(fault, toy_dir, tmp_path, capsys):
    name, spoil, message = IDX_FAULTS[fault]
    data = tmp_path / "data"
    shutil.copytree(toy_dir, data)
    spoil(data / name)
    with pytest.raises(FormatError, match=re.escape(message)):
        dataio.load_dataset(data)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "out"), "--epochs", "1,1,1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("write, values, message", [
    (dataio.save_idx_labels, [3, 300], "labels must lie in 0..255; got 3 to 300"),
    (dataio.save_idx_labels, [-1, 4], "labels must lie in 0..255; got -1 to 4"),
    (dataio.save_idx_labels, [1.7, 2.0], "labels must be a rank-1 integer array"),
    (dataio.save_idx_labels, [[1, 2]], "labels must be a rank-1 integer array"),
    (dataio.save_idx_images, np.full((1, 2, 2), -1), "images must lie in 0..255; got -1 to -1"),
    (dataio.save_idx_images, np.full((1, 2, 2), 256), "images must lie in 0..255; got 256"),
    (dataio.save_idx_images, np.full((1, 2, 2), 0.5), "images must be a rank-3 integer array"),
    (dataio.save_idx_images, np.zeros((2, 2), np.uint8), "images must be a rank-3 integer array"),
], ids=["label 300", "label -1", "float labels", "labels of rank 2", "pixel -1", "pixel 256",
        "float pixels", "images of rank 2"])
def test_the_idx_writers_refuse_what_a_byte_cannot_hold(write, values, message, tmp_path):
    path = tmp_path / "out"
    with pytest.raises(FormatError, match=re.escape(message)):
        write(path, values)
    assert not path.exists()


def _header_mutations(files):
    """(label, name, spoilt bytes) of the toy set's files {name: bytes}:
    seeded edits of one of the first 16 bytes, each rank byte of 0, 2, 4, 5
    and 255, counts of 0 and 2**32 - 1, every cut through the header, and a
    rank-70 header whose dimensions, all 1 but the first, match the body."""
    rng = np.random.default_rng(37)
    names = sorted(files)
    for i in range(200):
        name = names[i % 4]
        at, byte = int(rng.integers(0, 16)), int(rng.integers(0, 256))
        raw = files[name]
        yield f"byte {at} = {byte}", name, raw[:at] + bytes([byte]) + raw[at + 1:]
    for name in names:
        raw = files[name]
        rank = raw[3]
        for r in (0, 2, 4, 5, 255):
            yield f"rank {r}", name, raw[:3] + bytes([r]) + raw[4:]
        for count in (0, 2**32 - 1):
            yield f"count {count}", name, raw[:4] + struct.pack(">I", count) + raw[8:]
        for size in range(4 + 4 * rank + 1):
            yield f"cut at {size}", name, raw[:size]
        body = raw[4 + 4 * rank:]
        yield "rank 70", name, struct.pack(">71I", 0x800 | 70, len(body), *[1] * 69) + body


def test_every_spoilt_idx_header_loads_or_is_a_format_error(tmp_path, capsys):
    data, out = tmp_path / "data", str(tmp_path / "out")
    dataio.generate_toy_dataset(data, 20, 10)
    files = {path.name: path.read_bytes() for path in data.iterdir()}
    argv = ["train", "--data", str(data), "--out", out, "--epochs", "1,1,1"]
    for label, name, raw in _header_mutations(files):
        (data / name).write_bytes(raw)
        try:
            dataio.load_dataset(data)
            message = None
        except FormatError as e:
            message = str(e)
        code, err = cli.main(argv), capsys.readouterr().err
        assert "Traceback" not in err, (label, name)
        if message is None:
            assert code == 0 or (code == 1 and err.startswith("error: ")), (label, name, err)
        else:
            assert code == 1 and err == f"error: {message}\n", (label, name, err)
        (data / name).write_bytes(files[name])

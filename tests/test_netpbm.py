import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.netpbm import (
    NetpbmError,
    read_image,
    read_mask,
    read_pgm,
    read_ppm,
    write_mask,
    write_pgm,
    write_ppm,
)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)
    # writing again produces identical bytes
    first = path.read_bytes()
    write_pgm(path, read_pgm(path))
    assert path.read_bytes() == first


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_reader_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n 3\t2 \n# another\n255\n" + raster)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img.ravel().tolist() == list(range(6))


def test_read_image_dispatches_by_magic(tmp_path):
    g = tmp_path / "g.pgm"
    c = tmp_path / "c.ppm"
    write_pgm(g, np.zeros((2, 2), dtype=np.uint8))
    write_ppm(c, np.zeros((2, 2, 3), dtype=np.uint8))
    assert read_image(g).ndim == 2
    assert read_image(c).ndim == 3


def test_mask_round_trip(tmp_path):
    mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    path = tmp_path / "m.pgm"
    write_mask(path, mask)
    assert set(read_pgm(path).ravel().tolist()) == {0, 255}
    assert np.array_equal(read_mask(path), mask)


@pytest.mark.parametrize(
    "payload",
    [
        b"P4\n2 2\n255\n\x00\x00\x00\x00",  # wrong magic
        b"P5\n2 2\n65535\n" + b"\x00" * 8,  # 16-bit
        b"P5\n2 2\n255\n\x00",  # truncated raster
        b"P5\n2 x\n255\n\x00\x00\x00\x00",  # bad token
    ],
)
def test_reader_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(NetpbmError):
        read_pgm(path)


@pytest.mark.parametrize(
    "reader, payload",
    [
        (read_pgm, b"P5\n2 2\n15\n\x00\x0f\x10\x00"),  # 16 > maxval 15
        (read_ppm, b"P6\n1 2\n100\n" + bytes([0, 100, 0, 50, 101, 0])),  # 101 > 100
    ],
    ids=["P5", "P6"],
)
def test_sample_above_maxval_rejected_naming_file(tmp_path, reader, payload):
    path = tmp_path / "over.pnm"
    path.write_bytes(payload)
    with pytest.raises(NetpbmError, match="over.pnm.*above maxval"):
        reader(path)


def test_samples_at_maxval_accepted(tmp_path):
    path = tmp_path / "low.pgm"
    path.write_bytes(b"P5\n2 1\n15\n\x00\x0f")
    assert read_pgm(path).tolist() == [[0, 15]]


@settings(max_examples=60, deadline=None)
@given(
    colour=st.booleans(),
    dtype=st.sampled_from([np.uint8, np.bool_]),
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    data=st.data(),
)
def test_uint8_and_bool_arrays_round_trip_as_their_bytes(tmp_path_factory, colour, dtype, height, width, data):
    shape = (height, width, 3) if colour else (height, width)
    img = data.draw(arrays(dtype, shape), label="img")
    path = tmp_path_factory.mktemp("written") / "img.pnm"
    (write_ppm if colour else write_pgm)(path, img)
    header = f"{'P6' if colour else 'P5'}\n{width} {height}\n255\n".encode("ascii")
    assert path.read_bytes() == header + img.astype(np.uint8).tobytes()
    back = read_image(path)
    assert back.dtype == np.uint8 and np.array_equal(back, img)


@pytest.mark.parametrize(
    "pixels, message",
    [
        ([[300, -1], [2.7, 255]], r"pixel 300\.0 at \(0, 0\)"),
        ([[0, -1]], r"pixel -1 at \(0, 1\)"),
        ([[256, 0]], r"pixel 256 at \(0, 0\)"),
        ([[1, 2.7]], r"pixel 2\.7 at \(0, 1\)"),
        ([[np.nan, 1]], r"pixel nan at \(0, 0\)"),
        ([[1, 1e9]], r"pixel 1000000000\.0 at \(0, 1\)"),
        ([[-np.inf, 1]], r"pixel -inf at \(0, 0\)"),
    ],
    ids=["mixed", "negative", "past-255", "fractional", "nan", "huge", "infinite"],
)
@pytest.mark.parametrize("colour", [False, True], ids=["P5", "P6"])
def test_writer_refuses_a_pixel_its_uint8_cast_would_change(tmp_path, pixels, message, colour):
    img = np.array(pixels)
    if colour:
        img = np.stack([img, np.zeros_like(img), np.zeros_like(img)], axis=-1)
        message = message.replace(r"\)", r", 0\)", 1)
    path = tmp_path / "img.pnm"
    with pytest.raises(NetpbmError, match=f"^{path}: {message} is not an integer in 0\\.\\.255$"):
        (write_ppm if colour else write_pgm)(path, img)
    assert not path.exists()

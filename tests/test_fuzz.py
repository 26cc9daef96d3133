"""Fuzzing of every parser, of the models they load, of the netpbm
writers and of the CLI.

Arbitrary bytes, byte-level edits of a valid file and token-level edits
(a field replaced by a number at or past a limit) go through each loader.
Each input must give a valid object or a ValueError subclass (a bad
encoding raises UnicodeDecodeError, which is one). A mutated model that
still loads must run through ``detect_faces`` or raise ValueError. A
writer given any array stores it exactly or refuses it with one line. The
same mutations of every file ``facedet detect`` and ``facedet eval`` read,
and every setting flag at each edge value, must end in exit 0, 1 or 2, with
exactly one error line on exit 2.
"""

import contextlib
import io
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from facedet.boost import Cascade, load_cascade
from facedet.cli import main
from facedet.config import PipelineConfig, load_config_file
from facedet.evaluate import ManifestEntry, load_manifest
from facedet.lbp import DESCRIPTOR_LENGTH
from facedet.netpbm import NetpbmError, read_pgm, read_ppm, write_pgm, write_ppm
from facedet.pipeline import detect_faces
from facedet.svm import LinearSvmModel, load_svm
from facedet.synthetic import SKIN_MIX, face_patch

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
CASCADE = (REFERENCE / "cascade.txt").read_bytes()
SVM = (REFERENCE / "svm.txt").read_bytes()
RASTER = bytes(range(0, 240, 10))  # 24 samples: a 6 x 4 gray or 4 x 2 colour raster
SEEDS = {
    "cascade": CASCADE,
    "svm": SVM,
    "pgm": b"P5\n# a comment\n6 4\n255\n" + RASTER,
    "ppm": b"P6 4 2 230\n" + RASTER,
    "manifest": b"a.pgm 1 2 3 10 12\n# no faces\nb.pgm 0\nc.ppm 2 0 0 5 5 7 8 4 4\n",
    "mask_manifest": b"a.ppm a_mask.pgm\n# comment\nb.ppm b_mask.pgm\n",
    "config": b"stages = 3\nmedian_radius = 1\nequalize = yes\nscale_factor = 1.5\nblock_weights = 1,2,1,2,4,2,1,2,1\nsvm_threshold = -0.25\n",
}
EDGE_TOKENS = [b"0", b"-1", b"1", b"2", b"nan", b"inf", b"-inf", b"1e309", b"1e-320", b"99999999999999999999", b"+1", b"-0", b"0x10", b"", b"#", b"=", b","]


def is_valid(name, obj):
    """Whether a loaded object is what its loader promises."""
    if name == "cascade":
        return isinstance(obj, Cascade)
    if name == "svm":
        return isinstance(obj, LinearSvmModel) and obj.weights.shape == (DESCRIPTOR_LENGTH,) and np.isfinite(obj.weights).all()
    if name in ("pgm", "ppm"):
        channels = () if name == "pgm" else (3,)
        return obj.dtype == np.uint8 and obj.ndim == 2 + len(channels) and obj.shape[2:] == channels and obj.size > 0
    if name in ("manifest", "mask_manifest"):
        return isinstance(obj, list) and all(
            isinstance(e, ManifestEntry) and all(w > 0 and h > 0 for _, _, w, h in e.boxes) for e in obj
        )
    return isinstance(obj, PipelineConfig)


def load_masks(path):
    """A mask manifest, through ``load_manifest`` with an image manifest of its seed's images."""
    images = Path(path).with_name("mask_images.txt")
    images.write_text("a.ppm 0\nb.ppm 0\n")
    return load_manifest(str(images), path)


LOADERS = {
    "cascade": load_cascade,
    "svm": load_svm,
    "pgm": read_pgm,
    "ppm": read_ppm,
    "manifest": load_manifest,
    "mask_manifest": load_masks,
    "config": load_config_file,
}


def apply_edits(seed, edits):
    data = bytearray(seed)
    for pos, op, byte in edits:
        pos = min(pos, len(data))
        if op == "insert" or pos == len(data):
            data[pos:pos] = bytes([byte])
        elif op == "delete":
            del data[pos]
        else:
            data[pos] = byte
    return bytes(data)


def byte_edits(seed):
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789 \n\t#-+.,=eE"))
    edit = st.tuples(st.integers(0, len(seed)), st.sampled_from(["replace", "insert", "delete"]), byte)
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: apply_edits(seed, edits))


def token_edits(seed):
    """Replace one whitespace-separated field by an edge value."""
    tokens = seed.split(b" ")
    return st.tuples(st.integers(0, len(tokens) - 1), st.sampled_from(EDGE_TOKENS)).map(
        lambda edit: b" ".join(tokens[: edit[0]] + [edit[1]] + tokens[edit[0] + 1 :])
    )


def fuzzed(seed):
    lines = seed.split(b"\n")
    truncated = st.integers(0, len(seed)).map(lambda n: seed[:n])
    line_token_edits = st.integers(0, len(lines) - 1).flatmap(
        lambda i: token_edits(lines[i]).map(lambda line: b"\n".join(lines[:i] + [line] + lines[i + 1 :]))
    )
    return st.one_of(st.binary(max_size=200), truncated, byte_edits(seed), line_token_edits)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", list(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loader_gives_valid_object_or_value_error(name, data, fuzz_dir):
    path = fuzz_dir / name
    path.write_bytes(data.draw(fuzzed(SEEDS[name]), label="file"))
    try:
        obj = LOADERS[name](str(path))
    except ValueError:
        return
    assert is_valid(name, obj)


def scene():
    """A 48 x 56 scene: bright blobs on noise, so windows pass and merge."""
    rng = np.random.default_rng(5)
    img = rng.integers(0, 120, size=(48, 56))
    img[8:32, 6:30] = rng.integers(150, 255, size=(24, 24))
    return img.astype(np.uint8)


@pytest.mark.parametrize("name", ["pgm", "ppm"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_writer_stores_the_pixels_or_raises_one_line(name, data, fuzz_dir):
    """Any array of any shape and dtype: the file reads back equal to it, or
    the writer raises a one-line NetpbmError and writes nothing, which it
    must do when the shape is not its format's or a pixel is not an integer
    in 0..255."""
    dtype = np.dtype(data.draw(st.sampled_from(["u1", "?", "i2", "u2", "i8", "f4", "f8"]), label="dtype"))
    in_range = dtype.kind in "iuf" and data.draw(st.booleans(), label="pixels in 0..255")
    img = data.draw(
        arrays(dtype, array_shapes(min_dims=1, max_dims=4, max_side=4), elements=st.integers(0, 255) if in_range else None),
        label="img",
    )
    path = fuzz_dir / f"written.{name}"
    path.unlink(missing_ok=True)
    try:
        (write_pgm if name == "pgm" else write_ppm)(path, img)
    except NetpbmError as exc:
        assert "\n" not in str(exc) and not path.exists()
        fits = img.ndim == 2 if name == "pgm" else img.ndim == 3 and img.shape[2] == 3
        with np.errstate(invalid="ignore"):
            pixels = ((img >= 0) & (img <= 255) & (img == np.floor(img))).all()
        assert not (fits and pixels)
        return
    back = (read_pgm if name == "pgm" else read_ppm)(path)
    assert back.shape == img.shape and np.array_equal(back, img)


@pytest.mark.parametrize("kind", ["cascade", "svm"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_model_that_loads_detects_or_raises_value_error(kind, data, fuzz_dir):
    path = fuzz_dir / f"model_{kind}"
    lines = (CASCADE if kind == "cascade" else SVM).split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = data.draw(st.one_of(token_edits(lines[i]), byte_edits(lines[i])), label="edited line")
    path.write_bytes(b"\n".join(lines[:i] + [line] + lines[i + 1 :]))
    try:
        model = load_cascade(str(path)) if kind == "cascade" else load_svm(str(path))
    except ValueError:
        return
    if kind == "cascade":
        cascade, svm = model, None
    else:  # a cascade that accepts every window: every merged box is validated
        cascade, svm = Cascade(24, []), model
    try:
        dets, _ = detect_faces(scene(), cascade, PipelineConfig(), svm=svm)
    except ValueError:
        return
    assert all(d.w > 0 and d.h > 0 for d in dets)


def cli_scene():
    """A 32 x 28 flat scene holding one 24 x 24 face, which the reference
    models detect and keep; flat, so that its skin-toned copy passes the
    skin gate."""
    gray = np.full((28, 32), 100, dtype=np.uint8)
    gray[2:26, 4:28] = face_patch(np.random.default_rng(6), 24)
    return gray


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A valid file of every kind, named after it; each CLI run below reads
    a mutated copy of one of them."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    gray = cli_scene()
    write_pgm(root / "pgm", gray)
    write_ppm(root / "ppm", np.clip(gray[..., None] * np.array(SKIN_MIX), 0, 255).astype(np.uint8))
    write_pgm(root / "mask.pgm", np.where(gray > 60, 255, 0).astype(np.uint8))
    (root / "cascade").write_bytes(CASCADE)
    (root / "svm").write_bytes(SVM)
    (root / "manifest").write_bytes(b"pgm 1 4 2 24 24\n# background only\nppm 0\n")
    (root / "mask_manifest").write_bytes(b"ppm mask.pgm\n")
    (root / "config").write_bytes(SEEDS["config"])
    return root


def cli_argv(root, kind):
    """The command that reads ``root / 'mutated'`` in place of the file of ``kind``."""
    path = {name: str(root / name) for name in SEEDS}
    path[kind] = str(root / "mutated")
    models = ["--cascade", path["cascade"], "--svm", path["svm"], "--config", path["config"]]
    if kind in ("manifest", "mask_manifest"):
        return ["eval", *models, "--manifest", path["manifest"], "--mask-manifest", path["mask_manifest"],
                "--roc", str(root / "roc.csv")]
    image = path["pgm"] if kind in ("cascade", "pgm") else path["ppm"]
    return ["detect", *models, "--image", image, "--out", str(root / "dets.txt")]


def assert_exits_0_1_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("facedet: error: ")


@pytest.mark.parametrize("kind", list(SEEDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_exits_0_1_or_2_on_mutated_inputs(kind, data, cli_dir):
    (cli_dir / "mutated").write_bytes(data.draw(fuzzed((cli_dir / kind).read_bytes()), label="file"))
    assert_exits_0_1_or_2(cli_argv(cli_dir, kind))


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_cli_exits_0_1_or_2_on_every_setting_flag_at_edge_values(name, cli_dir):
    # detect checks the work-image size before it scans; eval scans every
    # manifest image at any setting that parses; segment reads the skin bounds
    models = ["--cascade", str(cli_dir / "cascade"), "--svm", str(cli_dir / "svm")]
    commands = [
        ["detect", *models, "--image", str(cli_dir / "ppm"), "--out", str(cli_dir / "dets.txt")],
        ["eval", *models, "--manifest", str(cli_dir / "manifest"), "--roc", str(cli_dir / "roc.csv")],
        # segment is the only command that reads --min-area
        ["segment", "--in", str(cli_dir / "ppm"), "--out", str(cli_dir / "segmented.pgm")],
    ]
    for command in commands:
        for token in [*EDGE_TOKENS, b"1e308"]:
            assert_exits_0_1_or_2([*command, "--" + name.replace("_", "-"), token.decode()])

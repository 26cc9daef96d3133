"""Fuzzing of every parser and of the models they load.

Arbitrary bytes, byte-level edits of a valid file and token-level edits
(a field replaced by a number at or past a limit) go through each loader.
Each input must give a valid object or a ValueError subclass (a bad
encoding raises UnicodeDecodeError, which is one). A mutated model that
still loads must run through ``detect_faces`` or raise ValueError.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedet.boost import Cascade, load_cascade
from facedet.config import PipelineConfig, load_config_file
from facedet.evaluate import DatasetManifest, load_manifest, load_mask_manifest
from facedet.lbp import DESCRIPTOR_LENGTH
from facedet.netpbm import read_pgm, read_ppm
from facedet.pipeline import detect_faces
from facedet.svm import LinearSvmModel, load_svm

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
    "config": b"stages = 3\nequalize = yes\nscale_factor = 1.5\nblock_weights = 1,2,1,2,4,2,1,2,1\nsvm_threshold = -0.25\n",
}
EDGE_TOKENS = [b"0", b"-1", b"1", b"2", b"nan", b"inf", b"-inf", b"1e309", b"1e-320", b"99999999999999999999", b"+1", b"-0", b"0x10", b"", b"#", b"=", b","]


def is_valid(name, obj):
    """Whether a loaded object is what its loader promises."""
    if name == "cascade":
        return isinstance(obj, Cascade) and len(obj.stages) == len(obj.metadata)
    if name == "svm":
        return isinstance(obj, LinearSvmModel) and obj.weights.shape == (DESCRIPTOR_LENGTH,) and np.isfinite(obj.weights).all()
    if name in ("pgm", "ppm"):
        channels = () if name == "pgm" else (3,)
        return obj.dtype == np.uint8 and obj.ndim == 2 + len(channels) and obj.shape[2:] == channels and obj.size > 0
    if name == "manifest":
        return isinstance(obj, DatasetManifest) and all(w > 0 and h > 0 for e in obj.entries for _, _, w, h in e.boxes)
    if name == "mask_manifest":
        return isinstance(obj, dict)
    return isinstance(obj, PipelineConfig)


LOADERS = {
    "cascade": load_cascade,
    "svm": load_svm,
    "pgm": read_pgm,
    "ppm": read_ppm,
    "manifest": load_manifest,
    "mask_manifest": load_mask_manifest,
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
        cascade, svm = Cascade(24, [], []), model
    try:
        dets, _ = detect_faces(scene(), cascade, PipelineConfig(), svm=svm)
    except ValueError:
        return
    assert all(d.w > 0 and d.h > 0 for d in dets)

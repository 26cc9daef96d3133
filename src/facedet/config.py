"""Pipeline configuration: built-in defaults < config file < CLI flags."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

__all__ = ["PipelineConfig", "load_config_file"]

# a 31 x 31 median window; the filter's time grows with the window area
MAX_MEDIAN_RADIUS = 15


def _setting(default, phrase: str):
    """A config field; ``phrase`` is its help text, the CLI adds the default."""
    return field(default=default, metadata={"help": phrase})


@dataclass(frozen=True)
class PipelineConfig:
    # preprocessing
    downscale: int = _setting(1, "keep every n-th row/column")
    median_radius: int = _setting(0, f"median filter radius, 0 = off, at most {MAX_MEDIAN_RADIUS}")
    equalize: bool = _setting(False, "histogram equalization")
    # skin segmentation
    cb_min: int = _setting(77, "skin Cb lower bound")
    cb_max: int = _setting(127, "skin Cb upper bound")
    cr_min: int = _setting(133, "skin Cr lower bound")
    cr_max: int = _setting(173, "skin Cr upper bound")
    sobel_threshold: float = _setting(100.0, "edge magnitude threshold")
    min_area: int = _setting(0, "minimum region pixels, 0 = a thousandth of the image")
    # cascade training
    stages: int = _setting(15, "cascade stages to train")
    target_dr: float = _setting(0.99, "per-stage detection-rate target")
    max_fpr: float = _setting(0.5, "per-stage false-positive ceiling")
    max_stumps: int = _setting(20, "stump cap per stage")
    base_window: int = _setting(24, "training window side")
    feature_subsample: int = _setting(0, "features kept from the bank, 0 = all")
    seed: int = _setting(0, "RNG seed")
    # detection
    scale_factor: float = _setting(1.25, "window growth per level")
    step: int = _setting(2, "scan step at base scale")
    min_skin_fraction: float = _setting(0.25, "skin gating fraction")
    min_neighbors: int = _setting(2, "merge group minimum")
    overlap: float = _setting(0.3, "merge IoU threshold")
    # validation
    svm_threshold: float = _setting(0.0, "validation decision threshold")
    svm_reg: float = _setting(1e-3, "SVM regularization")
    svm_epochs: int = _setting(30, "SVM training epochs")
    block_weights: tuple[float, ...] = _setting((1.0,) * 9, "9 comma-separated fine-block weights")

    def __post_init__(self) -> None:
        # first, so that a NaN cannot slip through a comparison below
        for f in fields(self):
            value = getattr(self, f.name)
            # a comparison, not math.isfinite, which cannot take a huge int
            if not all(-math.inf < v < math.inf for v in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        checks = [
            (self.downscale >= 1, "downscale must be >= 1"),
            (0 <= self.median_radius <= MAX_MEDIAN_RADIUS, f"median_radius must be in [0, {MAX_MEDIAN_RADIUS}]"),
            (self.cb_min <= self.cb_max, "cb interval must be non-empty"),
            (self.cr_min <= self.cr_max, "cr interval must be non-empty"),
            (self.sobel_threshold >= 0, "sobel_threshold must be >= 0"),
            (self.min_area >= 0, "min_area must be >= 0"),
            (self.stages >= 1, "stages must be >= 1"),
            (0.0 < self.target_dr <= 1.0, "target_dr must be in (0, 1]"),
            (0.0 <= self.max_fpr <= 1.0, "max_fpr must be in [0, 1]"),
            (self.max_stumps >= 1, "max_stumps must be >= 1"),
            (self.base_window >= 8, "base_window must be >= 8"),
            (self.feature_subsample >= 0, "feature_subsample must be >= 0"),
            (self.scale_factor > 1.0, "scale_factor must be > 1"),
            (self.step >= 1, "step must be >= 1"),
            (0.0 <= self.min_skin_fraction <= 1.0, "min_skin_fraction must be in [0, 1]"),
            (self.min_neighbors >= 1, "min_neighbors must be >= 1"),
            (0.0 < self.overlap < 1.0, "overlap must be in (0, 1)"),
            (self.svm_reg > 0, "svm_reg must be positive"),
            (self.svm_epochs >= 1, "svm_epochs must be >= 1"),
            (len(self.block_weights) == 9, "block_weights needs 9 values"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def override(self, **kwargs) -> "PipelineConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


# each setting's type is its default's: the flag type and the file parser
FIELD_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig)}
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", tuple: "comma-separated numbers"}


def _parse_value(text: str, kind: type):
    if kind is bool:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    # tuple of floats, comma-separated
    return tuple(float(v) for v in text.split(","))


def content_lines(path: str):
    """(line number, text) of each line of a config or manifest file that
    holds more than a '#' comment, without the comment and outer whitespace."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def load_config_file(path: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Read 'key = value' lines; unknown and repeated keys are rejected."""
    base = base or PipelineConfig()
    overrides = {}
    first_line: dict[str, int] = {}
    for lineno, text in content_lines(path):
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: config key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        value = value.strip()
        try:
            overrides[key] = _parse_value(value, FIELD_TYPES[key])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key}: expected {_EXPECTED[FIELD_TYPES[key]]}, got {value!r}"
            ) from None
    try:
        return base.override(**overrides)
    except ValueError as exc:
        # checks name the field first; a cross-field check names no line
        key = str(exc).split()[0]
        where = f"{path}:{first_line[key]}" if key in first_line else str(path)
        raise ValueError(f"{where}: {exc}") from None

"""Pipeline configuration: built-in defaults < config file < CLI flags."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = ["PipelineConfig", "load_config_file"]

# a 31 x 31 median window; the filter's time grows with the window area
MAX_MEDIAN_RADIUS = 15


@dataclass(frozen=True)
class PipelineConfig:
    # preprocessing
    downscale: int = 1
    median_radius: int = 0  # 0 disables the filter; at most MAX_MEDIAN_RADIUS
    equalize: bool = False
    # skin segmentation
    cb_min: int = 77
    cb_max: int = 127
    cr_min: int = 133
    cr_max: int = 173
    sobel_threshold: float = 100.0
    min_area: int = 0  # 0 means 0.1% of the image pixels
    # cascade training
    stages: int = 15
    target_dr: float = 0.99
    max_fpr: float = 0.5
    max_stumps: int = 20
    base_window: int = 24
    feature_subsample: int = 0  # 0 means the full feature bank
    seed: int = 0
    # detection
    scale_factor: float = 1.25
    step: int = 2
    min_skin_fraction: float = 0.25
    min_neighbors: int = 2
    overlap: float = 0.3
    # validation
    svm_threshold: float = 0.0
    svm_reg: float = 1e-3
    svm_epochs: int = 30
    block_weights: tuple[float, ...] = (1.0,) * 9

    def __post_init__(self) -> None:
        # first, so that a NaN cannot slip through a comparison below
        for f in fields(self):
            value = getattr(self, f.name)
            if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
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


def load_config_file(path: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Read 'key = value' lines; unknown and repeated keys are rejected."""
    base = base or PipelineConfig()
    field_types = {f.name: type(getattr(base, f.name)) for f in fields(base)}
    overrides = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in field_types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: config key {key!r} already set on line {first_line[key]}")
            first_line[key] = lineno
            value = value.strip()
            try:
                overrides[key] = _parse_value(value, field_types[key])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key}: expected {_EXPECTED[field_types[key]]}, got {value!r}"
                ) from None
    try:
        return base.override(**overrides)
    except ValueError as exc:
        # checks name the field first; a cross-field check names no line
        key = str(exc).split()[0]
        where = f"{path}:{first_line[key]}" if key in first_line else str(path)
        raise ValueError(f"{where}: {exc}") from None

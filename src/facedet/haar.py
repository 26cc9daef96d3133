"""Extended Haar-like features over integral images.

Seven kinds: two-rectangle edges (horizontal/vertical), three-rectangle
lines, a center-surround, and two 45-degree-rotated kinds. A feature is a
signed decomposition into weighted rectangles whose weights cancel exactly
(sum of weight * area == 0), so every kind responds 0 on constant input.
The response is the weighted white-minus-black sum of rectangle pixel sums,
optionally divided by the window's pixel standard deviation (floored at 1)
so that stumps are invariant to affine brightness changes.

Upright kinds store their bounding box (x, y, w, h) in base-window
coordinates; tilted kinds store the apex and diagonal arm lengths in the
same convention as :mod:`facedet.integral`. Scaling to a detection window
rounds the geometry and then re-snaps it to the kind's divisibility so the
zero-sum property survives at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integral import IntegralSet, _tilted_sums, _upright_sums

__all__ = ["HaarFeature", "KINDS", "generate_feature_set", "enumerate_kind", "fits_window", "eval_feature", "scaled_parts", "window_sigma"]

# kind -> (w unit, h unit, tilted flag); units are enumeration steps and
# divisibility constraints (arms for the tilted kinds)
KIND_SPECS: dict[str, tuple[int, int, bool]] = {
    "edge2h": (2, 1, False),
    "edge2v": (1, 2, False),
    "line3h": (3, 1, False),
    "line3v": (1, 3, False),
    "center_surround": (3, 3, False),
    "tilted_edge2": (1, 2, True),
    "tilted_line3": (1, 3, True),
}

KINDS = tuple(KIND_SPECS)

Part = tuple[int, int, int, int, int]  # (x, y, w, h, weight)


@dataclass(frozen=True)
class HaarFeature:
    kind: str
    x: int
    y: int
    w: int
    h: int
    window: int  # base window the geometry is expressed in

    @property
    def tilted(self) -> bool:
        return KIND_SPECS[self.kind][2]


def _parts(kind: str, x: int, y: int, w: int, h: int) -> list[Part]:
    if kind == "edge2h":
        half = w // 2
        return [(x, y, half, h, 1), (x + half, y, half, h, -1)]
    if kind == "edge2v":
        half = h // 2
        return [(x, y, w, half, 1), (x, y + half, w, half, -1)]
    if kind == "line3h":
        t = w // 3
        return [(x, y, t, h, 1), (x + t, y, t, h, -2), (x + 2 * t, y, t, h, 1)]
    if kind == "line3v":
        t = h // 3
        return [(x, y, w, t, 1), (x, y + t, w, t, -2), (x, y + 2 * t, w, t, 1)]
    if kind == "center_surround":
        tw, th = w // 3, h // 3
        return [(x, y, w, h, 1), (x + tw, y + th, tw, th, -9)]
    if kind == "tilted_edge2":
        half = h // 2
        return [(x, y, w, half, 1), (x - half, y + half, w, half, -1)]
    if kind == "tilted_line3":
        t = h // 3
        return [(x, y, w, t, 1), (x - t, y + t, w, t, -2), (x - 2 * t, y + 2 * t, w, t, 1)]
    raise ValueError(f"unknown feature kind {kind!r}")


def enumerate_kind(kind: str, window: int) -> list[HaarFeature]:
    """All placements of one kind that fit a window, ordered by (y, x, h, w)."""
    uw, uh, tilted = KIND_SPECS[kind]
    out: list[HaarFeature] = []
    if not tilted:
        for y in range(window):
            for x in range(window):
                for h in range(uh, window - y + 1, uh):
                    for w in range(uw, window - x + 1, uw):
                        out.append(HaarFeature(kind, x, y, w, h, window))
    else:
        # diamond corners must stay inside the window:
        #   h <= x + 1, w <= window - x, (w - 1) + (h - 1) <= window - 1 - y
        for y in range(window):
            for x in range(window):
                for h in range(uh, min(x + 1, window - y) + 1, uh):
                    wmax = min(window - x, window + 1 - y - h)
                    for w in range(1, wmax + 1):
                        out.append(HaarFeature(kind, x, y, w, h, window))
    return out


def fits_window(feature: HaarFeature) -> bool:
    """Whether the geometry is a placement :func:`enumerate_kind` produces:
    inside the feature's window and divisible by its kind's units."""
    uw, uh, tilted = KIND_SPECS[feature.kind]
    x, y, w, h, window = feature.x, feature.y, feature.w, feature.h, feature.window
    if h < uh or h % uh or y < 0:
        return False
    if not tilted:
        return x >= 0 and w >= uw and w % uw == 0 and x + w <= window and y + h <= window
    return w >= 1 and h <= x + 1 and x + w <= window and y + w + h - 1 <= window


def generate_feature_set(base_window: int) -> list[HaarFeature]:
    """The full ordered bank: kinds in KINDS order, placements by (y, x, h, w)."""
    if base_window < 8:
        raise ValueError(f"base window must be >= 8, got {base_window}")
    bank: list[HaarFeature] = []
    for kind in KINDS:
        bank.extend(enumerate_kind(kind, base_window))
    return bank


def _snap(value: float, unit: int) -> int:
    return unit * max(1, round(value / unit))


def scaled_parts(feature: HaarFeature, size: int) -> list[Part]:
    """Rectangle decomposition of a feature scaled to a size-px window.

    Dimensions are rounded in units of the kind's divisor (so the weighted
    areas still cancel) and the geometry is clamped back inside the window.
    At size == feature.window this is exactly the base decomposition.
    """
    s = size / feature.window
    uw, uh, tilted = KIND_SPECS[feature.kind]
    if not tilted:
        w = _snap(feature.w * s, uw)
        h = _snap(feature.h * s, uh)
        while w > size:
            w -= uw
        while h > size:
            h -= uh
        x = min(max(round(feature.x * s), 0), size - w)
        y = min(max(round(feature.y * s), 0), size - h)
        return _parts(feature.kind, x, y, w, h)
    w = max(1, round(feature.w * s))
    h = _snap(feature.h * s, uh)
    # shrink until the diamond fits: needs (h-1)+w <= size horizontally
    # and w+h-1 <= size vertically
    while w + h - 1 > size:
        if w > 1 and (w >= h or h == uh):
            w -= 1
        else:
            h -= uh
    x = min(max(round(feature.x * s), h - 1), size - w)
    y = min(max(round(feature.y * s), 0), size - (w + h - 1))
    return _parts(feature.kind, x, y, w, h)


def window_sigma(iset: IntegralSet, x: int, y: int, size: int) -> float:
    """Pixel standard deviation of a square window, floored at 1."""
    up = iset.upright
    if up.sq is None:
        raise ValueError("variance normalization requires squared sums")
    n = size * size
    total = int(_upright_sums(up.grid, x, y, size, size))
    total_sq = int(_upright_sums(up.sq, x, y, size, size))
    var = total_sq / n - (total / n) ** 2
    return max(float(np.sqrt(max(var, 0.0))), 1.0)


def eval_feature(
    feature: HaarFeature,
    iset: IntegralSet,
    x: int,
    y: int,
    size: int,
    variance_norm: bool = True,
) -> float:
    """Feature response on the square window at (x, y) of side ``size``."""
    up = iset.upright
    if x < 0 or y < 0 or x + size > up.width or y + size > up.height:
        raise ValueError(f"window ({x},{y},{size}) outside {up.width}x{up.height} image")
    parts = scaled_parts(feature, size)
    if feature.tilted:
        if iset.tilted is None:
            raise ValueError("tilted feature requires a tilted integral image")
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(
                _tilted_sums(iset.tilted, np.array([x + px]), np.array([y + py]), pw, ph)[0]
            )
    else:
        value = 0
        for px, py, pw, ph, wt in parts:
            value += wt * int(_upright_sums(up.grid, x + px, y + py, pw, ph))
    if not variance_norm:
        return float(value)
    return float(value) / window_sigma(iset, x, y, size)

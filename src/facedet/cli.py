"""Command-line entry point.

Subcommands: segment, train, detect, eval, roc. Configuration precedence is
built-in defaults < --config file < explicit flags. Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import pipeline
from .boost import load_cascade, save_cascade
from .config import _EXPECTED, FIELD_TYPES, PipelineConfig, _parse_value, load_config_file
from .evaluate import ManifestError, load_manifest, roc_sweep
from .images import downscale, draw_boxes
from .netpbm import NetpbmError, read_image, write_mask, write_ppm
from .skin import region_count, skin_ratio
from .svm import load_svm, save_svm
from .validate import decision_values

__all__ = ["main"]

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    """``--config`` and one flag per ``PipelineConfig`` field, typed by the
    field's default, with its help phrase and that default."""
    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_argument_group("pipeline configuration")
    grp.add_argument("--config", help="key = value config file")
    for f in fields(PipelineConfig):
        kind = FIELD_TYPES[f.name]
        flag = "--" + f.name.replace("_", "-")
        default = ",".join(map(str, f.default)) if kind is tuple else f.default
        text = f"{f.metadata['help']} (default {default})"
        if kind is bool:
            grp.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
        else:  # _build_config parses the tuple's text
            grp.add_argument(flag, type=None if kind is tuple else kind, help=text)
    return common


def _build_config(args) -> PipelineConfig:
    config = PipelineConfig()
    if args.config:
        config = load_config_file(args.config, config)
    overrides = {}
    for key, kind in FIELD_TYPES.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if kind is tuple and isinstance(value, str):
            try:
                value = _parse_value(value, tuple)
            except ValueError:
                raise ValueError(f"--{key.replace('_', '-')}: expected {_EXPECTED[tuple]}, got {value!r}") from None
        overrides[key] = value
    return config.override(**overrides)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _cmd_segment(args) -> int:
    config = _build_config(args)
    img = read_image(args.input)
    if img.ndim != 3:
        raise ValueError(f"{args.input}: segmentation needs a color (PPM) input")
    mask = pipeline.segment_image(img, config).mask
    write_mask(args.output, mask)
    # min_area 0 keeps the regions of at least a thousandth of the image
    regions = region_count(mask, config.min_area or max(1, round(mask.size * 0.001)))
    print(f"skin_ratio={skin_ratio(mask):.9g} regions={regions}")
    return 0


def _cmd_train(args) -> int:
    config = _build_config(args)
    pos = pipeline.load_sample_dir(args.pos, config.base_window)
    neg = pipeline.load_sample_dir(args.neg, config.base_window)
    pool = pipeline.load_sample_dir(args.pool) if args.pool else None
    cascade = pipeline.train_cascade_from_config(pos, neg, config, pool=pool)
    save_cascade(cascade, args.out)
    for i, stage in enumerate(cascade.stages):
        print(f"stage {i}: dr={stage.detection_rate:.9g} fpr={stage.false_positive_rate:.9g}")
    if args.svm_out:
        # on the tiles themselves; the experiment bootstraps it instead
        save_svm(pipeline.train_validator_from_crops(pos, neg, config), args.svm_out)
    return 0


def _cmd_detect(args) -> int:
    config = _build_config(args)
    cascade = load_cascade(args.cascade)
    svm = load_svm(args.svm) if args.svm and not args.no_validate else None
    img, gray, skin = pipeline.read_scene(args.image, config, gate=not args.no_gate)
    work_h, work_w = downscale(gray, config.downscale).shape
    if min(work_h, work_w) < cascade.base_window:
        raise ValueError(
            f"{args.image}: preprocessed image {work_w}x{work_h} is smaller than "
            f"the {cascade.base_window}px model window"
        )
    detections, stats = pipeline.detect_faces(gray, cascade, config, skin=skin, svm=svm)
    _write_lines(args.out, [f"{d.x} {d.y} {d.w} {d.h} {d.score:.9g}" for d in detections])
    if args.annotate:
        canvas = img if img.ndim == 3 else np.stack([gray] * 3, axis=-1)
        write_ppm(args.annotate, draw_boxes(canvas, detections.boxes))
    print(
        f"detections={len(detections)} evaluated_windows={stats.evaluated_windows} "
        f"total_windows={stats.total_windows}"
    )
    return 0


def _rescore(results, svm, config):
    """Replace detection scores with validator decision values."""
    rescored = []
    for (dets, _validated, truth, _stats), entry in results:
        _img, gray, _skin = pipeline.read_scene(entry.path, config, gate=False)
        rescored.append((replace(dets, score=decision_values(dets, gray, svm, config.block_weights)), truth))
    return rescored


def _roc_thresholds(per_image):
    scores = np.unique(np.concatenate([dets.score for dets, _ in per_image])).tolist()
    if not scores:
        return [0.0]
    if len(scores) > 64:
        idx = np.linspace(0, len(scores) - 1, 64).astype(int)
        scores = [scores[i] for i in idx]
    return scores + [scores[-1] + 1.0]


def _cmd_eval(args) -> int:
    config = _build_config(args)
    cascade = load_cascade(args.cascade)
    svm = load_svm(args.svm) if args.svm else None
    entries = load_manifest(args.manifest, args.mask_manifest)
    if not entries:
        raise ValueError(f"{args.manifest}: empty manifest")
    results = pipeline.evaluate_images(entries, cascade, config, svm=svm)
    print(pipeline.report(pipeline.summarize(results), svm is not None, args.csv))
    if args.roc:
        if svm is not None:
            per_image = _rescore(list(zip(results, entries)), svm, config)
        else:
            per_image = [(dets, truth) for dets, _v, truth, _s in results]
        curve = roc_sweep(per_image, _roc_thresholds(per_image))
        _write_lines(args.roc, [f"{t:.9g},{tpr:.9g},{fpi:.9g}" for t, tpr, fpi in curve.points])
    return 0


def main(argv=None) -> int:
    common = _common_flags()
    parser = _Parser(prog="facedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_seg = sub.add_parser("segment", parents=[common], help="write a refined skin mask")
    p_seg.add_argument("--in", dest="input", required=True, help="input PPM image")
    p_seg.add_argument("--out", dest="output", required=True, help="output PGM mask")

    p_train = sub.add_parser("train", parents=[common], help="train cascade (and validator)")
    p_train.add_argument("--pos", required=True, help="directory of positive PGM tiles")
    p_train.add_argument("--neg", required=True, help="directory of negative PGM tiles")
    p_train.add_argument("--pool", help="directory of background images for mining")
    p_train.add_argument("--out", required=True, help="output cascade model path")
    p_train.add_argument("--svm-out", dest="svm_out", help="also train and write a validator on the tiles; it is uncalibrated "
                         "and can reject every face at --svm-threshold 0 (scripts/run_experiment.py --models is calibrated)")

    models = argparse.ArgumentParser(add_help=False)
    models.add_argument("--cascade", required=True, help="cascade model path")
    models.add_argument("--svm", help="validator model path")
    scoring = argparse.ArgumentParser(add_help=False, parents=[common, models])
    scoring.add_argument("--manifest", required=True, help="'<image> <n> <x y w h>*n' lines")
    scoring.add_argument("--mask-manifest", help="'<image> <mask>' lines; a colour image without one is segmented")

    p_det = sub.add_parser("detect", parents=[common, models], help="detect faces in one image")
    p_det.add_argument("--image", required=True, help="input PGM/PPM image")
    p_det.add_argument("--out", required=True, help="output detections ('x y w h score' lines)")
    p_det.add_argument("--annotate", help="write a PPM copy with boxes drawn")
    p_det.add_argument("--no-validate", dest="no_validate", action="store_true", help="skip validation even with --svm")
    p_det.add_argument("--no-gate", dest="no_gate", action="store_true", help="disable skin gating")

    p_eval = sub.add_parser("eval", parents=[scoring], help="evaluate over a manifest")
    p_eval.add_argument("--roc", help="write a 'threshold,tpr,fp_per_image' curve file")
    p_eval.add_argument("--csv", action="store_true", help="machine-readable report")

    p_roc = sub.add_parser("roc", parents=[scoring], help="write an ROC curve for a manifest")
    # roc is eval with its --out as --roc and no table
    p_roc.add_argument("--out", dest="roc", metavar="OUT", required=True, help="output 'threshold,tpr,fp_per_image' lines")
    p_roc.set_defaults(csv=False)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return USAGE_EXIT
    handlers = {
        "segment": _cmd_segment,
        "train": _cmd_train,
        "detect": _cmd_detect,
        "eval": _cmd_eval,
        "roc": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, ManifestError, NetpbmError) as exc:
        print(f"facedet: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())

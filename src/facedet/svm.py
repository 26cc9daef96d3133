"""Linear SVM trained by seeded stochastic subgradient descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import _field, _fmt
from .lbp import DESCRIPTOR_LENGTH

__all__ = ["LinearSvmModel", "train_svm", "svm_objective", "save_svm", "load_svm"]


@dataclass(frozen=True)
class LinearSvmModel:
    weights: np.ndarray
    bias: float

    def decision(self, features: np.ndarray):
        """w . x + b for one feature vector, or for each row of an (n, d) stack.

        Each row is its own 1-D dot product: a matrix-vector product over the
        stack may sum in another order and differ in the last bit, so a row's
        value would depend on the rows beside it.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            return features @ self.weights + self.bias
        return np.array([row @ self.weights for row in features], dtype=np.float64) + self.bias


def svm_objective(weights: np.ndarray, bias: float, features: np.ndarray, labels: np.ndarray, reg: float) -> float:
    """L2-regularized mean hinge loss (bias unregularized)."""
    margins = labels * (features @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * reg * float(weights @ weights) + float(hinge.mean())


def train_svm(
    features: np.ndarray,
    labels: np.ndarray,
    reg: float = 1e-3,
    epochs: int = 30,
    seed: int = 0,
) -> LinearSvmModel:
    """Minimize the regularized hinge loss with Pegasos-style updates.

    The bias rides along as an augmented coordinate during the updates; the
    returned model is the end-of-epoch iterate with the lowest objective
    (the zero model is the baseline candidate, so the final objective never
    exceeds the initial one).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ValueError("need both classes to train")
    if reg <= 0:
        raise ValueError("regularization strength must be positive")
    n, dim = features.shape
    aug = np.concatenate([features, np.ones((n, 1))], axis=1)
    w = np.zeros(dim + 1)
    best_obj = svm_objective(w[:dim], 0.0, features, labels, reg)
    best_w = w.copy()
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            margin = labels[i] * (aug[i] @ w)
            w *= 1.0 - eta * reg
            if margin < 1.0:
                w += eta * labels[i] * aug[i]
        obj = svm_objective(w[:dim], float(w[dim]), features, labels, reg)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return LinearSvmModel(best_w[:dim].copy(), float(best_w[dim]))


def save_svm(model: LinearSvmModel, path: str) -> None:
    lines = [f"SVM v1 {model.weights.shape[0]}"]
    lines.extend(_fmt(w) for w in model.weights)
    lines.append(f"BIAS {_fmt(model.bias)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_svm(path: str) -> LinearSvmModel:
    """Read a model written by :func:`save_svm`.

    Raises ValueError naming the file and line for a bad header, a weight
    count other than the descriptor length, a missing, malformed or extra
    line, and a non-numeric or non-finite weight or bias.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1][:2] != ["SVM", "v1"] or len(lines[0][1]) != 3:
        raise ValueError(f"{path}: not an SVM model file")
    head_no, header = lines[0]
    dim = _field(path, head_no, header[2], int)
    if dim != DESCRIPTOR_LENGTH:
        raise ValueError(f"{path}:{head_no}: {dim} weights, the descriptor has {DESCRIPTOR_LENGTH}")
    if len(lines) < dim + 2:
        raise ValueError(f"{path}: truncated after line {lines[-1][0]}, expected {dim} weights and a BIAS line")
    weights = []
    for no, toks in lines[1 : dim + 1]:
        if len(toks) != 1:
            raise ValueError(f"{path}:{no}: expected one weight, got {' '.join(toks)!r}")
        weights.append(_field(path, no, toks[0], float))
    no, toks = lines[dim + 1]
    if toks[0] != "BIAS" or len(toks) != 2:
        raise ValueError(f"{path}:{no}: expected a BIAS line of 2 fields, got {' '.join(toks)!r}")
    bias = _field(path, no, toks[1], float)
    if len(lines) > dim + 2:
        raise ValueError(f"{path}:{lines[dim + 2][0]}: trailing line after the BIAS line")
    return LinearSvmModel(np.array(weights, dtype=np.float64), bias)

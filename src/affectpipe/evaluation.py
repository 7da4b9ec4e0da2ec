"""Leave-one-out evaluation, classification metrics, and Student's t-tests.

ASD is the positive label throughout.  The t-test p-value is computed with
an in-package regularized incomplete beta (continued fraction); external
statistics libraries appear only as oracles in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import classifiers as cl
from .temporal import (AROUSAL_COL, ATTRIBUTE_DIMS, AU_COLS, EXPR_COLS, FEATURE_DIM, N_EXPR,
                       VALENCE_COL, feature_names)

ASD = "ASD"
NON_ASD = "non-ASD"
DIAGNOSES = (ASD, NON_ASD)
ATTRIBUTES = ("au", "expr", "arousal", "valence")

# Nested subsets used by the default ablation: start from AUs, add one
# attribute at a time.
DEFAULT_ABLATION = (
    ("au",),
    ("au", "arousal"),
    ("au", "arousal", "valence"),
    ("au", "arousal", "valence", "expr"),
)


@dataclass(frozen=True)
class StudyRecord:
    participant_id: str
    diagnosis: str
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        if self.diagnosis not in DIAGNOSES:
            raise ValueError(f"diagnosis must be one of {DIAGNOSES}, got {self.diagnosis!r}")
        if self.features.shape != (FEATURE_DIM,):
            raise ValueError(f"features must be {FEATURE_DIM}-dim, got {self.features.shape}")


@dataclass(frozen=True)
class Cohort:
    records: tuple

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        ids = [r.participant_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be unique")

    def require_evaluable(self):
        n_pos = sum(r.diagnosis == ASD for r in self.records)
        if len(self.records) < 2 or n_pos == 0 or n_pos == len(self.records):
            raise ValueError("evaluation needs >= 2 participants with both diagnoses present")


def attribute_mask(flags) -> tuple:
    """Union of the 58-dim slice map entries for the named attributes."""
    flags = tuple(flags)
    if not flags:
        raise ValueError("attribute_mask needs at least one attribute")
    unknown = [f for f in flags if f not in ATTRIBUTE_DIMS]
    if unknown:
        raise ValueError(f"unknown attributes {unknown}; choose from {ATTRIBUTES}")
    indices = sorted(set(i for f in flags for i in ATTRIBUTE_DIMS[f]))
    return tuple(indices)


@dataclass(frozen=True)
class LoocvResult:
    ids: tuple
    truths: tuple
    predictions: tuple
    probabilities: tuple
    warnings: tuple = ()
    models: tuple = field(default=(), repr=False)


def loocv(cohort: Cohort, spec: cl.ClassifierSpec, mask=None,
          return_models: bool = False) -> LoocvResult:
    """One model per participant, trained on the rest, in participant-id order.

    A fold whose training set collapses to a single label predicts the
    training base rate and is reported in the result's warnings.  The other
    folds are fitted by one ``classifiers.fit_folds`` call, so logistic, lasso,
    gbt and mlp2 train all of them in one stacked loop.
    """
    cohort.require_evaluable()
    if mask is None:
        mask = tuple(range(FEATURE_DIM))
    mask = tuple(mask)
    if not mask:
        raise ValueError("feature mask must be non-empty")
    records = sorted(cohort.records, key=lambda r: r.participant_id)
    X = np.vstack([r.features for r in records])[:, mask]
    y = np.array([1 if r.diagnosis == ASD else 0 for r in records], dtype=int)
    n = len(records)
    notes, base_rates, train_X, train_y = [], {}, [], []
    for i in range(n):
        keep = np.arange(n) != i
        X_train, y_train = X[keep], y[keep]
        try:
            cl._check_training_set(X_train, y_train)
        except cl.DegenerateTrainingError:
            base = float(y_train.mean())
            base_rates[i] = base
            message = (
                f"fold {records[i].participant_id}: single-label training set, "
                f"predicting base rate {base:.3f}"
            )
            notes.append(message)
            warnings.warn(message)
        else:
            train_X.append(X_train)
            train_y.append(y_train)
    fitted = iter(cl.fit_folds(spec, train_X, train_y))
    truths, preds, probs, models = [], [], [], []
    for i in range(n):
        if i in base_rates:
            model, p = None, base_rates[i]
        else:
            model = next(fitted)
            p = cl.predict_proba(model, X[i])
        truths.append(bool(y[i]))
        preds.append(bool(cl.decide(p)))
        probs.append(float(p))
        models.append(model)
    return LoocvResult(
        ids=tuple(r.participant_id for r in records), truths=tuple(truths),
        predictions=tuple(preds), probabilities=tuple(probs), warnings=tuple(notes),
        models=tuple(models) if return_models else (),
    )


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fn: int
    fp: int
    tn: int
    sensitivity: float | None
    specificity: float | None
    f1: float | None


def confusion_metrics(predictions, truths) -> ConfusionMetrics:
    """Counts and derived rates; undefined ratios come back as None."""
    predictions = [bool(p) for p in predictions]
    truths = [bool(t) for t in truths]
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must have equal length")
    if not predictions:
        raise ValueError("confusion_metrics needs at least one pair")
    tp = sum(p and t for p, t in zip(predictions, truths))
    fn = sum((not p) and t for p, t in zip(predictions, truths))
    fp = sum(p and (not t) for p, t in zip(predictions, truths))
    tn = sum((not p) and (not t) for p, t in zip(predictions, truths))
    sens = tp / (tp + fn) if tp + fn else None
    spec = tn / (tn + fp) if tn + fp else None
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None
    return ConfusionMetrics(tp=tp, fn=fn, fp=fp, tn=tn,
                            sensitivity=sens, specificity=spec, f1=f1)


def _binary_f1(tp, fp, fn):
    """F1 with the vacuous case (nothing to find, nothing found) scored 1."""
    if tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


def expr_macro_f1(predicted, target, n_classes: int = N_EXPR) -> float:
    predicted = np.asarray(predicted, dtype=int)
    target = np.asarray(target, dtype=int)
    if predicted.shape != target.shape:
        raise ValueError("prediction/target lengths differ")
    scores = []
    for c in range(n_classes):
        tp = int(np.sum((predicted == c) & (target == c)))
        fp = int(np.sum((predicted == c) & (target != c)))
        fn = int(np.sum((predicted != c) & (target == c)))
        scores.append(_binary_f1(tp, fp, fn))
    return float(np.mean(scores))


def au_mean_f1_acc(predicted_probs, targets, threshold: float = 0.5) -> float:
    """Mean over AUs of (F1 + accuracy) / 2, predictions binarized."""
    p = np.asarray(predicted_probs, dtype=float)
    t = np.asarray(targets, dtype=int)
    if p.shape != t.shape:
        raise ValueError("prediction/target shapes differ")
    binary = p > threshold
    scores = []
    for j in range(p.shape[1]):
        tp = int(np.sum(binary[:, j] & (t[:, j] == 1)))
        fp = int(np.sum(binary[:, j] & (t[:, j] == 0)))
        fn = int(np.sum(~binary[:, j] & (t[:, j] == 1)))
        acc = float(np.mean(binary[:, j] == (t[:, j] == 1)))
        scores.append((_binary_f1(tp, fp, fn) + acc) / 2.0)
    return float(np.mean(scores))


def pearson_cc(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("correlation needs two equal-length vectors")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(xc @ yc) / denom


def recognition_metric(kind: str, predictions, targets) -> float:
    if kind == "expr_f1":
        return expr_macro_f1(predictions, targets)
    if kind == "au_mean_f1_acc":
        return au_mean_f1_acc(predictions, targets)
    if kind == "affect_cc":
        return pearson_cc(predictions, targets)
    raise ValueError(f"unknown recognition metric {kind!r}")


# --- Student's t ------------------------------------------------------------

def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) by the modified-Lentz continued fraction, abs. error < 1e-10."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - math.log(a) - _log_beta(a, b))
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            coeff = 1.0
        elif i % 2 == 0:
            coeff = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        else:
            coeff = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 + coeff * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = 1.0 + coeff / (c if abs(c) >= tiny else tiny)
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta continued fraction did not converge")


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    dof: int
    degenerate: bool = False


def t_test(xs, ys) -> TTestResult:
    """Equal-variance two-sample Student's t with a two-sided p-value."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = xs.size, ys.size
    if n < 2 or m < 2:
        raise ValueError("both samples need at least 2 observations")
    dof = n + m - 2
    pooled = ((n - 1) * xs.var(ddof=1) + (m - 1) * ys.var(ddof=1)) / dof
    delta = float(xs.mean() - ys.mean())
    if pooled == 0.0:
        if delta == 0.0:
            return TTestResult(t=0.0, p=1.0, dof=dof, degenerate=True)
        return TTestResult(t=math.copysign(math.inf, delta), p=0.0, dof=dof, degenerate=True)
    t = delta / math.sqrt(pooled * (1.0 / n + 1.0 / m))
    p = regularized_incomplete_beta(dof / (dof + t * t), dof / 2.0, 0.5)
    return TTestResult(t=t, p=min(max(p, 0.0), 1.0), dof=dof)


# --- study-level analyses ----------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    attributes: tuple
    n_features: int
    f1: float | None
    sensitivity: float | None
    specificity: float | None


def ablation_study(cohort: Cohort, spec: cl.ClassifierSpec,
                   subsets=DEFAULT_ABLATION) -> list[AblationRow]:
    """LOOCV and confusion metrics once per attribute subset, shared seed."""
    rows = []
    for flags in subsets:
        mask = attribute_mask(flags)
        result = loocv(cohort, spec, mask=mask)
        metrics = confusion_metrics(result.predictions, result.truths)
        rows.append(AblationRow(
            attributes=tuple(flags), n_features=len(mask),
            f1=metrics.f1, sensitivity=metrics.sensitivity,
            specificity=metrics.specificity,
        ))
    return rows


def _attribute_summary(features: np.ndarray, attribute: str) -> float:
    """Participant-level scalar summarizing one attribute.

    AU averages the 12 AU mean probabilities; arousal and valence are their
    mean dims.  The expression mean-slice always averages to 1/8 (softmax
    rows sum to one), so expression uses the total-variation distance of the
    mean distribution from uniform instead.  The mean block leads the
    feature vector in frame-column order, so the frame columns index it.
    """
    if attribute == "au":
        return float(features[AU_COLS].mean())
    if attribute == "expr":
        probs = features[EXPR_COLS]
        return float(0.5 * np.abs(probs - 1.0 / N_EXPR).sum())
    if attribute == "arousal":
        return float(features[AROUSAL_COL])
    if attribute == "valence":
        return float(features[VALENCE_COL])
    raise ValueError(f"unknown attribute {attribute!r}")


def attribute_significance(cohort: Cohort) -> dict:
    """Group t-tests per attribute summary plus per-feature p-values."""
    asd = [r.features for r in cohort.records if r.diagnosis == ASD]
    non = [r.features for r in cohort.records if r.diagnosis != ASD]
    if len(asd) < 2 or len(non) < 2:
        raise ValueError("both diagnosis groups need at least 2 participants")
    asd = np.vstack(asd)
    non = np.vstack(non)
    by_attribute = {}
    for attribute in ATTRIBUTES:
        xs = np.array([_attribute_summary(row, attribute) for row in asd])
        ys = np.array([_attribute_summary(row, attribute) for row in non])
        by_attribute[attribute] = t_test(xs, ys)
    names = feature_names()
    per_feature = {names[j]: t_test(asd[:, j], non[:, j]) for j in range(FEATURE_DIM)}
    return {"attributes": by_attribute, "features": per_feature}

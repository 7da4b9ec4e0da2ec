"""Leave-one-out evaluation, classification metrics, and Student's t-tests.

A cohort is its participants' ids, their diagnoses and one n x 58 feature
matrix.  ASD is the positive label throughout.  The t-test p-value is
computed with an in-package regularized incomplete beta (continued
fraction); external statistics libraries appear only as oracles in the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classifiers as cl
from . import numerics as nm
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
class Cohort:
    """Participant ids, their diagnoses, and their n x 58 feature matrix, row i
    belonging to participant i."""
    ids: tuple
    diagnoses: tuple
    features: np.ndarray

    def __post_init__(self):
        ids, diagnoses = tuple(self.ids), tuple(self.diagnoses)
        features = np.array(self.features, dtype=float)
        features.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "diagnoses", diagnoses)
        object.__setattr__(self, "features", features)
        if len(set(ids)) != len(ids):
            raise ValueError("participant ids must be unique")
        unknown = sorted(set(diagnoses) - set(DIAGNOSES))
        if unknown:
            raise ValueError(f"diagnosis must be one of {DIAGNOSES}, got {unknown[0]!r}")
        if len(diagnoses) != len(ids) or features.shape != (len(ids), FEATURE_DIM):
            raise ValueError(f"{len(ids)} ids and {len(diagnoses)} diagnoses need a "
                             f"{len(ids)} x {FEATURE_DIM} feature matrix, got {features.shape}")
        nm.require_finite(features, "cohort features")

    @property
    def labels(self) -> np.ndarray:
        """1 for each ASD participant, 0 for each non-ASD one."""
        return np.array([d == ASD for d in self.diagnoses], dtype=int)

    def require_evaluable(self):
        n_pos = int(self.labels.sum())
        if len(self.ids) < 2 or n_pos == 0 or n_pos == len(self.ids):
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

    A fold whose training set holds a single label predicts the training
    base rate and is named in the result's warnings.  The other folds are
    fitted by one stacked ``classifiers.fit`` call.
    """
    cohort.require_evaluable()
    if mask is None:
        mask = tuple(range(FEATURE_DIM))
    mask = tuple(mask)
    if not mask:
        raise ValueError("feature mask must be non-empty")
    if not all(nm._is_count(i) and 0 <= i < FEATURE_DIM for i in mask) or len(set(mask)) != len(mask):
        raise ValueError(f"feature mask must hold unique integers in [0, {FEATURE_DIM}), got {mask!r}")
    order = sorted(range(len(cohort.ids)), key=cohort.ids.__getitem__)
    ids = tuple(cohort.ids[i] for i in order)
    X = cohort.features[order][:, mask]
    y = cohort.labels[order]
    n = len(ids)
    # row i: every participant but i
    folds = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    positives = y[folds].sum(axis=1)
    single = (positives == 0) | (positives == n - 1)
    probs = (positives / (n - 1)).tolist()
    notes = [f"fold {ids[i]}: single-label training set, predicting base rate {probs[i]:.3f}"
             for i in np.flatnonzero(single)]
    models = [None] * n
    fitted = np.flatnonzero(~single)
    if fitted.size:
        for i, model in zip(fitted, cl.fit(spec, X[folds[fitted]], y[folds[fitted]])):
            models[i] = model
            probs[i] = cl.predict_proba(model, X[i])
    return LoocvResult(
        ids=ids, truths=tuple(bool(t) for t in y),
        predictions=tuple(bool(cl.decide(p)) for p in probs), probabilities=tuple(probs),
        warnings=tuple(notes), models=tuple(models) if return_models else (),
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
    nm.require_finite(xs, "t-test sample")
    nm.require_finite(ys, "t-test sample")
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


def ablation_study(cohort: Cohort, spec: cl.ClassifierSpec) -> list[AblationRow]:
    """LOOCV and confusion metrics once per attribute subset of
    DEFAULT_ABLATION, shared seed."""
    rows = []
    for flags in DEFAULT_ABLATION:
        mask = attribute_mask(flags)
        result = loocv(cohort, spec, mask=mask)
        metrics = confusion_metrics(result.predictions, result.truths)
        rows.append(AblationRow(
            attributes=tuple(flags), n_features=len(mask),
            f1=metrics.f1, sensitivity=metrics.sensitivity,
            specificity=metrics.specificity,
        ))
    return rows


def _attribute_summary(features: np.ndarray, attribute: str) -> np.ndarray:
    """Participant-level scalar summarizing one attribute, for each row of an
    m x 58 feature matrix.

    AU averages the 12 AU mean probabilities; arousal and valence are their
    mean dims.  The expression mean-slice always averages to 1/8 (softmax
    rows sum to one), so expression uses the total-variation distance of the
    mean distribution from uniform instead.  The mean block leads the
    feature vector in frame-column order, so the frame columns index it.
    """
    if attribute == "au":
        return features[:, AU_COLS].mean(axis=1)
    if attribute == "expr":
        return 0.5 * np.abs(features[:, EXPR_COLS] - 1.0 / N_EXPR).sum(axis=1)
    if attribute == "arousal":
        return features[:, AROUSAL_COL]
    if attribute == "valence":
        return features[:, VALENCE_COL]
    raise ValueError(f"unknown attribute {attribute!r}")


def attribute_significance(cohort: Cohort) -> dict:
    """Group t-tests per attribute summary plus per-feature p-values."""
    is_asd = cohort.labels == 1
    asd, non = cohort.features[is_asd], cohort.features[~is_asd]
    if len(asd) < 2 or len(non) < 2:
        raise ValueError("both diagnosis groups need at least 2 participants")
    by_attribute = {attribute: t_test(_attribute_summary(asd, attribute),
                                      _attribute_summary(non, attribute))
                    for attribute in ATTRIBUTES}
    names = feature_names()
    per_feature = {names[j]: t_test(asd[:, j], non[:, j]) for j in range(FEATURE_DIM)}
    return {"attributes": by_attribute, "features": per_feature}

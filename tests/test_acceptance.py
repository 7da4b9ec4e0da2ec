"""Acceptance gate: one test per primary criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every test re-derives its expectations independently (brute force,
finite differences, scipy as reference) rather than trusting package code.
"""

import math
import time

import numpy as np
import scipy.stats

from affectpipe import classifiers as cl
from affectpipe import cli
from affectpipe import dataio as dio
from affectpipe import evaluation as ev
from affectpipe import graph as gr
from affectpipe import numerics as nm
from affectpipe import synth as sy
from affectpipe import temporal as tp
from affectpipe import training as tr

TARGET_PARAMS = {"bottleneck": 6.5e6, "mobilenet": 6.2e6, "eesp": 2.4e6}


def finish(name: str, failures: list, elapsed: float | None = None):
    status = "FAIL" if failures else "PASS"
    suffix = "" if elapsed is None else f" ({elapsed:.1f}s)"
    print(f"[{status}] {name}{suffix}")
    assert not failures, f"{name}: " + "; ".join(failures)


def check(failures: list, ok: bool, msg: str):
    if not ok:
        failures.append(msg)


def max_rel_err(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / scale)) if a.size else 0.0


def test_gradient_suite():
    """Every numerics op and every task loss vs central differences, 20 seeds."""
    t0 = time.perf_counter()
    failures = []
    specs = {
        "conv_plain": nm.ConvSpec(3, 4, kernel=3, stride=1, padding=1),
        "conv_grouped_strided": nm.ConvSpec(4, 6, kernel=3, stride=2, padding=1, groups=2),
        "conv_dilated_depthwise": nm.ConvSpec(4, 4, kernel=3, stride=1, padding=2,
                                              groups=4, dilation=2),
    }
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, spec in specs.items():
            x = rng.normal(size=(2, spec.in_channels, 5, 5))
            w = rng.normal(size=spec.weight_shape)
            b = rng.normal(size=spec.out_channels)
            probe = rng.normal(size=nm.conv2d(x, spec, w, b).shape)
            gx, gw, gb = nm.conv2d_backward(probe, x, spec, w)
            for label, analytic, arg, f in (
                ("x", gx, x, lambda v: float(np.sum(nm.conv2d(v, spec, w, b) * probe))),
                ("w", gw, w, lambda v: float(np.sum(nm.conv2d(x, spec, v, b) * probe))),
                ("b", gb, b, lambda v: float(np.sum(nm.conv2d(x, spec, w, v) * probe))),
            ):
                err = max_rel_err(analytic, nm.central_difference(f, arg))
                check(failures, err < 1e-4, f"seed {seed} {name} grad_{label} rel err {err:.2e}")

        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        probe = rng.normal(size=(3, 4))
        gx, gw, gb = nm.linear_backward(probe, x, w)
        for label, analytic, arg, f in (
            ("x", gx, x, lambda v: float(np.sum(nm.linear(v, w, b) * probe))),
            ("w", gw, w, lambda v: float(np.sum(nm.linear(x, v, b) * probe))),
            ("b", gb, b, lambda v: float(np.sum(nm.linear(x, w, v) * probe))),
        ):
            err = max_rel_err(analytic, nm.central_difference(f, arg))
            check(failures, err < 1e-4, f"seed {seed} linear grad_{label} rel err {err:.2e}")

        x = rng.normal(size=(2, 3, 4, 4))
        probe = rng.normal(size=(2, 3))
        analytic = nm.global_avg_pool_backward(probe, x.shape)
        err = max_rel_err(analytic, nm.central_difference(
            lambda v: float(np.sum(nm.global_avg_pool(v) * probe)), x))
        check(failures, err < 1e-4, f"seed {seed} global_avg_pool rel err {err:.2e}")

        scale = rng.normal(size=3) + 2.0
        shift = rng.normal(size=3)
        probe = rng.normal(size=x.shape)
        gx, gscale, gshift = nm.channel_affine_backward(probe, x, scale)
        for label, analytic, arg, f in (
            ("x", gx, x, lambda v: float(np.sum(nm.channel_affine(v, scale, shift) * probe))),
            ("scale", gscale, scale,
             lambda v: float(np.sum(nm.channel_affine(x, v, shift) * probe))),
            ("shift", gshift, shift,
             lambda v: float(np.sum(nm.channel_affine(x, scale, v) * probe))),
        ):
            err = max_rel_err(analytic, nm.central_difference(f, arg))
            check(failures, err < 1e-4, f"seed {seed} affine grad_{label} rel err {err:.2e}")

        z = rng.normal(size=(3, 7))
        z = z + np.sign(z) * 0.05  # keep clear of the relu kink
        probe = rng.normal(size=z.shape)
        err = max_rel_err(nm.relu_backward(probe, z), nm.central_difference(
            lambda v: float(np.sum(nm.relu(v) * probe)), z))
        check(failures, err < 1e-4, f"seed {seed} relu rel err {err:.2e}")

        weights = tr.ClassWeights(expr=rng.uniform(0.5, 2.0, 8),
                                  au=rng.uniform(0.5, 2.0, (12, 2)))
        au_labels = tuple(None if i % 4 == 3 else int(rng.integers(0, 2))
                          for i in range(12))
        labels = tr.TaskLabels(expr=int(rng.integers(0, 8)), au=au_labels,
                               arousal=float(rng.uniform(-0.9, 0.9)),
                               valence=float(rng.uniform(-0.9, 0.9)))
        for task, dim in (("expr", 8), ("au", 12), ("arousal", 1), ("valence", 1)):
            raw = rng.normal(size=dim) if dim > 1 else float(rng.normal())
            if task == "arousal":
                # keep away from the L1 kink at tanh(raw) == target
                while abs(math.tanh(float(raw)) - labels.arousal) < 1e-2:
                    raw = float(rng.normal())
            _, grad = tr.task_loss(task, raw, labels, weights)
            f = lambda v: tr.task_loss(task, v if dim > 1 else float(v), labels, weights)[0]
            numeric = nm.central_difference(f, np.asarray(raw, dtype=float))
            err = max_rel_err(np.asarray(grad), numeric)
            check(failures, err < 1e-4, f"seed {seed} loss {task} rel err {err:.2e}")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (>= 60s)")
    finish("gradient suite: FD checks on all ops and losses, 20 seeds, < 1 min",
           failures, elapsed)


def test_architecture_suite():
    """Table traces exact; param bands; single-task sums; FLOPs ordering."""
    failures = []
    flops = {}
    for kind in gr.CU_KINDS:
        g = gr.build_graph(kind)
        rows = [r for r in gr.layer_table(g) if r["name"] not in
                {"pool"} | {h.name for h in g.heads}]
        spatial = []
        for r in rows:
            if not spatial or spatial[-1] != r["output"][0]:
                spatial.append(r["output"][0])
        check(failures, spatial == [112, 56, 28, 14, 7],
              f"{kind} spatial trace {spatial}")
        stage_channels = [rows[0]["output"][2]]
        for r in rows[1:]:
            if stage_channels[-1] != r["output"][2]:
                stage_channels.append(r["output"][2])
        check(failures, stage_channels == [32, 64, 128, 256, 512],
              f"{kind} channel milestones {stage_channels}")
        check(failures, rows[0]["output"][2] == 32, f"{kind} stem width {rows[0]}")

        multi = gr.count_params(g)
        target = TARGET_PARAMS[kind]
        check(failures, 0.8 * target <= multi <= 1.2 * target,
              f"{kind} params {multi} outside +-20% of {target:.0f}")
        single_sum = sum(gr.count_params(gr.build_graph(kind, mode=task))
                         for task in gr.TASKS)
        ratio = single_sum / (4 * multi)
        check(failures, abs(ratio - 1.0) <= 0.05,
              f"{kind} single-task sum ratio {ratio:.4f}")
        flops[kind] = gr.count_flops(g)
    check(failures, flops["eesp"] < flops["mobilenet"] <= flops["bottleneck"],
          f"FLOPs ordering violated: {flops}")
    finish("architecture suite: traces exact, param bands, single-task sums, "
           "FLOPs ordering", failures)


def brute_temporal(F: np.ndarray, tau: float) -> np.ndarray:
    """Loop-based recomputation of the 58-dim feature vector."""
    m, d = F.shape
    mean = [sum(F[i][j] for i in range(m)) / m for j in range(d)]
    std = [math.sqrt(sum((F[i][j] - mean[j]) ** 2 for i in range(m)) / m)
           for j in range(d)]
    act = [sum(1 for i in range(m) if F[i][j] > tau) / m for j in range(12)]
    p_aro = sum(1 for i in range(m) if F[i][20] > 0.0) / m
    p_val = sum(1 for i in range(m) if F[i][21] > 0.0) / m
    return np.array(mean + std + act + [p_aro, p_val])


def test_temporal_feature_oracle():
    """1000 random streams vs brute force at 1e-12; boundary strictness."""
    failures = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for case in range(1000):
        m = [1, 2, 3, 5, 9, 17, 33][case % 7]
        style = case % 5
        if style == 0:
            F = np.tile(rng.uniform(-1, 1, (1, 22)), (m, 1))  # constant stream
        elif style == 1:
            F = rng.uniform(-1, 1, (m, 22))
            F[:, :20] = np.abs(F[:, :20])
        else:
            F = rng.normal(size=(m, 22))
        tau = float(rng.uniform(0.1, 0.9)) if style != 3 else 0.5
        if style == 3:
            F[:, rng.integers(0, 12)] = tau  # sits exactly on the threshold
            F[:, 20] = 0.0
        got = tp.temporal_feature_vector(F, tau=tau).vector()
        diff = float(np.max(np.abs(got - brute_temporal(F, tau))))
        worst = max(worst, diff)
        check(failures, diff <= 1e-12, f"case {case}: diff {diff:.2e}")
        if failures:
            break

    # strictness: values exactly at tau or 0 never count
    F = np.zeros((4, 22))
    F[:, 0] = 0.5
    F[:, 20] = 0.0
    F[:, 21] = 1e-9
    feats = tp.temporal_feature_vector(F, tau=0.5)
    check(failures, feats.activation[0] == 0.0, "activation counted value == tau")
    check(failures, feats.p_arousal == 0.0, "positive fraction counted 0.0")
    check(failures, feats.p_valence == 1.0, "strictly positive value missed")
    finish(f"temporal-feature oracle: 1000 streams, worst diff {worst:.1e} <= 1e-12",
           failures)


def test_statistics_oracle():
    """t_test vs scipy on 100 pairs; identical-sample p=1; Pearson formula."""
    failures = []
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(2, 50)), int(rng.integers(2, 50))
        xs = rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 4.0), n)
        ys = rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 4.0), m)
        ours = ev.t_test(xs, ys)
        ref = scipy.stats.ttest_ind(xs, ys, equal_var=True)
        worst = max(worst, abs(ours.p - ref.pvalue))
        check(failures, abs(ours.p - ref.pvalue) < 1e-6,
              f"p mismatch: {ours.p} vs {ref.pvalue}")
        check(failures, abs(ours.t - ref.statistic) < 1e-9,
              f"t mismatch: {ours.t} vs {ref.statistic}")

    same = ev.t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    check(failures, same.t == 0.0 and same.p == 1.0,
          f"identical samples gave t={same.t}, p={same.p}")

    x, y = rng.normal(size=60), rng.normal(size=60)
    n = 60
    num = n * np.sum(x * y) - np.sum(x) * np.sum(y)
    den = (math.sqrt(n * np.sum(x * x) - np.sum(x) ** 2)
           * math.sqrt(n * np.sum(y * y) - np.sum(y) ** 2))
    check(failures, abs(ev.pearson_cc(x, y) - num / den) <= 1e-12,
          "Pearson CC deviates from the direct formula")
    finish(f"statistics oracle: 100 t-test pairs (worst |dp| {worst:.1e}), "
           "identical-sample p=1, Pearson exact", failures)


def test_metric_identities():
    """confusion_metrics reproduces the hand-computed 49/39 cohort case."""
    failures = []
    preds = [True] * 38 + [False] * 11 + [True] * 12 + [False] * 27
    truths = [True] * 49 + [False] * 39
    m = ev.confusion_metrics(preds, truths)
    check(failures, (m.tp, m.fn, m.fp, m.tn) == (38, 11, 12, 27),
          f"counts {(m.tp, m.fn, m.fp, m.tn)}")
    check(failures, m.sensitivity == 38 / 49, f"sensitivity {m.sensitivity}")
    check(failures, m.specificity == 27 / 39, f"specificity {m.specificity}")
    check(failures, m.f1 == 76 / 99, f"F1 {m.f1}")
    check(failures, round(m.sensitivity, 3) == 0.776, "sensitivity != 0.776")
    check(failures, round(m.specificity, 3) == 0.692, "specificity != 0.692")
    check(failures, round(m.f1, 3) == 0.768, "F1 != 0.768")
    finish("metric identities: (38,11,12,27) case exact", failures)


def test_pipeline_end_to_end(tmp_path):
    """Synthetic 40+40 cohort: LOOCV F1, ablation ordering, significance."""
    t0 = time.perf_counter()
    failures = []
    spec = sy.SynthSpec(participants_per_group=40, frames_per_participant=120,
                        expr_effect=1.2, arousal_effect=1.0, valence_effect=1.0,
                        noise=0.5, subject_scale=0.3, seed=101)
    manifest = sy.synth_cohort(spec, tmp_path / "cohort")
    cohort = dio.load_cohort(manifest)

    result = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
    metrics = ev.confusion_metrics(result.predictions, result.truths)
    check(failures, metrics.f1 is not None and metrics.f1 >= 0.90,
          f"LOOCV logistic F1 {metrics.f1}")

    rows = ev.ablation_study(cohort, cl.ClassifierSpec("logistic"))
    au_only = next(r for r in rows if r.attributes == ("au",))
    full = next(r for r in rows if len(r.attributes) == 4)
    check(failures, full.f1 is not None and au_only.f1 is not None
          and full.f1 > au_only.f1,
          f"ablation full {full.f1} vs AU-only {au_only.f1}")

    sig = ev.attribute_significance(cohort)["attributes"]
    for attr in ("expr", "arousal", "valence"):
        check(failures, sig[attr].p < 0.01, f"injected {attr} p {sig[attr].p}")
    check(failures, sig["au"].p > 0.05, f"null AU p {sig['au'].p}")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 300.0, f"end-to-end took {elapsed:.1f}s (>= 5 min)")
    finish(f"pipeline end-to-end: F1 {metrics.f1:.3f} >= 0.90, "
           f"full > AU-only, injected p < 0.01, null p > 0.05, < 5 min",
           failures, elapsed)


def test_toy_training():
    """30-epoch toy run is monotone; LR schedule matches 0.01 * 0.95^e."""
    failures = []
    config = tr.TrainConfig()
    check(failures, config.epochs == 30, f"default epochs {config.epochs}")
    out = tr.train_toy(config, n=200, size=16)
    losses = out["losses"]
    check(failures, len(losses) == 30, f"{len(losses)} epoch losses")
    bumps = [(e, a, b) for e, (a, b) in enumerate(zip(losses, losses[1:])) if b > a]
    check(failures, not bumps, f"loss increased at epochs {bumps[:3]}")
    for e in range(30):
        want = 0.01 * 0.95 ** e
        got = tr.learning_rate(e, config)
        check(failures, abs(got - want) <= 1e-12, f"lr({e}) = {got}, want {want}")
    finish("toy training: 30 epoch averages monotone, LR schedule exact to 1e-12",
           failures)


def test_cli_determinism(tmp_path):
    """Every subcommand, fixed seed, byte-identical reports on repeat runs."""
    failures = []
    cohort_dir = tmp_path / "cohort"
    synth_args = ["synth", "--out-dir", str(cohort_dir), "--participants", "3",
                  "--frames", "20", "--valence-effect", "1.0", "--seed", "9"]
    manifest = cohort_dir / "manifest.json"
    runs = {
        "synth": synth_args,
        "analyze-graph": ["analyze-graph", "--seed", "9"],
        "train-toy": ["train-toy", "--epochs", "2", "--samples", "30",
                      "--image-size", "8", "--seed", "9"],
        "extract-features": ["extract-features", "--manifest", str(manifest),
                             "--seed", "9"],
        "loocv": ["loocv", "--manifest", str(manifest), "--seed", "9"],
        "ablate": ["ablate", "--manifest", str(manifest), "--seed", "9"],
        "ttest": ["ttest", "--manifest", str(manifest), "--seed", "9"],
    }
    for name, args in runs.items():
        a = tmp_path / f"{name}-a.json"
        b = tmp_path / f"{name}-b.json"
        code_a = cli.main(args + ["--output", str(a)])
        code_b = cli.main(args + ["--output", str(b)])
        check(failures, code_a == 0 and code_b == 0,
              f"{name} exited {code_a}/{code_b}")
        if a.exists() and b.exists():
            check(failures, a.read_bytes() == b.read_bytes(),
                  f"{name} reports differ between runs")
    csvs = sorted(cohort_dir.glob("*.csv"))
    check(failures, len(csvs) == 6, f"synth wrote {len(csvs)} frame files")
    finish("determinism: all 7 CLI subcommands byte-identical given a seed",
           failures)

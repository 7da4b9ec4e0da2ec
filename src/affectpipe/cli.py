"""Command-line surface tying the pipeline together.

Every subcommand takes --seed, --config, and --output; flags given on the
command line override values from the JSON config file, which in turn
override built-in defaults. Reports are written via dataio.render_report,
so a fixed seed reproduces output byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import classifiers as cl
from . import dataio
from . import evaluation as ev
from . import graph as gr
from . import synth as sy
from . import temporal as tp
from . import training as tr


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises on a bad command line instead of exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file of option values; flags override it")
    sub.add_argument("--output", type=Path, default=None,
                     help="report path (default stdout)")
    sub.add_argument("--format", choices=("json", "text"), default=None,
                     help="report format (default json)")


def _from_config(action, value):
    """A config-file value read as argparse would read it from a flag."""
    kind = action.type or str
    if value is None:
        raise ValueError(f"config value null for {action.dest!r} is not a valid {kind.__name__}")
    try:
        converted = kind(str(value))
    except ValueError:
        raise ValueError(f"config value {value!r} for {action.dest!r} "
                         f"is not a valid {kind.__name__}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config value {value!r} for {action.dest!r} "
                         f"is not one of {sorted(action.choices)}")
    return converted


def _resolve(args, defaults: dict) -> SimpleNamespace:
    """Merge CLI flags over config-file values over defaults; check the seed."""
    merged = dict(defaults)
    merged.setdefault("seed", 0)
    merged.setdefault("format", "json")
    merged.setdefault("output", None)
    if args.config is not None:
        config = str(args.config)
        try:
            text = Path(config).read_text(encoding="utf-8")
        except OSError as err:
            raise ValueError(f"cannot read config {config!r}: {err}") from None
        except UnicodeDecodeError as err:
            raise ValueError(f"config {config!r} is not valid UTF-8: {err}") from None
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as err:
            raise ValueError(f"config {config!r} is not valid JSON: {err}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config {config!r} must be a JSON object")
        unknown = sorted(set(loaded) - set(merged))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"expected a subset of {sorted(merged)}")
        merged.update({key: _from_config(args.actions[key], value)
                       for key, value in loaded.items()})
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {merged['seed']!r}")
    return SimpleNamespace(**merged)


def cmd_analyze_graph(opts) -> dict:
    kinds = gr.CU_KINDS if opts.cu == "all" else (opts.cu,)
    hw = (opts.input_hw, opts.input_hw)
    variants = {}
    for kind in kinds:
        g = gr.build_graph(kind, mode=opts.mode, input_hw=hw)
        variants[kind] = {
            "params": gr.count_params(g),
            "flops": gr.count_flops(g),
            "single_task_params": sum(
                gr.count_params(gr.build_graph(kind, mode=t, input_hw=hw))
                for t in gr.TASKS),
            "layers": gr.layer_table(g),
        }
    return {"command": "analyze-graph", "mode": opts.mode,
            "input_hw": opts.input_hw, "variants": variants}


def cmd_train_toy(opts) -> dict:
    config = tr.TrainConfig(epochs=opts.epochs, batch_size=opts.batch_size,
                            seed=opts.seed)
    out = tr.train_toy(config, n=opts.samples, size=opts.image_size)
    losses = out["losses"]
    return {
        "command": "train-toy",
        "seed": opts.seed,
        "epochs": opts.epochs,
        "losses": losses,
        "monotone": all(b <= a for a, b in zip(losses, losses[1:])),
        "learning_rates": [tr.learning_rate(e, config) for e in range(opts.epochs)],
    }


def _load_cohort(opts, command: str):
    if opts.manifest is None:
        raise ValueError(f"{command} requires --manifest")
    return dataio.load_cohort(opts.manifest, tau=opts.tau)


def cmd_extract_features(opts) -> dict:
    cohort = _load_cohort(opts, "extract-features")
    return {
        "command": "extract-features",
        "tau": opts.tau,
        "feature_names": tp.feature_names(),
        "participants": [
            {"id": pid, "label": label, "features": row}
            for pid, label, row in zip(cohort.ids, cohort.diagnoses, cohort.features)
        ],
    }


def _classifier_spec(opts) -> cl.ClassifierSpec:
    return cl.ClassifierSpec(kind=opts.classifier, seed=opts.seed)


def cmd_loocv(opts) -> dict:
    cohort = _load_cohort(opts, "loocv")
    attrs = tuple(a.strip() for a in opts.attributes.split(",") if a.strip())
    mask = ev.attribute_mask(attrs)
    result = ev.loocv(cohort, _classifier_spec(opts), mask=mask)
    metrics = ev.confusion_metrics(result.predictions, result.truths)
    return {
        "command": "loocv",
        "classifier": opts.classifier,
        "seed": opts.seed,
        "attributes": list(attrs),
        "folds": [
            {"id": pid, "truth": t, "prediction": p, "probability": prob}
            for pid, t, p, prob in zip(result.ids, result.truths,
                                       result.predictions, result.probabilities)
        ],
        "metrics": metrics,
        "warnings": list(result.warnings),
    }


def cmd_ablate(opts) -> dict:
    cohort = _load_cohort(opts, "ablate")
    rows = ev.ablation_study(cohort, _classifier_spec(opts))
    return {"command": "ablate", "classifier": opts.classifier,
            "seed": opts.seed, "rows": list(rows)}


def cmd_ttest(opts) -> dict:
    cohort = _load_cohort(opts, "ttest")
    result = ev.attribute_significance(cohort)
    return {"command": "ttest",
            "attributes": result["attributes"],
            "features": result["features"]}


def cmd_synth(opts) -> dict:
    if opts.out_dir is None:
        raise ValueError("synth requires --out-dir")
    spec = sy.SynthSpec(seed=opts.seed, **{field: getattr(opts, key)
                                           for key, field in _SYNTH_FIELDS.items()})
    manifest = dataio.write_cohort(opts.out_dir, sy.draw_cohort(spec))
    return {"command": "synth", "manifest": str(manifest), "spec": spec}


# synth's option names and the SynthSpec fields they set
_SYNTH_FIELDS = {"participants": "participants_per_group", "frames": "frames_per_participant",
                 "au_effect": "au_effect", "expr_effect": "expr_effect",
                 "arousal_effect": "arousal_effect", "valence_effect": "valence_effect",
                 "noise": "noise", "subject_scale": "subject_scale"}

_COHORT_DEFAULTS = {"manifest": None, "tau": tp.DEFAULT_TAU}


def _add_cohort(sub):
    sub.add_argument("--manifest", type=Path, default=None)
    sub.add_argument("--tau", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affectpipe",
        description="Facial-attribute pipeline: architecture analysis, toy "
                    "training, temporal features, LOOCV, statistics, and "
                    "synthetic cohorts.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze-graph", help="parameter and FLOP budgets per CU variant")
    p.add_argument("--cu", choices=gr.CU_KINDS + ("all",), default=None)
    p.add_argument("--mode", choices=("multi",) + gr.TASKS, default=None)
    p.add_argument("--input-hw", type=int, default=None, dest="input_hw")
    _add_common(p)
    p.set_defaults(handler=cmd_analyze_graph,
                   defaults={"cu": "all", "mode": "multi",
                             "input_hw": gr.DEFAULT_INPUT_HW[0]})

    p = subs.add_parser("train-toy", help="train the toy multitask model")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--image-size", type=int, default=None, dest="image_size")
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    _add_common(p)
    p.set_defaults(handler=cmd_train_toy,
                   defaults={"epochs": tr.TrainConfig.epochs, "samples": 200,
                             "image_size": 16, "batch_size": tr.TrainConfig.batch_size})

    p = subs.add_parser("extract-features", help="temporal features from a cohort manifest")
    _add_cohort(p)
    _add_common(p)
    p.set_defaults(handler=cmd_extract_features, defaults=dict(_COHORT_DEFAULTS))

    p = subs.add_parser("loocv", help="leave-one-out cross-validation over a cohort")
    _add_cohort(p)
    p.add_argument("--classifier", choices=cl.KINDS, default=None)
    p.add_argument("--attributes", default=None,
                   help="comma-separated subset of au,expr,arousal,valence")
    _add_common(p)
    p.set_defaults(handler=cmd_loocv,
                   defaults=dict(_COHORT_DEFAULTS, classifier="logistic",
                                 attributes="au,expr,arousal,valence"))

    p = subs.add_parser("ablate", help="attribute-subset ablation table")
    _add_cohort(p)
    p.add_argument("--classifier", choices=cl.KINDS, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_ablate,
                   defaults=dict(_COHORT_DEFAULTS, classifier="logistic"))

    p = subs.add_parser("ttest", help="per-attribute group significance")
    _add_cohort(p)
    _add_common(p)
    p.set_defaults(handler=cmd_ttest, defaults=dict(_COHORT_DEFAULTS))

    p = subs.add_parser("synth", help="generate a synthetic cohort on disk")
    p.add_argument("--out-dir", type=Path, default=None, dest="out_dir")
    p.add_argument("--participants", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--au-effect", type=float, default=None, dest="au_effect")
    p.add_argument("--expr-effect", type=float, default=None, dest="expr_effect")
    p.add_argument("--arousal-effect", type=float, default=None, dest="arousal_effect")
    p.add_argument("--valence-effect", type=float, default=None, dest="valence_effect")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--subject-scale", type=float, default=None, dest="subject_scale")
    _add_common(p)
    p.set_defaults(handler=cmd_synth,
                   defaults=dict(out_dir=None, **{key: getattr(sy.SynthSpec, field)
                                                  for key, field in _SYNTH_FIELDS.items()}))
    for sub in subs.choices.values():
        sub.set_defaults(actions={action.dest: action for action in sub._actions})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        opts = _resolve(args, args.defaults)
        rendered = dataio.render_report(args.handler(opts), fmt=opts.format)
        if opts.output is not None:
            Path(opts.output).write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except (ValueError, ArithmeticError, OSError, MemoryError) as err:
        # numpy's allocation failure is a private MemoryError subclass
        name = "MemoryError" if isinstance(err, MemoryError) else type(err).__name__
        payload = {"error": name, "message": str(err)}
        if isinstance(err, dataio.ParseError):
            payload.update({"path": err.path, "row": err.row, "column": err.column})
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

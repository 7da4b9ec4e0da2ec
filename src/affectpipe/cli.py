"""Command-line surface tying the pipeline together.

Every subcommand takes --seed, --config, --output and --format.  The
values of a JSON config file act as the subcommand's defaults for that one
call, so flags given on the command line override them, and they override
the built-in defaults.  Reports are written via dataio.render_report, so a
fixed seed reproduces output byte for byte.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import classifiers as cl
from . import dataio
from . import evaluation as ev
from . import graph as gr
from . import numerics as nm
from . import synth as sy
from . import temporal as tp
from . import training as tr


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises on a bad command line instead of exiting 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file of option values; flags override it")
    sub.add_argument("--output", type=Path, default=None,
                     help="report path (default stdout)")
    sub.add_argument("--format", choices=("json", "text"), default="json",
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


def _config_defaults(sub, path) -> dict:
    """The values of the JSON config at path, read as sub would read them from flags."""
    config = str(path)
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
    actions = {action.dest: action for action in sub._actions
               if action.dest not in ("help", "config")}
    unknown = sorted(set(loaded) - set(actions))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; "
                         f"expected a subset of {sorted(actions)}")
    return {key: _from_config(actions[key], value) for key, value in loaded.items()}


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


def _add_cohort(sub):
    sub.add_argument("--manifest", type=Path, default=None)
    sub.add_argument("--tau", type=float, default=tp.DEFAULT_TAU)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="affectpipe",
        description="Facial-attribute pipeline: architecture analysis, toy "
                    "training, temporal features, LOOCV, statistics, and "
                    "synthetic cohorts.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze-graph", help="parameter and FLOP budgets per CU variant")
    p.add_argument("--cu", choices=gr.CU_KINDS + ("all",), default="all")
    p.add_argument("--mode", choices=("multi",) + gr.TASKS, default="multi")
    p.add_argument("--input-hw", type=int, default=gr.DEFAULT_INPUT_HW[0])
    _add_common(p)

    p = subs.add_parser("train-toy", help="train the toy multitask model")
    p.add_argument("--epochs", type=int, default=tr.TrainConfig.epochs)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--batch-size", type=int, default=tr.TrainConfig.batch_size)
    _add_common(p)

    p = subs.add_parser("extract-features", help="temporal features from a cohort manifest")
    _add_cohort(p)
    _add_common(p)

    p = subs.add_parser("loocv", help="leave-one-out cross-validation over a cohort")
    _add_cohort(p)
    p.add_argument("--classifier", choices=cl.KINDS, default="logistic")
    p.add_argument("--attributes", default="au,expr,arousal,valence",
                   help="comma-separated subset of au,expr,arousal,valence")
    _add_common(p)

    p = subs.add_parser("ablate", help="attribute-subset ablation table")
    _add_cohort(p)
    p.add_argument("--classifier", choices=cl.KINDS, default="logistic")
    _add_common(p)

    p = subs.add_parser("ttest", help="per-attribute group significance")
    _add_cohort(p)
    _add_common(p)

    p = subs.add_parser("synth", help="generate a synthetic cohort on disk")
    p.add_argument("--out-dir", type=Path, default=None)
    for key, field in _SYNTH_FIELDS.items():
        default = getattr(sy.SynthSpec, field)
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    _add_common(p)
    for sub in subs.choices.values():
        sub.set_defaults(parser=sub)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``parse`` call shares; nothing sets its defaults."""
    return build_parser()


def parse(argv=None) -> argparse.Namespace:
    """The options of argv over the values of its --config file over the built-in defaults."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    if args.config is not None:
        # The top-level parser has no options, so argv[0] is the command.  A
        # value already in the namespace is one argparse leaves unless a
        # flag sets it: the config's values act as this call's defaults.
        config = _config_defaults(args.parser, args.config)
        args = args.parser.parse_args(argv[1:], argparse.Namespace(command=args.command, **config))
    nm.require_count(args.seed, "seed", minimum=0)
    return args


def main(argv=None) -> int:
    try:
        opts = parse(argv)
        # Each command's handler is cmd_<command>, found at each call, so the
        # shared parser holds no function.
        handler = globals()["cmd_" + opts.command.replace("-", "_")]
        rendered = dataio.render_report(handler(opts), fmt=opts.format)
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

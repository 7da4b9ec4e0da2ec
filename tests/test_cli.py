"""CLI contract: reproducible reports, config merging, error JSON on stderr."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import classifiers as cl
from affectpipe import cli
from affectpipe import graph as gr
from affectpipe import training as tr

from conftest import MUTATION, mutate


COMMANDS = ("analyze-graph", "train-toy", "extract-features", "loocv", "ablate", "ttest", "synth")


def _option_keys(command):
    """A subcommand's config keys: every option's dest but help and config."""
    sub = cli.build_parser().parse_args([command]).parser
    return sorted(action.dest for action in sub._actions if action.dest not in ("help", "config"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_cohort_dir(tmp_path, participants=4, **kwargs):
    code = cli.main(["synth", "--out-dir", str(tmp_path / "cohort"),
                     "--participants", str(participants), "--frames", "30",
                     "--output", str(tmp_path / "synth.json")] + sum(
                         ([f"--{k.replace('_', '-')}", str(v)] for k, v in kwargs.items()), []))
    assert code == 0
    return tmp_path / "cohort" / "manifest.json"


class TestAnalyzeGraph:
    def test_stdout_json(self, capsys):
        code, out, err = run(capsys, "analyze-graph", "--cu", "eesp")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert set(report["variants"]) == {"eesp"}
        assert report["variants"]["eesp"]["params"] > 1_000_000

    def test_all_variants(self, capsys):
        code, out, _ = run(capsys, "analyze-graph")
        assert code == 0
        report = json.loads(out)
        assert set(report["variants"]) == {"bottleneck", "mobilenet", "eesp"}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["analyze-graph", "--output", str(a)]) == 0
        assert cli.main(["analyze-graph", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budgets_at_224(self, capsys):
        code, out, _ = run(capsys, "analyze-graph")
        assert code == 0
        variants = json.loads(out)["variants"]
        budgets = {kind: (v["params"], v["flops"], v["single_task_params"])
                   for kind, v in variants.items()}
        assert budgets == {
            "bottleneck": (6_364_782, 934_223_949, 25_425_270),
            "mobilenet": (5_546_646, 839_154_688, 22_152_726),
            "eesp": (2_055_366, 351_409_472, 8_187_606),
        }

    @pytest.mark.parametrize("mode", ["multi", "au"])
    def test_single_task_params_is_per_task_sum(self, capsys, mode):
        code, out, _ = run(capsys, "analyze-graph", "--input-hw", "64", "--mode", mode)
        assert code == 0
        for kind, v in json.loads(out)["variants"].items():
            g = gr.build_graph(kind, mode=mode, input_hw=(64, 64))
            assert v["params"] == gr.count_params(g)
            assert v["flops"] == gr.count_flops(g)
            assert v["single_task_params"] == sum(
                gr.count_params(gr.build_graph(kind, mode=t, input_hw=(64, 64)))
                for t in gr.TASKS)


class TestTrainToy:
    def test_report_fields(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train-toy", "--epochs", "3", "--samples", "40",
                           "--image-size", "8")
        assert code == 0
        report = json.loads(out)
        assert len(report["losses"]) == 3
        assert len(report["learning_rates"]) == 3
        assert report["learning_rates"][0] == 0.01

    def test_seed_reproducible(self, tmp_path):
        args = ["train-toy", "--epochs", "2", "--samples", "40", "--image-size", "8",
                "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCohortCommands:
    def test_extract_features_shape(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        code, out, _ = run(capsys, "extract-features", "--manifest", str(manifest))
        assert code == 0
        report = json.loads(out)
        assert len(report["participants"]) == 8
        assert len(report["feature_names"]) == 58
        assert len(report["participants"][0]["features"]) == 58

    def test_loocv_report(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path, valence_effect=1.5)
        code, out, _ = run(capsys, "loocv", "--manifest", str(manifest))
        assert code == 0
        report = json.loads(out)
        assert len(report["folds"]) == 8
        assert "f1" in report["metrics"]
        assert report["metrics"]["tp"] + report["metrics"]["fn"] == 4

    def test_loocv_attribute_subset(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        code, out, _ = run(capsys, "loocv", "--manifest", str(manifest),
                           "--attributes", "arousal,valence")
        assert code == 0
        assert json.loads(out)["attributes"] == ["arousal", "valence"]

    def test_ablate_rows(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        code, out, _ = run(capsys, "ablate", "--manifest", str(manifest))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["n_features"] for r in rows] == [36, 39, 42, 58]

    def test_ttest_tables(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        code, out, _ = run(capsys, "ttest", "--manifest", str(manifest))
        assert code == 0
        report = json.loads(out)
        assert set(report["attributes"]) == {"au", "expr", "arousal", "valence"}
        assert len(report["features"]) == 58

    @pytest.mark.parametrize("classifier", cl.KINDS)
    def test_single_label_folds_write_nothing_to_stderr(self, tmp_path, classifier):
        """A 1+1 cohort: every fold predicts its base rate, noted in the report only."""
        manifest = make_cohort_dir(tmp_path, participants=1)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "affectpipe.cli", "loocv", "--manifest", str(manifest),
             "--classifier", classifier], capture_output=True, text=True, env=env, check=False)
        assert (done.returncode, done.stderr) == (0, "")
        report = json.loads(done.stdout)
        assert report["warnings"] == [
            "fold asd_000: single-label training set, predicting base rate 0.000",
            "fold ctl_000: single-label training set, predicting base rate 1.000",
        ]
        assert [fold["probability"] for fold in report["folds"]] == [0.0, 1.0]

    def test_loocv_byte_identical(self, tmp_path):
        manifest = make_cohort_dir(tmp_path, valence_effect=1.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["loocv", "--manifest", str(manifest), "--seed", "3"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def strict_json(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_every_command_writes_strict_json(self, tmp_path, capsys):
        """Each subcommand's report, and a ttest whose AU features have zero
        variance in both groups and different means: t is +-inf, reported as
        null, with degenerate true and p 0."""
        cohort = ["--participants", "3", "--frames", "20", "--seed", "0"]
        degenerate = tmp_path / "degenerate"
        runs = {
            "analyze-graph": ["--cu", "eesp", "--input-hw", "32"],
            "train-toy": ["--epochs", "1", "--samples", "8", "--image-size", "8"],
            "synth": ["--out-dir", str(tmp_path / "demo"), *cohort],
            "extract-features": ["--manifest", str(tmp_path / "demo" / "manifest.json")],
            "loocv": ["--manifest", str(tmp_path / "demo" / "manifest.json"), "--classifier", "lda"],
            "ablate": ["--manifest", str(tmp_path / "demo" / "manifest.json"), "--classifier", "lda"],
            "ttest": ["--manifest", str(tmp_path / "demo" / "manifest.json")],
        }
        assert set(runs) == set(COMMANDS)
        for command, args in runs.items():
            code, out, err = run(capsys, command, *args)
            assert (code, err) == (0, ""), command
            strict_json(out)
        assert run(capsys, "synth", "--out-dir", str(degenerate), *cohort, "--au-effect", "10",
                   "--noise", "0.01")[0] == 0
        code, out, err = run(capsys, "ttest", "--manifest", str(degenerate / "manifest.json"))
        assert (code, err) == (0, "")
        features = strict_json(out)["features"]
        infinite = {name: row for name, row in features.items() if row["t"] is None}
        assert len(infinite) == 12 and all(name.startswith("act_au_") for name in infinite)
        assert all(row["degenerate"] and row["p"] == 0.0 for row in infinite.values())


# sha256 of every file of the seed-0 cohort below.  The benchmark's synth
# digest covers only the JSON report, so this pins the CSV and manifest bytes.
SEED0_COHORT = {
    "asd_000.csv": "e99962e229e0bced664a0bc6dbe00cbca847d610435e27bc9bac85709dda6575",
    "asd_001.csv": "1f43ecc162eddb7143dcdc6848922b420ce8fd93130eabb28519eb8835b80093",
    "ctl_000.csv": "c43d02ad5ef558622b73822c205e6c2d99de7f4846bf518b6bfa26c446e475aa",
    "ctl_001.csv": "fed347d1b65f9c317517d21000aa3508c2f9af5f9d2db3cb74ac9e8383d7050e",
    "manifest.json": "59c055443f4b6f0be0d89b079b560a27defbcfa41d0eb7ce7079a1d5f9ff8e75",
}


class TestSynthCommand:
    def test_seed0_cohort_bytes_pinned(self, tmp_path, capsys):
        out_dir = tmp_path / "c"
        code, _, err = run(capsys, "synth", "--out-dir", str(out_dir), "--participants", "2",
                           "--frames", "30", "--expr-effect", "1.0", "--seed", "0")
        assert code == 0 and err == ""
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.iterdir())}
        assert digests == SEED0_COHORT

    def test_writes_cohort(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--out-dir", str(tmp_path / "c"),
                           "--participants", "2", "--frames", "10")
        assert code == 0
        report = json.loads(out)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert len(manifest) == 4
        assert report["spec"]["participants_per_group"] == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--noise", "--subject-scale", "--au-effect",
                                      "--expr-effect", "--arousal-effect",
                                      "--valence-effect"])
    def test_nonfinite_float_rejected(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "c"
        code, out, err = run(capsys, "synth", "--out-dir", str(out_dir),
                             "--participants", "2", "--frames", "10", flag, value)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert flag[2:].replace("-", "_") in payload["message"]
        assert not list(tmp_path.rglob("*.csv"))


class TestConfigMerging:
    def test_config_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 2, "samples": 40, "image_size": 8}))
        code, out, _ = run(capsys, "train-toy", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)["losses"]) == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 2, "samples": 40, "image_size": 8}))
        code, out, _ = run(capsys, "train-toy", "--config", str(config),
                           "--epochs", "4")
        assert code == 0
        assert len(json.loads(out)["losses"]) == 4

    # Two non-default values of every option: a config file or a flag sets
    # the first, and a flag sets the second over a config file's first.
    VALUES = {
        "cu": ("eesp", "mobilenet"), "mode": ("au", "expr"), "input_hw": (32, 64),
        "epochs": (2, 3), "samples": (40, 50), "image_size": (8, 9), "batch_size": (7, 5),
        "manifest": ("c/manifest.json", "d/manifest.json"), "tau": (0.25, 0.75),
        "classifier": ("lda", "qda"), "attributes": ("au,arousal", "expr"),
        "out_dir": ("c", "d"), "participants": (3, 4), "frames": (20, 30),
        "au_effect": (1.5, 2.5), "expr_effect": (1.0, 2.0), "arousal_effect": (0.8, 0.4),
        "valence_effect": (0.6, 0.2), "noise": (0.7, 0.9), "subject_scale": (0.0, 0.1),
        "seed": (3, 4), "output": ("report.json", "other.json"), "format": ("text", "json"),
    }

    @staticmethod
    def _parsed(*argv):
        return {key: value for key, value in vars(cli.parse(list(argv))).items()
                if key not in ("config", "parser")}

    @pytest.mark.parametrize("command, key", [(command, key) for command in COMMANDS
                                              for key in _option_keys(command)])
    def test_config_and_flag_are_one_mechanism(self, tmp_path, command, key):
        """Each option reads the same from a config file as from its flag,
        and its flag beats the config file."""
        value, other = self.VALUES[key]
        flag = "--" + key.replace("_", "-")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        from_flag = self._parsed(command, flag, str(value))
        assert from_flag[key] != self._parsed(command)[key]
        assert self._parsed(command, "--config", str(config)) == from_flag
        assert (self._parsed(command, "--config", str(config), flag, str(other))
                == self._parsed(command, flag, str(other)))

    def test_config_does_not_outlive_its_call(self, tmp_path):
        """A config file's values are one call's parser defaults: the next
        call in the same process starts from the built-in defaults."""
        defaults = self._parsed("train-toy")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1, "samples": 4, "image_size": 4, "batch_size": 2,
                                      "seed": 5, "format": "text",
                                      "output": str(tmp_path / "report.txt")}))
        assert cli.main(["train-toy", "--config", str(config)]) == 0
        assert self._parsed("train-toy") == defaults
        assert defaults["epochs"] == tr.TrainConfig.epochs and defaults["seed"] == 0

    def test_each_call_sees_only_its_own_config(self, tmp_path, capsys):
        """One process, one shared parser: a config's values reach only its
        own call, also after a config whose call exits 1."""
        first, failing, second = (tmp_path / f"{name}.json"
                                  for name in ("first", "failing", "second"))
        first.write_text(json.dumps({"out_dir": str(tmp_path / "a"), "participants": 1,
                                     "frames": 5, "noise": 0.7, "seed": 5,
                                     "output": str(tmp_path / "a.json")}))
        failing.write_text(json.dumps({"out_dir": str(tmp_path / "bad"), "participants": 2,
                                       "subject_scale": 0.1, "seed": -1}))
        second.write_text(json.dumps({"out_dir": str(tmp_path / "b"), "frames": 6,
                                      "output": str(tmp_path / "b.json")}))
        assert cli.main(["synth", "--config", str(first)]) == 0
        code, out, err = run(capsys, "synth", "--config", str(failing))
        assert code == 1 and out == "" and "seed" in json.loads(err)["message"]
        assert cli.main(["synth", "--config", str(second)]) == 0
        spec = {"participants_per_group": 10, "frames_per_participant": 5, "au_effect": 0.0,
                "expr_effect": 0.0, "arousal_effect": 0.0, "valence_effect": 0.0,
                "noise": 0.7, "subject_scale": 0.3, "seed": 5}
        assert json.loads((tmp_path / "a.json").read_text())["spec"] == dict(
            spec, participants_per_group=1)
        assert json.loads((tmp_path / "b.json").read_text())["spec"] == dict(
            spec, frames_per_participant=6, noise=0.5, seed=0)
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("command,key,value", [("synth", "participants", "ten")] + [
        (command, key, None) for command in COMMANDS
        for key in _option_keys(command)])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, key, value):
        """A wrong-typed value, or null for any key, names the key in one JSON line."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        flags = ("--out-dir", str(tmp_path / "c")) if command == "synth" else ()
        code, out, err = run(capsys, command, *flags, "--config", str(config))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert repr(key) in payload["message"]

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochz": 2}))
        code, out, err = run(capsys, "train-toy", "--config", str(config))
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestErrorContract:
    def test_missing_manifest_flag(self, capsys):
        code, out, err = run(capsys, "loocv")
        assert code == 1 and out == ""
        assert "manifest" in json.loads(err)["message"]

    @pytest.mark.parametrize("command,flag", [
        ("extract-features", "--manifest"), ("loocv", "--manifest"),
        ("ablate", "--manifest"), ("ttest", "--manifest"), ("synth", "--out-dir"),
    ])
    def test_missing_required_path(self, capsys, command, flag):
        code, out, err = run(capsys, command)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{command} requires {flag}"}

    def test_parse_error_carries_location(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        csv = manifest.parent / "asd_000.csv"
        lines = csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[21] = "2.0"
        lines[3] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "loocv", "--manifest", str(manifest))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["row"] == 4
        assert payload["column"] == "arousal"

    def test_manifest_frames_not_a_string(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        entries = json.loads(manifest.read_text())
        entries[1]["frames"] = 5
        manifest.write_text(json.dumps(entries))
        code, out, err = run(capsys, "loocv", "--manifest", str(manifest))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["row"] == 1

    def test_zero_batch_size(self, capsys):
        code, out, err = run(capsys, "train-toy", "--batch-size", "0")
        assert code == 1 and out == ""
        assert "batch_size" in json.loads(err)["message"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples(self, capsys, samples):
        code, out, err = run(capsys, "train-toy", "--samples", samples, "--epochs", "1")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "samples" in payload["message"]

    @pytest.mark.parametrize("size", ["1", "0"])
    def test_image_size_below_two(self, capsys, size):
        code, out, err = run(capsys, "train-toy", "--image-size", size, "--epochs", "1")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "image_size" in payload["message"]

    @pytest.mark.parametrize("command, handler", [("train-toy", "cmd_train_toy"),
                                                  ("synth", "cmd_synth")])
    def test_out_of_memory(self, capsys, monkeypatch, command, handler):
        """A failed allocation exits 1 with one JSON line, whatever subclass
        of MemoryError the allocator raises.  The handler raises it: a real
        oversized request could be granted by a host that overcommits."""
        class _ArrayMemoryError(MemoryError):
            pass

        def exhausted(opts):
            raise _ArrayMemoryError("Unable to allocate 1.75 TiB")

        monkeypatch.setattr(cli, handler, exhausted)
        code, out, err = run(capsys, command)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "MemoryError", "message": "Unable to allocate 1.75 TiB"}

    def test_smallest_image_size_trains(self, capsys):
        code, out, err = run(capsys, "train-toy", "--image-size", "2", "--samples", "10",
                             "--epochs", "2")
        assert code == 0 and err == ""
        assert len(json.loads(out)["losses"]) == 2

    def test_text_format(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        code, out, _ = run(capsys, "loocv", "--manifest", str(manifest),
                           "--format", "text")
        assert code == 0
        assert "f1:" in out and "sensitivity:" in out and "specificity:" in out

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "analyze-graph", "--cu", "eesp", "--input-hw", "32",
                             "--output", str(target))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "FileNotFoundError"
        assert str(target) in payload["message"]

    def test_frames_not_utf8(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        csv = manifest.parent / "ctl_001.csv"
        csv.write_bytes(csv.read_bytes() + b"\xff\n")
        code, out, err = run(capsys, "extract-features", "--manifest", str(manifest))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["path"] == str(csv)

    def test_manifest_not_utf8(self, tmp_path, capsys):
        manifest = make_cohort_dir(tmp_path)
        manifest.write_bytes(b"\xff" + manifest.read_bytes())
        code, out, err = run(capsys, "ttest", "--manifest", str(manifest))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["path"] == str(manifest)

    @pytest.mark.parametrize("content", [b'{"epochs": "\xff"}', b"[" * 100_000])
    def test_unreadable_config_is_named(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        config.write_bytes(content)
        code, out, err = run(capsys, "train-toy", "--config", str(config))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert str(config) in payload["message"]


class TestMalformedFlags:
    @pytest.mark.parametrize("argv, fragment", [
        (["loocv", "--classifier", "nope"], "argument --classifier: invalid choice: 'nope'"),
        (["train-toy", "--epochs", "two"], "argument --epochs: invalid int value: 'two'"),
        (["loocv", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        ([], "the following arguments are required: command"),
    ])
    def test_exit_1_with_json_error(self, capsys, argv, fragment):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert fragment in payload["message"]

    @pytest.mark.parametrize("argv", [
        ["synth", "--participants", "1", "--frames", "2"],
        ["train-toy", "--epochs", "1", "--samples", "4"],
        ["loocv", "--classifier", "mlp2"],
        ["analyze-graph", "--cu", "eesp", "--input-hw", "32"],
        ["extract-features"],
        ["ttest"],
        ["ablate"],
    ])
    def test_negative_seed_is_named(self, tmp_path, capsys, argv):
        if argv[0] == "synth":
            argv = argv + ["--out-dir", str(tmp_path / "c")]
        if argv[0] == "loocv":
            argv = argv + ["--manifest", str(make_cohort_dir(tmp_path))]
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == "seed must be a non-negative integer, got -1"
        assert not list(tmp_path.glob("c/*.csv"))

    @pytest.mark.parametrize("command", ["analyze-graph", "train-toy", "extract-features",
                                         "loocv", "ablate", "ttest", "synth"])
    def test_negative_config_seed_is_named(self, tmp_path, capsys, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -1}))
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == "seed must be a non-negative integer, got -1"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["loocv", "--help"])
        assert done.value.code == 0
        out, err = capsys.readouterr()
        assert "--classifier" in out and err == ""


class TestMutatedCohortFiles:
    @pytest.fixture(scope="class")
    def cohort(self, tmp_path_factory):
        manifest = make_cohort_dir(tmp_path_factory.mktemp("mutated"))
        (manifest.parent / "config.json").write_text(json.dumps({"tau": 0.25, "seed": 3}))
        return manifest.parent

    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(["manifest.json", "config.json", "asd_001.csv",
                                   "ctl_000.csv"]),
           command=st.sampled_from(["extract-features", "ttest", "loocv"]),
           mutations=st.lists(MUTATION, min_size=1, max_size=3))
    def test_exit_0_or_one_json_error(self, cohort, target, command, mutations):
        path = cohort / target
        original = path.read_bytes()
        start = 0 if target.endswith(".json") else original.index(b"\n") + 1
        path.write_bytes(mutate(original, start, mutations))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--manifest", str(cohort / "manifest.json"),
                                 "--config", str(cohort / "config.json")])
        finally:
            path.write_bytes(original)
        if code == 0:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["command"] == command
        else:
            assert code == 1 and out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert {"error", "message"} <= set(json.loads(lines[0]))

"""CLI contract: reproducible reports, config merging, error JSON on stderr."""

import json

import pytest

from affectpipe import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_cohort_dir(tmp_path, **kwargs):
    code = cli.main(["synth", "--out-dir", str(tmp_path / "cohort"),
                     "--participants", "4", "--frames", "30",
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

    def test_loocv_byte_identical(self, tmp_path):
        manifest = make_cohort_dir(tmp_path, valence_effect=1.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["loocv", "--manifest", str(manifest), "--seed", "3"]
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSynthCommand:
    def test_writes_cohort(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--out-dir", str(tmp_path / "c"),
                           "--participants", "2", "--frames", "10")
        assert code == 0
        report = json.loads(out)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert len(manifest) == 4
        assert report["spec"]["participants_per_group"] == 2


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

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"participants": "ten"}))
        code, out, err = run(capsys, "synth", "--out-dir", str(tmp_path / "c"),
                             "--config", str(config))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "participants" in payload["message"]

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

"""End-to-end tests for the command-line harness.

Each subcommand runs in a temp directory and is checked for exit code,
expected artifacts, and stdout shape. Determinism contracts (same seed, same
bytes; TEATPOSE_SEED precedence) are asserted on the emitted files.
"""

from __future__ import annotations

import json
import os

import pytest

from teatpose.cli import _int_list, build_parser, main
from teatpose.pipeline import read_events_jsonl
from teatpose.reports import read_csv
from teatpose.scene import default_scene


class TestParser:

    def test_subcommands_present(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) == {"repeatability", "camera-curve", "rate", "run"}

    def test_repeatability_defaults(self):
        args = build_parser().parse_args(
            ["repeatability", "--out", "somewhere"])
        assert args.cycles == 200
        assert args.noise == "orbbec"
        assert args.method == "normals"
        assert args.seed is None

    def test_missing_required_out_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["repeatability"])

    def test_bad_noise_choice_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["rate", "--noise", "fog", "--out", "x"])

    def test_int_list(self):
        assert _int_list("1,2,5,10") == [1, 2, 5, 10]
        assert _int_list("7") == [7]
        assert _int_list("1, 2,") == [1, 2]
        assert _int_list("") == []


class TestRepeatabilityCommand:

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["repeatability", "--cycles", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert (out / "repeatability_raw.csv").exists()
        assert (out / "repeatability_summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "cycles=2" in stdout
        assert "T1:" in stdout

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEATPOSE_SEED", "5")
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["repeatability", "--cycles", "2", "--seed", "1",
                     "--out", str(dir_a)]) == 0
        assert main(["repeatability", "--cycles", "2", "--seed", "2",
                     "--out", str(dir_b)]) == 0
        raw_a = (dir_a / "repeatability_raw.csv").read_bytes()
        raw_b = (dir_b / "repeatability_raw.csv").read_bytes()
        assert raw_a == raw_b

    def test_scene_file_used(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        default_scene(seed=4, n_teats=2).save_json(scene_path)
        out = tmp_path / "rep"
        code = main(["repeatability", "--scene", str(scene_path),
                     "--cycles", "1", "--noise", "none", "--out", str(out)])
        assert code == 0
        _, raw = read_csv(out / "repeatability_raw.csv")
        assert sorted({r[1] for r in raw}) == ["T1", "T2"]

    def test_missing_scene_file_fails(self, tmp_path, capsys):
        code = main(["repeatability", "--scene", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "rep")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCameraCurveCommand:

    def test_end_to_end_with_presets_file(self, tmp_path, capsys):
        presets_path = tmp_path / "presets.json"
        presets_path.write_text(json.dumps(
            {"flat": {"a_mm": 0.5, "b_mm_per_m2": 0.0}}))
        out = tmp_path / "curve"
        code = main(["camera-curve", "--presets", str(presets_path),
                     "--distances", "200,400,600", "--conditions", "2",
                     "--out", str(out)])
        assert code == 0
        assert (out / "camera_curve_summary.csv").exists()
        assert (out / "camera_curve.svg").exists()
        assert "flat:" in capsys.readouterr().out

    def test_too_few_distances_fails(self, tmp_path, capsys):
        code = main(["camera-curve", "--distances", "200,400",
                     "--conditions", "2", "--out", str(tmp_path / "c")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRateCommand:

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "rate"
        code = main(["rate", "--strides", "1,5", "--repeats", "1",
                     "--noise", "none", "--out", str(out)])
        assert code == 0
        assert (out / "rate_summary.csv").exists()
        stdout = capsys.readouterr().out
        assert "stride=1:" in stdout
        assert "stride=5:" in stdout


class TestRunCommand:

    def test_end_to_end(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        summary = tmp_path / "summary.csv"
        code = main(["run", "--frames", "15", "--seed", "2",
                     "--events", str(events), "--summary", str(summary)])
        assert code == 0
        log = read_events_jsonl(events)
        assert {e["event"] for e in log} >= {"frame_accepted", "pose", "gate"}
        columns, rows = read_csv(summary)
        assert "sim_fps" in columns
        assert len(rows) == 1
        stdout = capsys.readouterr().out
        assert "sim_fps=" in stdout

    def test_event_log_reruns_byte_identical(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        assert main(["run", "--frames", "12", "--seed", "9",
                     "--events", str(path_a)]) == 0
        assert main(["run", "--frames", "12", "--seed", "9",
                     "--events", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_config_file_respected(self, tmp_path):
        from teatpose.pipeline import ConsistencyGate, PipelineConfig

        config_path = tmp_path / "config.json"
        PipelineConfig(gate=ConsistencyGate(window=2)).save_json(config_path)
        events = tmp_path / "events.jsonl"
        code = main(["run", "--frames", "20", "--noise", "none", "--seed",
                     "0", "--config", str(config_path),
                     "--events", str(events)])
        assert code == 0
        log = read_events_jsonl(events)
        gated = [e for e in log
                 if e["event"] == "gate" and e["decision"] == "consistent"]
        # window of 2 gates on the second accepted frame
        assert gated
        assert min(e["t_us"] for e in gated) == 450_000

    @pytest.mark.parametrize("flag, edit, key", [
        ("--config", lambda d: dict(d, association_radius_mm=5.0),
         "association_radius_mm"),
        ("--config", lambda d: dict(d, latency={"netwrk_ms": 10.0}),
         "netwrk_ms"),
        ("--scene", lambda d: dict(d, teats=[dict(t, radius=10.0)
                                             for t in d["teats"]]),
         "radius"),
        ("--scene", lambda d: {k: v for k, v in d.items() if k != "teats"},
         "teats"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"], focal=500.0)),
         "focal"),
    ], ids=["config_unknown_key", "config_unknown_nested_key",
            "teat_unknown_key", "scene_missing_teats", "camera_unknown_key"])
    def test_bad_json_key_rejected(self, tmp_path, capsys, flag, edit, key):
        from teatpose.pipeline import PipelineConfig

        base = (PipelineConfig().to_dict() if flag == "--config"
                else default_scene().to_dict())
        path = tmp_path / "input.json"
        path.write_text(json.dumps(edit(base)))
        code = main(["run", "--frames", "2", flag, str(path),
                     "--events", str(tmp_path / "events.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(key) in err

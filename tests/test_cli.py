"""End-to-end tests for the command-line harness.

Each subcommand runs in a temp directory and is checked for exit code,
expected artifacts, and stdout shape. Determinism contracts (same seed, same
bytes; how a scene file, --noise and --seed combine) are asserted on the
emitted files.
"""

from __future__ import annotations

import json

import pytest

from teatpose.cli import _int_list, build_parser, main
from teatpose.experiments import run_repeatability
from teatpose.reports import read_csv
from teatpose.scene import NoiseModel, default_scene


def _read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


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
        assert args.noise is None
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

    def _raw_bytes(self, tmp_path, tag, *args):
        out = tmp_path / tag
        assert main(["repeatability", "--cycles", "2", *args,
                     "--out", str(out)]) == 0
        return (out / "repeatability_raw.csv").read_bytes()

    def _scene_file(self, tmp_path, tag, scene):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(scene.to_dict()))
        return str(path)

    def test_seed_flag_overrides_scene_file_seed(self, tmp_path):
        seed_4 = self._scene_file(tmp_path, "s4", default_scene(seed=4))
        seed_1 = self._scene_file(tmp_path, "s1", default_scene(seed=1))
        overridden = self._raw_bytes(tmp_path, "a", "--scene", seed_4,
                                     "--seed", "1")
        assert overridden == self._raw_bytes(tmp_path, "b", "--scene", seed_1)
        assert overridden != self._raw_bytes(tmp_path, "c", "--scene", seed_4)

    def test_scene_file_keeps_its_noise_without_noise_flag(self, tmp_path):
        scene = default_scene(seed=4, noise=NoiseModel(a_mm=7.0,
                                                       dropout_rate=0.5))
        path = self._scene_file(tmp_path, "noisy", scene)
        run_repeatability(scene, cycles=2, out_dir=tmp_path / "ref")
        expected = (tmp_path / "ref" / "repeatability_raw.csv").read_bytes()
        assert self._raw_bytes(tmp_path, "cli", "--scene", path) == expected

    def test_scene_file_used(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(
            default_scene(seed=4, n_teats=2).to_dict()))
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

    def test_method_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["repeatability", "--method", "pca", "--out", str(tmp_path)])
        assert exc.value.code == 2


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

    def test_presets_file_not_an_object_fails(self, tmp_path, capsys):
        presets_path = tmp_path / "presets.json"
        presets_path.write_text(json.dumps([{"a_mm": 0.5}]))
        code = main(["camera-curve", "--presets", str(presets_path),
                     "--distances", "200,400,600", "--conditions", "2",
                     "--out", str(tmp_path / "curve")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: presets: expected a JSON object")

    def test_lost_target_names_the_preset(self, tmp_path, capsys):
        presets_path = tmp_path / "presets.json"
        presets_path.write_text(json.dumps(
            {"drop": {"a_mm": 0.2, "dropout_rate": 0.9999}}))
        code = main(["camera-curve", "--presets", str(presets_path),
                     "--distances", "200,400,600", "--conditions", "1",
                     "--out", str(tmp_path / "curve")])
        assert code == 1
        assert ("error: preset 'drop': 0 of 3 distances kept a measurable "
                "target; the curve needs 3\n") in capsys.readouterr().err

    def test_too_few_distances_fails(self, tmp_path, capsys):
        code = main(["camera-curve", "--distances", "200,400",
                     "--conditions", "2", "--out", str(tmp_path / "c")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRateCommand:

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "rate"
        code = main(["rate", "--repeats", "2", "--noise", "none",
                     "--out", str(out)])
        assert code == 0
        for name in ("rate_raw.csv", "rate_summary.csv", "rate.svg"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out.splitlines()
        assert len(stdout) == 1 and stdout[0].startswith("repeats=2 full=")

    def test_strides_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--strides", "1,10", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestRunCommand:

    def test_end_to_end(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        summary = tmp_path / "summary.csv"
        code = main(["run", "--frames", "15", "--seed", "2",
                     "--events", str(events), "--summary", str(summary)])
        assert code == 0
        log = _read_events(events)
        assert {e["event"] for e in log} >= {"frame_accepted", "pose", "gate"}
        columns, rows = read_csv(summary)
        assert "sim_fps" in columns
        assert len(rows) == 1
        stdout = capsys.readouterr().out
        assert "sim_fps=" in stdout

    def test_negative_seed_named(self, tmp_path, capsys):
        code = main(["run", "--frames", "2", "--seed", "-1",
                     "--events", str(tmp_path / "e.jsonl")])
        assert code == 1
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

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
        config_path.write_text(json.dumps(
            PipelineConfig(gate=ConsistencyGate(window=2)).to_dict()))
        events = tmp_path / "events.jsonl"
        code = main(["run", "--frames", "20", "--noise", "none", "--seed",
                     "0", "--config", str(config_path),
                     "--events", str(events)])
        assert code == 0
        log = _read_events(events)
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
        ("--scene", lambda d: dict(d, teats=5), "teats"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"], focal=500.0)),
         "focal"),
        ("--config", lambda d: dict(d, gate=dict(d["gate"], window="5")),
         "window"),
        ("--config", lambda d: dict(d, gate=dict(d["gate"], window=5.0)),
         "window"),
        ("--config", lambda d: dict(d, gate=dict(d["gate"], window=True)),
         "window"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"], fx="570")),
         "fx"),
        ("--scene", lambda d: dict(d, teats=[dict(t, length_mm="50")
                                             for t in d["teats"]]),
         "length_mm"),
        ("--scene", lambda d: dict(d, seed=1.5), "seed"),
        ("--scene", lambda d: dict(d, teats=[dict(t, base_mm=[1, 2])
                                             for t in d["teats"]]),
         "base_mm"),
        ("--scene", lambda d: dict(d, teats=[dict(t, axis="abc")
                                             for t in d["teats"]]),
         "axis"),
        ("--scene", lambda d: dict(d, udder=dict(d["udder"],
                                                 center_mm=[1, 2])),
         "center_mm"),
        ("--scene", lambda d: dict(d, udder=dict(d["udder"],
                                                 semi_axes_mm=[True] * 3)),
         "semi_axes_mm"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"], extrinsic=dict(
            d["camera"]["extrinsic"], rotation_rowmajor=[1.0] * 8))),
         "rotation_rowmajor"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"], extrinsic=dict(
            d["camera"]["extrinsic"], translation_mm=["0", "1", "2"]))),
         "translation_mm"),
        ("--config", lambda d: dict(d, latency=dict(d["latency"],
                                                    inference_ms=float("inf"))),
         "inference_ms"),
        ("--scene", lambda d: dict(d, camera=dict(d["camera"],
                                                  fx=float("nan"))),
         "fx"),
        ("--scene", lambda d: dict(d, teats=[
            dict(t, base_mm=[0.0, float("nan"), 0.0]) for t in d["teats"]]),
         "base_mm"),
        ("--config", lambda d: dict(d, gate=dict(d["gate"],
                                                 pos_tol_mm=float("nan"))),
         "pos_tol_mm"),
    ], ids=["config_unknown_key", "config_unknown_nested_key",
            "teat_unknown_key", "scene_missing_teats", "scene_teats_not_list",
            "camera_unknown_key", "config_str_for_int", "config_float_for_int",
            "config_bool_for_int", "camera_str_for_float",
            "teat_str_for_float", "scene_float_for_int",
            "teat_short_vector", "teat_str_for_vector", "udder_short_vector",
            "udder_bools_for_vector", "camera_short_rotation",
            "camera_strs_for_translation", "config_infinite_float",
            "camera_nan_float", "teat_nan_in_vector", "config_nan_float"])
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

"""Command-line experiment harness.

Subcommands cover the evaluation suite: repeatability statistics, camera
distance-error curves, geometry-path rate benchmarks, and a full pipeline
run with an event log.

The scene commands (repeatability, rate, run) share one way to build their
scene: `--scene` loads a scene file (default: the built-in rig with
Orbbec-like noise), `--noise` swaps in a noise preset, and `--seed`
replaces the scene's seed. The seed is the only seed a scene command reads.
camera-curve has no scene; its `--seed` seeds the sweep directly.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .errors import InvalidInputError, TeatPoseError
from .experiments import (DEFAULT_DISTANCES_MM, run_camera_curve,
                          run_rate_bench, run_repeatability)
from .pipeline import PipelineConfig, run_pipeline, static_scene_stream, \
    write_events_jsonl
from .reports import write_csv
from .scene import NoiseModel, SceneSpec, default_scene, orbbec_like_noise

logger = logging.getLogger(__name__)

_NOISE_PRESETS = {
    "none": NoiseModel,
    "orbbec": orbbec_like_noise,
}


def _read_json(path: str):
    with open(path) as f:
        return json.load(f)


def _load_scene(args) -> SceneSpec:
    scene = (SceneSpec.from_dict(_read_json(args.scene)) if args.scene
             else default_scene(noise=orbbec_like_noise()))
    if args.noise is not None:
        scene = replace(scene, noise=_NOISE_PRESETS[args.noise]())
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
    return scene


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teatpose",
        description="Teat pose estimation experiments on synthetic scenes.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    scene_args = argparse.ArgumentParser(add_help=False)
    scene_args.add_argument(
        "--scene", help="scene JSON (default: built-in 4-teat rig with "
                        "orbbec noise)")
    scene_args.add_argument(
        "--noise", choices=sorted(_NOISE_PRESETS),
        help="noise preset replacing the scene's own noise")
    scene_args.add_argument("--seed", type=int,
                            help="replaces the scene's seed")

    p = sub.add_parser("repeatability", parents=[scene_args],
                       help="repeated estimation cycles vs ground truth")
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("camera-curve",
                       help="plane-target distance error curves")
    p.add_argument("--presets",
                   help="JSON {name: noise-model fields}; default: "
                        "none + orbbec")
    p.add_argument("--distances",
                   default=",".join(str(d) for d in DEFAULT_DISTANCES_MM),
                   help="comma-separated mm")
    p.add_argument("--conditions", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rate", parents=[scene_args],
                       help="geometry path wall-time benchmark")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", parents=[scene_args],
                       help="message-driven pipeline over a scene")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--frames", type=int, default=150,
                   help="camera frames to emit")
    p.add_argument("--events", required=True, help="event log JSONL path")
    p.add_argument("--summary", help="summary CSV path")
    return parser


def _cmd_repeatability(args) -> int:
    scene = _load_scene(args)
    report = run_repeatability(scene, args.cycles, args.out)
    print(f"cycles={report['cycles']} samples={report['samples']} "
          f"mean={report['mean_mm']:.3f}mm std={report['std_mm']:.3f}mm "
          f"success={report['success_rate']:.3f} "
          f"({report['elapsed_s']:.1f}s)")
    for teat_id, row in sorted(report["per_teat"].items()):
        print(f"  {teat_id}: mean={row['mean_mm']:.3f}mm "
              f"std={row['std_mm']:.3f}mm success={row['success_rate']:.3f}")
    return 0


def _cmd_camera_curve(args) -> int:
    if args.presets:
        data = _read_json(args.presets)
        if not isinstance(data, dict):
            raise InvalidInputError(
                f"presets: expected a JSON object, got {type(data).__name__}")
        presets = {name: NoiseModel.from_dict(fields)
                   for name, fields in data.items()}
    else:
        presets = {name: make() for name, make in _NOISE_PRESETS.items()}
    curves = run_camera_curve(presets, args.out,
                              distances_mm=_int_list(args.distances),
                              conditions=args.conditions,
                              master_seed=args.seed)
    for name, c in curves.items():
        print(f"{name}: a={c['a_mm']:.4f}mm b={c['b_mm_per_m2']:.4f}mm/m^2 "
              f"max@1m={c['max_error_at_1m_mm']:.4f}mm")
    return 0


def _cmd_rate(args) -> int:
    scene = _load_scene(args)
    row = run_rate_bench(scene, args.out, repeats=args.repeats)
    print(f"repeats={row['repeats']} full={row['mean_full_ms']:.2f}ms "
          f"p95={row['p95_full_ms']:.2f}ms "
          f"extract={row['mean_extract_ms']:.2f}ms")
    return 0


def _cmd_run(args) -> int:
    scene = _load_scene(args)
    config = (PipelineConfig.from_dict(_read_json(args.config))
              if args.config else PipelineConfig())
    result = run_pipeline(static_scene_stream(scene, args.frames), config)
    write_events_jsonl(result.events, args.events)
    summary = result.summary
    if args.summary:
        columns = sorted(k for k in summary if k != "tracks")
        row = [summary[k] if summary[k] is not None else float("nan")
               for k in columns]
        write_csv(args.summary, columns, [row])
    fps = summary["sim_fps"]
    print(f"frames={summary['frames_emitted']} "
          f"accepted={summary['frames_accepted']} "
          f"dropped={summary['frames_dropped']} poses={summary['poses']} "
          f"sim_fps={fps if fps is None else f'{fps:.3f}'} "
          f"tracks={','.join(summary['tracks'])}")
    if summary["all_gated_us"] is not None:
        print(f"all tracks gated at {summary['all_gated_us'] / 1e6:.3f}s "
              f"simulated")
    return 0


_COMMANDS = {
    "repeatability": _cmd_repeatability,
    "camera-curve": _cmd_camera_curve,
    "rate": _cmd_rate,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (TeatPoseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

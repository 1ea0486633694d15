"""Experiment drivers: repeatability, camera error curves, rate benchmarks.

Each driver emits a raw sample table plus a summary table and charts. The
summary is re-derived from the emitted raw table before it is written, so
every reported statistic is reproducible from the artifacts alone.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import replace

import numpy as np
from scipy.spatial.transform import Rotation

from .camera import CameraModel
from .errors import (CurveFitError, InsufficientPointsError,
                     InvalidInputError, _check_count, _is_int)
from .mask import extract_masked_points, project_cells
from .pipeline import estimate_frame
from .pose import PoseConfig
from .reports import read_csv, svg_histogram, svg_lines, write_csv
from .scene import (MAX_CAMERA_DISTANCE_MM, NoiseModel, SceneSpec,
                    fit_error_curve, plane_target_measure, render,
                    render_plane_target)

logger = logging.getLogger(__name__)

SUCCESS_THRESHOLD_MM = 5.0


def _perturbed_camera(camera: CameraModel, rng, tilt_deg: float,
                      shift_mm: float) -> CameraModel:
    """Random viewpoint change standing in for varying arm start positions."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(-tilt_deg, tilt_deg))
    rot = Rotation.from_rotvec(axis * angle).as_matrix() @ camera.rotation
    shift = rng.uniform(-shift_mm, shift_mm, size=3)
    return replace(camera, rotation=rot,
                   translation_mm=camera.translation_mm + shift)


def _angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip(a @ b, -1.0, 1.0))))


def run_repeatability(scene: SceneSpec, cycles: int, out_dir,
                      tilt_deg: float = 2.0, shift_mm: float = 15.0) -> dict:
    """Repeated estimation cycles with fresh noise and viewpoint jitter.

    One raw row per (cycle, teat): tip and axis error against ground truth,
    or ok=0 with the failure reason. Success means a tip error under 5 mm;
    teats that produced no estimate count as failures in the success rate.
    Cycle k draws its viewpoint jitter and render seed from (scene.seed, k).

    Returns:
        Summary dict: per-teat stats, overall success rate, elapsed seconds.
    """
    _check_count("cycles", cycles)
    for name, value, top in (("tilt_deg", tilt_deg, 180.0),
                             ("shift_mm", shift_mm, MAX_CAMERA_DISTANCE_MM)):
        if not 0 <= value <= top:
            raise InvalidInputError(
                f"{name} must be in [0, {top:g}], got {value!r}")
    config = PoseConfig()
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()

    columns = ["cycle", "teat_id", "ok", "tip_error_mm", "axis_error_deg",
               "n_points", "note"]
    rows = []
    for cycle in range(cycles):
        rng = np.random.default_rng(
            np.random.SeedSequence((scene.seed, cycle)))
        cam = _perturbed_camera(scene.camera, rng, tilt_deg, shift_mm)
        frame_scene = replace(scene, camera=cam,
                              seed=int(rng.integers(2 ** 63)))
        cloud, masks, gt = render(frame_scene)
        poses, failures = estimate_frame(cloud, masks, cam, config)
        seen = set()
        for pose in poses:
            # Mask ids are the ground-truth ids: a pose is scored against
            # its own teat, never against whichever tip lies nearest.
            j = gt.teat_ids.index(pose.teat_id)
            seen.add(pose.teat_id)
            rows.append([cycle, pose.teat_id, 1,
                         float(np.linalg.norm(gt.tips_mm[j] - pose.tip_mm)),
                         _angle_deg(pose.axis, gt.axes[j]), pose.n_points, ""])
        for teat_id, err in failures:
            seen.add(teat_id)
            rows.append([cycle, teat_id, 0, float("nan"), float("nan"), 0, err])
        for teat_id in gt.teat_ids:
            if teat_id not in seen:
                rows.append([cycle, teat_id, 0, float("nan"), float("nan"),
                             0, "no_mask"])

    raw_path = os.path.join(out_dir, "repeatability_raw.csv")
    write_csv(raw_path, columns, rows)

    # Re-derive all summary statistics from the emitted file.
    _, raw = read_csv(raw_path)
    summary_rows = []
    teat_ids = sorted({r[1] for r in raw})
    for teat_id in teat_ids:
        sel = [r for r in raw if r[1] == teat_id]
        summary_rows.append(_repeatability_row(teat_id, sel, cycles, 1))
        svg_histogram([float(r[3]) for r in sel if r[2] == "1"],
                      os.path.join(out_dir, f"repeatability_{teat_id}.svg"),
                      title=f"Tip error, {teat_id} "
                            f"({summary_rows[-1][2]} samples)",
                      x_label="tip error [mm]")
    overall = _repeatability_row("all", raw, cycles, len(teat_ids))
    summary_rows.append(overall)

    # Sanity check the file-derived stats against the in-memory samples.
    mem_errs = np.array([r[3] for r in rows if r[2] == 1])
    if len(mem_errs) != overall[2] or (
            overall[2] and abs(mem_errs.mean() - overall[3]) > 1e-4):
        raise AssertionError("summary does not match the emitted raw table")

    write_csv(os.path.join(out_dir, "repeatability_summary.csv"),
              ["teat_id", "cycles", "samples", "mean_mm", "std_mm",
               "mean_axis_deg", "success_rate"], summary_rows)
    return {
        "cycles": cycles,
        "samples": overall[2],
        "mean_mm": overall[3],
        "std_mm": overall[4],
        "success_rate": overall[6],
        "per_teat": {row[0]: {"mean_mm": row[3], "std_mm": row[4],
                              "success_rate": row[6]}
                     for row in summary_rows[:-1]},
        "elapsed_s": time.perf_counter() - t0,
    }


def _repeatability_row(label: str, raw, cycles: int, n_teats: int) -> list:
    """Summary row over raw table rows covering `n_teats` teats per cycle.

    Failed estimates count against the success rate but add no error sample.
    """
    ok = [r for r in raw if r[2] == "1"]
    errs = np.array([float(r[3]) for r in ok])
    axis = np.array([float(r[4]) for r in ok])
    n = len(ok)
    successes = int(np.count_nonzero(errs < SUCCESS_THRESHOLD_MM))
    return [label, cycles, n,
            float(errs.mean()) if n else float("nan"),
            float(errs.std(ddof=1)) if n > 1 else 0.0,
            float(axis.mean()) if n else float("nan"),
            successes / (cycles * n_teats)]


DEFAULT_DISTANCES_MM = tuple(range(200, 1401, 200))


def run_camera_curve(presets: dict[str, NoiseModel], out_dir,
                     distances_mm=DEFAULT_DISTANCES_MM, conditions: int = 5,
                     master_seed: int = 0,
                     camera: CameraModel | None = None) -> dict:
    """Plane-target accuracy sweep and quadratic error-curve fit per preset.

    Each condition draws one systematic depth offset per distance (zero-mean,
    sigma from the preset); per-point noise averages out over the target, so
    the systematic term is what the curve fit sees. The curve is fitted to
    the per-distance spread of the errors across conditions: that spread
    estimates sigma(d) directly, whereas the mean absolute error would
    underestimate it by sqrt(2/pi).
    """
    distances = [float(d) for d in distances_mm]
    if len(set(distances)) < 3:
        raise InvalidInputError("need >= 3 distinct distances")
    _check_count("conditions", conditions)
    if not (_is_int(master_seed) and master_seed >= 0):
        raise InvalidInputError(
            f"master_seed must be an integer >= 0, got {master_seed!r}")
    camera = camera or CameraModel(fx=570.0, fy=570.0, cx=320.0, cy=240.0)
    os.makedirs(out_dir, exist_ok=True)

    columns = ["preset", "condition", "distance_mm", "measured_mm", "error_mm"]
    rows = []
    for p_idx, (name, noise) in enumerate(presets.items()):
        rng = np.random.default_rng(
            np.random.SeedSequence((master_seed, p_idx)))
        for cond in range(conditions):
            for d in distances:
                offset = float(rng.standard_normal()) * float(noise.sigma_mm(d))
                seed = int(rng.integers(2 ** 63))
                cloud = render_plane_target(d, camera, noise, seed=seed,
                                            systematic_offset_mm=offset)
                try:
                    measured = plane_target_measure(cloud)
                except InsufficientPointsError:
                    logger.warning("preset %s: too few points at %.0f mm",
                                   name, d)
                    continue
                rows.append([name, cond, d, measured, measured - d])
    # Checked before any file is written, so a failed run leaves the
    # output directory as it found it.
    for name in presets:
        kept = len({r[2] for r in rows if r[0] == name})
        if kept < 3:
            raise CurveFitError(
                f"preset {name!r}: {kept} of {len(set(distances))} "
                "distances kept a measurable target; the curve needs 3")

    raw_path = os.path.join(out_dir, "camera_curve_raw.csv")
    write_csv(raw_path, columns, rows)

    _, raw = read_csv(raw_path)
    summary_columns = ["preset", "samples", "a_mm", "b_mm_per_m2",
                       "max_error_at_1m_mm"]
    summary_rows = []
    curves = {}
    chart = {}
    for name in presets:
        samples = [(float(r[2]), float(r[4])) for r in raw if r[0] == name]
        by_d: dict[float, list] = {}
        for d, e in samples:
            by_d.setdefault(d, []).append(e)
        ds = sorted(by_d)
        spread = [float(np.std(by_d[d], ddof=1)) if len(by_d[d]) > 1
                  else abs(by_d[d][0]) for d in ds]
        curve = fit_error_curve(list(zip(ds, spread)))
        curves[name] = curve
        summary_rows.append([name, len(samples), curve.a_mm,
                             curve.b_mm_per_m2, curve.max_error_at_1m_mm])
        chart[name] = (ds, spread)
        chart[f"fit {name}"] = (
            ds, [curve.a_mm + curve.b_mm_per_m2 * (d / 1000.0) ** 2
                 for d in ds])
    write_csv(os.path.join(out_dir, "camera_curve_summary.csv"),
              summary_columns, summary_rows)
    svg_lines(chart, os.path.join(out_dir, "camera_curve.svg"),
              title="Distance-error spread vs target distance",
              x_label="distance [mm]", y_label="error spread [mm]")
    return {name: {"a_mm": c.a_mm, "b_mm_per_m2": c.b_mm_per_m2,
                   "max_error_at_1m_mm": c.max_error_at_1m_mm}
            for name, c in curves.items()}


def run_rate_bench(scene: SceneSpec, out_dir, repeats: int = 20) -> dict:
    """Wall-clock benchmark of the geometry path on one rendered frame.

    Each repeat times mask extraction alone as `estimate_frame` runs it (one
    projection of the cloud, then one lookup per mask), then the full
    `estimate_frame`. Wall times are the payload here, so this is the one report that is not
    byte-reproducible across runs.

    Returns:
        The summary row as a dict: repeats and the mean and p95 times.
    """
    _check_count("repeats", repeats)
    os.makedirs(out_dir, exist_ok=True)
    cloud, masks, _ = render(scene)
    if not masks:
        raise InvalidInputError("scene renders no masks to benchmark")

    config = PoseConfig()
    rows = []
    for rep in range(repeats):
        t0 = time.perf_counter()
        cells = project_cells(cloud, scene.camera, masks)
        for m in masks:
            extract_masked_points(cloud, m, scene.camera, cells=cells)
        t1 = time.perf_counter()
        estimate_frame(cloud, masks, scene.camera, config)
        t2 = time.perf_counter()
        rows.append([rep, (t1 - t0) * 1e3, (t2 - t1) * 1e3])

    raw_path = os.path.join(out_dir, "rate_raw.csv")
    write_csv(raw_path, ["repeat", "extract_ms", "full_ms"], rows)

    _, raw = read_csv(raw_path)
    extract = np.array([float(r[1]) for r in raw])
    full = np.array([float(r[2]) for r in raw])
    summary = {"repeats": len(raw),
               "mean_extract_ms": float(extract.mean()),
               "mean_full_ms": float(full.mean()),
               "p95_full_ms": float(np.percentile(full, 95))}
    write_csv(os.path.join(out_dir, "rate_summary.csv"), list(summary),
              [list(summary.values())])
    svg_histogram(full.tolist(), os.path.join(out_dir, "rate.svg"),
                  title=f"Geometry path wall time ({len(full)} repeats)",
                  x_label="full path [ms]")
    return summary

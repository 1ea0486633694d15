"""End-to-end release checks for the estimation stack.

One test per release criterion. Each prints a single PASS/FAIL line with the
measured figures (run `pytest -s tests/test_acceptance.py` to read the whole
gate at a glance) and then asserts. The heavyweight repeated-render runs live
here rather than in the per-module suites, so those stay fast.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from _oracles import (as_sets, axis_angle_deg, oracle_components,
                      oracle_downsample, random_teat, sample_teat_surface,
                      teat_rings)
from teatpose.axes import pca_axis
from teatpose.camera import CameraModel
from teatpose.cloud import PointCloud
from teatpose.cluster import euclidean_cluster
from teatpose.experiments import (run_camera_curve, run_rate_bench,
                                  run_repeatability)
from teatpose.mask import extract_masked_points, project_cells
from teatpose.pipeline import (run_pipeline, static_scene_stream,
                               write_events_jsonl)
from teatpose.pose import estimate_teat_pose
from teatpose.reports import read_csv
from teatpose.scene import (NoiseModel, default_scene, orbbec_like_noise,
                            render)
from teatpose.voxel import voxel_downsample


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _brute_force_inside(points, contour, camera):
    """Membership oracle: edge-at-a-time crossing count over every point.

    Same half-open rule as the production test but with no bounding-box
    prefilter, no chunking, and no contour subsampling.
    """
    z = points[:, 2]
    front = z > 0
    safe_z = np.where(front, z, 1.0)
    u = camera.fx * points[:, 0] / safe_z + camera.cx
    v = camera.fy * points[:, 1] / safe_z + camera.cy
    crossings = np.zeros(len(points), dtype=np.int64)
    n = len(contour)
    for e in range(n):
        x1, y1 = float(contour[e, 0]), float(contour[e, 1])
        x2, y2 = float(contour[(e + 1) % n, 0]), float(contour[(e + 1) % n, 1])
        if y1 == y2:
            continue
        spans = (y1 > v) != (y2 > v)
        xint = x1 + (v - y1) * (x2 - x1) / (y2 - y1)
        crossings += (spans & (u < xint)).astype(np.int64)
    return front & (crossings % 2 == 1)


def test_accuracy_on_default_noisy_scene(tmp_path):
    scene = default_scene(seed=0, noise=orbbec_like_noise())
    t0 = time.perf_counter()
    rep = run_repeatability(scene, cycles=200, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    ok = rep["success_rate"] >= 0.90 and elapsed < 60.0
    _verdict("accuracy", ok,
             f"tip error < 5 mm in {rep['success_rate']:.1%} of cycles "
             f"(need >= 90%), {elapsed:.0f}s (budget 60s)")


def test_repeatability_long_run(tmp_path):
    scene = default_scene(seed=0, noise=orbbec_like_noise())
    t0 = time.perf_counter()
    rep = run_repeatability(scene, cycles=789, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    worst_std = max(t["std_mm"] for t in rep["per_teat"].values())
    worst_mean = max(t["mean_mm"] for t in rep["per_teat"].values())
    ok = worst_std <= 2.0 and worst_mean <= 3.0 and elapsed < 300.0
    _verdict("repeatability", ok,
             f"worst per-teat std {worst_std:.2f} mm (<= 2), "
             f"mean {worst_mean:.2f} mm (<= 3) over 789 cycles, "
             f"{elapsed:.0f}s (budget 300s)")


def test_axis_estimators_on_randomized_poses():
    # pca_axis, the capsule fit's axis seed, against the true axis.
    rng = np.random.default_rng(11)
    w_exact = w_noisy = 0.0
    for _ in range(100):
        teat = random_teat(rng)

        exact = PointCloud(teat_rings(teat, azimuths=64))
        w_exact = max(w_exact, axis_angle_deg(pca_axis(exact), teat.axis))

        noisy = sample_teat_surface(teat, 20000, rng, noise_mm=2.0)
        down = voxel_downsample(PointCloud(noisy), 5.0)
        w_noisy = max(w_noisy, axis_angle_deg(pca_axis(down), teat.axis))
    ok = w_exact <= 0.5 and w_noisy <= 5.0
    _verdict("axis-accuracy", ok,
             f"pca axis worst over 100 poses: noiseless rings "
             f"{w_exact:.3f} deg (<= 0.5); 2 mm noise, 5 mm leaf "
             f"{w_noisy:.2f} deg (<= 5)")


def test_pose_fit_on_randomized_poses():
    # The axis gate's 100 poses, estimated end to end by estimate_teat_pose
    # from a camera 500 mm off each tip, as tests/test_pose.py places it;
    # the noisy clouds are voxelized in the camera frame, as estimate_frame
    # does.
    rng = np.random.default_rng(11)
    exact, noisy = [], []
    for _ in range(100):
        teat = random_teat(rng)
        camera = CameraModel.look_at(teat.tip_mm + [0.0, -500.0, -80.0],
                                     teat.tip_mm)
        rings = teat_rings(teat, azimuths=64)
        dense = sample_teat_surface(teat, 20000, rng, noise_mm=2.0)
        for errors, points, leaf in ((exact, rings, None),
                                     (noisy, dense, 5.0)):
            cloud = PointCloud(camera.world_to_camera(points))
            if leaf:
                cloud = voxel_downsample(cloud, leaf)
            pose = estimate_teat_pose(cloud, camera)
            errors.append((axis_angle_deg(pose.axis, teat.axis),
                           np.linalg.norm(pose.tip_mm - teat.tip_mm)))
    exact_axis, exact_tip = np.max(exact, axis=0)
    noisy_axis, noisy_tip = np.max(noisy, axis=0)
    ok = (exact_axis <= 0.5 and exact_tip <= 0.5 and noisy_axis <= 2.0
          and noisy_tip <= 4.0)
    _verdict("pose-fit-accuracy", ok,
             f"worst over 100 poses: noiseless rings {exact_axis:.3f} deg "
             f"(<= 0.5), tip {exact_tip:.3f} mm (<= 0.5); 2 mm noise, 5 mm "
             f"leaf {noisy_axis:.2f} deg (<= 2), tip {noisy_tip:.2f} mm "
             f"(<= 4)")


def test_kernels_match_brute_force_oracles():
    rng = np.random.default_rng(4)

    # Mask extraction vs the no-prefilter membership oracle.
    n_scenes, n_masks, n_decisions = 50, 0, 0
    extract_ok = True
    cloud = None
    for s in range(n_scenes):
        scene = default_scene(seed=s, noise=orbbec_like_noise(),
                              n_teats=1 + s % 6)
        tips = np.stack([t.tip_mm for t in scene.teats])
        pos = scene.camera.translation_mm + rng.uniform(-40.0, 40.0, 3)
        target = tips.mean(axis=0) + rng.uniform(-20.0, 20.0, 3)
        cam = CameraModel.look_at(pos, target, fx=285.0, fy=285.0,
                                  cx=160.0, cy=120.0, width=320, height=240)
        scene = replace(scene, camera=cam)
        cloud, masks, _ = render(scene)
        # Each mask alone, and every mask from the frame's shared cells as
        # estimate_frame extracts them.
        cells = project_cells(cloud, cam, masks)
        for mask in masks:
            want = cloud.select(
                _brute_force_inside(cloud.points, mask.contour, cam)).points
            for shared in (None, cells):
                got = extract_masked_points(cloud, mask, cam, cells=shared)
                extract_ok &= np.array_equal(got.points, want)
            n_masks += 1
            n_decisions += len(cloud)

    # Voxel downsampling vs the hash-map oracle, bitwise.
    voxel_ok = True
    rendered = render(default_scene(seed=5, noise=orbbec_like_noise()))[0]
    uniform = rng.uniform(0.0, 1000.0, (20000, 3))
    lattice = rng.integers(-40, 40, (3000, 3)).astype(float) * 2.5
    for pts, leaf in ((rendered.points, 5.0), (uniform, 50.0), (lattice, 5.0)):
        got = voxel_downsample(PointCloud(pts), leaf).points
        voxel_ok &= np.array_equal(got, oracle_downsample(pts, leaf))

    # Clustering vs the all-pairs union-find oracle on small clouds.
    cluster_ok = True
    trials = []
    for _ in range(6):
        k = int(rng.integers(2, 6))
        centers = rng.uniform(-120.0, 120.0, (k, 3))
        n = int(rng.integers(200, 1001))
        pts = centers[rng.integers(0, k, n)] + rng.normal(0.0, 6.0, (n, 3))
        trials.append((pts, float(rng.uniform(6.0, 18.0))))
    trials.append((rendered.points[::60], 10.0))
    for pts, tol in trials:
        clusters = euclidean_cluster(PointCloud(pts), tolerance_mm=tol)
        cluster_ok &= as_sets(clusters, pts) == oracle_components(pts, tol)

    ok = extract_ok and voxel_ok and cluster_ok
    _verdict("oracle-equivalence", ok,
             f"extraction exact on {n_decisions:,} point decisions "
             f"({n_masks} masks, {n_scenes} scenes), per mask and from "
             f"shared frame cells: {extract_ok}; "
             f"voxel bitwise on 3 clouds: {voxel_ok}; "
             f"clustering on {len(trials)} clouds: {cluster_ok}")


def test_geometry_rate_budget_and_stride_fidelity(tmp_path):
    # The name predates the removal of the contour stride and is kept
    # because perfbench/README.md cites it; each mask now has one contour,
    # so only the runtime budget is left to gate.
    bench = run_rate_bench(default_scene(seed=0), tmp_path, repeats=20)
    mean_ms = bench["mean_full_ms"]
    _verdict("rate", mean_ms <= 50.0,
             f"geometry path {mean_ms:.1f} ms mean (<= 50)")


def test_pipeline_throughput_and_gate_latency():
    results = []
    for noise in (NoiseModel(), orbbec_like_noise()):
        scene = default_scene(seed=0, noise=noise)
        summary = run_pipeline(static_scene_stream(scene, 40)).summary
        results.append((summary["sim_fps"], summary["all_gated_us"]))
    fps_ok = all(fps == 5.0 for fps, _ in results)
    gate_ok = all(g is not None and g < 10_000_000 for _, g in results)
    worst_gate = max(g for _, g in results if g is not None)
    _verdict("throughput", fps_ok and gate_ok,
             f"simulated rate {results[0][0]}/{results[1][0]} fps "
             f"(need exactly 5.0); all tracks gated by "
             f"{worst_gate / 1e6:.2f}s (< 10 s)")


def test_error_curve_recovery(tmp_path):
    camera = CameraModel(fx=142.5, fy=142.5, cx=80.0, cy=60.0,
                         width=160, height=120)
    truth = NoiseModel(a_mm=1.0, b_mm_per_m2=3.0)
    recovered = []
    for run in range(100):
        fits = run_camera_curve({"probe": truth}, tmp_path / f"mc{run:03d}",
                                conditions=10, master_seed=run, camera=camera)
        recovered.append((fits["probe"]["a_mm"], fits["probe"]["b_mm_per_m2"]))
    a_mm, b_mm = np.asarray(recovered).mean(axis=0)
    rel_a = abs(a_mm - truth.a_mm) / truth.a_mm
    rel_b = abs(b_mm - truth.b_mm_per_m2) / truth.b_mm_per_m2

    zero_dir = tmp_path / "zero"
    run_camera_curve({"zero": NoiseModel()}, zero_dir, conditions=3,
                     master_seed=0, camera=camera)
    _, raw = read_csv(zero_dir / "camera_curve_raw.csv")
    worst_zero = max(abs(float(r[4])) for r in raw)

    ok = rel_a <= 0.15 and rel_b <= 0.15 and worst_zero < 1e-6
    _verdict("error-curve", ok,
             f"recovered a within {rel_a:.1%} and b within {rel_b:.1%} "
             f"of truth (<= 15%) over 100 runs; zero-noise worst error "
             f"{worst_zero:.1e} mm (< 1e-6)")


def test_reruns_byte_identical(tmp_path):
    scene = default_scene(seed=3, noise=orbbec_like_noise())
    logs = []
    for tag in ("a", "b"):
        result = run_pipeline(static_scene_stream(scene, 12))
        path = tmp_path / f"events_{tag}.jsonl"
        write_events_jsonl(result.events, path)
        logs.append(path.read_bytes())
    tables = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep_{tag}"
        run_repeatability(replace(scene, seed=9), cycles=3, out_dir=out)
        tables.append((out / "repeatability_raw.csv").read_bytes()
                      + (out / "repeatability_summary.csv").read_bytes())
    ok = logs[0] == logs[1] and tables[0] == tables[1]
    _verdict("determinism", ok,
             "event logs and result tables byte-identical across reruns"
             if ok else "rerun outputs differ between identical runs")

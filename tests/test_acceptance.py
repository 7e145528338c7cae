"""Acceptance gate: nine structural criteria, one test per criterion, and
each check of `orbitcanon selftest` as a test of its own.

Every tolerance and seed below is pinned; the cloud/image training
configurations come from the committed pilot configuration (seeds chosen
once so that the plain baseline is decisively non-invariant while the
canonicalized twin is exactly invariant).  Runtime-limited criteria carry
explicit wall-clock assertions.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import orbitcanon
from orbitcanon.audit import (
    SCALE_FACTORS,
    TrainConfig,
    evaluate_rotation_grid_3d,
    evaluate_rotation_sweep_2d,
    evaluate_scale_sweep,
    gen_synthetic_clouds,
    gen_synthetic_images,
    train_classifier,
)
from orbitcanon.cli import SELFTEST_CHECKS, SELFTEST_SEED
from orbitcanon.cli import run as cli_run
from orbitcanon.cloud import canonicalize_clouds, canonicalize_similarity
from orbitcanon.formats import write_report
from orbitcanon.groups import CanonResult, equivariant_canon
from orbitcanon.image import (
    GRADIENT_THRESHOLD,
    GrayImage,
    SmoothImageModel,
    canonicalize_images,
    gaussian_blur,
    rotate_image,
)

# Pinned pilot configuration for the cloud classifier criteria (1 and 3).
CLOUD_TRAIN_SEED = 0
CLOUD_TRAIN_PER_CLASS = 40
CLOUD_SUITE_SEED = 1
CLOUD_SUITE_PER_CLASS = 100  # 400 evaluation samples
PLAIN_CFG = TrainConfig(mode="plain", epochs=200, seed=1, weight_decay=3e-3)
CANON_CFG = TrainConfig(mode="plain", epochs=200, seed=1, weight_decay=3e-3,
                        canonicalize="train_and_test")

# Pinned pilot configuration for the image gap criterion (5).
IMAGE_TRAIN_SEED = 3
IMAGE_TEST_SEED = 4
IMAGE_EPOCHS = 120
IMAGE_CFG_SEED = 5


def _wrap_angle(a):
    return a - 2.0 * np.pi * np.floor((a + np.pi) / (2.0 * np.pi))


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


@pytest.fixture(scope="module")
def cloud_train():
    return gen_synthetic_clouds(seed=CLOUD_TRAIN_SEED,
                                n_per_class=CLOUD_TRAIN_PER_CLASS)


@pytest.fixture(scope="module")
def cloud_suite():
    return gen_synthetic_clouds(seed=CLOUD_SUITE_SEED,
                                n_per_class=CLOUD_SUITE_PER_CLASS)


@pytest.fixture(scope="module")
def canon_cloud_model(cloud_train):
    return train_classifier(cloud_train, CANON_CFG)


@pytest.fixture(scope="module")
def plain_cloud_model(cloud_train):
    return train_classifier(cloud_train, PLAIN_CFG)


@pytest.fixture(scope="module")
def image_train_data():
    return gen_synthetic_images(seed=IMAGE_TRAIN_SEED, n_per_class=8)


@pytest.fixture(scope="module")
def image_test_data():
    return gen_synthetic_images(seed=IMAGE_TEST_SEED, n_per_class=4)


def test_criterion_01_exact_3d_invariance(canon_cloud_model, cloud_suite):
    """Train-and-test canonicalization: clean = average = worst with the
    same per-sample flags at every grid point, 400 samples, under 60 s."""
    model = canon_cloud_model
    start = time.monotonic()
    rot_report = evaluate_rotation_grid_3d(model, cloud_suite)
    scale_report = evaluate_scale_sweep(model, cloud_suite)
    feats = np.stack([canonicalize_similarity(x)[0].ravel()
                      for x, _ in cloud_suite.samples])
    clean_flags = model.predict(feats) == cloud_suite.labels()
    elapsed = time.monotonic() - start

    for report in (rot_report, scale_report):
        assert report.n_samples == 400
        # Exact count equality of the three accuracies...
        assert report.clean == report.average == report.worst
        # ...plus all-grid-survivor flags equal to the clean flags.  Since
        # the all-point AND already matches the clean outcome and the mean
        # over grid points matches the clean accuracy, no sample can flip
        # at any individual grid point: the flags are identical pointwise.
        np.testing.assert_array_equal(report.per_sample_worst, clean_flags)
    assert elapsed <= 60.0
    print(f"criterion 1: clean=avg=worst={rot_report.clean:.4f} "
          f"(rot3d and scale), {elapsed:.1f}s")


def test_criterion_02_cloud_invariance_randomized():
    """100 clouds x 100 random similarity transforms: canonical forms agree
    within 1e-8, under 30 s."""
    data = gen_synthetic_clouds(seed=7, n_per_class=25)
    rng = np.random.default_rng(20240823)
    start = time.monotonic()
    worst = 0.0
    for cloud, _ in data.samples:
        base, frame = canonicalize_similarity(cloud)
        assert not frame.degenerate
        for _ in range(100):
            rot = _random_rotation(rng)
            scale = float(10.0 ** rng.uniform(-3.0, 3.0))
            direction = rng.normal(size=3)
            direction /= max(np.linalg.norm(direction), 1e-12)
            shift = direction * rng.uniform(0.0, 10.0)
            moved, _ = canonicalize_similarity(scale * (cloud @ rot) + shift)
            worst = max(worst, float(np.abs(moved - base).max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed <= 30.0
    print(f"criterion 2: max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_plain_model_collapses(plain_cloud_model, cloud_suite):
    """Without canonicalization the pilot-pinned plain model loses at least
    half its clean accuracy under rotation and falls to near-chance under
    the scale sweep (chance + 0.1 with four balanced classes)."""
    model = plain_cloud_model
    rot_report = evaluate_rotation_grid_3d(model, cloud_suite)
    scale_report = evaluate_scale_sweep(model, cloud_suite)
    assert rot_report.worst <= 0.5 * rot_report.clean
    assert scale_report.worst <= 0.25 + 0.1
    print(f"criterion 3: clean={rot_report.clean:.3f} "
          f"rot worst={rot_report.worst:.3f} "
          f"scale worst={scale_report.worst:.3f}")


def test_criterion_04_2d_angle_consistency():
    """On the seeded image suite, the recovered angle tracks content
    rotation within 2 degrees for at least 95% of the 1-degree grid, and
    canonical outputs are angular fixed points to 0.01 rad.  Under 2 min."""
    suite = gen_synthetic_images(seed=2, n_per_class=4)
    betas = np.radians(np.arange(360.0))
    start = time.monotonic()
    first = canonicalize_images(suite.inputs, scheme="bilinear", sigma=1.0)
    assert not first.degenerate.any()
    residuals = []
    for img, alpha0 in zip(suite.inputs, first.element):
        rotated = rotate_image(np.broadcast_to(img, betas.shape + img.shape), betas, "bilinear")
        alpha = canonicalize_images(rotated).element
        residuals.append(_wrap_angle(alpha - alpha0 + betas))
    residuals = np.abs(residuals)
    fraction = float(np.mean(residuals <= math.radians(2.0)))

    strong = first.energy > 10.0 * GRADIENT_THRESHOLD
    again = canonicalize_images(first.canonical[strong]).element
    fixed_point_worst = float(np.abs(again).max(initial=0.0))
    elapsed = time.monotonic() - start

    assert fraction >= 0.95
    assert fixed_point_worst <= 0.01
    assert elapsed <= 120.0
    print(f"criterion 4: {100 * fraction:.1f}% within 2 deg "
          f"(max residual {math.degrees(residuals.max()):.2f} deg), "
          f"fixed point {fixed_point_worst:.4f} rad, {elapsed:.1f}s")


def test_criterion_05_2d_gap_reduction(image_train_data, image_test_data):
    """Test-time canonicalization narrows average-minus-worst for plain and
    random-augmentation training under every resampling scheme."""
    margins = []
    for scheme in ("nearest", "bilinear", "bicubic"):
        for mode in ("plain", "random_augment"):
            gaps = {}
            for canon in ("off", "train_and_test"):
                cfg = TrainConfig(mode=mode, epochs=IMAGE_EPOCHS,
                                  seed=IMAGE_CFG_SEED, scheme=scheme,
                                  canonicalize=canon)
                model = train_classifier(image_train_data, cfg)
                report = evaluate_rotation_sweep_2d(model, image_test_data,
                                                    scheme=scheme)
                gaps[canon] = report.average - report.worst
            assert gaps["train_and_test"] < gaps["off"]
            margins.append((scheme, mode, gaps["off"], gaps["train_and_test"]))
    for scheme, mode, off, canon in margins:
        print(f"criterion 5: {scheme:8s} {mode:14s} "
              f"gap {off:.3f} -> {canon:.3f}")


def test_criterion_06_interpolation_sensitivity(image_train_data,
                                                image_test_data):
    """The three resampling schemes produce genuinely different rasters and
    per-scheme reports the tooling keeps apart."""
    img = image_test_data.samples[0][0]
    rasters = {scheme: rotate_image(img, math.radians(10.0), scheme)
               for scheme in ("nearest", "bilinear", "bicubic")}
    for a, b in itertools.combinations(rasters, 2):
        assert not np.array_equal(rasters[a], rasters[b])

    cfg = TrainConfig(mode="plain", epochs=IMAGE_EPOCHS, seed=IMAGE_CFG_SEED)
    model = train_classifier(image_train_data, cfg)
    reports = {}
    worsts = {}
    for scheme in ("nearest", "bilinear", "bicubic"):
        report = evaluate_rotation_sweep_2d(model, image_test_data,
                                            scheme=scheme)
        assert report.scheme == scheme
        assert 0.0 <= report.worst <= report.average <= 1.0
        reports[scheme] = write_report(report.document())
        worsts[scheme] = report.worst
    for a, b in itertools.combinations(reports, 2):
        assert reports[a] != reports[b]
    print("criterion 6: per-scheme worst = "
          + ", ".join(f"{s}:{w:.3f}" for s, w in worsts.items()))


def test_criterion_07_equivariance_wrappers():
    """Orbit-mapping conjugation is exact for the shift canonicalizer and
    within 1e-8 for the 3D similarity canonicalizer."""
    rng = np.random.default_rng(71)

    # Shift canonicalizer: dyadic values, power-of-two length => exact.
    def shift_canon(v):
        return CanonResult(canonical=v - v.mean(), element=-v.mean())

    unshift = lambda c, y: y - c
    for _ in range(100):
        v = rng.integers(-64, 65, size=8).astype(float) / 16.0
        c = float(rng.integers(-64, 65)) / 16.0
        np.testing.assert_array_equal(
            equivariant_canon(v + c, shift_canon, np.cumsum, unshift),
            equivariant_canon(v, shift_canon, np.cumsum, unshift) + c)

    # 3D similarity canonicalizer: 1e-8 over 100 random rotations.
    shift_inner = lambda pts: pts + np.array([1.0, 0.0, 0.0])
    unframe = lambda frame, y: frame.inverted().transform(y)
    clouds = gen_synthetic_clouds(seed=72, n_per_class=2, n_points=32)
    worst = 0.0
    for cloud, _ in clouds.samples[:5]:
        gx = equivariant_canon(cloud[None], canonicalize_clouds, shift_inner, unframe)[0]
        for _ in range(20):
            rot = _random_rotation(rng)
            lhs = equivariant_canon((cloud @ rot)[None], canonicalize_clouds, shift_inner,
                                    unframe)[0]
            worst = max(worst, float(np.abs(lhs - gx @ rot).max()))
    assert worst <= 1e-8
    print(f"criterion 7: exact shift check passed; "
          f"3D conjugation deviation {worst:.2e}")


def test_criterion_09_gradient_finite_differences():
    """Analytic model gradients match central differences (step 1e-5)
    within 1e-6 at 1000 interior points clear of the cell boundaries."""
    rng = np.random.default_rng(91)
    img = GrayImage(rng.random((16, 16)))
    model = SmoothImageModel(gaussian_blur(img, 1.0))
    step = 1e-5
    n = 16
    pts = []
    while len(pts) < 1000:
        z = rng.uniform(0.15, 0.85, size=2)
        row_f = (1.0 - z[0]) * n - 0.5
        col_f = z[1] * n - 0.5
        ok = True
        for f in (row_f, col_f):
            frac = f - math.floor(f)
            if min(frac, 1.0 - frac) < 4.0 * step * n:
                ok = False
        if ok:
            pts.append(z)
    pts = np.array(pts)
    grad = model.gradient(pts)
    worst = 0.0
    for axis in range(2):
        offset = np.zeros(2)
        offset[axis] = step
        fd = (model.value(pts + offset) - model.value(pts - offset)) / (2 * step)
        worst = max(worst, float(np.abs(grad[:, axis] - fd).max()))
    assert worst <= 1e-6
    print(f"criterion 9: max gradient deviation {worst:.2e}")


def test_criterion_10_byte_identical_runs(tmp_path):
    """Two selftest + train + audit pipelines with identical seeds write
    byte-identical dataset, model, and report files."""
    artifacts = []
    for name in ("one", "two"):
        root = tmp_path / name
        root.mkdir()
        assert cli_run(["selftest"]) == 0
        data = root / "data"
        assert cli_run(["gen-data", "--kind", "clouds", "--seed", "0",
                        "--per-class", "10", "--out", str(data)]) == 0
        model = root / "model.bin"
        assert cli_run(["train", "--data", str(data), "--mode", "plain",
                        "--epochs", "60", "--seed", "1", "--canon", "train",
                        "--weight-decay", "3e-3", "--model", str(model)]) == 0
        report = root / "scale.csv"
        assert cli_run(["audit-scale", "--model", str(model),
                        "--data", str(data), "--out", str(report)]) == 0
        artifacts.append((
            (data / "manifest.csv").read_bytes(),
            sorted(f.read_bytes() for f in data.glob("*.xyz")),
            model.read_bytes(),
            report.read_bytes(),
        ))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    assert artifacts[0][2] == artifacts[1][2]
    assert artifacts[0][3] == artifacts[1][3]
    print("criterion 10: model, report and dataset bytes identical")


# The kernels behind a file's bits: OpenBLAS's core moves gemm and eigh, and
# numpy's X86_V4 dispatch moves exp, log and arctan2.  Model files differ
# between them; reports, as far as measured, do not.
KERNEL_VARIANTS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-without-x86-v4": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def _why_variant_does_nothing(name):
    """Why the variant would run the default kernels here, or None if it would not."""
    if name == "openblas-haswell":
        probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
        core = re.search(r"Core: (\S+)", probe.stdout + probe.stderr)
        if core is None:
            return "numpy's BLAS names no OpenBLAS core"
        return "OpenBLAS already runs its Haswell core" if core[1] == "Haswell" else None
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        return "numpy 1.x names its CPU features otherwise"
    from numpy._core._multiarray_umath import __cpu_features__
    return None if __cpu_features__.get("AVX512_SKX") else "the CPU has no AVX512_SKX"


def _report_trip(root, variables):
    """The audit reports of a small cloud trip and image trip, each command a
    `python -m orbitcanon.cli` process with `variables` added to the environment."""
    src = str(Path(orbitcanon.__file__).resolve().parents[1])
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    root.mkdir()
    reports = {}
    for kind, gen, train, audit in (
            ("clouds", ["--seed", "0", "--per-class", "3"],
             ["--mode", "adv", "--k", "4"], "audit-rot3d"),
            ("images", ["--seed", "0", "--per-class", "1"], ["--mode", "ra"], "audit-rot2d")):
        data, model, report = root / kind, root / f"{kind}.bin", root / f"{kind}.csv"
        for argv in (["gen-data", "--kind", kind, *gen, "--out", str(data)],
                     ["train", "--data", str(data), *train, "--canon", "train",
                      "--epochs", "20", "--model", str(model)],
                     [audit, "--model", str(model), "--data", str(data), "--out", str(report)]):
            done = subprocess.run([sys.executable, "-m", "orbitcanon.cli", *argv], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
        reports[kind] = report.read_bytes()
    return reports


@pytest.fixture(scope="module")
def default_kernel_reports(tmp_path_factory):
    return _report_trip(tmp_path_factory.mktemp("kernels") / "default", {})


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_reports_are_portable_across_kernels(tmp_path, request, variant):
    """A report has the same bytes under another OpenBLAS core and without
    numpy's AVX-512 dispatch.  Nothing is asserted about model bytes."""
    why = _why_variant_does_nothing(variant)
    if why is not None:
        pytest.skip(why)
    reports = _report_trip(tmp_path / variant, KERNEL_VARIANTS[variant])
    assert reports == request.getfixturevalue("default_kernel_reports")


@pytest.mark.parametrize("check", [check for _, check in SELFTEST_CHECKS],
                         ids=[name for name, _ in SELFTEST_CHECKS])
def test_selftest_check(check):
    """Each `orbitcanon selftest` check, alone, with the generator selftest
    gives it."""
    check(np.random.default_rng(SELFTEST_SEED))

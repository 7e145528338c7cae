"""End-to-end tests for the command-line interface and its exit codes."""

import math
import struct

import numpy as np
import pytest

from orbitcanon.audit import (LabeledDataset, gen_synthetic_clouds, gen_synthetic_images,
                              rotation_about)
from orbitcanon import cli
from orbitcanon.cli import run
from orbitcanon.cloud import canonicalize_similarity
from orbitcanon.formats import (
    load_model,
    read_pgm,
    read_report,
    read_xyz,
    save_dataset,
    write_pgm,
    write_table,
    write_xyz,
)
from orbitcanon.image import GrayImage, canonicalize_image, rotate_image


@pytest.fixture()
def cloud_file(tmp_path):
    rng = np.random.default_rng(501)
    pts = rng.normal(size=(24, 3)) * 2.0 + np.array([1.0, -2.0, 0.5])
    path = tmp_path / "cloud.xyz"
    path.write_text(write_xyz(pts))
    return path, pts


@pytest.fixture()
def image_file(tmp_path):
    rng = np.random.default_rng(502)
    img = GrayImage(rng.random((16, 16)))
    path = tmp_path / "img.pgm"
    path.write_bytes(write_pgm(img))
    return path, img


def _gen(tmp_path, kind, seed=0, per_class=6):
    out = tmp_path / f"data_{kind}_{seed}"
    code = run(["gen-data", "--kind", kind, "--seed", str(seed),
                "--per-class", str(per_class), "--out", str(out)])
    assert code == 0
    return out


def _mixed(tmp_path, first, second):
    """A dataset directory of first's samples plus second's first sample,
    written to disk as a manifest row of first's class 0."""
    out, other = tmp_path / "mixed", tmp_path / "other"
    save_dataset(first, out)
    save_dataset(second, other)
    name = next(p.name for p in sorted(other.iterdir()) if p.name != "manifest.csv")
    (out / f"extra_{name}").write_bytes((other / name).read_bytes())
    with (out / "manifest.csv").open("a") as manifest:
        manifest.write(f"extra_{name},0,{first.class_names[0]}\n")
    return out


class TestCanonImage:
    def test_writes_canonical_and_report(self, tmp_path, image_file):
        infile, _ = image_file
        out = tmp_path / "canon.pgm"
        report = tmp_path / "canon.csv"
        code = run(["canon-image", "--in", str(infile), "--out", str(out),
                    "--report", str(report)])
        assert code == 0
        assert read_pgm(out.read_bytes()).pixels.shape == (16, 16)
        text = report.read_text()
        assert "alpha" in text and "magnitude" in text and "degenerate" in text

    def test_bad_sigma_is_usage_error(self, tmp_path, image_file):
        infile, _ = image_file
        code = run(["canon-image", "--in", str(infile),
                    "--out", str(tmp_path / "o.pgm"), "--sigma", "0"])
        assert code == 1

    def test_infinite_sigma_is_usage_error(self, tmp_path, image_file):
        infile, _ = image_file
        out, report = tmp_path / "o.pgm", tmp_path / "r.csv"
        assert run(["canon-image", "--in", str(infile), "--out", str(out),
                    "--sigma", "inf", "--report", str(report)]) == 1
        assert not out.exists() and not report.exists()

    def test_tiny_sigma_blurs_as_a_small_one(self, tmp_path, image_file):
        infile, _ = image_file
        tiny, small = tmp_path / "tiny.pgm", tmp_path / "small.pgm"
        assert run(["canon-image", "--in", str(infile), "--out", str(tiny),
                    "--sigma", "1e-200"]) == 0
        assert run(["canon-image", "--in", str(infile), "--out", str(small),
                    "--sigma", "0.01"]) == 0
        assert tiny.read_bytes() == small.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(["canon-image", "--in", str(tmp_path / "nope.pgm"),
                    "--out", str(tmp_path / "o.pgm")])
        assert code == 2

    def test_corrupt_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        code = run(["canon-image", "--in", str(bad),
                    "--out", str(tmp_path / "o.pgm")])
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, tmp_path, image_file):
        infile, _ = image_file
        assert run(["canon-image", "--in", str(infile)]) == 1


class TestCanonCloud:
    def test_invariance_through_files(self, tmp_path, cloud_file):
        """Canonicalizing a rotated copy gives the same file content as the
        canonical form of the original, up to printed precision."""
        infile, pts = cloud_file
        theta = 0.8
        rot = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                        [np.sin(theta), np.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        moved = tmp_path / "moved.xyz"
        moved.write_text(write_xyz(0.5 * (pts @ rot) + np.array([3.0, 0, -1])))
        out_a = tmp_path / "a.xyz"
        out_b = tmp_path / "b.xyz"
        assert run(["canon-cloud", "--in", str(infile), "--out", str(out_a)]) == 0
        assert run(["canon-cloud", "--in", str(moved), "--out", str(out_b)]) == 0
        np.testing.assert_allclose(read_xyz(out_b.read_text()),
                                   read_xyz(out_a.read_text()), atol=1e-8)

    @staticmethod
    def _assert_frame_file_is_frame(tmp_path, infile, pts):
        """Every value of the --frame file equals the canonicalize_similarity
        frame of the same cloud exactly; returns that frame."""
        path = tmp_path / "frame.csv"
        assert run(["canon-cloud", "--in", str(infile),
                    "--out", str(tmp_path / "c.xyz"), "--frame", str(path)]) == 0
        _, frame = canonicalize_similarity(pts)
        lines = path.read_text().splitlines()
        flag = "true" if frame.degenerate else "false"
        assert lines[:3] == ["# orbitcanon canon-cloud frame v1",
                             f"# degenerate={flag}", "field,x,y,z"]
        rows = {name: [float(v) for v in values if v]
                for name, *values in (line.split(",") for line in lines[3:])}
        expected = {"centroid": frame.centroid, "scale": [frame.scale],
                    "signs": frame.signs, "singular_values": frame.singular_values}
        expected.update((f"basis_row{i}", frame.basis[i]) for i in range(3))
        assert list(rows) == list(expected)
        for name, values in expected.items():
            assert rows[name] == list(values), name
        return frame

    def test_frame_csv_written(self, tmp_path, cloud_file):
        infile, pts = cloud_file
        frame = self._assert_frame_file_is_frame(tmp_path, infile, pts)
        assert not frame.degenerate

    def test_frame_csv_of_degenerate_cloud(self, tmp_path):
        """The octahedron ties all three eigenvalues."""
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                        [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
        infile = tmp_path / "octahedron.xyz"
        infile.write_text(write_xyz(pts))
        assert self._assert_frame_file_is_frame(tmp_path, infile, pts).degenerate

    def test_off_input_accepted(self, tmp_path):
        rng = np.random.default_rng(503)
        pts = rng.normal(size=(10, 3))
        lines = ["OFF", f"{len(pts)} 0 0"]
        lines += [" ".join(f"{v:.17g}" for v in p) for p in pts]
        path = tmp_path / "mesh.off"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.xyz"
        assert run(["canon-cloud", "--in", str(path), "--out", str(out)]) == 0
        ref, _ = canonicalize_similarity(pts)
        np.testing.assert_allclose(read_xyz(out.read_text()), ref, atol=1e-12)

    def test_far_offset_cloud(self, tmp_path):
        pts = np.random.default_rng(215).normal(size=(64, 3))
        near, far = tmp_path / "near.xyz", tmp_path / "far.xyz"
        near.write_text(write_xyz(pts))
        far.write_text(write_xyz(pts + 1e7))
        for path in (near, far):
            assert run(["canon-cloud", "--in", str(path),
                        "--out", str(path.with_suffix(".canon"))]) == 0
        np.testing.assert_allclose(read_xyz(far.with_suffix(".canon").read_text()),
                                   read_xyz(near.with_suffix(".canon").read_text()),
                                   atol=1e-7)

    def test_degenerate_cloud_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flat.xyz"
        path.write_text(write_xyz(np.zeros((5, 3))))
        code = run(["canon-cloud", "--in", str(path),
                    "--out", str(tmp_path / "c.xyz")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: degenerate input: every point is at the origin; "
            "no scale to remove\n")


class TestGenData:
    def test_cloud_dataset_on_disk(self, tmp_path):
        out = _gen(tmp_path, "clouds", seed=4, per_class=2)
        manifest = (out / "manifest.csv").read_text()
        assert "# kind=cloud" in manifest
        assert len(list(out.glob("*.xyz"))) == 8

    def test_image_dataset_on_disk(self, tmp_path):
        out = _gen(tmp_path, "images", seed=4, per_class=1)
        assert len(list(out.glob("*.pgm"))) == 4

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["gen-data", "--kind", "clouds", "--seed", "-1",
                    "--out", str(out)]) == 1
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_byte_deterministic(self, tmp_path):
        a = _gen(tmp_path, "clouds", seed=7, per_class=2)
        b_dir = tmp_path / "again"
        assert run(["gen-data", "--kind", "clouds", "--seed", "7",
                    "--per-class", "2", "--out", str(b_dir)]) == 0
        assert (a / "manifest.csv").read_bytes() == \
            (b_dir / "manifest.csv").read_bytes()
        for f in sorted(a.glob("*.xyz")):
            assert f.read_bytes() == (b_dir / f.name).read_bytes()


class TestTrainAndAudit:
    def test_cloud_pipeline(self, tmp_path):
        data = _gen(tmp_path, "clouds", seed=0, per_class=6)
        model_path = tmp_path / "model.bin"
        code = run(["train", "--data", str(data), "--mode", "ra",
                    "--epochs", "15", "--seed", "1", "--canon", "train",
                    "--model", str(model_path)])
        assert code == 0
        model = load_model(model_path.read_bytes())
        assert model.kind == "cloud"
        assert model.mode == "random_augment"
        assert model.canonicalize == "train_and_test"

        report_path = tmp_path / "rot3d.csv"
        code = run(["audit-rot3d", "--model", str(model_path),
                    "--data", str(data), "--out", str(report_path)])
        assert code == 0
        doc = read_report(report_path.read_text())
        assert doc.kind == "rotation3d"
        assert doc.mode == "random_augment"
        assert doc.canonicalized
        assert doc.clean == doc.average == doc.worst
        assert len(doc.curve) == 256

    @pytest.mark.parametrize("command", ["audit-rot3d", "train"])
    def test_degenerate_cloud_in_dataset_is_named(self, tmp_path, capsys, command):
        data = gen_synthetic_clouds(seed=0, n_per_class=2)
        inputs = data.inputs.copy()
        inputs[5] = [3.0, -1.0, 2.0]  # every point of cloud 5 coincides
        bad = tmp_path / "bad"
        save_dataset(LabeledDataset(kind="cloud", inputs=inputs, targets=data.targets,
                                    class_names=data.class_names, seed=0), bad)
        model_path = tmp_path / "model.bin"
        train = ["train", "--mode", "plain", "--epochs", "2", "--canon", "train",
                 "--model", str(model_path)]
        if command == "train":
            code = run(train + ["--data", str(bad)])
        else:
            assert run(train + ["--data", str(_gen(tmp_path, "clouds", per_class=2))]) == 0
            code = run(["audit-rot3d", "--model", str(model_path), "--data", str(bad),
                        "--out", str(tmp_path / "rot3d.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: degenerate input: cloud 5: every point is at the origin; "
            "no scale to remove\n")

    def test_scale_audit(self, tmp_path):
        data = _gen(tmp_path, "clouds", seed=0, per_class=4)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--mode", "plain",
                    "--epochs", "10", "--seed", "1",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "scale.csv"
        assert run(["audit-scale", "--model", str(model_path),
                    "--data", str(data), "--out", str(out)]) == 0
        doc = read_report(out.read_text())
        assert doc.kind == "scale"
        assert len(doc.curve) == 9
        assert doc.worst <= doc.average

    def test_image_audit_scheme_flag(self, tmp_path):
        data = _gen(tmp_path, "images", seed=2, per_class=1)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--mode", "plain",
                    "--epochs", "5", "--seed", "1",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "rot2d.csv"
        assert run(["audit-rot2d", "--model", str(model_path),
                    "--data", str(data), "--out", str(out),
                    "--scheme", "nearest"]) == 0
        doc = read_report(out.read_text())
        assert doc.kind == "rotation2d"
        assert doc.scheme == "nearest"
        assert len(doc.curve) == 360

    def test_kind_mismatch_is_data_error(self, tmp_path):
        clouds = _gen(tmp_path, "clouds", seed=0, per_class=2)
        images = _gen(tmp_path, "images", seed=0, per_class=1)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(clouds), "--mode", "plain",
                    "--epochs", "3", "--seed", "1",
                    "--model", str(model_path)]) == 0
        code = run(["audit-rot2d", "--model", str(model_path),
                    "--data", str(images), "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("audit,kind,report_kind", [
        ("audit-rot2d", "clouds", "rotation2d"),
        ("audit-rot3d", "images", "rotation3d"),
        ("audit-scale", "images", "scale"),
    ])
    def test_audit_of_the_wrong_kind_is_data_error(self, tmp_path, capsys,
                                                    audit, kind, report_kind):
        """Each audit takes one kind of data; a model and dataset of the
        other kind exit 2 naming the audit and the kind, with no report."""
        data = _gen(tmp_path, kind, seed=0, per_class=1)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--epochs", "2", "--seed", "1",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert run([audit, "--model", str(model_path), "--data", str(data),
                    "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"the {report_kind} audit" in err
        assert f"not {kind[:-1]} data" in err

    def test_random_augment_ignores_k(self, tmp_path):
        """ra draws one transform per sample whatever --k says."""
        data = _gen(tmp_path, "clouds", seed=0, per_class=2)
        blobs = []
        for k in ("1", "7"):
            model_path = tmp_path / f"ra_{k}.bin"
            assert run(["train", "--data", str(data), "--mode", "ra", "--k", k,
                        "--epochs", "3", "--seed", "1",
                        "--model", str(model_path)]) == 0
            blobs.append(model_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_non_integer_manifest_label_is_data_error(self, tmp_path, capsys):
        data = _gen(tmp_path, "clouds", seed=0, per_class=1)
        manifest = data / "manifest.csv"
        manifest.write_text(manifest.read_text().replace(",1,box", ",zero,box"))
        model_path = tmp_path / "m.bin"
        assert run(["train", "--data", str(data), "--model", str(model_path)]) == 2
        assert not model_path.exists()
        assert ("manifest line 6: label 'zero' is not an integer"
                in capsys.readouterr().err)

    # Byte offsets in the model file: sigma at 12, the first weight at 28,
    # the last bias entry at -8.
    @pytest.mark.parametrize("offset,value", [(28, float("nan")), (-8, float("inf")),
                                              (12, 0.0), (12, float("nan"))])
    def test_non_finite_model_is_data_error(self, tmp_path, capsys, offset, value):
        """A model with a non-finite parameter or a sigma <= 0 is rejected
        instead of audited."""
        data = _gen(tmp_path, "clouds", seed=0, per_class=2)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--epochs", "3", "--seed", "1",
                    "--model", str(model_path)]) == 0
        blob = bytearray(model_path.read_bytes())
        struct.pack_into("<d", blob, offset % len(blob), value)
        model_path.write_bytes(bytes(blob))
        out = tmp_path / "scale.csv"
        assert run(["audit-scale", "--model", str(model_path),
                    "--data", str(data), "--out", str(out)]) == 2
        assert not out.exists()
        assert "model" in capsys.readouterr().err

    def test_point_count_mismatch_names_both(self, tmp_path, capsys):
        data = _gen(tmp_path, "clouds", seed=0, per_class=2)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--epochs", "3", "--seed", "1",
                    "--model", str(model_path)]) == 0
        larger = tmp_path / "larger"
        save_dataset(gen_synthetic_clouds(1, n_per_class=2, n_points=80), larger)
        assert run(["audit-rot3d", "--model", str(model_path),
                    "--data", str(larger), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "64-point clouds" in err and "80-point clouds" in err

    def test_mixed_raster_sizes_name_both(self, tmp_path, capsys):
        data = _mixed(tmp_path, gen_synthetic_images(1, n_per_class=1, size=32),
                      gen_synthetic_images(1, n_per_class=1, size=48))
        assert run(["train", "--data", str(data), "--epochs", "3",
                    "--model", str(tmp_path / "m.bin")]) == 2
        err = capsys.readouterr().err
        assert "32 x 32 rasters" in err and "48 x 48 rasters" in err

    def test_mixed_point_counts_name_both(self, tmp_path, capsys):
        data = _mixed(tmp_path, gen_synthetic_clouds(1, n_per_class=1, n_points=64),
                      gen_synthetic_clouds(1, n_per_class=1, n_points=80))
        model_path = tmp_path / "m.bin"
        assert run(["train", "--data", str(data), "--epochs", "3",
                    "--model", str(model_path)]) == 2
        assert not model_path.exists()
        err = capsys.readouterr().err
        assert "64-point clouds" in err and "80-point clouds" in err

    @pytest.mark.parametrize("command", ["train", "audit-rot3d", "audit-rot2d"])
    def test_empty_manifest_is_data_error(self, tmp_path, capsys, command):
        """A manifest without rows has no datum shape to stack."""
        kind = "images" if command == "audit-rot2d" else "clouds"
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.csv").write_text(write_table(
            None, {"kind": kind[:-1], "seed": 0, "classes": "a|b"},
            "filename,label,class_name", []))
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--data", str(empty), "--model", str(out)]
        else:
            model_path = tmp_path / "m.bin"
            assert run(["train", "--data", str(_gen(tmp_path, kind, per_class=1)),
                        "--epochs", "2", "--model", str(model_path)]) == 0
            argv = [command, "--model", str(model_path), "--data", str(empty),
                    "--out", str(out)]
        capsys.readouterr()
        assert run(argv) == 2
        assert not out.exists()
        assert "empty dataset" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        data = _gen(tmp_path, "clouds", seed=0, per_class=1)
        model_path = tmp_path / "m.bin"
        capsys.readouterr()
        assert run(["train", "--data", str(data), "--seed", "-3",
                    "--model", str(model_path)]) == 1
        assert not model_path.exists()
        assert "--seed" in capsys.readouterr().err

    def test_non_integer_manifest_seed_is_data_error(self, tmp_path, capsys):
        data = _gen(tmp_path, "clouds", seed=0, per_class=1)
        manifest = data / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("# seed=0", "# seed=zero"))
        model_path = tmp_path / "m.bin"
        assert run(["train", "--data", str(data), "--model", str(model_path)]) == 2
        assert not model_path.exists()
        assert "manifest seed 'zero' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flags", [
        ("clouds", ["--sigma", "inf"]),
        ("images", ["--sigma", "inf", "--canon", "train"]),
        ("clouds", ["--mode", "adv-kl", "--lambda", "nan"]),
        ("clouds", ["--weight-decay", "nan"]),
        ("clouds", ["--lr", "inf"]),
    ], ids=["cloud-sigma", "image-sigma", "lambda", "weight-decay", "lr"])
    def test_non_finite_hyperparameter_is_usage_error(self, tmp_path, capsys,
                                                       kind, flags):
        data = _gen(tmp_path, kind, seed=0, per_class=1)
        model_path = tmp_path / "m.bin"
        assert run(["train", "--data", str(data), "--epochs", "3", "--k", "2",
                    "--model", str(model_path)] + flags) == 1
        assert not model_path.exists()
        assert "finite" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "nope"),
                    "--mode", "plain", "--model", str(tmp_path / "m.bin")])
        assert code == 2

    def test_missing_required_flag_usage_error(self, tmp_path):
        assert run(["train", "--mode", "plain",
                    "--model", str(tmp_path / "m.bin")]) == 1


class TestCurve:
    def test_cloud_curve_sixteen_angles(self, tmp_path):
        data = _gen(tmp_path, "clouds", seed=0, per_class=4)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--mode", "plain",
                    "--epochs", "10", "--seed", "1", "--canon", "train",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "curve.csv"
        sample = sorted(data.glob("*.xyz"))[0]
        assert run(["curve", "--model", str(model_path),
                    "--sample", str(sample), "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")
                and not line.startswith("index")]
        assert len(rows) == 16
        probs = np.array([float(r.split(",")[2]) for r in rows])
        assert np.ptp(probs) <= 1e-8

        # The stacked canonicalizer gives the bytes of canonicalizing every
        # rotated copy alone, row by row as softmax_curve scores them.
        model = load_model(model_path.read_bytes())
        datum = read_xyz(sample.read_text())
        angles = 2.0 * np.pi * np.arange(16) / 16.0
        label = int(np.argmax(model.logits(canonicalize_similarity(datum)[0].reshape(1, -1))))
        rows = []
        for i, a in enumerate(angles):
            row = canonicalize_similarity(datum @ rotation_about(2, float(a)))[0]
            z = model.logits(row.reshape(1, -1))
            shifted = z - z.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            rows.append((i, math.degrees(float(a)), float(np.exp(logp)[0, label])))
        expected = write_table(
            "# orbitcanon curve v1",
            {"kind": "cloud", "label": label, "scheme": "bilinear"},
            "index,angle_degrees,probability", rows)
        assert out.read_text() == expected

    def test_image_curve_full_circle(self, tmp_path):
        data = _gen(tmp_path, "images", seed=2, per_class=1)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--mode", "plain",
                    "--epochs", "5", "--seed", "1",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "curve.csv"
        sample = sorted(data.glob("*.pgm"))[0]
        assert run(["curve", "--model", str(model_path),
                    "--sample", str(sample), "--out", str(out),
                    "--label", "2"]) == 0
        text = out.read_text()
        assert "# label=2" in text
        rows = [line for line in text.splitlines()
                if line and not line.startswith("#")
                and not line.startswith("index")]
        assert len(rows) == 360

    def test_image_curve_matches_per_angle_canonicalization(self, tmp_path):
        """One stacked rotation and canonicalization give the bytes of
        rotating and canonicalizing every angle alone."""
        data = _gen(tmp_path, "images", seed=3, per_class=1)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--mode", "plain", "--epochs", "5",
                    "--seed", "1", "--canon", "train", "--scheme", "bicubic",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "curve.csv"
        sample = sorted(data.glob("*.pgm"))[1]
        assert run(["curve", "--model", str(model_path), "--sample", str(sample),
                    "--out", str(out), "--label", "1", "--scheme", "nearest"]) == 0
        model = load_model(model_path.read_bytes())
        datum = read_pgm(sample.read_bytes()).pixels
        rows = []
        for i, a in enumerate(np.radians(np.arange(360.0))):
            row = canonicalize_image(rotate_image(datum, float(a), "nearest"), "bicubic").canonical
            z = model.logits(row.reshape(1, -1))
            shifted = z - z.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            rows.append((i, math.degrees(float(a)), float(np.exp(logp)[0, 1])))
        expected = write_table(
            "# orbitcanon curve v1", {"kind": "image", "label": 1, "scheme": "nearest"},
            "index,angle_degrees,probability", rows)
        assert out.read_text() == expected


    @pytest.mark.parametrize("label", ["9", "-1"])
    def test_label_outside_classes_is_usage_error(self, tmp_path, capsys, label):
        data = _gen(tmp_path, "clouds", seed=0, per_class=2)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(data), "--epochs", "3", "--seed", "1",
                    "--model", str(model_path)]) == 0
        out = tmp_path / "curve.csv"
        assert run(["curve", "--model", str(model_path),
                    "--sample", str(sorted(data.glob("*.xyz"))[0]),
                    "--out", str(out), "--label", label]) == 1
        assert not out.exists()
        assert "4-class model" in capsys.readouterr().err


class TestRerunBytes:
    def test_side_files_audits_and_curves(self, tmp_path):
        """Running each writer twice into separate files gives the same
        bytes: the audits, curve and the canon-image and canon-cloud side
        files (criterion 10 covers gen-data, train and audit-scale)."""
        clouds = _gen(tmp_path, "clouds", seed=0, per_class=2)
        images = _gen(tmp_path, "images", seed=0, per_class=1)
        for kind, data in (("cloud", clouds), ("image", images)):
            assert run(["train", "--data", str(data), "--mode", "ra", "--k", "2",
                        "--epochs", "3", "--seed", "1",
                        "--model", str(tmp_path / f"{kind}.bin")]) == 0
        xyz, pgm = sorted(clouds.glob("*.xyz"))[0], sorted(images.glob("*.pgm"))[0]
        commands = [
            ["audit-rot3d", "--model", tmp_path / "cloud.bin", "--data", clouds,
             "--out"],
            ["audit-rot2d", "--model", tmp_path / "image.bin", "--data", images,
             "--scheme", "nearest", "--out"],
            ["curve", "--model", tmp_path / "cloud.bin", "--sample", xyz, "--out"],
            ["curve", "--model", tmp_path / "image.bin", "--sample", pgm,
             "--label", "1", "--out"],
            ["canon-image", "--in", pgm, "--out", tmp_path / "c.pgm", "--report"],
            ["canon-cloud", "--in", xyz, "--out", tmp_path / "c.xyz", "--frame"],
        ]
        for n, command in enumerate(commands):
            outputs = [tmp_path / f"out{n}_{run_no}.csv" for run_no in (0, 1)]
            for path in outputs:
                assert run([str(arg) for arg in command + [path]]) == 0
            assert outputs[0].read_bytes() == outputs[1].read_bytes(), command[0]


class TestSelftest:
    def test_stdout_is_pinned(self, capsys):
        assert run(["selftest"]) == 0
        out, err = capsys.readouterr()
        assert out == (
            "ok   group axioms (C4, S3)\n"
            "ok   sort canonicalization matches brute force\n"
            "ok   mean subtraction is shift invariant\n"
            "ok   symmetric eigendecomposition reconstructs\n"
            "ok   cloud canonicalization is similarity invariant\n"
            "ok   zero rotation is the identity; quarter turn is rot90\n"
            "ok   canonical angle tracks rotations\n"
            "ok   group averaging and canonicalizer conjugation are equivariant\n"
            "ok   file formats round-trip\n"
            "ok   invariant wrappers are invariant\n"
            "all selftest checks passed\n")
        assert err == ""

    def test_failing_check_exits_4(self, monkeypatch, capsys):
        def broken(rng):
            raise AssertionError("deliberately broken")

        checks = list(cli.SELFTEST_CHECKS)
        name = checks[3][0]
        checks[3] = (name, broken)
        monkeypatch.setattr(cli, "SELFTEST_CHECKS", tuple(checks))
        assert run(["selftest"]) == 4
        out, err = capsys.readouterr()
        assert out == "".join(f"ok   {other}\n" for other, _ in checks if other != name)
        assert err == f"FAIL {name}: deliberately broken\n1 selftest check(s) failed\n"


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert run([]) == 1

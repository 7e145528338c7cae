"""Tests for the PGM/IDX/XYZ/OFF parsers, report text, and binary model blobs."""

import re
import struct

import numpy as np
import pytest

from orbitcanon.audit import (
    LabeledDataset,
    LinearSoftmaxModel,
    gen_synthetic_clouds,
    gen_synthetic_images,
)
from orbitcanon.formats import (
    ReportDocument,
    load_dataset,
    load_model,
    read_idx_images,
    read_idx_labels,
    read_off,
    read_pgm,
    read_report,
    read_xyz,
    save_dataset,
    save_model,
    write_pgm,
    write_report,
    write_table,
    write_xyz,
)
from orbitcanon.image import GrayImage


class TestPgm:
    def test_ascii_checkerboard(self):
        data = b"P2\n2 2\n255\n0 255\n255 0\n"
        img = read_pgm(data)
        np.testing.assert_array_equal(img.pixels, [[0.0, 1.0], [1.0, 0.0]])

    def test_comments_ignored(self):
        data = b"P2\n# made by hand\n2 1\n# another\n255\n128 255\n"
        img = read_pgm(data)
        np.testing.assert_allclose(img.pixels, [[128.0 / 255.0, 1.0]])

    @pytest.mark.parametrize("data, message", [
        (b"P2\n2 1#c\n255\n0 1\n", "non-numeric header token b'1#c'"),
        (b"P5\n2 1\n# no maxval\n", "truncated header"),
    ])
    def test_header_messages(self, data, message):
        """A '#' glued to a token belongs to it; a header cut short is named."""
        with pytest.raises(ValueError, match=re.escape(message)):
            read_pgm(data)

    def test_binary_roundtrip_8bit(self):
        """Quantize once, then the byte stream is a fixed point."""
        rng = np.random.default_rng(401)
        img = GrayImage(rng.random((9, 7)))
        blob = write_pgm(img, maxval=255)
        again = write_pgm(read_pgm(blob), maxval=255)
        assert blob == again

    def test_binary_roundtrip_16bit_big_endian(self):
        img = GrayImage(np.array([[1.0, 256.0 / 65535.0]]))
        blob = write_pgm(img, maxval=65535)
        assert blob.endswith(b"\xff\xff\x01\x00")
        np.testing.assert_allclose(read_pgm(blob).pixels,
                                   [[1.0, 256.0 / 65535.0]], rtol=1e-12)

    def test_quantization_rule(self):
        img = GrayImage(np.array([[0.0, 0.5, 1.0]]))
        blob = write_pgm(img, maxval=255)
        assert blob.endswith(bytes([0, 128, 255]))

    def test_rejects_other_magic(self):
        with pytest.raises(ValueError):
            read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_rejects_truncated_raster(self):
        with pytest.raises(ValueError):
            read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_rejects_bad_maxval(self):
        with pytest.raises(ValueError):
            read_pgm(b"P2\n1 1\n0\n0\n")
        with pytest.raises(ValueError):
            read_pgm(b"P2\n1 1\n70000\n0\n")
        with pytest.raises(ValueError):
            write_pgm(GrayImage(np.zeros((1, 1))), maxval=0)

    def test_trailing_ascii_tokens_ignored(self):
        """Only the declared raster is read; trailing junk is not consumed."""
        img = read_pgm(b"P2\n1 1\n255\n0 7\n")
        np.testing.assert_array_equal(img.pixels, [[0.0]])


class TestIdx:
    @staticmethod
    def _images_blob(arrays):
        n = len(arrays)
        rows, cols = arrays[0].shape
        head = struct.pack(">IIII", 0x00000803, n, rows, cols)
        body = b"".join(a.astype(np.uint8).tobytes() for a in arrays)
        return head + body

    def test_images_happy_path(self):
        a = np.array([[0, 255], [128, 64]], dtype=np.uint8)
        b = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        images = read_idx_images(self._images_blob([a, b]))
        assert len(images) == 2
        np.testing.assert_allclose(images[0].pixels, a / 255.0)
        np.testing.assert_allclose(images[1].pixels, b / 255.0)

    def test_images_rejects_non_square(self):
        head = struct.pack(">IIII", 0x00000803, 1, 2, 3)
        with pytest.raises(ValueError):
            read_idx_images(head + bytes(6))

    def test_images_rejects_wrong_magic(self):
        head = struct.pack(">IIII", 0x00000801, 1, 2, 2)
        with pytest.raises(ValueError):
            read_idx_images(head + bytes(4))

    def test_images_rejects_truncation(self):
        head = struct.pack(">IIII", 0x00000803, 2, 2, 2)
        with pytest.raises(ValueError):
            read_idx_images(head + bytes(7))

    def test_labels_happy_path(self):
        blob = struct.pack(">II", 0x00000801, 4) + bytes([0, 9, 3, 1])
        np.testing.assert_array_equal(read_idx_labels(blob), [0, 9, 3, 1])

    def test_labels_reject_out_of_range(self):
        blob = struct.pack(">II", 0x00000801, 2) + bytes([0, 10])
        with pytest.raises(ValueError):
            read_idx_labels(blob)

    def test_labels_reject_truncation(self):
        blob = struct.pack(">II", 0x00000801, 3) + bytes([0, 1])
        with pytest.raises(ValueError):
            read_idx_labels(blob)


class TestXyz:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(402)
        pts = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-6, 7)
        again = read_xyz(write_xyz(pts))
        np.testing.assert_array_equal(again, pts)

    def test_rejects_short_line(self):
        with pytest.raises(ValueError) as err:
            read_xyz("1 2 3\n4 5\n")
        assert "2" in str(err.value)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            read_xyz("1 2 three\n")

    def test_skips_blank_lines(self):
        pts = read_xyz("\n1 2 3\n\n4 5 6\n")
        np.testing.assert_array_equal(pts, [[1, 2, 3], [4, 5, 6]])


class TestOff:
    def test_minimal_mesh_vertices_only(self):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        np.testing.assert_array_equal(read_off(text),
                                      [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_counts_on_header_line(self):
        text = "OFF 2 0 0\n0 0 1\n0 1 0\n"
        np.testing.assert_array_equal(read_off(text), [[0, 0, 1], [0, 1, 0]])

    def test_comments_ignored(self):
        text = "OFF\n# a cube corner\n1 0 0\n2 4 8\n"
        np.testing.assert_array_equal(read_off(text), [[2, 4, 8]])

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            read_off("3 0 0\n0 0 0\n1 1 1\n2 2 2\n")

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            read_off("OFF\n3 0 0\n0 0 0\n1 1 1\n")


def _sample_report():
    rng = np.random.default_rng(403)
    curve = rng.random(9)
    grid = tuple(f"scale_{i}" for i in range(9))
    return ReportDocument(kind="cloud", mode="plain", scheme="",
                          canonicalized=True, n_samples=40,
                          clean=0.975, average=float(curve.mean()),
                          worst=float(curve.min()), grid=grid, curve=curve)


class TestReportDocument:
    def test_roundtrip_exact(self):
        doc = _sample_report()
        again = read_report(write_report(doc))
        assert again == doc
        np.testing.assert_array_equal(again.curve, doc.curve)

    def test_written_preamble_keys(self):
        text = write_report(_sample_report())
        for key in ("kind=", "mode=", "scheme=", "canonicalized=",
                    "n_samples=", "clean=", "average=", "worst="):
            assert f"# {key}" in text
        assert "index,transform,accuracy" in text

    def test_rejects_missing_key(self):
        text = write_report(_sample_report())
        broken = "\n".join(line for line in text.splitlines()
                           if not line.startswith("# clean="))
        with pytest.raises(ValueError):
            read_report(broken)

    def test_rejects_out_of_order_rows(self):
        text = write_report(_sample_report())
        lines = text.splitlines()
        lines[-1], lines[-2] = lines[-2], lines[-1]
        with pytest.raises(ValueError):
            read_report("\n".join(lines) + "\n")

    def test_seventeen_digit_floats_survive(self):
        doc = ReportDocument(kind="image", mode="random_augment",
                             scheme="bicubic", canonicalized=False,
                             n_samples=3, clean=1.0 / 3.0,
                             average=2.0 / 3.0, worst=1.0 / 7.0,
                             grid=("a", "b"), curve=np.array([np.pi, np.e]))
        again = read_report(write_report(doc))
        assert again.clean == doc.clean
        assert again.worst == doc.worst
        np.testing.assert_array_equal(again.curve, doc.curve)


class TestWriteTable:
    # A flag, a float that needs 17 digits, an int and an empty cell, each
    # as a Python value and as a numpy scalar.
    ROWS = [("a", True, 0.1, 7, ""), ("b", np.bool_(False), np.float64(2 / 3),
                                      np.int64(-3), "x")]

    def test_titled_bytes(self):
        text = write_table("# demo v1", {"flag": False, "rate": 1 / 3, "n": 12,
                                         "name": "grid"},
                           "field,on,value,count,note", self.ROWS)
        assert text == ("# demo v1\n"
                        "# flag=false\n"
                        "# rate=0.33333333333333331\n"
                        "# n=12\n"
                        "# name=grid\n"
                        "field,on,value,count,note\n"
                        "a,true,0.10000000000000001,7,\n"
                        "b,false,0.66666666666666663,-3,x\n")

    def test_untitled_bytes(self):
        text = write_table(None, {"seed": 7}, "field,on,value,count,note", self.ROWS)
        assert text == ("# seed=7\n"
                        "field,on,value,count,note\n"
                        "a,true,0.10000000000000001,7,\n"
                        "b,false,0.66666666666666663,-3,x\n")

    def test_report_bytes(self):
        doc = ReportDocument(kind="scale", mode="adversarial", scheme="",
                             canonicalized=False, n_samples=3, clean=2 / 3,
                             average=0.5, worst=1 / 3, grid=("0.5", "1", "2"),
                             curve=np.array([2 / 3, 0.5, 1 / 3]))
        assert write_report(doc) == ("# orbitcanon report v1\n"
                                     "# kind=scale\n"
                                     "# mode=adversarial\n"
                                     "# scheme=\n"
                                     "# canonicalized=false\n"
                                     "# n_samples=3\n"
                                     "# clean=0.66666666666666663\n"
                                     "# average=0.5\n"
                                     "# worst=0.33333333333333331\n"
                                     "index,transform,accuracy\n"
                                     "0,0.5,0.66666666666666663\n"
                                     "1,1,0.5\n"
                                     "2,2,0.33333333333333331\n")


class TestModelBlob:
    def test_roundtrip_all_fields(self):
        rng = np.random.default_rng(404)
        model = LinearSoftmaxModel(
            weights=rng.normal(size=(4, 10)), bias=rng.normal(size=4),
            kind="image", canonicalize="train_and_test", scheme="bicubic",
            sigma=2.5, mode="adversarial_kl")
        again = load_model(save_model(model))
        assert (again.kind, again.canonicalize, again.scheme,
                again.sigma, again.mode) == ("image", "train_and_test",
                                             "bicubic", 2.5, "adversarial_kl")
        np.testing.assert_array_equal(again.weights, model.weights)
        np.testing.assert_array_equal(again.bias, model.bias)

    def test_roundtrip_defaults(self):
        model = LinearSoftmaxModel(weights=np.zeros((2, 5)),
                                   bias=np.zeros(2), kind="cloud")
        again = load_model(save_model(model))
        assert again.scheme is None
        assert again.canonicalize == "off"
        assert again.mode == "plain"

    def test_deterministic_bytes(self):
        model = LinearSoftmaxModel(weights=np.eye(3), bias=np.arange(3.0),
                                   kind="cloud", canonicalize="test_only")
        assert save_model(model) == save_model(model)

    def test_rejects_bad_magic(self):
        blob = bytearray(save_model(LinearSoftmaxModel(
            weights=np.zeros((2, 2)), bias=np.zeros(2), kind="cloud")))
        blob[0] = ord(b"X")
        with pytest.raises(ValueError):
            load_model(bytes(blob))

    def test_rejects_truncation(self):
        blob = save_model(LinearSoftmaxModel(
            weights=np.zeros((2, 2)), bias=np.zeros(2), kind="cloud"))
        with pytest.raises(ValueError):
            load_model(blob[:-4])


class TestDatasetDirectory:
    def test_cloud_roundtrip(self, tmp_path):
        data = gen_synthetic_clouds(seed=9, n_per_class=2, n_points=16)
        save_dataset(data, tmp_path / "d")
        again = load_dataset(tmp_path / "d")
        assert again.kind == "cloud"
        assert again.seed == data.seed
        assert again.class_names == data.class_names
        np.testing.assert_array_equal(again.labels(), data.labels())
        for (a, la), (b, lb) in zip(again.samples, data.samples):
            assert la == lb
            np.testing.assert_array_equal(a, b)

    def test_image_roundtrip_16bit_quantized(self, tmp_path):
        data = gen_synthetic_images(seed=9, n_per_class=1, size=16)
        save_dataset(data, tmp_path / "d")
        again = load_dataset(tmp_path / "d")
        assert again.kind == "image"
        assert again.class_names == data.class_names
        for (a, la), (b, lb) in zip(again.samples, data.samples):
            assert la == lb
            assert np.abs(a - b).max() <= 0.5 / 65535.0 + 1e-12

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "nope")

    def test_manifest_metadata_lines(self, tmp_path):
        data = gen_synthetic_clouds(seed=5, n_per_class=1, n_points=8)
        save_dataset(data, tmp_path / "d")
        text = (tmp_path / "d" / "manifest.csv").read_text()
        assert "# kind=cloud" in text
        assert "# seed=5" in text
        assert "# classes=shell|box|tube|cross" in text

"""Tests for the PGM/XYZ/OFF parsers, report text, and binary model blobs."""

import re
import struct

import numpy as np
import pytest

from orbitcanon.audit import (
    LabeledDataset,
    LinearSoftmaxModel,
    evaluate_rotation_sweep_2d,
    evaluate_scale_sweep,
    gen_synthetic_clouds,
    gen_synthetic_images,
)
from orbitcanon.cli import run
from orbitcanon.formats import (
    ReportDocument,
    load_dataset,
    load_model,
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

    @pytest.mark.parametrize("maxval, top", [(255, b"\xff"), (65535, b"\xff\xff")])
    def test_brightest_pixels_write_maxval(self, maxval, top):
        """1.0 and the largest double below it both land on maxval."""
        img = GrayImage(np.array([[1.0, np.nextafter(1.0, 0.0)]]))
        assert write_pgm(img, maxval=maxval).endswith(top + top)

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

    def test_write_refuses_non_finite_cloud(self):
        """The join writer wrote 'nan inf -0', which read_xyz then refused."""
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite coordinate in XYZ output"):
                write_xyz([[0.0, 1.0, 2.0], [bad, 1.0, -0.0]])

    def test_write_refuses_empty_cloud(self):
        """The join writer wrote a lone newline, which read_xyz then refused."""
        with pytest.raises(ValueError, match="no points to write as XYZ"):
            write_xyz(np.zeros((0, 3)))


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

    @pytest.mark.parametrize("text, message", [
        ("OFF\n1_0 0 0\n" + "1 2 3\n" * 10, "line 2: non-integer counts"),
        ("OFF \u0661 0 0\n1 2 3\n", "line 1: non-integer counts"),
        ("OFF\n2 0 0\n1 2 3\n1_0 2 3\n", "line 4: non-numeric vertex coordinate"),
        ("OFF\n1 0 0\n1 \u0662 3\n", "line 3: non-numeric vertex coordinate"),
    ])
    def test_refuses_underscores_and_non_ascii_digits(self, text, message):
        """int() and float() take '1_0' and Arabic-Indic digits; other OFF readers do not."""
        with pytest.raises(ValueError) as err:
            read_off(text)
        assert str(err.value) == message

    def test_unicode_separators_stay_separators(self):
        text = "OFF\n2\xa00 0\n1\xa02\u20033\n4 5 6 1_0\n"
        np.testing.assert_array_equal(read_off(text), [[1, 2, 3], [4, 5, 6]])


def _sample_report():
    rng = np.random.default_rng(403)
    curve = rng.random(9)
    grid = tuple(f"scale_{i}" for i in range(9))
    return ReportDocument(kind="cloud", mode="plain", scheme="",
                          canonicalized=True, n_samples=40,
                          clean=0.975, average=float(curve.mean()),
                          worst=float(curve.min()), grid=grid, curve=curve)


def _set_line(prefix, line):
    """An edit of report lines that replaces the one starting with prefix."""
    return lambda lines: [line if old.startswith(prefix) else old for old in lines]


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

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: [line for line in lines if not line.startswith("# clean=")],
         "missing metadata keys: clean"),
        (lambda lines: [line.replace("=true", "=yes") for line in lines],
         "bad canonicalized flag 'yes'"),
        (lambda lines: lines[:10] + ["0,0,x"] + lines[11:], "line 11: malformed row"),
        (lambda lines: lines[:-2] + lines[:-3:-1], "row index 8 out of order (expected 7)"),
        (_set_line("# n_samples=", "# n_samples=4_0"), "report n_samples '4_0' is not an integer"),
        (_set_line("# clean=", "# clean=x"), "report clean 'x' is not a number"),
        (_set_line("# average=", "# average=0.5_0"), "report average '0.5_0' is not a number"),
        (_set_line("# worst=", "# worst=\u0660.5"), "report worst '\u0660.5' is not a number"),
        (_set_line("0,", "0_0,scale_0,0.5"), "line 11: malformed row"),
        (_set_line("0,", "0,scale_0,1_0"), "line 11: malformed row"),
    ], ids=["missing-key", "flag", "malformed-row", "row-order", "n-samples", "clean",
            "average", "worst", "row-index", "row-accuracy"])
    def test_reader_messages(self, edit, message):
        lines = write_report(_sample_report()).splitlines()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_report("\n".join(edit(lines)) + "\n")

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

    @pytest.mark.parametrize("offset, code, message", [
        (8, 2, "bad model kind code 2"),
        (9, 3, "bad canonicalize code 3"),
        (10, 3, "bad scheme code 3"),
        (11, 6, "bad training mode code 6"),
    ])
    def test_load_code_messages(self, offset, code, message):
        blob = bytearray(save_model(LinearSoftmaxModel(
            weights=np.zeros((2, 2)), bias=np.zeros(2), kind="cloud")))
        blob[offset] = code
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(bytes(blob))

    def test_load_one_byte_short_message(self):
        blob = save_model(LinearSoftmaxModel(
            weights=np.zeros((2, 2)), bias=np.zeros(2), kind="cloud"))
        with pytest.raises(ValueError, match="^model file is 75 bytes, expected 76$"):
            load_model(blob[:-1])

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "clouds", "unknown model kind 'clouds'"),
        ("canonicalize", "on", "unknown canonicalize mode 'on'"),
        ("scheme", "lanczos", "unknown scheme 'lanczos'"),
        ("mode", "ra", "unknown training mode 'ra'"),
    ])
    def test_save_field_messages(self, field, value, message):
        """A field no model file could encode cannot make a model to save."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearSoftmaxModel(weights=np.zeros((2, 2)), bias=np.zeros(2),
                               **{"kind": "image", "scheme": "bilinear", field: value})


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

    @pytest.mark.parametrize("names, seed, message", [
        (("a|b", "c"), 0, "class name 'a|b' cannot be written to a manifest"),
        (("a,b", "c"), 0, "class name 'a,b' cannot be written to a manifest"),
        (("a\nb", "c"), 0, "class name 'a\\nb' cannot be written to a manifest"),
        (("a", "c\u2028"), 0, "class name 'c\\u2028' cannot be written to a manifest"),
        ((" a", "c"), 0, "class name ' a' cannot be written to a manifest"),
        (("a", "c "), 0, "class name 'c ' cannot be written to a manifest"),
        (("",), 0, "class name '' cannot be written to a manifest"),
        (("a", "c"), 1.5, "dataset seed 1.5 is not an integer"),
        (("a", "c"), True, "dataset seed True is not an integer"),
    ], ids=["bar", "comma", "line-break", "line-separator", "leading-space", "trailing-space",
            "empty", "seed-fraction", "seed-flag"])
    def test_save_refuses_what_the_manifest_cannot_carry(self, tmp_path, names, seed, message):
        """Each of these would be written and then refused, or read back as
        another dataset; save_dataset refuses it before writing any file."""
        data = LabeledDataset("cloud", [np.eye(3)] * 2, [0, len(names) - 1], names, seed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_dataset(data, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_names_with_other_characters_round_trip(self, tmp_path):
        names = ("a#b", "x=y", "inner space", "\u00e9t\u00e9", "# c", "=")
        data = LabeledDataset("cloud", [np.eye(3)] * 6, range(6), names, 2)
        save_dataset(data, tmp_path)
        again = load_dataset(tmp_path)
        assert (again.class_names, again.seed) == (names, 2)
        assert again.targets.tolist() == list(range(6))

    def test_manifest_metadata_lines(self, tmp_path):
        data = gen_synthetic_clouds(seed=5, n_per_class=1, n_points=8)
        save_dataset(data, tmp_path / "d")
        text = (tmp_path / "d" / "manifest.csv").read_text()
        assert "# kind=cloud" in text
        assert "# seed=5" in text
        assert "# classes=shell|box|tube|cross" in text


class TestNumberRule:
    """PGM tokens and manifest integers are read as XYZ and OFF numbers are:
    int() alone reads '2_55' as 255."""

    @pytest.mark.parametrize("data, message", [
        (b"P2\n2 1\n2_55\n1 0\n", "non-numeric header token b'2_55'"),
        (b"P2\n2 1\n255\n1_0 0\n", "non-numeric header token b'1_0'"),
        (b"P5\n0_2 1\n255\n" + bytes(2), "non-numeric header token b'0_2'"),
        ("P2\n1 1\n\u0661\n0\n".encode(), "non-numeric header token b'\\xd9\\xa1'"),
    ], ids=["maxval", "p2-sample", "p5-width", "non-ascii"])
    def test_pgm_tokens(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_pgm(data)

    @pytest.mark.parametrize("old, new, message", [
        (",0,shell", ",0_0,shell", "manifest line 5: label '0_0' is not an integer"),
        ("# seed=5", "# seed=0_5", "manifest seed '0_5' is not an integer"),
    ], ids=["label", "seed"])
    def test_manifest_integers(self, tmp_path, old, new, message):
        save_dataset(gen_synthetic_clouds(seed=5, n_per_class=1, n_points=8), tmp_path)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(manifest.read_text().replace(old, new))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_dataset(tmp_path)


# Each refusal case is (write, read, command): write(tmp_path) puts the file
# in place and returns its path, read(path) is the library call that refuses
# it, and command(path, tmp_path), when a command reads such a file, is that
# command's argv.

def _put(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload)
    return path


def _pgm(payload):
    return (lambda tmp: _put(tmp / "in.pgm", payload),
            lambda path: read_pgm(path.read_bytes()),
            lambda path, tmp: ["canon-image", "--in", str(path), "--out", str(tmp / "o.pgm")])


def _off(text):
    return (lambda tmp: _put(tmp / "in.off", text),
            lambda path: read_off(path.read_text()),
            lambda path, tmp: ["canon-cloud", "--in", str(path), "--out", str(tmp / "o.xyz")])


def _manifest(text):
    return (lambda tmp: _put(tmp / "data" / "manifest.csv", text).parent,
            load_dataset,
            lambda path, tmp: ["train", "--data", str(path), "--model", str(tmp / "m.bin")])


def _model(blob, data):
    """A model file audited on data: images by audit-rot2d, clouds by audit-scale."""
    def write(tmp):
        save_dataset(data, tmp / "data")
        return _put(tmp / "m.bin", blob)

    evaluate, audit = ((evaluate_rotation_sweep_2d, "audit-rot2d") if data.kind == "image"
                       else (evaluate_scale_sweep, "audit-scale"))
    return (write,
            lambda path: evaluate(load_model(path.read_bytes()), load_dataset(path.parent / "data")),
            lambda path, tmp: [audit, "--model", str(path), "--data", str(path.parent / "data"),
                               "--out", str(tmp / "r.csv")])


def _shaped(n_classes, n_features):
    """A cloud model file of n_classes x n_features zero weights, a shape no
    model can have when either count is 0, so save_model cannot write it."""
    head = save_model(LinearSoftmaxModel(weights=np.zeros((1, 1)), bias=np.zeros(1),
                                         kind="cloud"))[:20]
    return head + struct.pack("<II", n_classes, n_features) + bytes(
        8 * n_classes * (n_features + 1))


def _call(call):
    return lambda tmp: None, lambda path: call(), None


def _without_header():
    """A whole report preamble with no column header and no rows."""
    text = write_report(_sample_report())
    return "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))


_CLOUDS = gen_synthetic_clouds(seed=0, n_per_class=1, n_points=8)
_IMAGES = gen_synthetic_images(seed=0, n_per_class=1, size=16)

REFUSALS = [
    (_pgm(b"P"), "not a PGM file: too short", "pgm-short"),
    (_pgm(b"P2\n0 1\n255\n"), "bad dimensions 0 x 1", "pgm-dimensions"),
    (_pgm(b"P2\n1 1\n5\n9\n"), "sample value exceeds maxval 5", "pgm-maxval"),
    (_call(lambda: write_xyz(np.zeros((2, 2)))), "expected an N x 3 point array", "xyz-shape"),
    (_off("# nothing\n"), "empty OFF input", "off-empty"),
    (_off("OFF\n"), "OFF input has no counts line", "off-no-counts"),
    (_off("OFF\n1 0\n"), "line 2: counts line needs 3 fields", "off-counts-fields"),
    (_off("OFF\n0 0 0\n"), "line 2: vertex count 0 < 1", "off-no-vertices"),
    (_off("OFF\n1 0 0\n1 2\n"), "line 3: vertex needs 3 coordinates", "off-vertex"),
    (_off("OFF\n1 0 0\ninf 0 0\n"), "non-finite vertex coordinate in OFF input",
     "off-non-finite"),
    (_call(lambda: write_report(ReportDocument(
        kind="scale", mode="plain", scheme="", canonicalized=False, n_samples=1, clean=1.0,
        average=1.0, worst=1.0, grid=("1", "2"), curve=np.ones(1)))),
     "grid and curve lengths differ", "report-lengths"),
    (_call(lambda: read_report("# orbitcanon report v1\nindex,accuracy\n")),
     "line 2: unexpected header 'index,accuracy'", "report-header"),
    (_call(lambda: read_report("index,transform,accuracy\n0,1\n")),
     "line 2: expected 3 columns", "report-columns"),
    (_call(lambda: read_report(_without_header())), "missing column header line",
     "report-no-header"),
    (_manifest("# kind=cloud\nname,label,class\n"),
     "manifest line 2: unexpected header 'name,label,class'", "manifest-header"),
    (_manifest("# kind=cloud\nfilename,label,class_name\na.xyz,0\n"),
     "manifest line 3: expected 3 columns", "manifest-columns"),
    (_manifest("# kind=mesh\nfilename,label,class_name\n"),
     "manifest kind 'mesh' is not 'image' or 'cloud'", "manifest-kind"),
    (_manifest("# kind=cloud\n# classes=a\nfilename,label,class_name\ngone.xyz,0,a\n"),
     "manifest references missing file gone.xyz", "manifest-missing-file"),
    (_manifest("# kind=cloud\n# classes=a|b\nfilename,label,class_name\nx.xyz,0,b\n"),
     "manifest line 4: class_name 'b' does not match label 0 ('a')", "manifest-class-name"),
    (_call(lambda: save_model(LinearSoftmaxModel(weights=np.zeros((2, 3)), bias=np.zeros(3),
                                                 kind="cloud"))),
     "weights must be C x F with a length-C bias", "model-shapes"),
    (_model(b"OCLM0001", _CLOUDS), "truncated model file", "model-truncated"),
    (_model(_shaped(0, 24), _CLOUDS),
     "model weights are 0 x 24; a model needs at least one class and one feature",
     "model-no-classes"),
    (_model(_shaped(4, 0), _CLOUDS),
     "model weights are 4 x 0; a model needs at least one class and one feature",
     "model-no-features"),
    (_model(save_model(LinearSoftmaxModel(weights=np.zeros((4, 12)), bias=np.zeros(4),
                                          kind="image")), _IMAGES),
     "the model takes images of 12 features, not 16 x 16 rasters", "model-image-features"),
    (_model(save_model(LinearSoftmaxModel(weights=np.zeros((4, 10)), bias=np.zeros(4),
                                          kind="cloud")), _CLOUDS),
     "the model takes clouds of 10 features, not 8-point clouds", "model-cloud-features"),
]


@pytest.mark.parametrize("case, message", [pytest.param(case, message, id=name)
                                            for case, message, name in REFUSALS])
def test_every_refusal_at_the_file_boundary(tmp_path, capsys, case, message):
    """Each refusal names its input exactly; where a command reads the file,
    the command prints that message and exits 2."""
    write, read, command = case
    path = write(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(path)
    if command is not None:
        assert run(command(path, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

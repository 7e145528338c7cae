"""File formats: PGM rasters, XYZ/OFF clouds, reports, models.

Records are defined in `audit.py` and serialized in `formats.py`.
Readers validate aggressively and raise ValueError with a location when
the input is malformed; writers are byte-deterministic so that identical
inputs always serialize to identical files.  Floats are written with 17
significant digits, which round-trips IEEE doubles exactly.  Reports,
dataset manifests and the CLI's side files all use write_table's layout.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

from .audit import (CANON_MODES, KINDS, MODES, LabeledDataset, LinearSoftmaxModel,
                    ReportDocument)
from .image import SCHEMES, GrayImage

_MODEL_MAGIC = b"OCLM0001"
_MODEL_HEAD = "<8sBBBBd II"
# The code bytes of a model file's head, in head order: the model field each
# encodes, the table its code indexes and the noun that names a bad code.  An
# unset scheme is written as _UNSET.
_MODEL_CODES = (("kind", KINDS, "model kind"), ("canonicalize", CANON_MODES, "canonicalize"),
                ("scheme", SCHEMES, "scheme"), ("mode", MODES, "training mode"))
_UNSET = 255

_F17 = "{:.17g}".format


# ---------------------------------------------------------------------------
# PGM


_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _pgm_tokens(data: bytes, count: int, pos: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated ASCII integers starting at pos.

    '#' starts a comment running to end of line, as the format allows.
    Returns the values and the offset one past the final token.
    """
    values: list[int] = []
    for _ in range(count):
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError("truncated header: expected more numeric fields")
        values.append(_number(token.decode("latin-1"), f"non-numeric header token {token!r}", int))
    return values, pos


def read_pgm(data: bytes) -> GrayImage:
    """Parse a PGM (P5 binary or P2 ASCII) into a grayscale image.

    Values are scaled by the file's maxval into [0, 1].  Binary rasters
    use one byte per sample for maxval < 256 and two big-endian bytes
    otherwise, per the format.
    """
    if len(data) < 2:
        raise ValueError("not a PGM file: too short")
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise ValueError(f"not a PGM file: magic {magic!r} (want P5 or P2)")
    (width, height, maxval), pos = _pgm_tokens(data, 3, 2)
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width} x {height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range 1..65535")

    if magic == b"P2":
        flat, _ = _pgm_tokens(data, width * height, pos)
        raster = np.array(flat, dtype=float).reshape(height, width)
    else:
        pos += 1  # exactly one whitespace byte separates header and raster
        sample = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * sample.itemsize
        payload = data[pos:pos + need]
        if len(payload) < need:
            raise ValueError(
                f"truncated raster: need {need} bytes, have {len(payload)}")
        raster = np.frombuffer(payload, dtype=sample).astype(float)
        raster = raster.reshape(height, width)
    if raster.max(initial=0.0) > maxval:
        raise ValueError(f"sample value exceeds maxval {maxval}")
    return GrayImage(raster / maxval)


def write_pgm(img, maxval: int = 255) -> bytes:
    """Serialize a raster (validated as a GrayImage) as binary P5.

    Pixels in [0, 1] are scaled to 0..maxval and rounded half away from
    zero, so 0.5 / 255 lands on 1.  Deterministic: equal images yield
    equal bytes.
    """
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range 1..65535")
    img = GrayImage(img)
    q = np.floor(img.pixels * maxval + 0.5).astype(np.uint16)
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        return header + q.astype(">u2").tobytes()
    return header + q.astype("u1").tobytes()


# ---------------------------------------------------------------------------
# XYZ / OFF


def _number(token: str, refusal: str, parse=float):
    """parse(token), or ValueError(refusal) for a token that parse refuses or that holds
    '_' or a non-ASCII character: float() and int() read '1_0' as 10 and Arabic-Indic
    digits as numbers."""
    if "_" not in token and token.isascii():
        try:
            return parse(token)
        except ValueError:
            pass
    raise ValueError(refusal)


def read_cloud_text(path: Path) -> str:
    """The text of an XYZ/OFF file; ValueError names a file that is not text."""
    try:
        return path.read_text()
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not XYZ/OFF text") from None


def _xyz_lines(text: str) -> np.ndarray:
    """read_xyz line by line: the only source of its line-numbered errors."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        points.append([_number(p, f"line {lineno}: non-numeric coordinate") for p in parts])
    if not points:
        raise ValueError("no points in XYZ input")
    return np.array(points, dtype=float)


def read_xyz(text: str) -> np.ndarray:
    """Parse whitespace-separated x y z lines into an N x 3 array.

    Blank lines and lines starting with '#' are skipped; anything else
    with other than three fields is an error reported with its line
    number, as is a coordinate float() refuses or one holding '_' or a
    non-ASCII character.  numpy's text reader refuses those and '#' too,
    and reads every other text with float()'s bits; text it refuses, or
    reads as other than three columns, is read line by line.
    """
    X = None
    if text and not text.isspace():
        try:
            X = np.loadtxt(text.splitlines(), comments=None, ndmin=2)
        except ValueError:
            pass
    if X is None or X.shape[1] != 3:
        X = _xyz_lines(text)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite coordinate in XYZ input")
    return X


def write_xyz(points) -> str:
    """Serialize an N x 3 array as one 'x y z' line per point, 17 digits.

    Refuses what read_xyz refuses: an empty or non-finite cloud.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("expected an N x 3 point array")
    if not len(X):
        raise ValueError("no points to write as XYZ")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite coordinate in XYZ output")
    return ("%.17g %.17g %.17g\n" * len(X)) % tuple(X.ravel().tolist())


def read_off(text: str) -> np.ndarray:
    """Read the vertices of an OFF mesh as an N x 3 array; faces are ignored.  A count
    or coordinate holding '_' or a non-ASCII character is refused, as in read_xyz."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError("empty OFF input")
    lineno, header = lines[0]
    body = lines[1:]
    if header != "OFF":
        # Some files cram the counts onto the OFF line itself.
        if header.startswith("OFF") and len(header.split()) == 4:
            body = [(lineno, header[3:].strip())] + body
        else:
            raise ValueError(f"line {lineno}: not an OFF file")
    if not body:
        raise ValueError("OFF input has no counts line")
    lineno, counts = body[0]
    parts = counts.split()
    if len(parts) != 3:
        raise ValueError(f"line {lineno}: counts line needs 3 fields")
    n_vertices, n_faces, _ = (_number(p, f"line {lineno}: non-integer counts", int)
                              for p in parts)
    if n_vertices < 1:
        raise ValueError(f"line {lineno}: vertex count {n_vertices} < 1")
    vertex_lines = body[1:1 + n_vertices]
    if len(vertex_lines) < n_vertices:
        raise ValueError(f"OFF input ends after {len(vertex_lines)} of "
                         f"{n_vertices} vertices")
    points = []
    for lineno, line in vertex_lines:
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: vertex needs 3 coordinates")
        points.append([_number(p, f"line {lineno}: non-numeric vertex coordinate")
                       for p in parts[:3]])
    X = np.array(points, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite vertex coordinate in OFF input")
    return X


# ---------------------------------------------------------------------------
# Audit reports

# The v1 preamble's metadata keys, in the order write_report writes them.
_REPORT_KEYS = ("kind", "mode", "scheme", "canonicalized", "n_samples",
                "clean", "average", "worst")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _F17(float(value))
    return str(value)


def write_table(title, meta, header, rows) -> str:
    """Serialize a CSV table with a '#'-prefixed metadata preamble.

    Writes the title line (skipped when None), one '# key=value' line per
    item of the `meta` mapping, the `header` line, then one line per row
    of cells.  Flags are written as true/false, floats with 17 significant
    digits and everything else through str, so reading the file back
    reproduces every number exactly.
    """
    lines = [] if title is None else [title]
    lines += [f"# {key}={_cell(value)}" for key, value in meta.items()]
    lines.append(header)
    lines += [",".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_report(doc: ReportDocument) -> str:
    """Serialize a report as a write_table table titled 'orbitcanon report v1'.

    The preamble holds the summary fields, and each row an index, the
    transform label and the accuracy under that transform.
    """
    if len(doc.grid) != len(doc.curve):
        raise ValueError("grid and curve lengths differ")
    return write_table("# orbitcanon report v1",
                       {key: getattr(doc, key) for key in _REPORT_KEYS},
                       "index,transform,accuracy",
                       ((i, label, float(acc))
                        for i, (label, acc) in enumerate(zip(doc.grid, doc.curve))))


def _read_table(text: str, header: str, where: str):
    """Split a '# key=value' preamble from the 3-column rows after `header`.

    Returns (metadata, rows as (line number, fields), whether the header
    was seen); `where` names the line numbers in errors.
    """
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not saw_header:
            if line != header:
                raise ValueError(f"{where} {lineno}: unexpected header {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{where} {lineno}: expected 3 columns")
        rows.append((lineno, parts))
    return meta, rows, saw_header


def read_report(text: str) -> ReportDocument:
    """Parse a report written by write_report, validating structure; its
    numbers are read as _number reads them."""
    meta, table, saw_header = _read_table(text, "index,transform,accuracy", "line")
    rows = [(_number(index, f"line {lineno}: malformed row", int), label,
             _number(accuracy, f"line {lineno}: malformed row"))
            for lineno, (index, label, accuracy) in table]
    missing = [k for k in _REPORT_KEYS if k not in meta]
    if missing:
        raise ValueError(f"missing metadata keys: {', '.join(missing)}")
    if not saw_header:
        raise ValueError("missing column header line")
    for i, (idx, _, _) in enumerate(rows):
        if idx != i:
            raise ValueError(f"row index {idx} out of order (expected {i})")
    if meta["canonicalized"] not in ("true", "false"):
        raise ValueError(f"bad canonicalized flag {meta['canonicalized']!r}")
    return ReportDocument(
        kind=meta["kind"],
        mode=meta["mode"],
        scheme=meta["scheme"],
        canonicalized=meta["canonicalized"] == "true",
        n_samples=_number(meta["n_samples"],
                          f"report n_samples {meta['n_samples']!r} is not an integer", int),
        **{key: _number(meta[key], f"report {key} {meta[key]!r} is not a number")
           for key in ("clean", "average", "worst")},
        grid=tuple(label for _, label, _ in rows),
        curve=np.array([acc for _, _, acc in rows], dtype=float),
    )


# ---------------------------------------------------------------------------
# Model files


def save_model(model: LinearSoftmaxModel) -> bytes:
    """Serialize a linear softmax model to a versioned little-endian blob.

    Layout after the 8-byte magic: the _MODEL_CODES code bytes (kind,
    canonicalize mode, scheme and training mode; 255 for an unset scheme),
    blur sigma as f8, the class and feature counts as u32, then row-major
    f8 weights and the f8 bias vector.  The model validated its own fields.
    """
    codes = [_UNSET if getattr(model, field) is None else table.index(getattr(model, field))
             for field, table, _ in _MODEL_CODES]
    head = struct.pack(_MODEL_HEAD, _MODEL_MAGIC, *codes, model.sigma, *model.weights.shape)
    return head + model.weights.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes()


def load_model(data: bytes) -> LinearSoftmaxModel:
    """Deserialize a model written by save_model; see there for the layout.

    Checks what only the file knows (magic, code ranges, length); the model
    refuses a bad sigma and non-finite weights."""
    head_size = struct.calcsize(_MODEL_HEAD)
    if len(data) < head_size:
        raise ValueError("truncated model file")
    magic, *codes, sigma, n_classes, n_features = struct.unpack(_MODEL_HEAD, data[:head_size])
    if magic != _MODEL_MAGIC:
        raise ValueError(f"bad model magic {magic!r}")
    settings = {}
    for code, (field, table, noun) in zip(codes, _MODEL_CODES):
        if code >= len(table) and (field, code) != ("scheme", _UNSET):
            raise ValueError(f"bad {noun} code {code}")
        settings[field] = table[code] if code < len(table) else None
    need = head_size + 8 * (n_classes * n_features + n_classes)
    if len(data) != need:
        raise ValueError(f"model file is {len(data)} bytes, expected {need}")
    flat = np.frombuffer(data[head_size:], dtype="<f8")
    return LinearSoftmaxModel(
        weights=flat[:n_classes * n_features].reshape(n_classes, n_features),
        bias=flat[n_classes * n_features:], sigma=sigma, **settings)


# ---------------------------------------------------------------------------
# Dataset directories


def save_dataset(data, directory) -> None:
    """Write a labeled dataset as one file per sample plus a manifest.

    Images become PGM files, clouds XYZ files; manifest.csv is a
    write_table table of filename, numeric label and class name, with
    kind, seed and the class names kept in its metadata.  A class name that
    the manifest cannot carry is refused before any file is written.
    """
    for name in data.class_names:
        if name != name.strip() or name.splitlines() != [name] or {"|", ","} & set(name):
            raise ValueError(f"class name {name!r} cannot be written to a manifest")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if data.kind == "image" else "xyz"
    rows = []
    for i, (datum, label) in enumerate(data.samples):
        name = f"sample_{i:05d}.{ext}"
        path = root / name
        if data.kind == "image":
            path.write_bytes(write_pgm(datum, maxval=65535))
        else:
            path.write_text(write_xyz(datum))
        rows.append((name, label, data.class_names[label]))
    meta = {"kind": data.kind, "seed": data.seed, "classes": "|".join(data.class_names)}
    (root / "manifest.csv").write_text(
        write_table(None, meta, "filename,label,class_name", rows))


def load_dataset(directory):
    """Read back a dataset directory written by save_dataset; a row whose
    class_name is not its label's declared class is refused."""
    root = Path(directory)
    manifest = root / "manifest.csv"
    if not manifest.is_file():
        raise ValueError(f"no manifest.csv under {root}")
    meta, table, _ = _read_table(manifest.read_text(), "filename,label,class_name",
                                 "manifest line")
    labels = [_number(label, f"manifest line {lineno}: label {label!r} is not an integer", int)
              for lineno, (_, label, _) in table]
    seed = meta.get("seed", "0")
    seed = _number(seed, f"manifest seed {seed!r} is not an integer", int)
    kind = meta.get("kind")
    if kind not in KINDS:
        raise ValueError(f"manifest kind {kind!r} is not 'image' or 'cloud'")
    class_names = tuple(meta.get("classes", "").split("|")) if meta.get("classes") else ()
    for (lineno, (_, _, name)), label in zip(table, labels):
        if 0 <= label < len(class_names) and name != class_names[label]:
            raise ValueError(f"manifest line {lineno}: class_name {name!r} does not match "
                             f"label {label} ({class_names[label]!r})")
    inputs = []
    for _, (name, _, _) in table:
        path = root / name
        if not path.is_file():
            raise ValueError(f"manifest references missing file {name}")
        if kind == "image":
            inputs.append(read_pgm(path.read_bytes()).pixels)
        else:
            inputs.append(read_xyz(read_cloud_text(path)))
    return LabeledDataset(kind=kind, inputs=inputs, targets=labels,
                          class_names=class_names, seed=seed)

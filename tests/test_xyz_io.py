"""read_xyz and write_xyz against the per-line reader and the per-coordinate
writer they replaced, on generated texts and clouds.

read_xyz hands text that is not blank to numpy's text reader, and what that
refuses, or reads as other than three columns, line by line; write_xyz
formats a whole cloud with one '%' call.  The oracles below are the line
loop and the join writer, kept as they were: read_xyz must return the
oracle's array bit for bit or raise the oracle's exact message, and
write_xyz must write the oracle's text wherever the oracle's text reads
back.  The one departure: read_xyz refuses a coordinate holding '_' or a
non-ASCII character, which float() takes, so a text with such a token must
raise the message of the line loop that calls ascii_float in place of
float().
"""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from orbitcanon.formats import read_xyz, write_xyz  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def oracle_read_xyz(text, number=float):
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 coordinates, got {len(parts)}")
        try:
            points.append([number(p) for p in parts])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric coordinate") from None
    if not points:
        raise ValueError("no points in XYZ input")
    X = np.array(points, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite coordinate in XYZ input")
    return X


def oracle_write_xyz(points):
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError("expected an N x 3 point array")
    lines = [" ".join("{:.17g}".format(v) for v in row) for row in X]
    return "\n".join(lines) + "\n"


def ascii_float(token):
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def _outcome(read, text):
    """The array's shape and bytes (so -0.0 differs from 0.0), or the message."""
    try:
        X = read(text)
    except ValueError as err:
        return "raised", str(err)
    return X.shape, X.tobytes()


def _expected(text):
    """The oracle's outcome; for a text with a token holding '_' or a non-ASCII
    character, the refusal of the line loop that reads tokens with ascii_float."""
    if all("_" not in t and t.isascii() for t in text.split()):
        return _outcome(oracle_read_xyz, text)
    outcome = _outcome(lambda t: oracle_read_xyz(t, ascii_float), text)
    assert outcome[0] == "raised"
    return outcome


# Tokens: what write_xyz writes, other spellings float() takes (signs,
# underscores, exponents, inf and nan in any case), and tokens it refuses.
finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite.map("{:.17g}".format),
    finite.map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "-0.0", "+0", "5e-324", "-2.2e-308", "1.7e308", "1e16",
                     "1_0", "+3", ".5", "5.", "1E3", "١٢"]),
)
special = st.sampled_from(["inf", "-inf", "+Infinity", "nan", "-NaN", "1e999", "-1e999"])
# Junk also holds what numpy's tokenizer might take where float() does not:
# hex floats, NUL, a BOM or zero-width space glued to a number, fullwidth digits.
junk = st.sampled_from(["abc", "1e", "--1", "0x1", "1__0", "_1", "1.2.3", "+", "-",
                        "0x1p3", "1\x00", "\x00", "\ufeff1", "1\u200b", "\uff11\uff12"])
bad = st.one_of(special, junk)
# Separators inside a line; \x0c, \x1c, \x85 and \u2028 are also line
# boundaries for splitlines, NBSP and \x1f only field separators, and NUL, the
# BOM and the zero-width space no separators at all.
gap = st.sampled_from([" ", "  ", "\t", " \t ", "\x0c", "\x1c", "\xa0", "\x1f", "\x85",
                       "\u2028", "\x00", "\ufeff", "\u200b"])
ending = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x85", "\u2028"])
blank = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\xa0"])
comment = st.sampled_from(["#", "# a comment", "  # indented", "#1 2 3", "# 1 2", "1 2 3 # tail"])


@st.composite
def row(draw, fields, dirty):
    """fields tokens; in a dirty text one row in four has a bad one."""
    tokens = draw(st.lists(numbers, min_size=fields, max_size=fields))
    if dirty and draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, fields - 1))] = draw(bad)
    line = draw(gap).join(tokens) if draw(st.booleans()) else " ".join(tokens)
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def texts(draw, mixed):
    """Rows of three and blank lines, plus, if mixed, comments and rows of 2
    or 4 fields; half the texts have bad tokens in some rows."""
    dirty = draw(st.booleans())
    kinds = ["row"] * 6 + ["blank"] * 2 + (["comment", "short", "long"] if mixed else [])
    body = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "blank":
            body.append(draw(blank))
        elif kind == "comment":
            body.append(draw(comment))
        else:
            body.append(draw(row({"row": 3, "short": 2, "long": 4}[kind], dirty)))
    parts = [line + draw(ending) for line in body]
    if parts and draw(st.booleans()):
        parts[-1] = body[-1]  # no final line ending
    return "".join(parts)


class TestReadXyz:
    @SETTINGS
    @given(texts(mixed=False))
    def test_rows_and_blank_lines(self, text):
        """Rows of three and blank lines: about half take the one-pass path."""
        assert _outcome(read_xyz, text) == _expected(text)

    @SETTINGS
    @given(texts(mixed=True))
    def test_mixed_texts(self, text):
        """Comments, rows of 2 and 4 fields and blank lines mixed in."""
        assert _outcome(read_xyz, text) == _expected(text)

    @pytest.mark.parametrize("text, message", [
        ("1 2 3\n4 5 x\n", "line 2: non-numeric coordinate"),
        ("1 2 3\r\n\r\n1 2\r\n", "line 3: expected 3 coordinates, got 2"),
        ("1 2 3\x1c4 5 6 7\n", "line 2: expected 3 coordinates, got 4"),
        ("1 2 3\nnan 0 0\n", "non-finite coordinate in XYZ input"),
        ("\n \t\n", "no points in XYZ input"),
        ("", "no points in XYZ input"),
    ])
    def test_messages(self, text, message):
        with pytest.raises(ValueError) as err:
            read_xyz(text)
        assert str(err.value) == message == _outcome(oracle_read_xyz, text)[1]

    def test_signed_zero_and_extremes(self):
        text = "-0 0 -0.0\n5e-324 -2.2e-308 1.7e308\n10 +3 1e16\n"
        X = read_xyz(text)
        assert X.tobytes() == oracle_read_xyz(text).tobytes()
        assert np.signbit(X[0]).tolist() == [True, False, True]

    @pytest.mark.parametrize("text, message", [
        ("1_0 2 3\n", "line 1: non-numeric coordinate"),
        ("1 2 3\n\u0661\u0662 2 3\n", "line 2: non-numeric coordinate"),
        ("1 2 3\n4 5 \uff16\n", "line 2: non-numeric coordinate"),
        ("1 2 3\n1 2\n1_0 2 3\n", "line 2: expected 3 coordinates, got 2"),
    ])
    def test_refuses_underscores_and_non_ascii_digits(self, text, message):
        """float() reads '1_0' as 10 and Arabic-Indic or fullwidth digits as
        numbers; other XYZ readers refuse them, and so does read_xyz."""
        with pytest.raises(ValueError) as err:
            read_xyz(text)
        assert str(err.value) == message == _expected(text)[1]

    def test_unicode_separators_stay_separators(self):
        """NBSP and the other Unicode spaces still split fields, and a comment
        may hold any character."""
        text = "1\xa02\u20033\n\x0c4 5\xa06\n# \u0661\u0662 1_0\n"
        X = read_xyz(text)
        assert X.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert X.tobytes() == oracle_read_xyz(text).tobytes()

    def test_peak_memory_is_bounded_by_the_text(self):
        """A 50,000-point text is read without a Python string per token: the
        peak stays under three times the text's length."""
        text = write_xyz(np.random.default_rng(3).normal(size=(50_000, 3)))
        tracemalloc.start()
        try:
            X = read_xyz(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (50_000, 3)
        assert peak < 3 * len(text)


clouds = arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
                elements=st.floats(allow_nan=False, allow_infinity=False, width=64))


class TestWriteXyz:
    @SETTINGS
    @given(clouds)
    def test_text_equals_join_writer(self, X):
        text = write_xyz(X)
        assert text == oracle_write_xyz(X)
        assert read_xyz(text).tobytes() == X.tobytes()

    @pytest.mark.parametrize("value", [-0.0, 5e-324, 2.2e-308, 1.7e308, 1e16, 1 / 3, -1e-300])
    def test_edge_values(self, value):
        X = np.array([[value, -value, 0.0]])
        assert write_xyz(X) == oracle_write_xyz(X)

    @SETTINGS
    @given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)),
                  elements=st.floats(width=64)))
    def test_refuses_what_the_reader_refuses(self, X):
        """Where write_xyz raises, the join writer's text failed to read back."""
        try:
            text = write_xyz(X)
        except ValueError:
            with pytest.raises(ValueError):
                oracle_read_xyz(oracle_write_xyz(X))
        else:
            assert text == oracle_write_xyz(X)

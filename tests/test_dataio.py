import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lkfs.dataio import (
    ORIENTATIONS,
    ExpressionMatrix,
    LabelVector,
    PreprocessConfig,
    generate_synthetic,
    load_labels,
    load_matrix,
    minmax_scale,
    save_labels,
    save_matrix,
    subsample,
    variance_filter,
)
from lkfs.errors import ConfigError, DataValidationError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadMatrix:
    def test_well_formed_tsv(self, tmp_path):
        path = write(
            tmp_path,
            "m.tsv",
            "id\tg1\tg2\ns1\t1.0\t2.0\ns2\t3.5\t4.5\ns3\t5.0\t6.0\n",
        )
        X = load_matrix(path)
        assert X.n == 3 and X.d == 2
        assert X.sample_ids == ("s1", "s2", "s3")
        assert X.feature_names == ("g1", "g2")
        np.testing.assert_array_equal(X.values, [[1.0, 2.0], [3.5, 4.5], [5.0, 6.0]])

    def test_comma_autodetected(self, tmp_path):
        path = write(tmp_path, "m.csv", "id,g1,g2\ns1,1,2\ns2,3,4\n")
        X = load_matrix(path)
        assert X.d == 2 and X.values[1, 1] == 4.0

    def test_na_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tg1\tg2\ns1\t1.0\tNA\ns2\t3\t4\n")
        with pytest.raises(DataValidationError, match="line 2.*'g2'"):
            load_matrix(path)

    def test_features_as_rows_transposed(self, tmp_path):
        lines = ["gene\ts1\ts2\ts3"]
        for j in range(4):
            lines.append(f"g{j}\t{j}\t{j + 10}\t{j + 20}")
        path = write(tmp_path, "m.tsv", "\n".join(lines) + "\n")
        X = load_matrix(path, orientation="cols")
        assert X.n == 3 and X.d == 4
        assert X.sample_ids == ("s1", "s2", "s3")
        assert X.values[1, 2] == 12.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            load_matrix(tmp_path / "absent.tsv")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tg1\tg2\ns1\t1.0\n")
        with pytest.raises(DataValidationError, match="ragged row at line 2"):
            load_matrix(path)

    def test_bad_cell_names_physical_line(self, tmp_path):
        # the bad cell sits on line 6, after two blank lines
        path = write(tmp_path, "m.tsv", "id\tg1\tg2\n\ns1\t1\t2\n \ns2\t3\t4\ns3\t5\tx\n")
        with pytest.raises(DataValidationError, match="non-numeric cell 'x' at line 6, column 'g2'"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "text, orientation, message",
        [
            ("id\tf0\t\tf2\ns1\t1\t2\t3\n", "rows",
             "empty feature name in the header at line 1, column 3"),
            ("\nid\tf0\t \ns1\t1\t2\n", "rows",
             "empty feature name in the header at line 2, column 3"),
            ("id\tf0\ns1\t1\n\n \t2\n", "rows", "empty sample id at line 4"),
            ("gene\ts1\t\ng0\t1\t2\n", "cols",
             "empty sample id in the header at line 1, column 3"),
            ("gene\ts1\ng0\t1\n\xa0\t2\n", "cols", "empty feature name at line 3"),
        ],
        ids=["header", "whitespace-header", "row-id", "cols-header", "cols-row-id"],
    )
    def test_empty_name_rejected(self, tmp_path, text, orientation, message):
        # an empty name could be selected, and a text selection skips blank lines
        path = write(tmp_path, "m.tsv", text)
        with pytest.raises(DataValidationError) as raised:
            load_matrix(path, orientation)
        assert str(raised.value) == message

    def test_ragged_row_names_physical_line(self, tmp_path):
        path = write(tmp_path, "m.tsv", "\nid\tg1\tg2\n\n\ns1\t1.0\n")
        with pytest.raises(DataValidationError, match="ragged row at line 5"):
            load_matrix(path)

    def test_duplicate_sample_id(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tg1\ns1\t1\ns1\t2\n")
        with pytest.raises(DataValidationError, match="duplicate sample id"):
            load_matrix(path)

    def test_infinite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "m.tsv", "id\tg1\ns1\tinf\ns2\t2\n")
        with pytest.raises(DataValidationError, match="non-finite"):
            load_matrix(path)

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        X = ExpressionMatrix(
            rng.standard_normal((5, 4)) * 1e3,
            tuple(f"s{i}" for i in range(5)),
            tuple(f"g{j}" for j in range(4)),
        )
        path = tmp_path / "roundtrip.tsv"
        save_matrix(X, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, X.values)
        assert back.sample_ids == X.sample_ids


def cell_by_cell_load_matrix(path, orientation="rows"):
    """The loader that read the whole text and parsed cell by cell, kept as
    the reference; it numbers lines as ``str.splitlines`` does, blank ones
    included, where it used to count only the non-blank ones."""
    if orientation not in ORIENTATIONS:
        raise ConfigError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"matrix file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip() != ""]
    if len(lines) < 2:
        raise DataValidationError(f"matrix file has no data rows: {path}")

    delim = "\t" if "\t" in lines[0][1] else ","
    header = [c.strip() for c in lines[0][1].split(delim)]
    col_names = header[1:]
    if not col_names:
        raise DataValidationError(f"header declares no columns: {path}")

    def parse_cell(raw, line_no, col_name):
        text = raw.strip()
        try:
            value = float(text)
        except ValueError:
            raise DataValidationError(
                f"non-numeric cell {text!r} at line {line_no}, column {col_name!r}"
            ) from None
        if not math.isfinite(value):
            raise DataValidationError(
                f"non-finite cell {text!r} at line {line_no}, column {col_name!r}"
            )
        return value

    row_ids, rows = [], []
    for line_no, line in lines[1:]:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != len(header):
            raise DataValidationError(
                f"ragged row at line {line_no}: expected {len(header)} cells, got {len(cells)}"
            )
        row_ids.append(cells[0])
        rows.append([parse_cell(c, line_no, col_names[j]) for j, c in enumerate(cells[1:])])

    values = np.array(rows, dtype=np.float64)
    if orientation == "cols":
        return ExpressionMatrix(values.T, sample_ids=col_names, feature_names=row_ids)
    return ExpressionMatrix(values, sample_ids=row_ids, feature_names=col_names)


def load_outcome(load, path, orientation):
    try:
        X = load(path, orientation)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return X.values.shape, X.values.tobytes(), X.sample_ids, X.feature_names


PADDING = st.sampled_from(["", "", "", " ", "  ", "\xa0", "\u3000", "\x1f"])
GOOD_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e-400", "-0", "1_000", "\u0661\u0662\u0663", "\uff11\uff12", "+.5e-3"]),
)
BAD_CELL = st.sampled_from(
    ["nan", "-inf", "inf", "1e309", "-1e309", "1__0", "_1", "0x10", "x", "NA", "", "1 2"]
)
NAME = st.tuples(st.sampled_from(["", " ", "\xa0"]), st.text("abcdefgh", min_size=1, max_size=2))
BLANK = st.sampled_from(["", " ", "\t", "\xa0 "])
LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\u2028", "\x85", "\x1e"])


@st.composite
def matrix_files(draw):
    """Text of a delimited matrix with the irregularities a real file can hold."""
    delim = draw(st.sampled_from(["\t", ","]))
    bad_percent = draw(st.sampled_from([0, 0, 2, 20]))
    ragged_percent = draw(st.sampled_from([0, 0, 0, 20]))

    def cell():
        text = draw(BAD_CELL if draw(st.integers(0, 99)) < bad_percent else GOOD_CELL)
        return draw(PADDING) + text + draw(PADDING)

    d = draw(st.integers(0, 5))
    lines = [delim.join(["id", *("".join(draw(NAME)) for _ in range(d))])]
    for _ in range(draw(st.integers(0, 6))):
        width = d
        if draw(st.integers(0, 99)) < ragged_percent:
            width = max(0, d + draw(st.sampled_from([-1, 1])))
        lines.append(delim.join(["".join(draw(NAME)), *(cell() for _ in range(width))]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK))
    text = "".join(line + draw(LINE_END) for line in lines)
    return text if draw(st.booleans()) else text[:-1]


class TestStreamingLoader:
    """The streaming loader gives what the cell-by-cell loader gave: the same
    value bytes, ids and names, or the same exception and message."""

    @settings(max_examples=300, deadline=None)
    @given(matrix_files(), st.sampled_from(ORIENTATIONS))
    def test_matches_cell_by_cell_loader(self, tmp_path_factory, text, orientation):
        path = tmp_path_factory.mktemp("fuzz") / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(cell_by_cell_load_matrix, path, orientation)
        assert load_outcome(load_matrix, path, orientation) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from(["\t", ","]),
        st.data(),
    )
    def test_save_load_round_trip(self, tmp_path_factory, values, delimiter, data):
        name = st.text(
            st.characters(categories=["L", "N", "P", "S"], exclude_characters="\t,"),
            min_size=1, max_size=6,
        )
        n, d = values.shape
        ids = data.draw(st.lists(name, min_size=n, max_size=n, unique=True))
        names = data.draw(st.lists(name, min_size=d, max_size=d, unique=True))
        X = ExpressionMatrix(values, ids, names)
        path = tmp_path_factory.mktemp("roundtrip") / "m.txt"
        save_matrix(X, path)
        # the saved file is tab-separated; a comma copy checks the loader's detection
        path.write_text(path.read_text(encoding="utf-8").replace("\t", delimiter), encoding="utf-8")
        back = load_matrix(path)
        assert back.values.tobytes() == X.values.tobytes()
        assert (back.sample_ids, back.feature_names) == (X.sample_ids, X.feature_names)

    @pytest.mark.parametrize("orientation", ORIENTATIONS)
    def test_load_memory_is_a_small_multiple_of_the_values(self, tmp_path, orientation):
        # the values array is allocated once and each file row parsed into it
        rng = np.random.default_rng(0)
        X = ExpressionMatrix(
            rng.standard_normal((100, 2000)),
            tuple(f"s{i}" for i in range(100)),
            tuple(f"g{j}" for j in range(2000)),
        )
        path = tmp_path / "m.tsv"
        if orientation == "rows":
            save_matrix(X, path)
        else:
            save_matrix(ExpressionMatrix(X.values.T, X.feature_names, X.sample_ids), path)
        tracemalloc.start()
        try:
            back = load_matrix(path, orientation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == X.values.tobytes()
        assert (back.sample_ids, back.feature_names) == (X.sample_ids, X.feature_names)
        assert peak <= X.values.nbytes + 2**20

    @pytest.mark.parametrize(
        "edited", ["id\ta\ns1\t1\ns2\t2\ns3\t3\n", "id\ta\ns1\t1\n"], ids=["grew", "shrank"]
    )
    def test_file_changed_between_count_and_parse(self, tmp_path, monkeypatch, edited):
        path = write(tmp_path, "m.tsv", "id\ta\ns1\t1\ns2\t2\n")
        real_open = Path.open
        opened = []

        def open_then_edit(self, *args, **kwargs):
            # the second open is the parse, after the data lines were counted
            opened.append(self)
            if len(opened) == 2:
                with open(self, "w", encoding="utf-8") as f:
                    f.write(edited)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_then_edit)
        with pytest.raises(DataValidationError, match="changed while it was read"):
            load_matrix(path)


class TestLoadLabels:
    def test_two_classes(self, tmp_path):
        path = write(tmp_path, "l.tsv", "s1\ta\ns2\tb\ns3\ta\ns4\tb\n")
        labels = load_labels(path)
        assert sorted(set(labels.labels.values())) == ["a", "b"]
        assert len(labels.labels) == 4

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "l.tsv", "sample_id\tlabel\ns1\ta\ns2\tb\n")
        labels = load_labels(path)
        assert set(labels.labels) == {"s1", "s2"}

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "l.tsv", "s1\ta\ns1\tb\n")
        with pytest.raises(DataValidationError, match="duplicate sample id"):
            load_labels(path)

    def test_empty_rejected(self, tmp_path):
        path = write(tmp_path, "l.tsv", "\n")
        with pytest.raises(DataValidationError, match="empty"):
            load_labels(path)

    @pytest.mark.parametrize("sid", ["", " ", "\xa0"], ids=["empty", "space", "nbsp"])
    def test_empty_sample_id_rejected(self, tmp_path, sid):
        path = write(tmp_path, "l.tsv", f"sample_id\tlabel\ns1\ta\n\n{sid}\tb\n")
        with pytest.raises(DataValidationError, match="^labels line 4 has an empty sample id$"):
            load_labels(path)

    @pytest.mark.parametrize("label", ["", " "], ids=["empty", "space"])
    def test_empty_label_rejected(self, tmp_path, label):
        # a missing label would otherwise load as a class of its own, ''
        path = write(tmp_path, "l.tsv", f"s1\t{label}\ns2\tb\ns3\tb\n")
        with pytest.raises(DataValidationError, match="^labels line 1 has an empty label$"):
            load_labels(path)

    def test_errors_name_physical_line(self, tmp_path):
        # the short row sits on line 5, after two blank lines
        path = write(tmp_path, "l.tsv", "sample_id\tlabel\n\ns1\ta\n\ns2\n")
        with pytest.raises(DataValidationError, match="labels line 5 has fewer than two columns"):
            load_labels(path)
        path = write(tmp_path, "d.tsv", "\ns1\ta\n \ns1\tb\n")
        with pytest.raises(DataValidationError, match="duplicate sample id 's1' at line 4"):
            load_labels(path)

    def test_superset_accepted(self, tmp_path):
        path = write(tmp_path, "l.tsv", "s1\ta\ns2\tb\nextra\ta\n")
        assert load_labels(path).labels == {"s1": "a", "s2": "b", "extra": "a"}

    def test_roundtrip(self, tmp_path):
        labels = LabelVector({"s1": "x", "s2": "y"})
        path = tmp_path / "l.tsv"
        save_labels(labels, path)
        assert load_labels(path).labels == labels.labels


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    return ExpressionMatrix(
        values,
        tuple(f"s{i}" for i in range(values.shape[0])),
        tuple(f"g{j}" for j in range(values.shape[1])),
    )


class TestMinMaxScale:
    def test_simple_column(self):
        X = minmax_scale(matrix_from([[2], [4], [6]]))
        np.testing.assert_array_equal(X.values[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = minmax_scale(matrix_from([[5, 1], [5, 2], [5, 3]]))
        np.testing.assert_array_equal(X.values[:, 0], [0.0, 0.0, 0.0])

    def test_negative_values(self):
        X = minmax_scale(matrix_from([[-1], [0], [1]]))
        np.testing.assert_array_equal(X.values[:, 0], [0.0, 0.5, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (7, 3),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    def test_idempotent(self, values):
        X = matrix_from(values)
        once = minmax_scale(X)
        twice = minmax_scale(once)
        np.testing.assert_array_equal(once.values, twice.values)
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0


    def test_scales_into_one_new_array(self):
        n, d = 200, 1000
        X = matrix_from(np.random.default_rng(0).standard_normal((n, d)))
        lo, hi = X.values.min(axis=0), X.values.max(axis=0)
        tracemalloc.start()
        try:
            scaled = minmax_scale(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n×d result; numpy's 64 KiB buffer for the broadcast subtraction
        # and the result's name sets fit in the rest
        assert peak <= 8 * n * d + 128 * 1024
        assert scaled.values.tobytes() == ((X.values - lo) / (hi - lo)).tobytes()


class TestVarianceFilter:
    def test_keeps_top_half(self):
        base = np.zeros((4, 4))
        base[:, 1] = [0, 1, 0, 1]
        base[:, 2] = [0, 2, 0, 2]
        base[:, 3] = [0, 3, 0, 3]
        X = variance_filter(matrix_from(base), 0.5)
        assert X.feature_names == ("g2", "g3")

    def test_keep_all_is_identity(self, small_fixture):
        X, _ = small_fixture
        out = variance_filter(X, 1.0)
        assert out.feature_names == X.feature_names
        np.testing.assert_array_equal(out.values, X.values)

    def test_paper_scale_count(self):
        rng = np.random.default_rng(0)
        X = matrix_from(rng.standard_normal((3, 17640)))
        out = variance_filter(X, 0.5)
        assert out.d == 8820

    def test_tie_break_by_index(self):
        values = np.zeros((4, 3))
        values[:, 0] = [0, 1, 0, 1]
        values[:, 2] = [0, 1, 0, 1]
        X = variance_filter(matrix_from(values), 1 / 3)
        assert X.feature_names == ("g0",)

    def test_tied_variances_across_the_cut_keep_the_lower_indices(self):
        # three interleaved groups of duplicate columns: at every cut, a group
        # split by it keeps its lowest-index columns
        d = 64
        levels = 1.0 + (np.arange(d) * 7) % 3
        X = matrix_from(np.array([0.0, 1.0, 0.0, 1.0])[:, None] * levels)
        order = sorted(range(d), key=lambda j: (-levels[j], j))
        for keep in range(1, d):
            kept = variance_filter(X, (keep + 0.5) / d).feature_names
            assert kept == tuple(f"g{j}" for j in sorted(order[:keep])), keep

    def test_zero_columns_rejected(self):
        with pytest.raises(DataValidationError):
            variance_filter(matrix_from([[1.0], [2.0]]), 0.4)


class TestSubsample:
    def test_eighty_percent(self, small_fixture):
        X, _ = small_fixture
        sub = subsample(X, 0.8, seed=1)
        assert sub.n == 96
        assert len(set(sub.sample_ids)) == 96

    def test_same_seed_reproducible(self, small_fixture):
        X, _ = small_fixture
        a = subsample(X, 0.8, seed=5)
        b = subsample(X, 0.8, seed=5)
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self, small_fixture):
        X, _ = small_fixture
        a = subsample(X, 0.8, seed=1)
        b = subsample(X, 0.8, seed=2)
        assert a.sample_ids != b.sample_ids

    def test_full_fraction_is_permutation(self, small_fixture):
        X, _ = small_fixture
        sub = subsample(X, 1.0, seed=3)
        assert sorted(sub.sample_ids) == sorted(X.sample_ids)

    def test_too_small_result_rejected(self):
        X = matrix_from(np.arange(8.0).reshape(4, 2))
        with pytest.raises(DataValidationError):
            subsample(X, 0.26, seed=0)


class TestGenerateSynthetic:
    def test_mean_gap_matches_parameters(self):
        # oracle: empirical class-mean gap within 3 standard errors of the target
        n, separation = 200, 4.0
        X, labels = generate_synthetic(n=n, d=100, informative=10, separation=separation, seed=11)
        second = np.array([labels.labels[sid] == "class1" for sid in X.sample_ids])
        gap = X.values[second].mean(axis=0) - X.values[~second].mean(axis=0)
        se = np.sqrt(1 / (n / 2) + 1 / (n / 2))
        assert np.all(np.abs(gap[:10] - separation) < 3 * se)
        assert np.all(np.abs(gap[10:]) < 3 * se)

    def test_no_informative_means_no_separation(self):
        X, labels = generate_synthetic(n=100, d=20, informative=0, separation=4.0, seed=2)
        second = np.array([labels.labels[sid] == "class1" for sid in X.sample_ids])
        gap = X.values[second].mean(axis=0) - X.values[~second].mean(axis=0)
        assert np.all(np.abs(gap) < 1.0)

    def test_deterministic(self):
        a, _ = generate_synthetic(n=50, d=10, informative=3, separation=2.0, seed=9)
        b, _ = generate_synthetic(n=50, d=10, informative=3, separation=2.0, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_balanced_classes(self):
        _, labels = generate_synthetic(n=60, d=5, informative=2, separation=1.0, seed=0)
        counts = {}
        for lab in labels.labels.values():
            counts[lab] = counts.get(lab, 0) + 1
        assert counts == {"class0": 30, "class1": 30}

    def test_parameter_bounds(self):
        with pytest.raises(ConfigError):
            generate_synthetic(n=10, d=5, informative=6, separation=1.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(n=11, d=5, informative=2, separation=1.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic(n=10, d=5, informative=2, separation=0.0, seed=0)


def test_preprocess_config_bounds():
    with pytest.raises(ConfigError):
        PreprocessConfig(variance_keep_fraction=0.0)
    with pytest.raises(ConfigError):
        PreprocessConfig(subsample_fraction=1.5)
    with pytest.raises(ConfigError):
        PreprocessConfig(repetitions=0)


def test_expression_matrix_invariants():
    with pytest.raises(DataValidationError, match="duplicate feature"):
        ExpressionMatrix(np.ones((2, 2)), ("a", "b"), ("g", "g"))
    with pytest.raises(DataValidationError, match="non-finite"):
        ExpressionMatrix(np.array([[1.0, np.nan]]), ("a",), ("g1", "g2"))
    with pytest.raises(DataValidationError):
        ExpressionMatrix(np.ones((2, 2)), ("a",), ("g1", "g2"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_expression_matrix_names_the_first_non_finite_cell(bad):
    values = np.zeros((3, 4))
    values[1, 2] = values[2, 0] = bad
    with pytest.raises(DataValidationError, match="sample 's1', feature 'g2'"):
        matrix_from(values)

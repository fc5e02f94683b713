"""Generator, splitting, scaling and CSV round-trip tests."""
import fractions
import math
import re
import time

import numpy as np
import pytest

from qsvm_boost.datasets import (
    LabeledDataset,
    OneClassError,
    SplitDataset,
    dataset_from_csv,
    dataset_to_csv,
    make_circles,
    make_moons,
    make_xor,
    split_and_scale,
)
from helpers import reference_circles, reference_moons, reference_scale, reference_split


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


# --- xor ---

def test_xor_labels_match_quadrants():
    data = make_xor(200, margin=0.0, seed=4)
    np.testing.assert_array_equal(data.y, (data.X[:, 0] * data.X[:, 1] > 0).astype(int))
    assert np.all(np.abs(data.X) <= 1.0)


def test_xor_margin_band_excluded():
    data = make_xor(300, margin=0.2, seed=9)
    assert np.all(np.abs(data.X[:, 0] * data.X[:, 1]) >= 0.2)


def test_xor_determinism_and_guards():
    a, b = make_xor(50, seed=7), make_xor(50, seed=7)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.X, make_xor(50, seed=8).X)
    with pytest.raises(ValueError):
        make_xor(50, margin=1.0)
    with pytest.raises(ValueError):
        make_xor(3)


def test_xor_refuses_a_margin_that_keeps_too_few_draws():
    # a uniform draw is kept with probability 1 - m + m ln m, about 5e-13 at m = 0.999999: 150
    # points would need some 3e14 draws, so the generator refuses before it draws any
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"margin 0\.999999 keeps too few uniform draws: n=150"):
        make_xor(150, margin=0.999999)
    assert time.perf_counter() - start < 1.0
    # a margin whose expected draws stay under 1e9 still runs (about 3e6 draws here)
    data = make_xor(150, margin=0.99, seed=3)
    assert len(data) == 150 and np.all(np.abs(data.X[:, 0] * data.X[:, 1]) >= 0.99)


# --- moons ---

def test_moons_noise_free_endpoints():
    data = make_moons(40, noise_std=0.0, seed=0)
    class0 = data.X[data.y == 0]
    class1 = data.X[data.y == 1]
    np.testing.assert_allclose(class0[0], [1.0, 0.0], atol=1e-12)  # t = 0
    np.testing.assert_allclose(class1[0], [0.0, 0.5], atol=1e-12)  # t = 0
    # class 0 sweeps the upper unit half circle
    np.testing.assert_allclose(np.linalg.norm(class0, axis=1), 1.0, atol=1e-12)


def test_moons_determinism():
    a, b = make_moons(60, noise_std=0.2, seed=5), make_moons(60, noise_std=0.2, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    assert a.params == {"noise_std": 0.2}


# --- circles ---

def test_circles_radii():
    data = make_circles(50, factor=0.5, noise_std=0.0, seed=1)
    norms0 = np.linalg.norm(data.X[data.y == 0], axis=1)
    norms1 = np.linalg.norm(data.X[data.y == 1], axis=1)
    np.testing.assert_allclose(norms0, 1.0, atol=1e-12)
    np.testing.assert_allclose(norms1, 0.5, atol=1e-12)
    np.testing.assert_allclose(data.X[data.y == 0][0], [1.0, 0.0], atol=1e-12)


def test_circles_guards_and_determinism():
    with pytest.raises(ValueError):
        make_circles(50, factor=1.0)
    with pytest.raises(ValueError):
        make_circles(50, factor=0.0)
    a, b = make_circles(40, seed=2), make_circles(40, seed=2)
    np.testing.assert_array_equal(a.X, b.X)


@pytest.mark.parametrize("generator", [make_moons, make_circles])
@pytest.mark.parametrize("noise_std", [-0.1, math.nan, math.inf])
def test_noise_std_must_be_nonnegative_and_finite(generator, noise_std):
    with pytest.raises(ValueError, match="noise_std must be nonnegative and finite"):
        generator(60, noise_std=noise_std)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((4, 3)), np.array([0, 1, 0, 1]), "xor", 0)
    with pytest.raises(OneClassError, match="both classes"):
        LabeledDataset(np.zeros((4, 2)), np.array([1, 1, 1, 1]), "xor", 0)
    assert LabeledDataset(np.zeros((4, 2)), [0.0, 1.0, 1.0, 0.0], "xor", 0).y.tolist() == [0, 1, 1, 0]
    # the CSV writer would write a list back as it is, so the dataset refuses params of no dict
    with pytest.raises(ValueError, match=r"^params must be a dict, got \[1, 2\]$"):
        LabeledDataset(np.zeros((2, 2)), [0, 1], "xor", 0, [1, 2])
    # a numpy scalar, which JSON cannot write, is kept as the Python number it equals
    params = LabeledDataset(np.zeros((2, 2)), [0, 1], "moons", 0, {"noise_std": np.float32(0.3)}).params
    assert params == {"noise_std": 0.30000001192092896} and type(params["noise_std"]) is float


@pytest.mark.parametrize("value", [fractions.Fraction(3, 10), {1, 2}, object])
def test_params_the_csv_header_cannot_write_are_refused_by_value(value):
    # a Fraction was kept, then failed the CSV write with "Object of type Fraction is not JSON serializable"
    message = f"params must be writable as JSON, got {{'p': {value!r}}}: "
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        LabeledDataset(np.zeros((2, 2)), [0, 1], "moons", 0, {"p": value})


@pytest.mark.parametrize("y, bad", [([0, 2, 1, 1], r"\[2\]"), ([0, 1, 1, -1], r"\[-1\]"),
                                    ([0.5, 1, 0, 1], r"\[0.5\]"), ([3, 1, 0, 3.5], r"\[3.0, 3.5\]")])
def test_labels_other_than_0_or_1_are_refused_by_name(y, bad):
    # such labels raised OneClassError, which the config loader may forgive, and 0.5 read as 0
    with pytest.raises(ValueError, match=f"^labels must be 0 or 1, got {bad}$") as refused:
        LabeledDataset(np.zeros((4, 2)), y, "xor", 0)
    assert refused.type is ValueError


# --- split and scale ---

def test_split_sizes_and_disjointness():
    data = make_circles(150, seed=3)
    split = split_and_scale(data, (50, 50, 50), seed=11)
    assert len(split.train) == len(split.val) == len(split.test) == 50
    for part in (split.train, split.val, split.test):
        assert set(np.unique(part.y)) == {0, 1}
    # disjoint: the three parts together reproduce the multiset of all rows
    stacked = np.vstack([split.train.X, split.val.X, split.test.X])
    assert stacked.shape == (150, 2)


def test_split_scaling_to_pi():
    data = make_moons(120, seed=6)
    split = split_and_scale(data, (40, 40, 40), seed=7)
    assert split.train.X.min(axis=0) == pytest.approx([0.0, 0.0], abs=0)
    assert split.train.X.max(axis=0) == pytest.approx([math.pi, math.pi], abs=1e-15)


def test_reference_scale_is_the_train_affine_map():
    fit = np.array([[0.0, 5.0], [2.0, 5.0]])
    np.testing.assert_allclose(reference_scale(fit, np.array([[1.0, 2.0], [2.0, 7.0]])),
                               [[math.pi / 2, 0.0], [math.pi, 0.0]], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 7, 20240911])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
@pytest.mark.parametrize("n", [9, 10, 150])
def test_two_class_generators_keep_the_reference_bits(n, noise_std, seed):
    cases = [(make_moons(n, noise_std, seed), reference_moons(n, noise_std, seed))]
    cases += [(make_circles(n, factor, noise_std, seed), reference_circles(n, factor, noise_std, seed))
              for factor in (0.3, 0.5)]
    for data, (X, y) in cases:
        assert_same_bits(data.X, X)
        assert_same_bits(data.y, y)


# feature 1 is constant, so every split maps it to 0
_FLAT = LabeledDataset(np.column_stack([np.arange(40.0), np.full(40, 2.5)]), np.arange(40) % 2, "xor", 3)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("data, sizes", [
    (make_moons(150, noise_std=0.3, seed=31), (50, 50, 50)),
    (make_moons(150, noise_std=0.3, seed=31), (20, 30, 40)),
    (make_circles(101, seed=4), (33, 33, 35)),
    (make_circles(101, seed=4), (10, 5, 7)),
    (make_xor(90, margin=0.1, seed=2), (30, 30, 30)),
    (_FLAT, (20, 10, 10)),
    (_FLAT, (5, 6, 7)),
], ids=["moons-all", "moons-part", "circles-all", "circles-part", "xor", "flat-all", "flat-part"])
def test_split_and_scale_keeps_the_reference_bits(data, sizes, seed):
    split = split_and_scale(data, sizes, seed=seed)
    parts = (split.train, split.val, split.test)
    for part, (X, y) in zip(parts, reference_split(data.X, data.y, sizes, seed)):
        assert_same_bits(part.X, X)
        assert_same_bits(part.y, y)
        assert (part.kind, part.seed, part.params) == (data.kind, data.seed, data.params)
    # scaling the scaled train split again changes nothing
    np.testing.assert_allclose(reference_scale(split.train.X, split.train.X), split.train.X, atol=1e-12)
    if data is _FLAT:
        assert all(np.all(part.X[:, 1] == 0.0) for part in parts)


def test_split_determinism():
    data = make_moons(150, seed=2)
    a = split_and_scale(data, (50, 50, 50), seed=9)
    b = split_and_scale(data, (50, 50, 50), seed=9)
    np.testing.assert_array_equal(a.train.X, b.train.X)
    np.testing.assert_array_equal(a.test.y, b.test.y)


def test_split_size_guard():
    data = make_moons(100, seed=2)
    with pytest.raises(ValueError):
        split_and_scale(data, (50, 50, 50), seed=0)
    for sizes in ((30, 30), (20, 20, 20, 20), 30, ((30, 30, 30),)):
        with pytest.raises(ValueError, match="sizes must be three counts"):
            split_and_scale(data, sizes)


def test_split_gives_up_when_classes_cannot_cover():
    # two minority samples cannot reach three splits, so retries must fail
    X = np.linspace(0, 1, 12).reshape(6, 2)
    y = np.array([0, 0, 0, 0, 1, 1])
    data = LabeledDataset(X, y, "xor", 0)
    with pytest.raises(ValueError, match="both classes"):
        split_and_scale(data, (2, 2, 2), seed=0)


# --- CSV round trip ---

def unwritten(path, lineno: int, text: str) -> str:
    """The refusal of a file whose line ``lineno``, ``text`` with its newline if it has one,
    dataset_to_csv would not write."""
    return f"^{re.escape(f'{path} line {lineno} is not a line dataset_to_csv writes: {text!r}')}$"


@pytest.mark.parametrize("split", [False, True], ids=["plain", "split"])
@pytest.mark.parametrize("generator", [make_xor, make_moons, make_circles])
def test_csv_writes_back_byte_for_byte(tmp_path, generator, split):
    data = generator(45, seed=6)
    data = split_and_scale(data, (15, 15, 15), seed=2) if split else data
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    dataset_to_csv(first, data)
    dataset_to_csv(second, dataset_from_csv(first))
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("edit, lineno", [
    (lambda lines: lines[:4] + ["\n"] + lines[4:], 5),
    (lambda lines: lines[:3] + ["0.50,1.0,1,train\n"] + lines[4:], 4),
    (lambda lines: ['# kind=moons seed=8 params={"noise_std": 0.2, "a": 1}\n'] + lines[1:], 1),
    (lambda lines: lines[:2] + [lines[13]] + lines[2:13] + lines[14:], 3),
    (lambda lines: lines[1:], 1),
    (lambda lines: lines[:-1] + [lines[-1].rstrip("\n")], 32),
    (lambda lines: lines[:6] + [lines[6].replace("\n", "\r\n")] + lines[7:], 7),
], ids=["blank-line", "0.50-for-0.5", "unsorted-params", "val-row-before-train", "no-header", "no-final-newline",
        "crlf"])
def test_csv_refuses_by_line_what_the_writer_would_not_write(tmp_path, edit, lineno):
    # each of these loaded before the reader checked the file against its writer
    path = tmp_path / "split.csv"
    dataset_to_csv(path, split_and_scale(make_moons(30, seed=8), (10, 10, 10), seed=1))
    lines = edit(path.read_text().splitlines(keepends=True))
    path.write_bytes("".join(lines).encode())
    with pytest.raises(ValueError, match=unwritten(path, lineno, lines[lineno - 1])):
        dataset_from_csv(path)


def test_csv_writer_refuses_a_kind_that_holds_whitespace(tmp_path):
    # the header's fields end at a space, so "my kind" was written and then refused by the reader
    data = LabeledDataset(np.zeros((2, 2)), [0, 1], "my kind", 1)
    with pytest.raises(ValueError, match="^dataset kind 'my kind' holds whitespace"):
        dataset_to_csv(tmp_path / "kind.csv", data)
    assert not (tmp_path / "kind.csv").exists()


def test_csv_round_trip_plain(tmp_path):
    data = make_circles(30, seed=5)
    path = tmp_path / "plain.csv"
    dataset_to_csv(path, data)
    loaded = dataset_from_csv(path)
    assert isinstance(loaded, LabeledDataset)
    np.testing.assert_array_equal(loaded.X, data.X)
    np.testing.assert_array_equal(loaded.y, data.y)
    assert loaded.kind == "circles" and loaded.seed == 5
    assert loaded.params == data.params


def test_csv_round_trip_split(tmp_path):
    data = make_moons(90, seed=8)
    split = split_and_scale(data, (30, 30, 30), seed=1)
    path = tmp_path / "split.csv"
    dataset_to_csv(path, split)
    loaded = dataset_from_csv(path)
    assert isinstance(loaded, SplitDataset)
    for name in ("train", "val", "test"):
        np.testing.assert_array_equal(getattr(loaded, name).X, getattr(split, name).X)
        np.testing.assert_array_equal(getattr(loaded, name).y, getattr(split, name).y)


def test_csv_rejects_malformed_rows(tmp_path):
    data = make_moons(30, seed=8)
    path = tmp_path / "split.csv"
    dataset_to_csv(path, split_and_scale(data, (10, 10, 10), seed=1))
    lines = path.read_text().splitlines()
    bad_split = lines[:5] + [lines[5].rsplit(",", 1)[0] + ",tset"] + lines[6:]
    path.write_text("\n".join(bad_split) + "\n")
    with pytest.raises(ValueError, match=unwritten(path, 6, bad_split[5] + "\n")):
        dataset_from_csv(path)
    path.write_text("\n".join(lines[:3] + ["0.5,1.0"] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match=unwritten(path, 4, "0.5,1.0\n")):
        dataset_from_csv(path)
    path.write_text("# kind=xor seed=0 params={}\nx1,x2,y\n0.1,0.2\n")
    with pytest.raises(ValueError, match=unwritten(path, 3, "0.1,0.2\n")):
        dataset_from_csv(path)


@pytest.mark.parametrize("column, text", [(2, "1.0"), (0, "abc"), (1, "")])
def test_csv_names_the_line_of_a_field_it_cannot_read(tmp_path, column, text):
    # int() and float() refused these with their own text and no location
    path = tmp_path / "plain.csv"
    dataset_to_csv(path, make_circles(10, seed=5))
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = text
    path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    with pytest.raises(ValueError, match=unwritten(path, 4, ",".join(fields) + "\n")):
        dataset_from_csv(path)


def test_csv_names_the_line_of_a_header_seed_it_cannot_read(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("# kind=xor seed=1.5 params={}\nx1,x2,y\n0.1,0.2,1\n0.3,0.4,0\n")
    with pytest.raises(ValueError, match=unwritten(path, 1, "# kind=xor seed=1.5 params={}\n")):
        dataset_from_csv(path)


@pytest.mark.parametrize("params", ["{margin: 0.0}", "[1, 2]"])
def test_csv_names_the_line_of_header_params_it_cannot_read(tmp_path, params):
    # bad JSON raised a bare JSONDecodeError, and a JSON list loaded as the dataset's params;
    # the list is JSON the reader can read, so the dataset refuses it as params of no dict
    path = tmp_path / "plain.csv"
    path.write_text(f"# kind=xor seed=1 params={params}\nx1,x2,y\n0.1,0.2,1\n0.3,0.4,0\n")
    message = (unwritten(path, 1, f"# kind=xor seed=1 params={params}\n") if params.startswith("{")
               else r"^params must be a dict, got \[1, 2\]$")
    with pytest.raises(ValueError, match=message):
        dataset_from_csv(path)


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_csv_refuses_a_split_with_no_rows(tmp_path, split):
    # an empty split was refused as a one-class dataset
    path = tmp_path / "split.csv"
    dataset_to_csv(path, split_and_scale(make_moons(30, seed=8), (10, 10, 10), seed=1))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.endswith("," + split)) + "\n")
    with pytest.raises(ValueError, match=f"^no {split} rows in "):
        dataset_from_csv(path)


def test_csv_empty_guard(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# kind=xor seed=0 params={}\nx1,x2,y\n")
    with pytest.raises(ValueError):
        dataset_from_csv(path)

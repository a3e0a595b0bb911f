import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentgibbs as mg
from momentgibbs.state_space import RANK_TOL, affine_frame
from oracles import reference_new_state_set, reference_state_set_from_json


def test_minimal_two_state():
    A = mg.new_state_set(1, [[0], [1]])
    assert len(A) == 2
    assert A.dim == 1
    assert A.affine_dim == 1
    assert mg.affine_dim(A) == 1


def test_points_read_back_bit_exact():
    raw = [[0.1, -2.5], [3.25, 7.0], [1e-9, 4.2]]
    A = mg.new_state_set(2, raw)
    assert np.array_equal(A.points, np.array(raw, dtype=float))
    assert not A.points.flags.writeable


def test_collinear_affine_dim():
    A = mg.new_state_set(2, [[0, 0], [1, 1], [2, 2]])
    assert A.affine_dim == 1


def test_square_spans_plane():
    A = mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
    assert A.affine_dim == 2


def test_single_point_affine_dim_zero():
    assert mg.new_state_set(3, [[1, 2, 3]]).affine_dim == 0


def test_duplicate_rejected_with_both_indices():
    with pytest.raises(mg.DuplicatePoint) as err:
        mg.new_state_set(1, [[0], [0]])
    assert "0" in str(err.value) and "1" in str(err.value)
    with pytest.raises(mg.DuplicatePoint) as err:
        mg.new_state_set(2, [[0, 0], [1, 2], [3, 4], [1, 2]])
    assert "1" in str(err.value) and "3" in str(err.value)


def test_empty_and_ragged_inputs():
    with pytest.raises(mg.EmptyStateSet):
        mg.new_state_set(1, [])
    with pytest.raises(mg.DimensionMismatch):
        mg.new_state_set(2, [[0, 0], [1]])
    with pytest.raises(ValueError):
        mg.new_state_set(1, [[float("nan")]])
    with pytest.raises(ValueError):
        mg.new_state_set(0, [[0]])


def test_coordinate_beyond_float_range_is_value_error():
    with pytest.raises(ValueError, match="point 1 has a coordinate beyond the float range"):
        mg.new_state_set(1, [[0], [10**400]])
    with pytest.raises(ValueError, match="point 2 "):
        mg.new_state_set(2, [[0, 0], [1, 2**1023], [-(10**309), 1]])


_A = mg.new_state_set(2, [[0, 0], [1, 0], [0, 1], [1, 1]])
_BIG = 10**400  # a Python int that float64 cannot hold


@pytest.mark.parametrize(
    "call",
    [
        lambda: mg.mean_energy(_A, [_BIG, 0]),
        lambda: mg.interior_margin(mg.convex_hull(_A), [_BIG, 0]),
        lambda: mg.invert_mean_energy(_A, [_BIG, 0]),
        lambda: mg.new_state_set(1, np.array([[0], [_BIG]], dtype=object)),
        lambda: mg.CoVector([_BIG]),
        lambda: mg.Observable([_BIG]),
        lambda: mg.WeightVector([_BIG]),
        lambda: mg.Distribution([_BIG, 0, 0, 0], _A),
        lambda: mg.CoVector([1.0]).pairing([_BIG]),
        lambda: mg.QuadraticForm([[_BIG]]),
    ],
    ids=[
        "mean_energy", "interior_margin", "invert_mean_energy", "new_state_set_ndarray",
        "CoVector", "Observable", "WeightVector", "Distribution", "pairing", "QuadraticForm",
    ],
)
def test_int_beyond_float_range_is_value_error(call):
    with pytest.raises(ValueError, match="beyond the float range"):
        call()


_LINE = mg.new_state_set(1, [[0], [1]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mg.Observable([]), "observable values must form a nonempty vector"),
        (lambda: mg.CoVector([]), "covector needs at least one component"),
        (lambda: mg.gibbs_summary(_LINE, [math.nan]), "covector components must be finite"),
        (lambda: mg.WeightVector([]), "weights must form a nonempty vector"),
        (lambda: mg.QuadraticForm([[math.inf]]), "matrix entries must be finite"),
    ],
    ids=["Observable", "CoVector", "gibbs_summary", "WeightVector", "QuadraticForm"],
)
def test_value_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message  # no subclass


@pytest.mark.parametrize(
    "build, name, given",
    [
        (mg.Observable, "values", [1.0, 2.0]),
        (mg.CoVector, "components", [1.0, -2.0]),
        (lambda a: mg.Distribution(a, _LINE), "probs", [0.25, 0.75]),
        (mg.WeightVector, "weights", [0.0, 2.0]),
        (mg.QuadraticForm, "matrix", [[2.0, 0.5], [0.5, 1.0]]),
        (lambda a: mg.MicrostateCounts(a, 3, 7, _LINE), "counts", [1, 2]),
    ],
    ids=["Observable", "CoVector", "Distribution", "WeightVector", "QuadraticForm", "MicrostateCounts"],
)
def test_value_types_store_a_read_only_copy(build, name, given):
    arr = np.array(given)
    stored = getattr(build(arr), name)
    assert not stored.flags.writeable and not np.shares_memory(stored, arr)
    arr[...] = 5
    assert stored.tolist() == given


def test_labels_validation():
    A = mg.new_state_set(1, [[0], [1]], labels=["a", "b"])
    assert A.labels == ("a", "b")
    with pytest.raises(mg.LengthMismatch):
        mg.new_state_set(1, [[0], [1]], labels=["a"])
    with pytest.raises(ValueError):
        mg.new_state_set(1, [[0], [1]], labels=["a", "a"])


def test_is_lattice_flag():
    assert mg.new_state_set(2, [[0, 1], [2, 3]]).is_lattice
    assert not mg.new_state_set(2, [[0, 1], [2, 3.5]]).is_lattice


def test_affine_dim_translation_invariance():
    rng = np.random.Generator(np.random.Philox(key=1))
    pts = rng.normal(size=(6, 3))
    base = mg.new_state_set(3, pts).affine_dim
    for _ in range(5):
        shift = rng.normal(size=3) * 100.0
        assert mg.new_state_set(3, pts + shift).affine_dim == base


@settings(deadline=None, max_examples=40)
@given(st.permutations(list(range(5))))
def test_affine_dim_permutation_invariance(order):
    pts = np.array([[0, 0], [1, 0], [2, 0], [3, 1], [4, 4]], dtype=float)
    reference = mg.new_state_set(2, pts).affine_dim
    assert mg.new_state_set(2, pts[order]).affine_dim == reference


def _reference_frame(pts):
    """Rank from a values-only SVD and frame from a full_matrices=True SVD of
    the centered points in the set's unit 2^k, each factorization computed on
    its own; the rank test is relative to the largest singular value. At full
    dimension the span is the identity, so the frame only centers and scales."""
    k = math.frexp(float(np.abs(pts).max()))[1]
    diffs = np.ldexp(pts, -k) - np.ldexp(pts[0], -k)
    s = np.linalg.svd(diffs, compute_uv=False)
    d = int(np.sum(s > RANK_TOL * s[0]))
    _, _, vh = np.linalg.svd(diffs, full_matrices=True)
    span = vh[:d].T.copy() if d < pts.shape[1] else np.eye(d)
    return d, (pts[0].copy(), span, vh[d:].T.copy())


def _frame_reference_sets():
    rng = np.random.Generator(np.random.Philox(key=59))
    for _ in range(6):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 1, 8))
        # reduced integer lattice: a box lattice mapped into R^n
        side = 4
        cells = rng.choice(side**d, size=int(rng.integers(d + 1, side**d + 1)), replace=False)
        box = np.stack(np.unravel_index(cells, (side,) * d), axis=1).astype(float)
        lat = box @ rng.integers(-2, 3, size=(d, n)) + rng.integers(-5, 6, size=n)
        yield np.unique(lat, axis=0)
        # reduced Gaussian cloud, scaled by 10^k for |k| <= 4
        cloud = rng.normal(size=(int(rng.integers(d + 1, 200)), d)) @ rng.normal(size=(d, n))
        yield cloud * 10.0 ** rng.integers(-4, 5) + rng.normal(size=n)
        # full-dimensional, and N == n (n points span at most n - 1 dimensions)
        yield rng.normal(size=(int(rng.integers(n + 1, 60)), n))
        yield rng.normal(size=(n, n))
    # a lattice jittered around the rank tolerance, and a spread below it
    plane = rng.integers(-4, 5, size=(30, 2)) @ rng.normal(size=(2, 4))
    for eps in (1e-10, 1e-9, 1e-8):
        yield plane + eps * rng.normal(size=plane.shape)
    # full-dimensional at 1e-12 (the floor max(s[0], 1) once made it a point),
    # and a spread below RANK_TOL relative to the set's own scale
    yield rng.normal(size=(5, 3)) * 1e-12
    yield (plane + 1e-11 * rng.normal(size=plane.shape)) * 1e-12
    # fewer points than coordinates, and a single point
    yield rng.normal(size=(2, 3))
    yield rng.normal(size=(3, 8))
    yield rng.normal(size=(1, 4))
    yield np.array([[2.5]])


def test_affine_frame_matches_separate_svds():
    kinds = set()
    dims = []
    for pts in _frame_reference_sets():
        N, n = pts.shape
        A = mg.new_state_set(n, pts)
        d, ref = _reference_frame(A.points)
        assert A.affine_dim == d
        dims.append(d)
        for got, want in zip(affine_frame(A), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # fresh C-ordered copies: a view's layout can change product bits
            assert got.flags.c_contiguous and got.flags.writeable
        # the cached span and origin the solver reads: the same bits, read-only
        origin, span, _ = affine_frame(A)
        assert A._span.tobytes() == span.tobytes() and A._span.flags.c_contiguous
        assert A._origin.tobytes() == np.ldexp(origin, -A._exp).tobytes()
        assert not A._span.flags.writeable and not A._origin.flags.writeable
        kinds.add((d < n, "N>n" if N > n else "N==n" if N == n else "N<n"))
    assert kinds == {(True, "N>n"), (False, "N>n"), (True, "N==n"), (True, "N<n")}
    assert dims[-6:-4] == [3, 2]  # the two sets at 1e-12 (the old floor gave 0 and 0)


def test_covector_pairing():
    b = mg.CoVector([2.0, -1.0])
    assert b.pairing([3.0, 4.0]) == 2.0
    with pytest.raises(mg.DimensionMismatch, match="expected 2"):
        b.pairing([1.0])
    # used to return inf
    with pytest.raises(ValueError, match="finite"):
        b.pairing([np.inf, 0.0])
    with pytest.raises(ValueError):
        mg.CoVector([np.inf])


def test_observable_validation():
    obs = mg.Observable([1.0, 2.0, 3.0])
    assert len(obs) == 3
    with pytest.raises(ValueError):
        mg.Observable([1.0, np.nan])


def test_json_round_trip():
    doc = {"dim": 2, "points": [[0, 0], [1, 0.5]], "labels": ["x", "y"]}
    A = mg.state_set_from_json(doc)
    assert A.dim == 2 and len(A) == 2 and A.labels == ("x", "y")
    back = mg.state_set_to_json(A)
    assert back["dim"] == 2
    assert back["points"] == [[0.0, 0.0], [1.0, 0.5]]
    assert mg.state_set_from_json(back).points.tolist() == A.points.tolist()


def test_json_rejects_unknown_and_malformed():
    with pytest.raises(ValueError, match="unknown keys"):
        mg.state_set_from_json({"dim": 1, "points": [[0]], "extra": 1})
    with pytest.raises(ValueError):
        mg.state_set_from_json({"points": [[0]]})
    with pytest.raises(ValueError):
        mg.state_set_from_json({"dim": True, "points": [[0]]})
    with pytest.raises(ValueError):
        mg.state_set_from_json({"dim": 1, "points": [["zero"]]})
    with pytest.raises(ValueError):
        mg.state_set_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        mg.state_set_from_json({"dim": 1, "points": [[0]], "labels": [0]})


def _outcome(build, *args):
    """What building a set gives: the exception type and message, or the
    set's dim, labels and the bytes of its points."""
    try:
        A = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return A.dim, A.labels, A.points.shape, A.points.tobytes()


class _Row(list):
    pass


_NAN, _INF = float("nan"), float("inf")
_DOCS = [
    {"dim": 2, "points": [[0, 0], [1, 0.5], [-3, 2**60]], "labels": ["a", "b", "c"]},
    {"dim": 1, "points": [[0], [1.5], [2**1023]]},
    # entries: bools, None, strings, dicts, nested lists
    {"dim": 1, "points": [[0], [True]]},
    {"dim": 1, "points": [[False], [1]]},
    {"dim": 1, "points": [[0], [None]]},
    {"dim": 2, "points": [[0, "1"], [1, 2]]},
    {"dim": 1, "points": [[{}], [0]]},
    {"dim": 2, "points": [[0, 0], [1, [2]]]},
    {"dim": 1, "points": [[[1]], [[2]]]},
    # rows that are not lists, and ragged rows
    {"dim": 1, "points": [0, 1]},
    {"dim": 2, "points": [[0, 0], "ab"]},
    {"dim": 2, "points": [[0, 0], (1, 2)]},
    {"dim": 1, "points": [None]},
    {"dim": 2, "points": [[0, 0], {"x": 1}]},
    {"dim": 2, "points": [[0, 0], [1], [2, 3]]},
    {"dim": 1, "points": [[0], [1, 2], [3]]},
    # rows of the wrong length
    {"dim": 2, "points": [[0, 0, 0], [1, 1, 1]]},
    {"dim": 3, "points": [[0, 0], [1, 1]]},
    {"dim": 1, "points": [[]]},
    # beyond the float range, NaN and infinity
    {"dim": 1, "points": [[0], [_BIG]]},
    {"dim": 2, "points": [[0, 0], [1, 2**1023], [-(10**309), 1]]},
    {"dim": 1, "points": [[0], [_NAN]]},
    {"dim": 2, "points": [[0, 0], [_INF, 1]]},
    {"dim": 2, "points": [[-_INF, 0], [_NAN, 1]]},
    # no points
    {"dim": 1, "points": []},
    {"dim": 3, "points": [], "labels": []},
    # np.float64 entries and a list subclass, passed from Python
    {"dim": 1, "points": [[np.float64(0.25)], [0]]},
    {"dim": 2, "points": [[np.float64(1), 2], [np.float64(_NAN), 0]]},
    {"dim": 1, "points": [_Row([0]), [1]]},
    # two faults in one document: the first found decides
    {"dim": 1, "points": [["x"], [True]]},
    {"dim": 2, "points": [[0, 0], [1], ["x", "y"]]},
    {"dim": 1, "points": [[_BIG], [1, 2]]},
    {"dim": 1, "points": [[_BIG], [_NAN]]},
    {"dim": 1, "points": [[_NAN], [0], [0]]},
    {"dim": 1, "points": [[0], [0], [1, 2]]},
    {"dim": 1, "points": [[0], [1]], "labels": ["a", 1]},
    {"dim": 0, "points": [["x"]]},
    {"dim": 0, "points": [[0]]},
    {"dim": -1, "points": []},
    {"dim": 2, "points": [[_BIG, "x"]]},
    {"dim": 1, "points": [[0], [0]], "labels": ["a"]},
    # the document itself, dim and labels
    {"dim": True, "points": [[0]]},
    {"dim": 2.0, "points": [[0, 0]]},
    {"dim": 1, "points": {"0": [0]}},
    {"dim": 1, "points": "[[0]]"},
    {"dim": 1, "points": [[0], [1]], "labels": ["a", "a"]},
    {"dim": 1, "points": [[0], [1]], "labels": ["a"]},
    {"dim": 1, "points": [[0], [1]], "labels": "ab"},
    {"dim": 1, "points": [[0]], "extra": 1},
    {"points": [[0]]},
    [1, 2, 3],
]
_DIRECT = [
    (1, [1, 2]),
    (2, ["ab", "cd"]),
    (2, [["1", "2"], [3, 4]]),
    (2, [(0, 1), (1, 0)]),
    (2, [np.array([0, 1]), np.array([1.5, 0])]),
    (1, [np.array([[1]])]),
    (2, [[0, [1]]]),
    (1, [[{}]]),
    (1, [[None], [0]]),
    (2, np.array([[0, 1], [2, 3]], dtype=object)),
    (1, np.array([[0], [_BIG]], dtype=object)),
    (2, np.zeros((0, 2))),
    (2, np.zeros(3)),
    (np.int64(2), ([0, 1], [1, 0])),
    (2, [[0, 1], [1, 0]], ["a", "b"]),
]


def test_state_set_checks_match_frozen_reference():
    kinds = set()
    for doc in _DOCS:
        got = _outcome(mg.state_set_from_json, doc)
        assert got == _outcome(reference_state_set_from_json, doc)
        kinds.add(got[0] if isinstance(got[0], type) else "set")
    assert kinds == {
        "set", ValueError, mg.DimensionMismatch, mg.EmptyStateSet, mg.DuplicatePoint, mg.LengthMismatch
    }
    for args in _DIRECT:
        assert _outcome(mg.new_state_set, *args) == _outcome(reference_new_state_set, *args)
    # a generator of rows is read once by each side
    rows = [[0, 1], [1, 0]]
    assert _outcome(mg.new_state_set, 2, iter(rows)) == _outcome(reference_new_state_set, 2, iter(rows))


_NUMBERS = st.one_of(
    st.integers(-9, 9),
    st.floats(-1e3, 1e3),
    st.floats(),
    st.sampled_from([_BIG, -(10**309), 2**1023, 2**64, _NAN, -_INF]),
)
_ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
    st.lists(st.integers(-2, 2), max_size=2),
    st.floats(-9, 9).map(np.float64),
)


@st.composite
def _documents(draw):
    """Mostly well-formed documents, with up to two rows replaced by a faulty one."""
    dim = draw(st.sampled_from([1, 2, 3] * 3 + [0, -1, True, 2.0]))
    width = dim if type(dim) is int and dim > 0 else 2
    number = st.one_of(st.floats(-1e3, 1e3), st.integers(-99, 99))
    points = draw(st.lists(st.lists(number, min_size=width, max_size=width), max_size=6))
    faulty = st.one_of(
        st.lists(_NUMBERS, min_size=width, max_size=width),
        st.lists(st.one_of(_NUMBERS, _ODD), min_size=width, max_size=width),
        st.lists(st.one_of(_NUMBERS, _ODD), max_size=4),
        st.sampled_from([None, "ab", 3, (1, 2), {"x": 1}]),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if points else 0):
        points[draw(st.integers(0, len(points) - 1))] = draw(faulty)
    doc = {"dim": dim, "points": points}
    if draw(st.booleans()):
        doc["labels"] = draw(
            st.one_of(
                st.just([f"s{i}" for i in range(len(points))]),
                st.lists(st.one_of(st.text(max_size=1), st.integers()), max_size=6),
            )
        )
    return doc


@settings(derandomize=True, deadline=None, max_examples=250)
@given(_documents())
def test_generated_documents_match_frozen_reference(doc):
    assert _outcome(mg.state_set_from_json, doc) == _outcome(reference_state_set_from_json, doc)
    args = (doc["dim"], doc["points"], doc.get("labels"))
    assert _outcome(mg.new_state_set, *args) == _outcome(reference_new_state_set, *args)


def test_shipped_files_parse():
    from conftest import DATA_DIR

    for path in sorted(DATA_DIR.glob("*.json")):
        A = mg.state_set_from_json(json.loads(path.read_text()))
        assert len(A) >= 1


def test_state_set_compares_by_value():
    pts = [[0, 0], [1, 0], [0, 1]]
    A = mg.new_state_set(2, pts)
    assert A == mg.new_state_set(2, pts)
    assert A != mg.new_state_set(2, [[0, 0], [1, 0], [0, 2]])
    assert A != mg.new_state_set(2, pts, labels=["a", "b", "c"])
    assert A != mg.new_state_set(2, pts + [[1, 1]])
    assert A != pts


def test_covector_compares_by_value():
    b = mg.CoVector([1.0, -2.0])
    assert b == mg.CoVector([1.0, -2.0])
    assert b != mg.CoVector([1.0, 2.0])
    assert b != mg.CoVector([1.0, -2.0, 0.0])
    assert b != mg.Observable([1.0, -2.0])


def test_observable_compares_by_value():
    f = mg.Observable([0.5, 1.5, 2.0])
    assert f == mg.Observable([0.5, 1.5, 2.0])
    assert f != mg.Observable([0.5, 1.5, 2.5])
    assert f != mg.Observable([0.5, 1.5])
    assert f != [0.5, 1.5, 2.0]

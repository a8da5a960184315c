"""Point-set representation, normalization, packing, and file I/O."""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.errors import (InvalidDimensionError, InvalidPointError,
                              InvalidParameterError, ParseError)
from sphdesign.pointset import (ParamVector, PointSet, _angle_bounds,
                                _free_slots, _moved, _points_and_chain,
                                _s2_param_columns, _sine_prefix,
                                n_free, normalize_pointset,
                                param_jacobian_point, param_to_points,
                                points_to_param, read_pointset,
                                write_pointset)


def _canonical(X):
    """The exact canonical zero pattern: zeros after the diagonal of
    the first d+1 points, and a nonnegative diagonal on the first d."""
    c = X.coords
    for j in range(min(c.shape[0], X.d + 1)):
        if np.any(c[j, j + 1:] != 0.0) or (j < X.d and c[j, j] < 0.0):
            return False
    return True


def _random_sphere(d, N, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((N, d + 1))
    return c / np.linalg.norm(c, axis=1)[:, None]


def _angles_to_points(phi):
    """Points of the (M, d) spherical angles phi."""
    c, _, prefix = _sine_prefix(phi)
    return prefix * c


def _point_recurrence(c, s, g):
    """Angle gradient of one point from its Cartesian gradient g, in
    Python floats: c holds the d cosines padded with 1.0, s the d sines.
    U_i = g_i c_i + s_i U_{i+1} from U_d = g_d, and
    dV/dphi_i = prefix_i (c_i U_{i+1} - s_i g_i)."""
    d = len(s)
    prefix = [1.0]
    for i in range(d):
        prefix.append(prefix[i] * s[i])
    out = [0.0] * d
    u = g[d]
    for i in range(d - 1, -1, -1):
        out[i] = prefix[i] * (c[i] * u - s[i] * g[i])
        u = g[i] * c[i] + s[i] * u
    return out


def _tables_as_floats(phi):
    """Padded cosines and sines of the (M, d) angles phi, as lists."""
    c = np.ones((phi.shape[0], phi.shape[1] + 1))
    c[:, :-1] = np.cos(phi)
    return c.tolist(), np.sin(phi).tolist()


class TestPointSet:
    def test_basic(self):
        X = PointSet(d=2, coords=np.eye(3))
        assert X.N == 3
        assert not X.symmetric

    def test_symmetric_count_and_expansion(self):
        X = PointSet(d=2, coords=np.eye(3), symmetric=True)
        assert X.N == 6
        full = X.expanded()
        assert full.shape == (6, 3)
        assert np.array_equal(full[3:], -np.eye(3))
        assert X.expand().N == 6 and not X.expand().symmetric

    def test_rejects_bad_norm(self):
        c = np.eye(3)
        c[1, 1] = 1.5
        with pytest.raises(InvalidPointError):
            PointSet(d=2, coords=c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        c = np.eye(3)
        c[1, 2] = bad
        with pytest.raises(InvalidPointError, match="row 1"):
            PointSet(d=2, coords=c)

    @pytest.mark.filterwarnings("error")  # and no overflow warning
    @pytest.mark.parametrize("huge", [1e308, -1e308, 1e200, 3.0])
    def test_rejects_huge_coordinate(self, huge):
        c = np.eye(3)
        c[1] = [huge, huge, 0.0]
        with pytest.raises(InvalidPointError,
                           match="^row 1: coordinate of magnitude"):
            PointSet(d=2, coords=c)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidPointError):
            PointSet(d=2, coords=np.eye(4))
        with pytest.raises(InvalidDimensionError):
            PointSet(d=0, coords=np.eye(1))

    def test_coords_read_only(self):
        c = np.eye(3)
        X = PointSet(d=2, coords=c)
        with pytest.raises(ValueError):
            X.coords[0, 0] = 2.0
        # a C-contiguous float64 array is taken without a copy
        assert X.coords is c and not c.flags.writeable


class TestBasics:
    def test_n_free(self):
        # below d+1 points: triangular count; above: d per point minus
        # the pinned rotation
        assert n_free(2, 2) == 1
        assert n_free(2, 3) == 3
        assert n_free(2, 12) == 21
        assert n_free(3, 32) == 90
        assert n_free(2, 12, symmetric=True) == n_free(2, 6)
        with pytest.raises(InvalidParameterError):
            n_free(2, 7, symmetric=True)


class TestNormalization:
    @pytest.mark.parametrize("d,N,seed", [(2, 5, 0), (2, 30, 1), (3, 12, 2),
                                          (4, 4, 3), (2, 2, 4)])
    def test_canonical_form(self, d, N, seed):
        X = PointSet(d=d, coords=_random_sphere(d, N, seed))
        Y = normalize_pointset(X)
        assert _canonical(Y)
        # same Gram matrix: Y is a rotation of X
        assert np.allclose(Y.coords @ Y.coords.T, X.coords @ X.coords.T,
                           atol=1e-12)

    def test_already_normalized_is_identity(self):
        X = PointSet(d=2, coords=np.eye(3))
        assert normalize_pointset(X) is X

    def test_first_point_is_pole(self):
        X = PointSet(d=3, coords=_random_sphere(3, 9, 7))
        Y = normalize_pointset(X)
        assert np.allclose(Y.coords[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_points_to_param_reads_the_canonical_rotation(self):
        # any set is packed as its canonical rotation, bit for bit
        for d in (2, 3, 4):
            for symmetric in (False, True):
                X = PointSet(d=d, coords=_random_sphere(d, 7, 11 + d),
                             symmetric=symmetric)
                Y = normalize_pointset(X)
                assert not _canonical(X) and _canonical(Y)
                p, q = points_to_param(X), points_to_param(Y)
                assert (p.N, p.symmetric) == (q.N, q.symmetric)
                assert p.values.tobytes() == q.values.tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize("d,N,seed", [(2, 6, 0), (2, 20, 5), (3, 10, 1),
                                          (4, 7, 2), (2, 3, 3)])
    def test_param_round_trip(self, d, N, seed):
        X = PointSet(d=d, coords=_random_sphere(d, N, seed))
        Y = normalize_pointset(X)
        p = points_to_param(Y)
        assert p.values.size == n_free(d, N)
        Z = param_to_points(p)
        assert np.allclose(Z.coords, Y.coords, atol=1e-12)

    def test_symmetric_round_trip(self):
        X = PointSet(d=2, coords=_random_sphere(2, 5, 9), symmetric=True)
        Y = normalize_pointset(X)
        p = points_to_param(Y)
        assert p.symmetric and p.N == 10
        Z = param_to_points(p)
        assert Z.symmetric
        assert np.allclose(Z.coords, Y.coords, atol=1e-12)

    @given(st.integers(min_value=2, max_value=25),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, N, seed):
        X = PointSet(d=2, coords=_random_sphere(2, N, seed))
        Y = normalize_pointset(X)
        Z = param_to_points(points_to_param(Y))
        assert np.allclose(Z.coords, Y.coords, atol=1e-12)

    @pytest.mark.parametrize("d,N,symmetric", [(2, 1, False), (2, 2, False),
                                                (2, 40, False), (2, 30, True),
                                                (3, 12, False), (5, 9, False)])
    def test_param_to_points_matches_point_loop(self, d, N, symmetric):
        # reference: the per-point loop of scalar products it replaced
        def angles_to_point(phi):
            x = np.empty(d + 1)
            s = 1.0
            for i in range(d):
                x[i] = s * np.cos(phi[i])
                s *= np.sin(phi[i])
            x[d] = s
            return x

        rng = np.random.default_rng(N + d)
        p0 = ParamVector(d=d, N=N, symmetric=symmetric,
                         values=np.zeros(n_free(d, N, symmetric)))
        p = ParamVector(d=d, N=N, symmetric=symmetric,
                        values=rng.uniform(p0.lower, p0.upper))
        reps = N // 2 if symmetric else N
        phi = np.zeros((reps, d))
        s = 0
        for j in range(1, reps):
            for i in range(min(j, d)):
                phi[j, i] = p.values[s]
                s += 1
        coords = np.array([angles_to_point(row) for row in phi])
        for j in range(min(reps, d + 1)):
            coords[j, j + 1:] = 0.0
            coords[j] /= np.linalg.norm(coords[j])
        X = param_to_points(p)
        assert X.symmetric == symmetric
        assert X.coords.tobytes() == coords.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_pinned_coordinates_are_positive_zero(self, d, symmetric):
        # the unset angles of the first d+1 points are 0, so their
        # trailing coordinates hold a factor sin(0) and are exactly +0.0
        rng = np.random.default_rng(70 + d)
        for reps in (1, 2, d, d + 1, d + 4):
            N = 2 * reps if symmetric else reps
            lower, upper = _angle_bounds(d, reps)
            mixed = rng.uniform(lower, upper)
            pick = rng.random(mixed.size)
            mixed[pick < 0.3] = 0.0
            mixed[(pick >= 0.3) & (pick < 0.6)] = np.pi
            mixed[pick > 0.8] = upper[pick > 0.8]
            for values in (rng.uniform(lower, upper), mixed, lower, upper):
                X = param_to_points(ParamVector(d=d, N=N, symmetric=symmetric,
                                                values=values))
                for j in range(min(reps, d + 1)):
                    tail = X.coords[j, j + 1:]
                    assert np.all(tail == 0.0)
                    assert not np.any(np.signbit(tail))

    def test_default_bounds_are_read_only(self):
        p = ParamVector(d=2, N=6, symmetric=False, values=np.zeros(9))
        q = ParamVector(d=2, N=6, symmetric=False, values=np.ones(9))
        assert p.upper is q.upper
        with pytest.raises(ValueError):
            p.upper[0] = 1.0
        with pytest.raises(ValueError):
            p.lower[0] = 1.0
        assert np.array_equal(p.upper, [np.pi] + [np.pi, 2 * np.pi] * 4)

    def test_param_vector_bounds(self):
        n = n_free(2, 5)
        with pytest.raises(InvalidParameterError):
            ParamVector(d=2, N=5, symmetric=False, values=np.zeros(n + 1))
        with pytest.raises(InvalidParameterError):
            ParamVector(d=2, N=5, symmetric=False,
                        values=np.full(n, 4.0 * np.pi))

    def test_param_vector_nan_angle(self):
        values = np.zeros(n_free(2, 5))
        values[1] = np.nan
        with pytest.raises(InvalidParameterError):
            ParamVector(d=2, N=5, symmetric=False, values=values)


class TestIO:
    def test_write_read_round_trip(self, tmp_path):
        X = PointSet(d=3, coords=_random_sphere(3, 14, 4))
        path = tmp_path / "pts.txt"
        write_pointset(X, path, t=5)
        Y = read_pointset(path)
        assert Y.d == 3 and Y.N == 14
        assert np.array_equal(Y.coords, X.coords)

    def test_symmetric_round_trip(self, tmp_path):
        X = PointSet(d=2, coords=_random_sphere(2, 6, 1), symmetric=True)
        path = tmp_path / "pts.txt"
        write_pointset(X, path)
        Y = read_pointset(path)
        assert Y.symmetric and Y.N == 12
        assert np.array_equal(Y.coords, X.coords)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 0 0\n0 1 0\n")
        Y = read_pointset(path)
        assert Y.d == 2 and Y.N == 2

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0\n0 x 0\n")
        with pytest.raises(ParseError) as exc:
            read_pointset(path)
        assert exc.value.line_number == 2

        path.write_text("1 0 0\n0 1\n")
        with pytest.raises(ParseError):
            read_pointset(path)

        path.write_text("")
        with pytest.raises(ParseError):
            read_pointset(path)

        path.write_text("# d=3 N=2\n1 0 0\n0 1 0\n")
        with pytest.raises(ParseError):
            read_pointset(path)

    @pytest.mark.parametrize("sym", ["-3", "2", "7"])
    def test_sym_outside_zero_one(self, tmp_path, sym):
        # read as symmetric, e1, e2 would become +-e1, +-e2
        path = tmp_path / "sym.txt"
        path.write_text("# d=2 sym=%s\n1 0 0\n0 1 0\n" % sym)
        with pytest.raises(ParseError, match="sym") as exc:
            read_pointset(path)
        assert exc.value.line_number == 1

    def test_contradicting_header_keys(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("# d=2 N=2 sym=0\n# N=3\n1 0 0\n0 1 0\n0 0 1\n")
        with pytest.raises(ParseError, match="N=3") as exc:
            read_pointset(path)
        assert exc.value.line_number == 2
        # a key repeated with its own value is no contradiction
        path.write_text("# d=2 N=3\n# N=3 d=2\n1 0 0\n0 1 0\n0 0 1\n")
        assert read_pointset(path).N == 3

    def test_norm_policy(self, tmp_path):
        path = tmp_path / "near.txt"
        path.write_text("1.0000000001 0 0\n0 1 0\n")
        with pytest.warns(UserWarning):
            Y = read_pointset(path)
        assert abs(np.linalg.norm(Y.coords[0]) - 1.0) <= 1e-12

        path.write_text("1.1 0 0\n0 1 0\n")
        with pytest.raises(InvalidPointError):
            read_pointset(path)

    @pytest.mark.filterwarnings("error")  # and no overflow warning
    @pytest.mark.parametrize("row", ["1e308 0 0", "0 -1e308 1e308",
                                     "1e200 1e200 0", "0 3.0 0"])
    def test_huge_coordinate_row(self, tmp_path, row):
        path = tmp_path / "huge.txt"
        path.write_text("# d=2 N=3\n1 0 0\n0 1 0\n%s\n" % row)
        with pytest.raises(InvalidPointError, match="line 4: coordinate"):
            read_pointset(path)

    @pytest.mark.parametrize("prefix, line", [
        (b"", 1), (b"# d=2 N=2\n1 0 0\n# caf\xc3\xa9 ", 3),
        (b"1 0 0\r\n" * 3000, 3001)], ids=["first", "comment", "past8k"])
    def test_not_utf8(self, tmp_path, prefix, line):
        # past8k puts the bad byte beyond the first 8 KiB decoded
        path = tmp_path / "bytes.txt"
        path.write_bytes(prefix + b"\xff\xfe\x00x\n0 1 0\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_pointset(path)
        assert exc.value.line_number == line

    def test_byte_order_mark(self, tmp_path):
        X = PointSet(d=2, coords=_random_sphere(2, 5, 3), symmetric=True)
        path = tmp_path / "pts.txt"
        write_pointset(X, path, t=3)
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        Y = read_pointset(marked)
        assert Y.symmetric and Y.N == 10
        assert np.array_equal(Y.coords, X.coords)

    @pytest.mark.filterwarnings("error")
    def test_first_faulty_row_is_named(self, tmp_path):
        # a large coordinate on line 3 comes before a NaN on line 4: both
        # entry points name the first faulty row, whatever its fault
        path = tmp_path / "two.txt"
        path.write_text("# d=2 N=3\n1 0 0\n3.0 0 0\n0 nan 0\n")
        with pytest.raises(InvalidPointError, match="^line 3: coordinate"):
            read_pointset(path)
        with pytest.raises(InvalidPointError, match="^row 1: coordinate"):
            PointSet(d=2, coords=np.loadtxt(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_row(self, tmp_path, token):
        path = tmp_path / "nan.txt"
        path.write_text("# d=2 N=2\n1 0 0\n0 %s 0\n" % token)
        with pytest.raises(InvalidPointError, match="line 3"):
            read_pointset(path)


_FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_FUZZ_TOKEN = st.one_of(
    st.floats().map(repr), st.integers(-2, 2).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.6", "0.8", "1_0",
                     "0x1", "x", "=", "#"]),
    _FUZZ_TEXT)
_FUZZ_HEADER = st.lists(
    st.tuples(st.sampled_from(["d", "N", "sym", "t", "", "q"]),
              st.one_of(st.integers(-3, 12).map(str), _FUZZ_TEXT)).map(
        lambda kv: "%s=%s" % kv), max_size=4).map(
    lambda toks: "# " + " ".join(toks))
_FUZZ_ROW = st.one_of(
    st.sampled_from(["1 0 0", "0 1 0", "0 0 -1", "0.6 0.8", "1 0",
                     "0 0 0 1", "0.6 0 0.8", ""]),
    st.lists(_FUZZ_TOKEN, max_size=5).map(" ".join))


class TestReadFuzz:
    @given(st.lists(st.one_of(_FUZZ_HEADER, _FUZZ_ROW), max_size=8),
           st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_only_documented_outcomes(self, lines, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(newline.join(lines))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    X = read_pointset(path)
                except (ParseError, InvalidPointError):
                    return
        assert isinstance(X, PointSet)
        assert np.all(np.isfinite(X.coords))


class TestParamJacobian:
    def test_finite_difference(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 5):
            phi = rng.uniform(0.2, np.pi - 0.2, d)
            J = param_jacobian_point(phi)
            h = 1e-7
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (_angles_to_points((phi + e)[None])[0]
                      - _angles_to_points((phi - e)[None])[0]) / (2.0 * h)
                assert np.allclose(J[i], fd, rtol=1e-6, atol=1e-6)

    def test_tangency(self):
        # dx/dphi is orthogonal to x: motion stays on the sphere
        rng = np.random.default_rng(8)
        phi = rng.uniform(0.2, np.pi - 0.2, 4)
        x = _angles_to_points(phi[None])[0]
        J = param_jacobian_point(phi)
        assert np.allclose(J @ x, 0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_finite_difference_at_zero_and_pi(self, d):
        # zero sines: the rows a division by sin(phi_i) cannot give
        rng = np.random.default_rng(16 + d)
        h = 1e-7
        for _ in range(10):
            phi = rng.uniform(0.2, np.pi - 0.2, d)
            pick = rng.random(d)
            phi[pick < 0.4] = 0.0
            phi[pick > 0.6] = np.pi
            J = param_jacobian_point(phi)
            x = _angles_to_points(phi[None])[0]
            assert np.allclose(J @ x, 0.0, atol=1e-12)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (_angles_to_points((phi + e)[None])[0]
                      - _angles_to_points((phi - e)[None])[0]) / (2.0 * h)
                assert np.allclose(J[i], fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_matches_scalar_loop(self, d):
        # reference: the recurrence per point in Python floats, applied
        # to each coordinate; angles at 0 and pi give zero sines
        rng = np.random.default_rng(40 + d)
        eye = np.eye(d + 1).tolist()
        for _ in range(60):
            phi = rng.uniform(0.0, np.pi, d)
            pick = rng.random(d)
            phi[pick < 0.2] = 0.0
            phi[pick > 0.8] = np.pi
            (c,), (s,) = _tables_as_floats(phi[None])
            ref = np.array([_point_recurrence(c, s, e) for e in eye]).T
            # exact values; the sign of a zero is not pinned
            assert np.array_equal(param_jacobian_point(phi), ref)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("d,reps", [(2, 2), (2, 9), (3, 7), (4, 12),
                                        (5, 5)])
    def test_chain_matches_point_recurrence(self, d, reps, symmetric):
        rng = np.random.default_rng(d * reps)
        N = 2 * reps if symmetric else reps
        lower, upper = _angle_bounds(d, reps)
        values = rng.uniform(lower, upper)
        # pin a few free angles at 0 (zero sine), pi and the upper bound
        values[::4] = 0.0
        values[1::5] = np.pi
        values[2::7] = upper[2::7]
        p = ParamVector(d=d, N=N, symmetric=symmetric, values=values)
        _, chain = _points_and_chain(p)
        gcart = rng.standard_normal((N, d + 1))
        grad = chain(gcart)
        folded = gcart[:reps] - gcart[reps:] if symmetric else gcart
        rows, cols = _free_slots(d, reps)
        phi = np.zeros((reps, d))
        phi[rows, cols] = values
        c, s = _tables_as_floats(phi)
        ref = [_point_recurrence(c[j], s[j], folded[j].tolist())[i]
               for j, i in zip(rows.tolist(), cols.tolist())]
        assert grad.tobytes() == np.array(ref).tobytes()


class TestPackedLayout:
    """The packed order of the free angles is written in several forms;
    they must agree."""

    @pytest.mark.parametrize("reps", [1, 2, 3, 9, 40])
    def test_s2_columns_match_slot_gather(self, reps):
        d1, d2 = np.random.default_rng(reps).standard_normal((2, 7, reps))
        rows, cols = _free_slots(2, reps)
        ref = np.ascontiguousarray(np.stack([d1, d2])[cols, :, rows].T)
        A = _s2_param_columns(d1, d2)
        assert A.flags["C_CONTIGUOUS"]
        assert A.shape == ref.shape and A.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_free_count_matches_slots_and_bounds(self, d):
        for N in range(1, 15):
            for symmetric in (False, True)[:2 - N % 2]:
                reps = N // 2 if symmetric else N
                assert (n_free(d, N, symmetric)
                        == _free_slots(d, reps)[0].size
                        == _angle_bounds(d, reps)[0].size
                        == _angle_bounds(d, reps)[1].size)

    @pytest.mark.parametrize("d,N,symmetric", [(1, 5, False), (2, 9, False),
                                                (3, 8, True), (4, 11, False)])
    def test_moved_wraps_azimuths_and_clips_the_rest(self, d, N, symmetric):
        p = ParamVector(d=d, N=N, symmetric=symmetric,
                        values=np.zeros(n_free(d, N, symmetric)))
        values = np.random.default_rng(N).uniform(-7.0, 14.0, p.values.size)
        q = _moved(p, values)
        azim = _free_slots(d, N // 2 if symmetric else N)[1] == d - 1
        assert np.array_equal(q.values[azim],
                              np.mod(values[azim], 2.0 * np.pi))
        assert np.array_equal(q.values[~azim],
                              np.clip(values[~azim], 0.0, np.pi))

"""Parsing, normalization, perturbation, and voxelization tests."""

import math

import numpy as np
import pytest

from fieldprobe.errors import ParseError
from fieldprobe.ingest import (
    GridFrame,
    OccupancyGrid,
    Perturbation,
    ShapeSample,
    _sample_surface,
    apply_perturbation,
    load_manifest,
    load_shape,
    normalize,
    parse_off,
    parse_perturbation_modes,
    parse_xyz,
    sample_perturbation,
    voxelize,
    write_off,
    write_xyz,
)
from fieldprobe.synthetic import SyntheticSpec, generate_synthetic

CUBE_OFF = b"""OFF
8 6 12
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
4 0 1 2 3
4 4 7 6 5
4 0 4 5 1
4 1 5 6 2
4 2 6 7 3
4 3 7 4 0
"""


def reference_rows(data):
    """The per-line tokenizer parse_off and parse_xyz replaced: (line
    number, tokens) of every non-blank line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a text file: {exc}") from None
    out = []
    for num, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((num, body.split()))
    return out


def reference_floats(tokens, count, line):
    if len(tokens) < count:
        raise ParseError(f"expected {count} values, got {len(tokens)}", line=line)
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from None


def reference_parse_off(data):
    """The per-line OFF parser that parse_off replaced, kept as its oracle."""
    lines = reference_rows(data)
    if not lines:
        raise ParseError("empty file")
    cursor = 0
    line, toks = lines[cursor]
    if toks[0].upper().startswith("OFF"):
        rest = toks[0][3:]
        toks = ([rest] if rest else []) + toks[1:]
        if not toks:
            cursor += 1
            if cursor >= len(lines):
                raise ParseError("missing count line after OFF header", line=line)
            line, toks = lines[cursor]
    try:
        counts = [int(t) for t in toks[:3]]
    except ValueError:
        raise ParseError(f"malformed header: {' '.join(toks[:3])!r}", line=line) from None
    if len(counts) < 2:
        raise ParseError("malformed header: need vertex and face counts", line=line)
    nv, nf = counts[0], counts[1]
    if nv <= 0:
        raise ParseError("no points", line=line)
    cursor += 1
    if len(lines) - cursor < nv:
        raise ParseError(f"truncated: expected {nv} vertex lines, found {len(lines) - cursor}")
    vertices = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        line, toks = lines[cursor + i]
        vertices[i] = reference_floats(toks, 3, line)
    cursor += nv
    if len(lines) - cursor < nf:
        raise ParseError(f"truncated: expected {nf} face lines, found {len(lines) - cursor}")
    tris = []
    for i in range(nf):
        line, toks = lines[cursor + i]
        try:
            k = int(toks[0])
            idx = [int(t) for t in toks[1 : 1 + k]]
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        if k < 3 or len(idx) < k:
            raise ParseError(f"face needs at least 3 indices, got {k}", line=line)
        for v in idx:
            if not 0 <= v < nv:
                raise ParseError(f"face index {v} out of range (vertex count {nv})", line=line)
        for a, b in zip(idx[1:-1], idx[2:]):
            tris.append((idx[0], a, b))
    return ShapeSample(vertices, np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def reference_parse_xyz(data):
    lines = reference_rows(data)
    if not lines:
        raise ParseError("no points")
    points = np.empty((len(lines), 3), dtype=np.float64)
    for i, (line, toks) in enumerate(lines):
        points[i] = reference_floats(toks, 3, line)
    return ShapeSample(points, np.empty((0, 3), dtype=np.int64))


def same_shape(a, b):
    return (a.vertices.dtype == b.vertices.dtype and a.faces.dtype == b.faces.dtype
            and a.vertices.shape == b.vertices.shape and a.faces.shape == b.faces.shape
            and a.vertices.tobytes() == b.vertices.tobytes()
            and a.faces.tobytes() == b.faces.tobytes())


def outcome(parse, data):
    """The parsed shape, or the ParseError's message and line."""
    try:
        return parse(data)
    except ParseError as exc:
        return str(exc), exc.line


# valid inputs off the plain layout: comments, OFF3, quads and polygons,
# CRLF and CR line ends, blank lines, tabs, extra columns, trailing lines
VALID_OFF = [
    CUBE_OFF,
    CUBE_OFF.replace(b"\n", b"\r\n"),
    CUBE_OFF.replace(b"\n", b"\r"),
    b"OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    b"# comment\nOFF\n\n3 1 0\n0 0 0\n# mid\n1 0 0\n0 1 0\n3 0 1 2\n",
    b"OFF # header comment\n3 1 0 # counts\n0 0 0 # a\n1 0 0\n0 1 0\n3 0 1 2 # face\n",
    b"OFF 4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n",
    b"OFF\n5 1 0\n0 0 0\n1 0 0\n1 1 0\n0.5 1.5 0\n0 1 0\n5 0 1 2 3 4\n",
    b"OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n4 0 1 2 3\n",
    b"OFF\n3 1 0\n0 0 0 0.5 0.5 0.5\n1 0 0 1 1 1\n0 1 0 0 0 0\n3 0 1 2 0.25 0.5 0.75\n",
    b"OFF\n3 1 0\n\t0\t0  0 \n 1e0 -0.0 +0\n0 1_0 inf\n\n  3   0 1 2  \n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 2 1 0\nleftover lines\nare ignored\n",
    b"OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n",
    b"3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
]

# every malformed input: the message and the line must not change
MALFORMED_OFF = [
    b"",
    b"# only a comment\n\n",
    b"OFF\n",
    b"OFF\nthree 1 0\n",
    b"OFF\n3\n",
    b"OFF\n0 0 0\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n",
    b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 nope\n0 1 0\n3 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0\n0 1 0 0\n3 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 x 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nthree 0 1 2\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n",
    b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n99999999999999999999 0 1 2\n",
    b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 3\n",
    b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n3 0 1 x\n",
    b"\xff\xfe\x00\x01",
]


def unit_quad(z=0.0):
    """Two triangles covering [0,1]^2 at height z."""
    v = np.array([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], dtype=np.float64)
    f = np.array([[0, 1, 2], [0, 2, 3]])
    return ShapeSample(v, f)


class TestParseOff:
    def test_cube_counts(self):
        shape = parse_off(CUBE_OFF)
        assert shape.vertices.shape == (8, 3)
        # each quad fans into 2 triangles
        assert shape.faces.shape == (12, 3)
        assert shape.is_mesh

    def test_fan_triangulation_preserves_first_vertex(self):
        shape = parse_off(CUBE_OFF)
        first_quad = shape.faces[:2]
        assert list(first_quad[0]) == [0, 1, 2]
        assert list(first_quad[1]) == [0, 2, 3]

    def test_header_keyword_optional(self):
        shape = parse_off(b"3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert shape.vertices.shape == (3, 3)
        assert shape.faces.shape == (1, 3)

    def test_counts_glued_to_keyword(self):
        # a well-known dataset quirk: "OFF3 1 0" on one line
        shape = parse_off(b"OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert shape.vertices.shape == (3, 3)

    def test_comments_and_blank_lines_skipped(self):
        shape = parse_off(b"# comment\nOFF\n\n3 1 0\n0 0 0\n# mid\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert shape.vertices.shape == (3, 3)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_off(b"")

    def test_truncated_vertices(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_off(b"OFF\n3 1 0\n0 0 0\n1 0 0\n")

    def test_truncated_faces(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_off(b"OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")

    def test_bad_vertex_reports_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_off(b"OFF\n3 1 0\n0 0 0\n1 0 nope\n0 1 0\n3 0 1 2\n")

    def test_face_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_off(b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")

    def test_degenerate_face_rejected(self):
        with pytest.raises(ParseError, match="at least 3"):
            parse_off(b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n")

    def test_non_utf8(self):
        with pytest.raises(ParseError, match="not a text"):
            parse_off(b"\xff\xfe\x00\x01")


class TestParseOffAgainstReference:
    def test_generated_files(self, tmp_path):
        generate_synthetic(SyntheticSpec(train_per_class=2, test_per_class=1, seed=4),
                           str(tmp_path))
        paths = sorted((tmp_path / "shapes").glob("*.off"))
        assert len(paths) >= 10
        for path in paths:
            data = path.read_bytes()
            assert same_shape(parse_off(data), reference_parse_off(data)), path.name

    @pytest.mark.parametrize("data", VALID_OFF)
    def test_valid_inputs(self, data):
        assert same_shape(parse_off(data), reference_parse_off(data))

    @pytest.mark.parametrize("data", MALFORMED_OFF)
    def test_malformed_inputs_keep_message_and_line(self, data):
        expected = outcome(reference_parse_off, data)
        assert isinstance(expected, tuple)
        assert outcome(parse_off, data) == expected

    @pytest.mark.parametrize("data", [
        b"0 0 0\n1.5 2 -3\n", b"1 2 3 0.5 0.5 0.7\n", b"# c\n\n1 2 3\r\n4 5 6\r\n",
        b"0 0 0\n1 2\n", b"0 0 0\n1 2 z\n", b"# only a comment\n",
    ])
    def test_xyz_inputs(self, data):
        expected = outcome(reference_parse_xyz, data)
        got = outcome(parse_xyz, data)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert same_shape(got, expected)


class TestParseXyz:
    def test_basic(self):
        shape = parse_xyz(b"0 0 0\n1.5 2 -3\n")
        assert shape.vertices.shape == (2, 3)
        assert not shape.is_mesh
        np.testing.assert_array_equal(shape.vertices[1], [1.5, 2.0, -3.0])

    def test_extra_columns_ignored(self):
        shape = parse_xyz(b"1 2 3 0.5 0.5 0.7\n")
        np.testing.assert_array_equal(shape.vertices[0], [1.0, 2.0, 3.0])

    def test_empty(self):
        with pytest.raises(ParseError, match="no points"):
            parse_xyz(b"# only a comment\n")

    def test_short_line_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_xyz(b"0 0 0\n1 2\n")


class TestRoundTrip:
    def test_off_round_trip_bytes(self):
        shape = parse_off(CUBE_OFF)
        blob = write_off(shape)
        again = write_off(parse_off(blob))
        assert blob == again

    def test_off_round_trip_values(self):
        rng = np.random.default_rng(7)
        shape = ShapeSample(rng.random((5, 3)) * 100 - 50, [[0, 1, 2], [2, 3, 4]])
        back = parse_off(write_off(shape))
        # %.9g keeps float32-level precision; values survive to 1e-6 relative
        np.testing.assert_allclose(back.vertices, shape.vertices, rtol=1e-6)
        np.testing.assert_array_equal(back.faces, shape.faces)

    def test_xyz_round_trip_bytes(self):
        blob = write_xyz(parse_xyz(b"0.25 -1.5 3\n7 8 9\n"))
        assert write_xyz(parse_xyz(blob)) == blob


class TestNormalize:
    def test_centers_and_spans(self):
        rng = np.random.default_rng(11)
        shape = ShapeSample(rng.random((40, 3)) * [3, 9, 5] + [100, -2, 7], np.empty((0, 3)))
        out = normalize(shape, 32)
        lo, hi = out.vertices.min(axis=0), out.vertices.max(axis=0)
        assert (hi - lo).max() == pytest.approx(32 - 2 * 2, abs=1e-9)
        np.testing.assert_allclose((lo + hi) / 2, 16.0, atol=1e-9)
        assert out.frame == GridFrame(32)

    def test_uniform_scale_preserves_aspect(self):
        v = np.array([[0, 0, 0], [4, 1, 2]], dtype=np.float64)
        out = normalize(ShapeSample(v, np.empty((0, 3))), 32)
        d = out.vertices[1] - out.vertices[0]
        # longest axis spans 28, the others keep their 4:1:2 proportions
        np.testing.assert_allclose(d, [28.0, 7.0, 14.0], atol=1e-9)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(3)
        shape = ShapeSample(rng.random((25, 3)) * 11 - 4, np.empty((0, 3)))
        once = normalize(shape, 64)
        twice = normalize(once, 64)
        assert np.array_equal(once.vertices, twice.vertices)

    def test_degenerate_shape(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize(ShapeSample([[1, 2, 3], [1, 2, 3]], np.empty((0, 3))), 32)

    def test_resolution_floor(self):
        with pytest.raises(ValueError, match="resolution"):
            normalize(ShapeSample([[0, 0, 0], [1, 1, 1]], np.empty((0, 3))), 4)


class TestPerturbation:
    def test_identity_default(self):
        assert Perturbation.identity().is_identity()

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown"):
            Perturbation(mode="R30")
        with pytest.raises(ValueError, match="tilt"):
            Perturbation(mode="R15", tilt=(math.radians(20), 0.0))
        with pytest.raises(ValueError, match="tilt"):
            Perturbation(mode="R", tilt=(0.1, 0.0))
        with pytest.raises(ValueError, match="translation"):
            Perturbation(mode="T01", translation=(0.15, 0, 0))
        with pytest.raises(ValueError, match="does not rotate"):
            Perturbation(mode="S", rotation=1.0)
        with pytest.raises(ValueError, match="scale"):
            Perturbation(mode="S", scale=(0.5, 1.0, 1.0))
        with pytest.raises(ValueError, match="does not scale"):
            Perturbation(mode="R", scale=(1.05, 1.0, 1.0))

    def test_parse_modes(self):
        assert parse_perturbation_modes("R15+T01+S") == ("R15", "T01", "S")
        assert parse_perturbation_modes("R") == ("R",)
        assert parse_perturbation_modes("") == ()
        with pytest.raises(ValueError, match="unknown"):
            parse_perturbation_modes("R15+T05")
        with pytest.raises(ValueError, match="unknown"):
            parse_perturbation_modes("composite")

    def test_sampler_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = sample_perturbation(("R45", "T02", "S"), rng)
            assert p.mode == "composite"
            assert 0.0 <= p.rotation < 2 * math.pi
            assert all(abs(t) <= math.radians(45) for t in p.tilt)
            assert all(abs(t) <= 0.2 for t in p.translation)
            assert all(0.9 <= s <= 1.1 for s in p.scale)

    def test_sampler_single_mode(self):
        rng = np.random.default_rng(1)
        p = sample_perturbation(("T01",), rng)
        assert p.mode == "T01"
        assert p.rotation == 0.0 and p.scale == (1.0, 1.0, 1.0)
        assert any(t != 0.0 for t in p.translation)

    def test_sampler_rotation_covers_circle(self):
        rng = np.random.default_rng(2)
        angles = [sample_perturbation(("R",), rng).rotation for _ in range(500)]
        assert min(angles) < 0.3 and max(angles) > 2 * math.pi - 0.3


class TestApplyPerturbation:
    def normalized_point(self, offset, resolution=32):
        v = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        base = normalize(ShapeSample(v, np.empty((0, 3))), resolution)
        probe = base.copy()
        probe.vertices = np.array([base.frame.center + np.asarray(offset, dtype=np.float64)])
        return probe

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            apply_perturbation(unit_quad(), Perturbation.identity())

    def test_identity_is_bitwise_noop(self):
        shape = self.normalized_point([3.7, -1.2, 0.5])
        out = apply_perturbation(shape, Perturbation.identity())
        assert np.array_equal(out.vertices, shape.vertices)
        assert out.vertices is not shape.vertices

    def test_quarter_turn_about_up_axis(self):
        shape = self.normalized_point([5.0, 0.0, 2.0])
        out = apply_perturbation(shape, Perturbation("R", rotation=math.pi / 2))
        np.testing.assert_allclose(out.vertices[0] - 16.0, [0.0, 5.0, 2.0], atol=1e-12)

    def test_tilt_about_x_moves_y_into_z(self):
        shape = self.normalized_point([0.0, 4.0, 0.0])
        p = Perturbation("R15", rotation=0.0, tilt=(math.radians(15), 0.0))
        out = apply_perturbation(shape, p)
        c, s = math.cos(math.radians(15)), math.sin(math.radians(15))
        np.testing.assert_allclose(out.vertices[0] - 16.0, [0.0, 4 * c, 4 * s], atol=1e-12)

    def test_translation_scaled_by_object_size(self):
        shape = self.normalized_point([0.0, 0.0, 0.0])
        out = apply_perturbation(shape, Perturbation("T01", translation=(0.1, 0.0, -0.05)))
        # object size is 32 - 2*2 = 28
        np.testing.assert_allclose(out.vertices[0] - 16.0, [2.8, 0.0, -1.4], atol=1e-12)

    def test_scale_is_per_axis_about_center(self):
        shape = self.normalized_point([2.0, 2.0, 2.0])
        out = apply_perturbation(shape, Perturbation("S", scale=(1.1, 0.9, 1.0)))
        np.testing.assert_allclose(out.vertices[0] - 16.0, [2.2, 1.8, 2.0], atol=1e-12)

    def test_scale_applied_before_rotation(self):
        shape = self.normalized_point([3.0, 0.0, 0.0])
        p = Perturbation("composite", rotation=math.pi / 2, scale=(1.1, 1.0, 1.0))
        out = apply_perturbation(shape, p)
        # scale stretches x to 3.3 first, the turn then carries it onto y
        np.testing.assert_allclose(out.vertices[0] - 16.0, [0.0, 3.3, 0.0], atol=1e-12)


class TestVoxelize:
    def test_point_cloud_binning(self):
        frame = GridFrame(16)
        pts = np.array([[3.2, 4.9, 7.0], [3.4, 4.6, 7.2], [10.5, 2.0, 2.0]])
        shape = ShapeSample(pts, np.empty((0, 3)), frame=frame)
        occ = voxelize(shape, 16)
        # bins are centered on integers: 10.5 rounds up to 11
        expected = {(7, 5, 3), (2, 2, 11)}
        got = {tuple(c) for c in np.argwhere(occ.bits)}
        assert got == expected

    def test_requires_matching_frame(self):
        shape = ShapeSample([[1, 1, 1]], np.empty((0, 3)), frame=GridFrame(16))
        with pytest.raises(ValueError, match="resolution"):
            voxelize(shape, 32)
        with pytest.raises(ValueError, match="resolution"):
            voxelize(unit_quad(), 16)

    def test_out_of_grid_samples_dropped(self):
        frame = GridFrame(16)
        pts = np.array([[8.0, 8.0, 8.0], [-3.0, 8.0, 8.0], [8.0, 99.0, 8.0]])
        shape = ShapeSample(pts, np.empty((0, 3)), frame=frame)
        occ = voxelize(shape, 16)
        assert occ.occupied_count == 1

    def test_all_outside_is_error(self):
        shape = ShapeSample([[99.0, 99.0, 99.0]], np.empty((0, 3)), frame=GridFrame(16))
        with pytest.raises(ValueError, match="empty"):
            voxelize(shape, 16)

    def test_slab_matches_cell_overlap_oracle(self):
        # rectangle x in [4.25, 11.75], y in [6.25, 9.75] at z = 8: every cell
        # whose footprint intersects it must light up at high sample density
        r = 16
        v = np.array(
            [[4.25, 6.25, 8.0], [11.75, 6.25, 8.0], [11.75, 9.75, 8.0], [4.25, 9.75, 8.0]]
        )
        f = np.array([[0, 1, 2], [0, 2, 3]])
        shape = ShapeSample(v, f, frame=GridFrame(r))
        occ = voxelize(shape, r, samples_per_area=200.0, seed=5)
        expected = np.zeros((r, r, r), dtype=bool)
        for ix in range(r):
            for iy in range(r):
                x_overlap = min(ix + 0.5, 11.75) - max(ix - 0.5, 4.25)
                y_overlap = min(iy + 0.5, 9.75) - max(iy - 0.5, 6.25)
                if x_overlap > 0 and y_overlap > 0:
                    expected[8, iy, ix] = True
        np.testing.assert_array_equal(occ.bits, expected)

    def test_binning_matches_row_formula(self):
        # the old binning, per point row: round to the nearest centre, keep
        # in-grid rows, scatter; points leave the grid on every side here
        rng = np.random.default_rng(37)
        r = 16
        v = rng.uniform(-4.0, r + 4.0, size=(30, 3))
        f = rng.integers(0, 30, size=(40, 3))
        for faces in (f, np.empty((0, 3))):
            shape = ShapeSample(v, faces, frame=GridFrame(r))
            pts = _sample_surface(shape, 4.0, np.random.default_rng(3)) if len(faces) else v
            idx = np.floor(pts + 0.5).astype(np.int64)
            idx = idx[np.all((idx >= 0) & (idx < r), axis=1)]
            expected = np.zeros((r, r, r), dtype=bool)
            expected[idx[:, 2], idx[:, 1], idx[:, 0]] = True
            assert 0 < expected.sum() < len(pts)
            got = voxelize(shape, r, samples_per_area=4.0, seed=3)
            np.testing.assert_array_equal(got.bits, expected)

    def test_flip_matches_mask_assignment(self):
        # u + v > 1 folds back into the triangle: u, v -> 1 - u, 1 - v,
        # against the boolean-mask assignment it replaced
        v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        shape = ShapeSample(v, [[0, 1, 2]], frame=GridFrame(16))
        got = _sample_surface(shape, 4000.0, np.random.default_rng(11))
        draw = np.random.default_rng(11)
        u = draw.random(len(got))
        w = draw.random(len(got))
        flip = u + w > 1.0
        assert 0.4 < flip.mean() < 0.6
        u[flip] = 1.0 - u[flip]
        w[flip] = 1.0 - w[flip]
        assert got[:, 0].tobytes() == u.tobytes()
        assert got[:, 1].tobytes() == w.tobytes()
        assert not got[:, 2].any()

    def test_deterministic_for_seed(self):
        shape = normalize(parse_off(CUBE_OFF), 16)
        a = voxelize(shape, 16, seed=42)
        b = voxelize(shape, 16, seed=42)
        assert np.array_equal(a.bits, b.bits)

    def test_seed_changes_samples(self):
        # sparse sampling so distinct streams land in measurably different cells
        shape = normalize(parse_off(CUBE_OFF), 32)
        a = voxelize(shape, 32, samples_per_area=0.7, seed=1)
        b = voxelize(shape, 32, samples_per_area=0.7, seed=2)
        assert not np.array_equal(a.bits, b.bits)

    def test_denser_sampling_covers_more(self):
        shape = normalize(parse_off(CUBE_OFF), 32)
        sparse = voxelize(shape, 32, samples_per_area=1.0, seed=9)
        dense = voxelize(shape, 32, samples_per_area=50.0, seed=9)
        assert dense.occupied_count > sparse.occupied_count

    def test_quarter_turn_permutes_grid(self):
        # vertices on a 2^-20 lattice make the map (x, y, z) -> (R - y, x, z)
        # exact, so sampled positions agree to an ulp and the grids must match
        r = 32
        rng = np.random.default_rng(13)
        q = 2.0**-20
        v = np.round(rng.uniform(4, 28, size=(6, 3)) / q) * q
        f = np.array([[0, 1, 2], [1, 3, 2], [2, 4, 5]])
        base = ShapeSample(v, f, frame=GridFrame(r))
        turned = ShapeSample(
            np.column_stack([r - v[:, 1], v[:, 0], v[:, 2]]), f, frame=GridFrame(r)
        )
        occ = voxelize(base, r, samples_per_area=40.0, seed=21)
        occ_turned = voxelize(turned, r, samples_per_area=40.0, seed=21)
        got = {tuple(c) for c in np.argwhere(occ_turned.bits)}
        expected = {(z, x, r - y) for z, y, x in np.argwhere(occ.bits)}
        assert got == expected

    def test_surface_samples_match_index_gather(self):
        # reference: the per-point triangle index gathering each point's
        # corner and edges; the repeated-row form must give the same bits
        rng = np.random.default_rng(29)
        v = rng.uniform(3.0, 29.0, size=(40, 3))
        f = rng.integers(0, 40, size=(60, 3))
        shape = ShapeSample(v, f, frame=GridFrame(32))
        got = _sample_surface(shape, 3.0, np.random.default_rng(17))

        tri = v[f]
        e1 = tri[:, 1] - tri[:, 0]
        e2 = tri[:, 2] - tri[:, 0]
        areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
        counts = np.ceil(areas * 3.0).astype(np.int64)
        which = np.repeat(np.arange(len(counts)), counts)
        draw = np.random.default_rng(17)
        u = draw.random(which.size)
        w = draw.random(which.size)
        flip = u + w > 1.0
        u[flip] = 1.0 - u[flip]
        w[flip] = 1.0 - w[flip]
        expected = tri[which, 0] + u[:, None] * e1[which] + w[:, None] * e2[which]
        assert got.shape == expected.shape and got.shape[0] > 1000
        assert got.tobytes() == expected.tobytes()


class TestOccupancyGrid:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="8"):
            OccupancyGrid(8, np.zeros((8, 8, 4), dtype=bool))

    def test_density(self):
        bits = np.zeros((8, 8, 8), dtype=bool)
        bits[0, 0, 0] = bits[1, 2, 3] = True
        occ = OccupancyGrid(8, bits)
        assert occ.occupied_count == 2
        assert occ.density == pytest.approx(2 / 512)


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a/b.off\t0\n\nc.xyz\t3\n")
        assert load_manifest(path) == [("a/b.off", 0), ("c.xyz", 3)]

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a.off 0\n")
        with pytest.raises(ParseError, match="TAB"):
            load_manifest(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a.off\tcat\n")
        with pytest.raises(ParseError, match="line 1"):
            load_manifest(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a.off\t-2\n")
        with pytest.raises(ParseError, match=">= 0"):
            load_manifest(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            load_manifest(path)


class TestLoadShape:
    def test_dispatch(self, tmp_path):
        off = tmp_path / "cube.off"
        off.write_bytes(CUBE_OFF)
        shape = load_shape(off, label=4)
        assert shape.is_mesh and shape.label == 4
        xyz = tmp_path / "cloud.xyz"
        xyz.write_bytes(b"1 2 3\n")
        assert not load_shape(xyz).is_mesh

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "mesh.obj"
        path.write_text("v 0 0 0\n")
        with pytest.raises(ParseError, match="unsupported"):
            load_shape(path)

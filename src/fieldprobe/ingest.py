"""Shape ingestion: mesh/point-cloud parsing, grid-frame normalization,
stochastic perturbations, and surface voxelization into occupancy grids;
also the dataset manifest reader and the ``key=value`` config parser.

Coordinate conventions used throughout the package:
  * grid coordinates are voxel units; voxel (i, j, k) = (x, y, z) is centered
    at the integer position (i, j, k) and covers [i-0.5, i+0.5) per axis,
  * occupancy arrays are indexed bits[z, y, x],
  * the up axis is z; "tilt" rotations are about x and y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, compress

import numpy as np

from .errors import ParseError

DEFAULT_MARGIN = 2
DEFAULT_SAMPLES_PER_AREA = 8.0

PERTURBATION_MODES = ("R", "R15", "R45", "T01", "T02", "S", "composite")

_TILT_LIMIT = {"R15": math.radians(15.0), "R45": math.radians(45.0)}
_TRANSLATION_LIMIT = {"T01": 0.1, "T02": 0.2}
_SCALE_RANGE = (0.9, 1.1)


@dataclass(frozen=True)
class GridFrame:
    """The cubic grid a normalized shape lives in."""

    resolution: int

    @property
    def center(self):
        return self.resolution / 2.0

    @property
    def object_size(self):
        """Longest-axis extent of a normalized shape, in voxels."""
        return self.resolution - 2.0 * DEFAULT_MARGIN


@dataclass
class ShapeSample:
    """A triangle mesh or point cloud with an optional class label.

    `faces` is an (F, 3) int array; empty for point clouds. `frame` is set by
    `normalize` and records the grid the vertices are expressed in.
    """

    vertices: np.ndarray
    faces: np.ndarray
    label: int = -1
    id: str = ""
    frame: GridFrame | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.vertices.shape[0] == 0:
            raise ParseError("no points")
        if self.faces.size and self.faces.max() >= self.vertices.shape[0]:
            raise ParseError("face index out of range")
        if self.faces.size and self.faces.min() < 0:
            raise ParseError("negative face index")

    @property
    def is_mesh(self):
        return self.faces.shape[0] > 0

    def copy(self):
        return ShapeSample(self.vertices.copy(), self.faces.copy(), self.label, self.id, self.frame)


@dataclass
class OccupancyGrid:
    """Binary surface voxelization, bits[z, y, x]."""

    resolution: int
    bits: np.ndarray

    def __post_init__(self):
        r = self.resolution
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (r, r, r):
            raise ValueError(f"occupancy bits must be {r}^3, got {self.bits.shape}")

    @property
    def occupied_count(self):
        return int(self.bits.sum())

    @property
    def density(self):
        return self.occupied_count / self.bits.size


def _rows(data: bytes):
    """Tokenize raw bytes once: the token lists of the non-blank lines, and
    their 1-based line numbers in the raw file. `#` starts a comment."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a text file: {exc}") from None
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = list(map(str.split, lines))
    return list(compress(rows, rows)), list(compress(range(1, len(rows) + 1), rows))


def _floats(tokens, count, line):
    if len(tokens) < count:
        raise ParseError(f"expected {count} values, got {len(tokens)}", line=line)
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from None


def _point_rows(rows, numbers):
    """(M, 3) float64 points from x y z token rows. A block whose rows all
    hold exactly three tokens converts in one call; any other block (extra
    columns, or a bad value to report with its line) is read row by row."""
    if set(map(len, rows)) <= {3}:
        try:
            flat = np.fromiter(map(float, chain.from_iterable(rows)), np.float64, 3 * len(rows))
        except ValueError:
            pass
        else:
            return flat.reshape(-1, 3)
    points = np.empty((len(rows), 3), dtype=np.float64)
    for i, (toks, line) in enumerate(zip(rows, numbers)):
        points[i] = _floats(toks, 3, line)
    return points


def _face_rows(rows, numbers, nv):
    """(F, 3) int64 triangles from OFF polygon rows "k i_1 .. i_k". A
    block of plain triangles, "3 a b c" on every row with every index in
    range, converts in one call; any other block is read row by row, with
    polygons fan-triangulated and errors reported with their line."""
    if set(map(len, rows)) <= {4}:
        try:
            flat = np.fromiter(map(int, chain.from_iterable(rows)), np.int64, 4 * len(rows))
        except (ValueError, OverflowError):
            pass
        else:
            flat = flat.reshape(-1, 4)
            idx = flat[:, 1:]
            if (flat[:, 0] == 3).all() and ((idx >= 0) & (idx < nv)).all():
                return np.ascontiguousarray(idx)
    tris = []
    for toks, line in zip(rows, numbers):
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
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def parse_off(data: bytes) -> ShapeSample:
    """Parse an ASCII OFF mesh. The "OFF" keyword line is optional; counts may
    share its line (a common quirk of shipped datasets). Polygons with more
    than three vertices are fan-triangulated."""
    rows, numbers = _rows(data)
    if not rows:
        raise ParseError("empty file")

    cursor = 0
    line, toks = numbers[cursor], rows[cursor]
    if toks[0].upper().startswith("OFF"):
        rest = toks[0][3:]
        toks = ([rest] if rest else []) + toks[1:]
        if not toks:
            cursor += 1
            if cursor >= len(rows):
                raise ParseError("missing count line after OFF header", line=line)
            line, toks = numbers[cursor], rows[cursor]
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

    if len(rows) - cursor < nv:
        raise ParseError(f"truncated: expected {nv} vertex lines, found {len(rows) - cursor}")
    vertices = _point_rows(rows[cursor : cursor + nv], numbers[cursor : cursor + nv])
    cursor += nv

    if len(rows) - cursor < nf:
        raise ParseError(f"truncated: expected {nf} face lines, found {len(rows) - cursor}")
    faces = _face_rows(rows[cursor : cursor + nf], numbers[cursor : cursor + nf], nv)
    return ShapeSample(vertices, faces)


def parse_xyz(data: bytes) -> ShapeSample:
    """Parse a whitespace-separated point cloud, one x y z triple per line."""
    rows, numbers = _rows(data)
    if not rows:
        raise ParseError("no points")
    return ShapeSample(_point_rows(rows, numbers), np.empty((0, 3), dtype=np.int64))


def write_off(shape: ShapeSample) -> bytes:
    out = ["OFF", f"{len(shape.vertices)} {len(shape.faces)} 0"]
    out += [" ".join(f"{v:.9g}" for v in row) for row in shape.vertices]
    out += ["3 " + " ".join(str(i) for i in row) for row in shape.faces]
    return ("\n".join(out) + "\n").encode()


def write_xyz(shape: ShapeSample) -> bytes:
    rows = (" ".join(f"{v:.9g}" for v in row) for row in shape.vertices)
    return ("\n".join(rows) + "\n").encode()


def normalize(shape: ShapeSample, resolution: int) -> ShapeSample:
    """Translate and uniformly scale a shape into the grid frame: bounding-box
    center at the grid center, longest axis spanning resolution -
    2*DEFAULT_MARGIN voxels. Idempotent (an already-normalized shape is
    returned as a copy)."""
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")

    frame = GridFrame(resolution)
    lo = shape.vertices.min(axis=0)
    hi = shape.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent == 0.0:
        raise ValueError("degenerate shape: zero extent on all axes")
    center = (lo + hi) / 2.0

    # Fixpoint guard: re-running on a normalized shape must be a bitwise no-op,
    # which a recomputed scale within a few ulps of 1 would break.
    span = frame.object_size
    if np.all(center == frame.center) and abs(extent - span) <= 8 * np.finfo(np.float64).eps * span:
        out = shape.copy()
        out.frame = frame
        return out

    scale = span / extent
    vertices = (shape.vertices - center) * scale + frame.center
    return ShapeSample(vertices, shape.faces.copy(), shape.label, shape.id, frame)


@dataclass(frozen=True)
class Perturbation:
    """A similarity transform applied about the grid center before
    voxelization: per-axis scale, then tilts about x and y, then the up-axis
    rotation, then translation. Translation is expressed as a fraction of the
    normalized object size per axis.
    """

    mode: str = "composite"
    rotation: float = 0.0
    tilt: tuple[float, float] = (0.0, 0.0)
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"unknown perturbation mode {self.mode!r}")
        tilt_cap = _TILT_LIMIT.get(self.mode, math.radians(45.0))
        trans_cap = _TRANSLATION_LIMIT.get(self.mode, 0.2)
        if self.mode in ("R", "T01", "T02", "S"):
            tilt_cap = 0.0
        if self.mode in ("R", "R15", "R45"):
            trans_cap = 0.0
        if self.mode in ("T01", "T02", "S") and self.rotation != 0.0:
            raise ValueError(f"mode {self.mode} does not rotate")
        for t in self.tilt:
            if abs(t) > tilt_cap:
                raise ValueError(f"tilt {t} outside +-{tilt_cap} for mode {self.mode}")
        for t in self.translation:
            cap = trans_cap if self.mode != "S" else 0.0
            if abs(t) > cap:
                raise ValueError(f"translation {t} outside +-{cap} for mode {self.mode}")
        for s in self.scale:
            if self.mode in ("S", "composite"):
                if not _SCALE_RANGE[0] <= s <= _SCALE_RANGE[1]:
                    raise ValueError(f"scale {s} outside {_SCALE_RANGE}")
            elif s != 1.0:
                raise ValueError(f"mode {self.mode} does not scale")

    @staticmethod
    def identity() -> "Perturbation":
        return Perturbation()

    def is_identity(self):
        return (
            self.rotation == 0.0
            and self.tilt == (0.0, 0.0)
            and self.translation == (0.0, 0.0, 0.0)
            and self.scale == (1.0, 1.0, 1.0)
        )


def parse_perturbation_modes(spec: str) -> tuple[str, ...]:
    """Parse a protocol string like "R15+T01+S" into mode tags."""
    if not spec:
        return ()
    modes = tuple(part.strip() for part in spec.split("+") if part.strip())
    for m in modes:
        if m not in PERTURBATION_MODES or m == "composite":
            raise ValueError(f"unknown perturbation mode {m!r} in {spec!r}")
    return modes


def sample_perturbation(modes: tuple[str, ...], rng: np.random.Generator) -> Perturbation:
    """Draw perturbation parameters for the given protocol tags. Rotation
    modes spin the full circle about the up axis; R15/R45 add bounded tilts."""
    rotation = 0.0
    tilt = (0.0, 0.0)
    translation = (0.0, 0.0, 0.0)
    scale = (1.0, 1.0, 1.0)
    for m in modes:
        if m in ("R", "R15", "R45"):
            rotation = float(rng.uniform(0.0, 2.0 * math.pi))
            if m != "R":
                lim = _TILT_LIMIT[m]
                tilt = tuple(rng.uniform(-lim, lim, size=2))
        elif m in ("T01", "T02"):
            lim = _TRANSLATION_LIMIT[m]
            translation = tuple(rng.uniform(-lim, lim, size=3))
        elif m == "S":
            scale = tuple(rng.uniform(*_SCALE_RANGE, size=3))
    mode = modes[0] if len(modes) == 1 else "composite"
    return Perturbation(mode, rotation, tilt, translation, scale)


def _rotation_matrix(rotation, tilt):
    cx, sx = math.cos(tilt[0]), math.sin(tilt[0])
    cy, sy = math.cos(tilt[1]), math.sin(tilt[1])
    cz, sz = math.cos(rotation), math.sin(rotation)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]], dtype=np.float64)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]], dtype=np.float64)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]], dtype=np.float64)
    return rz @ ry @ rx


def apply_perturbation(shape: ShapeSample, p: Perturbation) -> ShapeSample:
    """Apply a perturbation about the grid center. Vertices may leave the grid
    frame; voxelization drops their out-of-grid surface samples rather than
    clamping geometry."""
    if shape.frame is None:
        raise ValueError("shape must be normalized before perturbation")
    if p.is_identity():
        return shape.copy()
    frame = shape.frame
    rot = _rotation_matrix(p.rotation, p.tilt)
    v = (shape.vertices - frame.center) * np.asarray(p.scale)
    v = v @ rot.T
    v = v + frame.center + np.asarray(p.translation) * frame.object_size
    return ShapeSample(v, shape.faces.copy(), shape.label, shape.id, frame)


def _sample_surface(shape: ShapeSample, samples_per_area: float, rng: np.random.Generator):
    """Uniform random points on the mesh surface, at least samples_per_area
    per unit voxel-face area on every triangle."""
    tri = shape.vertices[shape.faces]
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    counts = np.ceil(areas * samples_per_area).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 3), dtype=np.float64)
    u = rng.random(total)
    v = rng.random(total)
    flip = u + v > 1.0
    np.subtract(1.0, u, out=u, where=flip)
    np.subtract(1.0, v, out=v, where=flip)
    # corner + u*e1 + v*e2, summed in that order in place over each
    # triangle's repeated rows; addition commutes exactly, so the points
    # are bit-identical to gathering the rows by a per-point triangle index.
    # The coordinates are built as three contiguous rows and handed out as
    # an (M, 3) view, so voxelize reads each axis contiguously.
    points = np.repeat(e1.T, counts, axis=1)
    points *= u
    points += np.repeat(tri[:, 0].T, counts, axis=1)
    edge = np.repeat(e2.T, counts, axis=1)
    edge *= v
    points += edge
    return points.T


def voxelize(
    shape: ShapeSample,
    resolution: int,
    samples_per_area: float = DEFAULT_SAMPLES_PER_AREA,
    seed: int = 0,
) -> OccupancyGrid:
    """Surface-sample a mesh (or bin a point cloud) into a binary occupancy
    grid. Occupancy marks cells touched by the surface only; no interior fill.
    Deterministic for a fixed (shape, resolution, seed)."""
    if shape.frame is None or shape.frame.resolution != resolution:
        raise ValueError("shape must be normalized to this grid resolution")
    if shape.is_mesh:
        pts = _sample_surface(shape, samples_per_area, np.random.default_rng(seed))
    else:
        pts = shape.vertices
    # per axis, x y z rows: the nearest voxel centre, and whether it is
    # inside (a negative index reads as a huge unsigned one)
    idx = pts.T + 0.5
    np.floor(idx, out=idx)
    idx = idx.astype(np.int64)
    inside = idx.view(np.uint64) < resolution
    inside = inside[0] & inside[1] & inside[2]
    if not inside.any():
        raise ValueError("voxelization produced an empty grid")
    x, y, z = idx[:, inside]
    bits = np.zeros((resolution, resolution, resolution), dtype=bool)
    bits[z, y, x] = True
    return OccupancyGrid(resolution, bits)


def load_manifest(path) -> list[tuple[str, int]]:
    """Read a dataset manifest: one "relative/path<TAB>integer-label" per line."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for num, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("manifest line needs a TAB separator", line=num)
            rel, label_text = line.split("\t", 1)
            try:
                label = int(label_text.strip())
            except ValueError:
                raise ParseError(f"bad label {label_text.strip()!r}", line=num) from None
            if label < 0:
                raise ParseError(f"label must be >= 0, got {label}", line=num)
            entries.append((rel, label))
    if not entries:
        raise ParseError(f"manifest {path} is empty")
    return entries


def parse_key_values(text, coerce) -> dict:
    """Parse ``key=value`` lines into {key: coerce[key](value)}.

    `#` starts a comment and blank lines are skipped. A line without `=`,
    a key missing from `coerce`, a repeated key, or a value its coercer
    rejects with ValueError is a ParseError carrying the line number.
    """
    values = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=num)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in coerce:
            raise ParseError(f"unknown key {key!r}", line=num)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=num)
        try:
            values[key] = coerce[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", line=num) from None
    return values


def load_shape(path, label: int = -1) -> ShapeSample:
    """Load one shape file, dispatching on extension (.off mesh, .xyz cloud)."""
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if path.lower().endswith(".off"):
        shape = parse_off(data)
    elif path.lower().endswith(".xyz"):
        shape = parse_xyz(data)
    else:
        raise ParseError(f"unsupported shape format: {path}")
    return replace(shape, label=label)

"""Procedural five-class mesh dataset for end-to-end tests and demos.

Generates small OFF meshes (sphere, box, cylinder, torus, cone) with
per-sample jittered proportions and orientations, plus TAB-separated
train/test manifests that ``fieldprobe.trainer`` consumes directly.  Every sample is produced
by a generator seeded from ``(seed, split, class, index)``, so a spec
with the same seed always yields byte-identical files and the train and
test splits never share a sample.
`multilinear_field` is the exact oracle of the sampler and probing tests.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .errors import ParseError
from .field import Field3D
from .ingest import ShapeSample, parse_key_values, write_off

CLASS_NAMES = ("sphere", "box", "cylinder", "torus", "cone")

_SPLIT_CODES = {"train": 0, "test": 1}


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one generated dataset."""

    classes: tuple = CLASS_NAMES
    train_per_class: int = 100
    test_per_class: int = 20
    jitter: float = 0.3
    seed: int = 0

    def __post_init__(self):
        classes = tuple(self.classes)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        if len(set(classes)) != len(classes):
            raise ValueError("duplicate class names")
        for name in classes:
            if name not in CLASS_NAMES:
                raise ValueError("unknown class %r (choose from %s)"
                                 % (name, ", ".join(CLASS_NAMES)))
        object.__setattr__(self, "classes", classes)
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class counts must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    @classmethod
    def from_text(cls, text):
        """Parse ``key=value`` lines; unknown keys are errors."""
        kwargs = parse_key_values(text, {
            "classes": lambda value: tuple(
                name.strip() for name in value.split(",") if name.strip()),
            "train_per_class": int, "test_per_class": int, "jitter": float,
            "seed": int})
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())


def _jittered(rng, base, amplitude, jitter):
    """base * (1 + amplitude*jitter*u), u ~ U(-1, 1)."""
    return base * (1.0 + amplitude * jitter * rng.uniform(-1.0, 1.0))


def _random_orientation(rng, jitter):
    """Rotation by up to jitter*pi about a uniformly random axis.

    Proportion jitter alone barely changes a shape once it is
    normalized, so orientation carries most of the within-class
    variation.  Rodrigues' formula; jitter 0 would give the identity.
    """
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = jitter * np.pi * rng.uniform()
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _grid_quads(rows, cols, index):
    """Triangulate a wrapped rows x cols vertex grid.

    ``index(i, j)`` maps grid coordinates (taken modulo the grid size)
    to vertex ids; each quad becomes two triangles.
    """
    faces = []
    for i in range(rows):
        for j in range(cols):
            a = index(i, j)
            b = index(i + 1, j)
            c = index(i + 1, j + 1)
            d = index(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return faces


def make_sphere(rng, jitter):
    """UV sphere, axes independently jittered into a mild ellipsoid."""
    stacks, sectors = 12, 16
    axes = np.array([_jittered(rng, 1.0, 0.15, jitter) for _ in range(3)])
    verts = [(0.0, 0.0, axes[2]), (0.0, 0.0, -axes[2])]
    for i in range(1, stacks):
        theta = np.pi * i / stacks
        for j in range(sectors):
            phi = 2.0 * np.pi * j / sectors
            verts.append((axes[0] * np.sin(theta) * np.cos(phi),
                          axes[1] * np.sin(theta) * np.sin(phi),
                          axes[2] * np.cos(theta)))
    ring = lambda i, j: 2 + (i - 1) * sectors + (j % sectors)
    faces = []
    for j in range(sectors):
        faces.append((0, ring(1, j), ring(1, j + 1)))
        faces.append((1, ring(stacks - 1, j + 1), ring(stacks - 1, j)))
    faces += _grid_quads(stacks - 2, sectors, lambda i, j: ring(i + 1, j))
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, np.int64)


def make_box(rng, jitter):
    """Axis-aligned cuboid with independently jittered side lengths."""
    half = np.array([_jittered(rng, 1.0, 0.45, jitter) for _ in range(3)])
    corners = np.array([(x, y, z)
                        for z in (-1.0, 1.0)
                        for y in (-1.0, 1.0)
                        for x in (-1.0, 1.0)]) * half
    faces = np.array([
        (0, 2, 1), (1, 2, 3),  # bottom (z = -h)
        (4, 5, 6), (5, 7, 6),  # top
        (0, 1, 4), (1, 5, 4),  # front (y = -h)
        (2, 6, 3), (3, 6, 7),  # back
        (0, 4, 2), (2, 4, 6),  # left
        (1, 3, 5), (3, 7, 5),  # right
    ], dtype=np.int64)
    return corners.astype(np.float64), faces


def make_cylinder(rng, jitter):
    """Closed circular cylinder; the height/radius ratio carries the jitter."""
    sectors = 24
    radius = 1.0
    height = _jittered(rng, 2.4, 0.45, jitter)
    angles = 2.0 * np.pi * np.arange(sectors) / sectors
    bottom = np.stack([radius * np.cos(angles), radius * np.sin(angles),
                       np.full(sectors, -height / 2.0)], axis=1)
    top = bottom + np.array([0.0, 0.0, height])
    verts = np.concatenate([bottom, top,
                            [[0.0, 0.0, -height / 2.0],
                             [0.0, 0.0, height / 2.0]]])
    cb, ct = 2 * sectors, 2 * sectors + 1
    faces = []
    for j in range(sectors):
        k = (j + 1) % sectors
        faces.append((j, k, sectors + j))           # side
        faces.append((k, sectors + k, sectors + j))
        faces.append((cb, k, j))                    # bottom cap
        faces.append((ct, sectors + j, sectors + k))
    return verts.astype(np.float64), np.asarray(faces, dtype=np.int64)


def make_torus(rng, jitter):
    """Torus around the z axis; the tube/ring radius ratio is jittered."""
    major_steps, minor_steps = 24, 12
    major = 1.0
    minor = _jittered(rng, 0.36, 0.3, jitter)
    verts = []
    for i in range(major_steps):
        theta = 2.0 * np.pi * i / major_steps
        for j in range(minor_steps):
            phi = 2.0 * np.pi * j / minor_steps
            rad = major + minor * np.cos(phi)
            verts.append((rad * np.cos(theta), rad * np.sin(theta),
                          minor * np.sin(phi)))
    index = lambda i, j: (i % major_steps) * minor_steps + (j % minor_steps)
    faces = _grid_quads(major_steps, minor_steps, index)
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, np.int64)


def make_cone(rng, jitter):
    """Closed cone: apex above a circular base; slenderness is jittered."""
    sectors = 24
    radius = 1.0
    height = _jittered(rng, 2.4, 0.45, jitter)
    angles = 2.0 * np.pi * np.arange(sectors) / sectors
    base = np.stack([radius * np.cos(angles), radius * np.sin(angles),
                     np.zeros(sectors)], axis=1)
    verts = np.concatenate([base, [[0.0, 0.0, height], [0.0, 0.0, 0.0]]])
    apex, center = sectors, sectors + 1
    faces = []
    for j in range(sectors):
        k = (j + 1) % sectors
        faces.append((apex, j, k))
        faces.append((center, k, j))
    return verts.astype(np.float64), np.asarray(faces, dtype=np.int64)


_MAKERS = {
    "sphere": make_sphere,
    "box": make_box,
    "cylinder": make_cylinder,
    "torus": make_torus,
    "cone": make_cone,
}


def make_shape(class_name, rng, jitter):
    """Build one jittered mesh of the named class (unnormalized)."""
    if class_name not in _MAKERS:
        raise ValueError("unknown class %r" % class_name)
    vertices, faces = _MAKERS[class_name](rng, jitter)
    if jitter > 0.0:
        vertices = vertices @ _random_orientation(rng, jitter).T
    return ShapeSample(vertices=vertices, faces=faces, id=class_name)


def sample_rng(spec, split, class_index, sample_index):
    """Deterministic per-sample generator; splits never collide."""
    if split not in _SPLIT_CODES:
        raise ValueError("split must be 'train' or 'test'")
    return np.random.default_rng(
        (spec.seed, _SPLIT_CODES[split], class_index, sample_index))


def generate_synthetic(spec, out_dir):
    """Write shapes/*.off plus train.tsv/test.tsv under out_dir.

    Returns ``(train_manifest_path, test_manifest_path)``.  Manifest
    paths are relative to the manifest's own directory, so the dataset
    tree can be moved wholesale.
    """
    shapes_dir = os.path.join(out_dir, "shapes")
    os.makedirs(shapes_dir, exist_ok=True)
    manifests = {}
    counts = {"train": spec.train_per_class, "test": spec.test_per_class}
    for split in ("train", "test"):
        lines = []
        for class_index, class_name in enumerate(spec.classes):
            for sample_index in range(counts[split]):
                rng = sample_rng(spec, split, class_index, sample_index)
                shape = make_shape(class_name, rng, spec.jitter)
                name = "%s_%s_%03d.off" % (class_name, split, sample_index)
                with open(os.path.join(shapes_dir, name), "wb") as handle:
                    handle.write(write_off(shape))
                lines.append("shapes/%s\t%d" % (name, class_index))
        path = os.path.join(out_dir, "%s.tsv" % split)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        manifests[split] = path
    return manifests["train"], manifests["test"]


def multilinear_field(rng, resolution, roles):
    """A random field with one channel per role code, each channel
    a + bx + cy + dz + exy + fxz + gyz + hxyz, and its evaluator from (M, 3)
    points to (channels, M) values. Trilinear sampling reproduces this
    family exactly and its lattice gradients are exact, so finite
    differences through sampling are a faithful oracle. Coefficients are
    scaled by powers of R-1 so each term stays O(1) on the grid."""
    span = resolution - 1.0
    scales = np.array([1.0, span, span, span,
                       span ** 2, span ** 2, span ** 2, span ** 3])
    coeffs = rng.standard_normal((len(roles), 8)) / scales

    def evaluate(points):
        p = np.asarray(points, dtype=np.float64)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        terms = np.stack([np.ones_like(x), x, y, z,
                          x * y, x * z, y * z, x * y * z])
        return coeffs @ terms

    grid = np.arange(resolution, dtype=np.float64)
    zz, yy, xx = np.meshgrid(grid, grid, grid, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    values = evaluate(points).reshape((len(roles),) + (resolution,) * 3)
    return Field3D(values, roles), evaluate

"""Training driver for field-probing classifiers.

Covers the whole loop around the layers: manifest-backed datasets, a
cache of unaugmented fields and evaluation views, network assembly for
the two stock architectures, the SGD loop with optional on-the-fly
perturbation, checkpointing with bitwise-reproducible resume,
evaluation, and feature export. One switch decides what trains: the
head always does, and the probing bank does unless `freeze_probing` is
set. A run can start from a donor checkpoint's probing bank, which with
`freeze_probing` is a head-only fine-tune.

Views are made by one rule. A training batch or an evaluation pass that
has perturbed views to build builds them on `pipeline_workers` threads;
one that only reads cached fields reads them on the calling thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import FormatError, ParseError, TrainingDiverged
from .field import (
    Field3D,
    ROLE_DISTANCE,
    ROLE_GENERIC,
    distance_field,
    field_from_occupancy,
    load_field,
    save_field,
    write_atomically,
)
from .ingest import (
    DEFAULT_SAMPLES_PER_AREA,
    apply_perturbation,
    load_manifest,
    load_shape,
    normalize,
    parse_key_values,
    parse_perturbation_modes,
    sample_perturbation,
    voxelize,
)
from .nn import (
    BatchNorm,
    Dropout,
    FullyConnected,
    Network,
    ReLU,
    Sgd,
    grad_check,
    softmax_cross_entropy,
)
from .probing import (FilterBank, InitConfig, ProbingLayer, default_sigma,
                      init_filter_bank)
from .synthetic import multilinear_field

# Fixed seed for evaluation-time perturbations: eval views must not depend
# on how far training has advanced the master stream.
EVAL_SEED = 20260818

ARCHITECTURES = ("1-FC", "4-FCs")
CHANNEL_SETS = {"distance": 1, "distance+normals": 4}
HIDDEN_WIDTH = 1024

CHECKPOINT_MAGIC = b"FPCK"
CHECKPOINT_VERSION = 1

METRICS_HEADER = "iteration,loss,train_acc,eval_acc,wall_ms"
CHUNK = 64  # samples per forward pass of an evaluation or export


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """One flat bundle of every knob a run needs.

    `to_text`/`from_text` round-trip the exact values through sorted
    ``key=value`` lines; that canonical text is what checkpoints echo and
    what resume compares against. `classes=0` means "infer from the train
    manifest"; `sigma=0` means one tenth of the normalized object size.
    """

    architecture: str = "1-FC"
    resolution: int = 32
    channels: str = "distance"
    grid_divisions: int = 4
    filters_per_cell: int = 1
    points_per_filter: int = 8
    length_low: float = 0.2
    length_high: float = 0.8
    init_seed: int = 0
    sigma: float = 0.0
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 32
    max_iterations: int = 2000
    seed: int = 0
    dropout: float = 0.5
    augmentation: str = ""
    samples_per_area: float = DEFAULT_SAMPLES_PER_AREA
    classes: int = 0
    freeze_probing: bool = False
    train_manifest: str = ""
    test_manifest: str = ""
    cache_dir: str = ""
    out_dir: str = "run"
    checkpoint_every: int = 500
    eval_every: int = 500
    pipeline_workers: int = 1

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError("architecture must be one of %s, got %r"
                             % ("/".join(ARCHITECTURES), self.architecture))
        if self.channels not in CHANNEL_SETS:
            raise ValueError("channels must be one of %s, got %r"
                             % ("/".join(sorted(CHANNEL_SETS)), self.channels))
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0 (0 selects the default)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.samples_per_area <= 0:
            raise ValueError("samples_per_area must be positive")
        if self.classes < 0 or self.classes == 1:
            raise ValueError("classes must be 0 (infer) or >= 2")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ValueError("checkpoint_every/eval_every must be >= 0")
        if self.pipeline_workers < 1:
            raise ValueError("pipeline_workers must be >= 1")
        # InitConfig validates its own slice of the config
        self.init_config
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2: every architecture "
                             "batch-normalizes the probing features")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.augmentation:
            parse_perturbation_modes(self.augmentation)

    @property
    def channel_count(self):
        return CHANNEL_SETS[self.channels]

    @property
    def effective_sigma(self):
        if self.sigma > 0:
            return self.sigma
        return default_sigma(self.resolution)

    @property
    def init_config(self):
        return InitConfig(
            grid_divisions=self.grid_divisions,
            filters_per_cell=self.filters_per_cell,
            points_per_filter=self.points_per_filter,
            length_low=self.length_low,
            length_high=self.length_high,
            seed=self.init_seed,
        )

    def to_text(self):
        lines = []
        for field in sorted(dataclasses.fields(self), key=lambda f: f.name):
            value = getattr(self, field.name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append("%s=%s" % (field.name, text))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        coerce = {"int": int, "float": float, "str": str, "bool": _parse_bool}
        types = {}
        for field in dataclasses.fields(cls):
            name = field.type if isinstance(field.type, str) else field.type.__name__
            types[field.name] = coerce[name]
        values = parse_key_values(text, types)
        try:
            return cls(**values)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @classmethod
    def from_file(cls, path):
        """Parse a config file; relative paths are taken relative to it."""
        with open(path, "r", encoding="utf-8") as handle:
            cfg = cls.from_text(handle.read())
        base = os.path.dirname(os.path.abspath(path))
        resolved = {}
        for key in _PATH_KEYS:
            value = getattr(cfg, key)
            if value and not os.path.isabs(value):
                resolved[key] = os.path.normpath(os.path.join(base, value))
        if resolved:
            cfg = dataclasses.replace(cfg, **resolved)
        for key in ("train_manifest", "test_manifest"):
            value = getattr(cfg, key)
            if value and not os.path.exists(value):
                raise FileNotFoundError("%s does not exist: %s" % (key, value))
        return cfg


def _parse_bool(text):
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError("expected true or false, got %r" % text)


class ShapeDataset:
    """Manifest-backed shapes, normalized lazily and memoized. `ids` are
    the manifest's paths as written, relative to its directory; `paths`
    are the same files resolved, which tell apart two manifests that list
    the same relative path. `seeds` holds each id's `sample_seed`."""

    def __init__(self, manifest_path, resolution, class_count=0):
        entries = load_manifest(manifest_path)
        self.base = os.path.dirname(os.path.abspath(manifest_path))
        self.ids = [path for path, _ in entries]
        self.paths = [os.path.normpath(os.path.join(self.base, path))
                      for path in self.ids]
        self.seeds = [sample_seed(path) for path in self.ids]
        self.labels = np.array([label for _, label in entries], dtype=np.int64)
        top = int(self.labels.max())
        if class_count == 0:
            class_count = top + 1
        elif top >= class_count:
            raise ValueError("manifest label %d outside the %d trained classes"
                             % (top, class_count))
        self.class_count = int(class_count)
        self.resolution = int(resolution)
        self._shapes = {}

    def __len__(self):
        return len(self.ids)

    def shape(self, index):
        """The normalized sample; raw file I/O happens on first access."""
        cached = self._shapes.get(index)
        if cached is None:
            raw = load_shape(self.paths[index], int(self.labels[index]))
            cached = normalize(raw, self.resolution)
            self._shapes[index] = cached
        return cached


def build_field(occ, channels):
    """Distance-only or distance-plus-normals field stack, float32."""
    if channels == "distance":
        values = distance_field(occ, np.float32)[None]
        return Field3D(values, np.array([ROLE_DISTANCE], dtype=np.uint8))
    return field_from_occupancy(occ)


def _build(cache, shape, perturbation, vox_seed):
    """The field of `shape`, perturbed unless `perturbation` is None, at
    the cache's settings, voxelized with `vox_seed`."""
    if perturbation is not None:
        shape = apply_perturbation(shape, perturbation)
    occ = voxelize(shape, cache.resolution, cache.samples_per_area,
                   seed=vox_seed)
    return build_field(occ, cache.channels)


def eval_draw(modes, seed):
    """(perturbation, voxelization seed) of the evaluation view under the
    protocol `modes` of the sample whose voxelization seed is `seed`:
    fixed, so every pass scores the same views."""
    rng = np.random.default_rng((EVAL_SEED, seed))
    perturbation = sample_perturbation(modes, rng)
    return perturbation, int(rng.integers(2 ** 63))


def sample_seed(sample_id):
    """Stable voxelization seed for a manifest entry, independent of any
    generator state so cached fields never depend on training order."""
    digest = hashlib.sha1(("voxelize:" + sample_id).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class FieldCache:
    """Each sample's unaugmented field and, per perturbation protocol, its
    evaluation view.

    Unaugmented fields are memoized in memory and, given a directory, on
    disk. Evaluation views are deterministic, drawn from (EVAL_SEED, the
    sample's voxelization seed), and are kept on disk only: each
    `evaluate_checkpoint` call opens a new cache, and without a directory
    every pass builds them again. Training views are never cached, since
    each follows its own draw from the master stream. A pass that finds
    every one of its views on disk (`holds`) loads them on the calling
    thread; any other perturbed pass builds and loads them on
    `pipeline_workers` threads. scipy's feature transform, the floor of
    a view, releases the GIL, so builds overlap.

    `path` is the one place that names an entry. An entry is keyed on
    the shape's resolved path and its voxelization seed, so its bytes
    depend neither on where the dataset lives nor on what else the cache
    has served. Evaluation views add EVAL_SEED and the protocol's modes
    in order (draws follow that order: S+R15 is not R15+S), and their
    file names end in the protocol. A missing or unparsable entry, such
    as a truncated copy, is rebuilt and rewritten; an evaluation view
    that cannot be written is served uncached."""

    def __init__(self, cache_dir, resolution, channels,
                 samples_per_area=DEFAULT_SAMPLES_PER_AREA):
        if channels not in CHANNEL_SETS:
            raise ValueError("unknown channel set %r" % channels)
        self.dir = cache_dir or None
        self.resolution = int(resolution)
        self.channels = channels
        self.samples_per_area = float(samples_per_area)
        # the density in full, as the config text records it: two that
        # agree to six digits are still two entries
        self._tag = "%d|%s|%r" % (self.resolution, channels,
                                  self.samples_per_area)
        self._memory = {}
        self._lock = threading.Lock()
        if self.dir:
            os.makedirs(self.dir, exist_ok=True)

    def path(self, dataset, index, perturb=()):
        """Disk entry of sample `index` of `dataset` under the protocol
        `perturb`, or None without a directory."""
        if not self.dir:
            return None
        tag = "%s|%d|%s" % (dataset.paths[index], dataset.seeds[index],
                            self._tag)
        suffix = ""
        if perturb:
            protocol = "+".join(perturb)
            tag += "|%s|%d" % (protocol, EVAL_SEED)
            suffix = "." + protocol
        name = hashlib.sha1(tag.encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.dir, name + suffix + ".fpf")

    def holds(self, dataset, perturb):
        """Whether every evaluation view of `dataset` under the protocol
        `perturb` has an entry on disk. An entry that fails to parse
        still counts: the pass that meets it rebuilds it."""
        return bool(self.dir) and all(
            os.path.exists(self.path(dataset, index, perturb))
            for index in range(len(dataset)))

    def field_for(self, dataset, index, perturb=()):
        """The sample's unaugmented field or, with `perturb` modes, its
        evaluation view under that protocol."""
        if perturb:
            # disk only, and outside the lock: each evaluation opens a new
            # cache, and pipeline workers build their misses side by side
            return self._load_or_build(dataset, index, perturb)
        key = dataset.paths[index], dataset.seeds[index]
        # serialized so concurrent callers never build one field twice
        with self._lock:
            field = self._memory.get(key)
            if field is None:
                field = self._load_or_build(dataset, index, ())
                self._memory[key] = field
            return field

    def _load_or_build(self, dataset, index, perturb):
        """The disk entry, or the field built and written there. A missing
        or corrupt entry is a miss: rebuilt and rewritten."""
        path = self.path(dataset, index, perturb)
        if path:
            try:
                return load_field(path)
            except (FileNotFoundError, FormatError):
                pass
        seed = dataset.seeds[index]
        perturbation, vox_seed = (eval_draw(perturb, seed) if perturb
                                  else (None, seed))
        field = _build(self, dataset.shape(index), perturbation, vox_seed)
        if path:
            try:
                save_field(field, path)
            except OSError:
                # an unwritable cache still scores evaluations, uncached
                if not perturb:
                    raise
        return field


def build_model(cfg: TrainConfig, bank=None):
    """Assemble (network, bank, probing block) for a resolved config,
    around `bank` or, by default, the bank the config's init draws."""
    if cfg.classes < 2:
        raise ValueError("classes must be >= 2 to build a model "
                         "(train once or set classes explicitly)")
    if bank is None:
        bank = init_filter_bank(cfg.init_config, cfg.resolution,
                                channel_count=cfg.channel_count,
                                dtype=np.float32)
    probing = ProbingLayer(bank, cfg.effective_sigma, frozen=cfg.freeze_probing)
    width = bank.filter_count
    rng = np.random.default_rng(cfg.init_seed + 1)
    layers = [probing, BatchNorm(width, name="bn_in"), ReLU(name="relu_in")]
    if cfg.architecture == "4-FCs":
        dim = width
        for k in (1, 2, 3):
            layers += [
                FullyConnected(dim, HIDDEN_WIDTH, rng, name="fc%d" % k),
                BatchNorm(HIDDEN_WIDTH, name="bn%d" % k),
                ReLU(name="relu%d" % k),
                Dropout(cfg.dropout, name="drop%d" % k),
            ]
            dim = HIDDEN_WIDTH
        layers.append(FullyConnected(dim, cfg.classes, rng, name="fc_out"))
    else:
        layers.append(FullyConnected(width, cfg.classes, rng, name="fc_out"))
    return Network(layers), bank, probing


@dataclasses.dataclass
class Checkpoint:
    iteration: int
    blocks: dict
    config_text: str
    rng_state: dict


def save_checkpoint(path, iteration, blocks, config_text, rng_state):
    """Serialize parameter blocks plus run metadata.

    Layout (little-endian, no padding): magic "FPCK", u32 version,
    u64 iteration, u32 block count, then per block u32 name length,
    UTF-8 name, u32 rank, u32 dims, float32 values; finally a u32-length
    JSON trailer holding the canonical config text and the master
    generator state. Blocks must already be float32 so that
    load(save(x)) is bitwise x.
    """
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<IQI", CHECKPOINT_VERSION, int(iteration),
                         len(blocks))]
    for name, arr in blocks.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ValueError("block %r must be float32, got %s" % (name, arr.dtype))
        if arr.ndim < 1 or arr.ndim > 3:
            raise ValueError("block %r has rank %d; 1..3 supported" % (name, arr.ndim))
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack("<%dI" % arr.ndim, *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    trailer = json.dumps({"config": config_text, "rng": rng_state},
                         sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts.append(struct.pack("<I", len(trailer)))
    parts.append(trailer)
    write_atomically(path, b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = 0

    def take(count, what):
        nonlocal offset
        if offset + count > len(blob):
            raise FormatError("truncated checkpoint: %s" % what)
        piece = blob[offset:offset + count]
        offset += count
        return piece

    def u32(what):
        return struct.unpack("<I", take(4, what))[0]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file (bad magic)")
    version = u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError("unsupported checkpoint version %d" % version)
    iteration = struct.unpack("<Q", take(8, "iteration"))[0]
    count = u32("block count")
    if count > 65536:
        raise FormatError("implausible block count %d" % count)
    blocks = {}
    for _ in range(count):
        name_len = u32("name length")
        if name_len == 0 or name_len > 4096:
            raise FormatError("implausible block name length %d" % name_len)
        try:
            name = take(name_len, "block name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("block name is not UTF-8") from None
        rank = u32("rank of %s" % name)
        if rank < 1 or rank > 3:
            raise FormatError("block %r has unsupported rank %d" % (name, rank))
        dims = struct.unpack("<%dI" % rank, take(4 * rank, "dims of %s" % name))
        size = int(np.prod(dims, dtype=np.int64))
        if min(dims) == 0 or size > 2 ** 31:
            raise FormatError("block %r has implausible shape %s" % (name, dims))
        data = take(4 * size, "values of %s" % name)
        if name in blocks:
            raise FormatError("duplicate block %r" % name)
        blocks[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    trailer = take(u32("trailer length"), "metadata trailer")
    if offset != len(blob):
        raise FormatError("%d trailing bytes after checkpoint payload"
                          % (len(blob) - offset))
    try:
        meta = json.loads(trailer.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise FormatError("checkpoint metadata is not valid JSON") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), str) \
            or not isinstance(meta.get("rng"), dict):
        raise FormatError("checkpoint metadata missing config or rng state")
    return Checkpoint(iteration=int(iteration), blocks=blocks,
                      config_text=meta["config"], rng_state=meta["rng"])


def _model_blocks(net, opt=None):
    """Every array a checkpoint captures: parameters, auxiliary state, and
    (when an optimizer is attached) its velocity buffers."""
    blocks = dict(net.state_blocks())
    if opt is not None:
        for p, v in zip(opt.params, opt.velocities):
            blocks["velocity." + p.name] = v
    return blocks


def load_model_state(net, checkpoint, opt=None):
    """Copy checkpoint blocks into a freshly built model (and optimizer).

    Shapes must match exactly; without an optimizer the velocity blocks
    are ignored so a checkpoint can be opened for evaluation alone.
    """
    targets = _model_blocks(net, opt)
    for name, arr in checkpoint.blocks.items():
        if opt is None and name.startswith("velocity."):
            continue
        target = targets.get(name)
        if target is None:
            raise ValueError("checkpoint block %r has no home in this model" % name)
        if target.shape != arr.shape:
            raise ValueError("checkpoint block %r has shape %s, model expects %s"
                             % (name, arr.shape, target.shape))
        target[...] = arr
    missing = set(targets) - set(checkpoint.blocks)
    if missing:
        raise ValueError("checkpoint is missing blocks: %s" % sorted(missing))


def probing_displacement(start, bank: FilterBank):
    """Mean point travel (voxels) of `bank` from the `start` locations."""
    delta = bank.locations.astype(np.float64) - start
    return float(np.linalg.norm(delta, axis=2).mean())


@dataclasses.dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (classes, classes), rows true, columns predicted


def _forward_dataset(net, dataset, cache, cfg, perturb=()):
    """Yield (indices, eval-mode output of `net`) over the dataset, one
    chunk of `CHUNK` samples at a time, one deterministic view per sample.

    With `perturb` modes each view is the cache's evaluation view of the
    sample under that protocol, so repeated passes see identical inputs no
    matter what the training loop has consumed or how many threads build
    them. The pass decides once where its views are made. A perturbed pass
    whose views are not all in the cache's directory builds and loads them
    on `cfg.pipeline_workers` threads, one chunk ahead of the forward pass.
    Any other pass reads on the calling thread, where a pool would only
    add overhead: its views are on disk, or its fields go through the
    cache's lock one at a time. An entry that fails to parse is rebuilt
    there.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    chunks = [range(start, min(start + CHUNK, len(dataset)))
              for start in range(0, len(dataset), CHUNK)]
    workers = 1
    if perturb and not cache.holds(dataset, perturb):
        workers = cfg.pipeline_workers

    def view(index):
        return cache.field_for(dataset, index, perturb)

    for indices, fields in zip(chunks, _views_ahead(view, chunks, workers)):
        outputs = net.forward(fields, train=False)
        del fields  # drop this chunk's views before awaiting the next
        yield indices, outputs


def evaluate_network(net, dataset, cache, cfg, perturb=()):
    """Eval-mode accuracy and confusion over one deterministic view per
    sample; `perturb` is as in `_forward_dataset`."""
    predictions = np.empty(len(dataset), dtype=np.int64)
    for indices, logits in _forward_dataset(net, dataset, cache, cfg,
                                            perturb):
        predictions[indices.start:indices.stop] = np.argmax(logits, axis=1)
    confusion = np.zeros((dataset.class_count, dataset.class_count),
                         dtype=np.int64)
    np.add.at(confusion, (dataset.labels, predictions), 1)
    accuracy = float((predictions == dataset.labels).mean())
    return EvalResult(accuracy=accuracy, confusion=confusion)


def _views_ahead(build, chunks, workers):
    """Yield each chunk's list of `build(index)` results, in order. With
    more than one worker the chunks are built on a thread pool, the next
    one queued before the current one is awaited, so the workers never
    idle between chunks and at most two chunks of views are alive."""
    if workers == 1:
        for indices in chunks:
            yield [build(index) for index in indices]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = [pool.submit(build, index) for index in chunks[0]]
        for following in chunks[1:] + [()]:
            current = ahead
            ahead = [pool.submit(build, index) for index in following]
            yield [future.result() for future in current]


@dataclasses.dataclass
class TrainResult:
    config: TrainConfig
    checkpoint_path: str
    metrics_path: str
    test_accuracy: float
    confusion: np.ndarray
    displacement: float
    net: Network
    bank: FilterBank


def train(cfg: TrainConfig, resume=None, donor=None) -> TrainResult:
    """Run the SGD loop and return the final state.

    The head always trains; the probing bank trains unless
    `cfg.freeze_probing` is set. `resume` continues from a checkpoint
    written by an identical config (same canonical text) and reproduces
    the uninterrupted run bitwise. `donor` seeds the probing bank from
    another run's checkpoint before training starts, and the head is
    built afresh for this run's classes; with `freeze_probing` that is a
    head-only fine-tune. Since the config records the switch, such a run
    resumes like any other.

    `TrainResult.displacement` is the bank's mean point travel from the
    bank the run started with: the donor's, or else the config's init. A
    resumed donor run measures from the config's init, since checkpoints
    do not record the donor's bank.
    """
    if resume is not None and donor is not None:
        raise ValueError("resume and donor are mutually exclusive")
    if not cfg.train_manifest:
        raise ValueError("train_manifest is required")

    train_ds = ShapeDataset(cfg.train_manifest, cfg.resolution,
                            class_count=cfg.classes)
    cfg = dataclasses.replace(cfg, classes=train_ds.class_count)
    test_ds = None
    if cfg.test_manifest:
        test_ds = ShapeDataset(cfg.test_manifest, cfg.resolution,
                               class_count=cfg.classes)
    cache = FieldCache(cfg.cache_dir or None, cfg.resolution, cfg.channels,
                       cfg.samples_per_area)

    net, bank, probing = build_model(cfg)
    opt = Sgd(net.params(), cfg.learning_rate, cfg.momentum, cfg.weight_decay)
    config_text = _drop_keys(cfg.to_text(), _PATH_KEYS)

    if donor is not None:
        donor_ck = load_checkpoint(donor)
        donor_cfg = TrainConfig.from_text(donor_ck.config_text)
        for key in ("resolution", "channels", "grid_divisions",
                    "filters_per_cell", "points_per_filter"):
            if getattr(donor_cfg, key) != getattr(cfg, key):
                raise ValueError(
                    "donor checkpoint %s=%r does not match config %r"
                    % (key, getattr(donor_cfg, key), getattr(cfg, key)))
        for tensor in (probing.locations, probing.weights):
            block = donor_ck.blocks.get(tensor.name)
            if block is None:
                raise ValueError("donor checkpoint lacks block %r" % tensor.name)
            tensor.values[...] = block
    start_locations = bank.locations.copy()

    master = np.random.default_rng(cfg.seed)
    start = 0
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    fresh_metrics = True
    if resume is not None:
        ck = load_checkpoint(resume)
        theirs = _drop_keys(ck.config_text, _PATH_KEYS + _EXECUTION_KEYS)
        ours = _drop_keys(config_text, _EXECUTION_KEYS)
        if theirs != ours:
            raise ValueError("checkpoint config does not match; first diff: %s"
                             % _first_diff(theirs, ours))
        load_model_state(net, ck, opt)
        generator = np.random.PCG64()
        generator.state = ck.rng_state
        master = np.random.Generator(generator)
        start = ck.iteration
        fresh_metrics = not (os.path.exists(metrics_path)
                             and _truncate_metrics(metrics_path, start))

    modes = parse_perturbation_modes(cfg.augmentation) if cfg.augmentation else ()
    sample_count = len(train_ds)

    def build_view(job):
        index, perturbation, vox_seed = job
        return _build(cache, train_ds.shape(index), perturbation, vox_seed)

    # All randomness is drawn on the main thread in a fixed order, so the
    # worker count changes wall time only, never batch content. Each batch
    # is built alone: queueing the next one would draw from `master` early
    # and change the generator state checkpoints save. An unaugmented
    # batch only reads the cache, whose lock would serialize a pool's
    # workers anyway, so it reads on this thread.
    with open(metrics_path, "w" if fresh_metrics else "a",
              encoding="utf-8") as metrics:

        def checkpoint(name, iteration):
            # the rows a checkpoint covers reach the file before it does
            metrics.flush()
            path = os.path.join(cfg.out_dir, name)
            save_checkpoint(path, iteration, _model_blocks(net, opt),
                            config_text, master.bit_generator.state)
            return path

        if fresh_metrics:
            metrics.write(METRICS_HEADER + "\n")
        for it in range(start + 1, cfg.max_iterations + 1):
            t0 = time.perf_counter()
            picks = master.integers(0, sample_count, size=cfg.batch_size)
            dropout_rng = np.random.default_rng(
                int(master.integers(2 ** 63)))
            labels = train_ds.labels[picks]
            if modes:
                # per pick, its perturbation and then its voxelization seed
                jobs = [(int(index), sample_perturbation(modes, master),
                         int(master.integers(2 ** 63))) for index in picks]
                fields, = _views_ahead(build_view, [jobs],
                                       cfg.pipeline_workers)
            else:
                fields = [cache.field_for(train_ds, int(index))
                          for index in picks]
            opt.zero_grads()
            logits = net.forward(fields, train=True, rng=dropout_rng)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    "loss became non-finite at iteration %d" % it,
                    checkpoint_path=checkpoint("diverged.fpck", it))
            train_acc = float(
                (np.argmax(logits, axis=1) == labels).mean())
            net.backward(dlogits)
            opt.step()
            bank.clamp_locations()
            eval_text = ""
            if test_ds is not None and cfg.eval_every \
                    and it % cfg.eval_every == 0:
                eval_text = "%.6f" % evaluate_network(
                    net, test_ds, cache, cfg).accuracy
            wall_ms = (time.perf_counter() - t0) * 1000.0
            metrics.write("%d,%.9g,%.6f,%s,%.3f\n"
                          % (it, loss, train_acc, eval_text, wall_ms))
            if cfg.checkpoint_every and it % cfg.checkpoint_every == 0:
                checkpoint("ckpt_%06d.fpck" % it, it)

        accuracy, confusion = float("nan"), None
        if test_ds is not None:
            result = evaluate_network(net, test_ds, cache, cfg)
            accuracy, confusion = result.accuracy, result.confusion
        final_path = checkpoint("final.fpck", cfg.max_iterations)
    return TrainResult(config=cfg, checkpoint_path=final_path,
                       metrics_path=metrics_path, test_accuracy=accuracy,
                       confusion=confusion,
                       displacement=probing_displacement(start_locations,
                                                          bank),
                       net=net, bank=bank)


# keys that steer execution, not the model; resume may change them freely
_EXECUTION_KEYS = ("pipeline_workers",)
# where a run reads and writes, not what it computes: checkpoints leave
# them out, so their bytes do not depend on the run's directory and a
# moved run directory can still be resumed
_PATH_KEYS = ("train_manifest", "test_manifest", "cache_dir", "out_dir")


def _drop_keys(text, keys):
    return "".join(line + "\n" for line in text.splitlines()
                   if line.split("=", 1)[0] not in keys)


def _truncate_metrics(path, iteration):
    """Cut metrics.csv back to its header and the rows up to `iteration`,
    so a resumed run appends each later iteration exactly once. A torn
    last line, from a run killed mid-write, goes too. A file without a
    whole header line, from a run killed before writing it, is left alone
    and False returned: the caller then starts it afresh."""
    with open(path, "rb+") as handle:
        header = handle.readline()
        if not header.endswith(b"\n"):
            return False
        keep = len(header)
        for line in handle:
            if not line.endswith(b"\n") or \
                    int(line.split(b",", 1)[0]) > iteration:
                break
            keep += len(line)
        handle.truncate(keep)
    return True


def _first_diff(a, b):
    left = a.splitlines()
    right = b.splitlines()
    for i in range(max(len(left), len(right))):
        la = left[i] if i < len(left) else "<missing>"
        lb = right[i] if i < len(right) else "<missing>"
        if la != lb:
            return "%r vs %r" % (la, lb)
    return "<none>"


def _open_checkpoint(checkpoint_path, manifest_path, cache_dir):
    """A saved model with its config, the manifest read at the model's
    resolution and classes, and a field cache for its channels."""
    ck = load_checkpoint(checkpoint_path)
    cfg = TrainConfig.from_text(ck.config_text)
    # a bank of the config's shape and no draw: the checkpoint's probing
    # blocks fill it, and `load_model_state` refuses ones that are missing
    # or of another shape
    count, points = cfg.init_config.filter_count, cfg.points_per_filter
    bank = FilterBank(np.zeros((count, points, 3), np.float32),
                      np.zeros((count, points, cfg.channel_count), np.float32),
                      cfg.resolution)
    net, _, _ = build_model(cfg, bank)
    load_model_state(net, ck)
    dataset = ShapeDataset(manifest_path, cfg.resolution,
                           class_count=cfg.classes)
    cache = FieldCache(cache_dir or None, cfg.resolution, cfg.channels,
                       cfg.samples_per_area)
    return cfg, net, dataset, cache


def evaluate_checkpoint(checkpoint_path, manifest_path, perturb="",
                        cache_dir=""):
    """Accuracy and confusion of a saved model over a manifest."""
    cfg, net, dataset, cache = _open_checkpoint(checkpoint_path,
                                                manifest_path, cache_dir)
    modes = parse_perturbation_modes(perturb) if perturb else ()
    return evaluate_network(net, dataset, cache, cfg, perturb=modes)


def extract_features(checkpoint_path, manifest_path, out_path, cache_dir=""):
    """Dump per-sample activations entering the final FC layer as CSV."""
    cfg, net, dataset, cache = _open_checkpoint(checkpoint_path,
                                                manifest_path, cache_dir)
    body = Network(net.layers[:-1])
    features = np.concatenate(
        [x for _, x in _forward_dataset(body, dataset, cache, cfg)])
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write("id,label," +
                     ",".join("f%d" % i for i in range(features.shape[1]))
                     + "\n")
        for name, label, feats in zip(dataset.ids, dataset.labels, features):
            handle.write("%s,%d,%s\n" % (name, label,
                                         ",".join("%.9g" % v for v in feats)))
    return out_path


def fc_error(seed):
    """Max relative error of an FC layer's weight, bias and input gradients."""
    rng = np.random.default_rng(seed)
    fc = FullyConnected(6, 4, rng, dtype=np.float64)
    return max(grad_check(fc, rng.standard_normal((5, 6)), seed=seed).values())


def bn_error(seed):
    """Max relative error of a BatchNorm's gamma, beta and input gradients."""
    x = np.random.default_rng(seed).standard_normal((8, 5))
    bn = BatchNorm(5, dtype=np.float64)
    return max(grad_check(bn, x, step=1e-5, seed=seed).values())


def dropout_error(seed):
    """Max relative error of a train-mode dropout's input gradient."""
    x = np.random.default_rng(seed).standard_normal((6, 5))
    return grad_check(Dropout(0.4), x, step=1e-5, seed=seed)["input"]


def composed_error(seed):
    """Max relative error of the stack training runs, probing -> batch
    norm -> ReLU -> FC with cross-entropy, over every parameter block."""
    rng = np.random.default_rng(seed)
    res = 6
    for _ in range(64):
        fields = [multilinear_field(rng, res, [ROLE_DISTANCE, ROLE_GENERIC])[0]
                  for _ in range(3)]
        bank = FilterBank(rng.uniform(0.5, res - 1.5, size=(4, 3, 3)),
                          rng.standard_normal((4, 3, 2)), res)
        layer = ProbingLayer(bank, sigma=1.2)
        net = Network([layer, BatchNorm(4, name="bn", dtype=np.float64),
                       ReLU(name="relu"),
                       FullyConnected(4, 3, rng, name="fc", dtype=np.float64)])
        labels = rng.integers(0, 3, size=3)
        acts = layer.forward(fields, train=True)
        pre = net.layers[1].forward(acts, train=True)
        # redraw until every pre-activation clears the ReLU kink by far
        # more than the probe step and no channel is batch-degenerate
        if np.abs(pre).min() >= 3e-2 and acts.std(axis=0).min() >= 0.05:
            break
    return max(grad_check(net, fields, labels=labels, step=1e-5).values())


def probing_error(seed):
    """Max relative error of a probing layer's locations and weights.
    Multilinear fields make finite differences through the sampler exact;
    the first channel is a distance, so the Gaussian is audited."""
    rng = np.random.default_rng(seed)
    res = 8
    fields = [multilinear_field(rng, res, [ROLE_DISTANCE, ROLE_GENERIC])[0]]
    bank = FilterBank(rng.uniform(0.5, res - 1.5, size=(3, 4, 3)),
                      rng.standard_normal((3, 4, 2)), res)
    return max(grad_check(ProbingLayer(bank, sigma=1.5), fields).values())


def gradient_check_report(layer=None):
    """Finite-difference audit of each layer kind, {name: max rel error}.

    `layer` restricts the audit to one entry: fc, bn, dropout, composed,
    or probing. Each entry is a recipe above run at seed 0, in double
    precision on tiny shapes. Four of them, all but `probing_error`, are
    the acceptance suite's own gradient checks (A1), run there at 100 seeds.
    """
    recipes = {"fc": fc_error, "bn": bn_error, "dropout": dropout_error,
               "composed": composed_error, "probing": probing_error}
    if layer is not None:
        if layer not in recipes:
            raise ValueError("unknown layer %r (choose from %s)"
                             % (layer, ", ".join(sorted(recipes))))
        recipes = {layer: recipes[layer]}
    return {name: run(0) for name, run in recipes.items()}

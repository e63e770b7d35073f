"""The benchmark's workloads: what each one generates and trains.

A workload turns a seed into the only inputs the program sees, a
synthetic dataset (`SyntheticSpec`) and a `TrainConfig`. The seed picks
the dataset and the master training stream; the filter-bank layout stays
at its stock `init_seed`. README.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses

# Below this many iterations a training is mostly first-touch cache
# loads, and the tail percentile (10 iterations beyond it) too coarse.
MIN_ITERATIONS = 30


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # SyntheticSpec keyword arguments, without the seed
    spec: dict
    # TrainConfig keyword arguments, without data paths, seed or budget
    config: dict
    # iterations per second of training, fixed so that the iteration
    # count, and with it the trained model, depends on the arguments alone
    iterations_per_second: float
    # perturbation protocol the trained model is evaluated under
    eval_perturb: str = ""
    # blocks per run; each is one set-up, one training and a block of
    # evaluations, so that every metric is sampled across the whole run
    blocks: int = 3
    # share of the requested seconds spent evaluating
    eval_share: float = 0.5

    def iterations(self, seconds):
        """Iterations of each training, so that the trainings of all
        blocks together take about their share of `seconds`."""
        per_training = (seconds * (1.0 - self.eval_share)
                        * self.iterations_per_second / self.blocks)
        return max(MIN_ITERATIONS, round(per_training))

    def eval_seconds(self, seconds):
        """Seconds of evaluation in each block."""
        return seconds * self.eval_share / self.blocks

    def train_config(self, fieldprobe, seed, iterations, data_dir, cache_dir,
                     out_dir):
        kwargs = dict(self.config,
                      train_manifest=data_dir + "/train.tsv",
                      test_manifest=data_dir + "/test.tsv",
                      cache_dir=cache_dir, out_dir=out_dir, seed=seed,
                      max_iterations=iterations, eval_every=0,
                      # a few checkpoints inside the timed train(); they
                      # are written between two wall_ms rows
                      checkpoint_every=max(1, iterations // 4))
        return fieldprobe.trainer.TrainConfig(**kwargs)


def _workloads(nproc):
    # stock acceptance dataset: 100 train and 20 test shapes per class
    stock_spec = {"jitter": 0.4}
    return {
        "desk": Workload(
            name="desk", spec=stock_spec, config={},
            iterations_per_second=40.0),
        "augment": Workload(
            name="augment", spec=stock_spec,
            config={"augmentation": "R15+T01+S",
                    "pipeline_workers": min(2, nproc)},
            iterations_per_second=5.5, eval_perturb="R15+T01+S"),
    }


def workload(name, nproc, tiny=False):
    """The named workload; `tiny` shrinks every size for the self-test."""
    wl = _workloads(nproc)[name]
    if not tiny:
        return wl
    small = {"resolution": 16, "batch_size": 4}
    return dataclasses.replace(
        wl, spec=dict(wl.spec, train_per_class=2, test_per_class=2),
        config=dict(wl.config, **small), iterations_per_second=0.0,
        blocks=2, eval_share=0.0)


NAMES = tuple(_workloads(1))

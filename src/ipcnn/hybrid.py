"""Hybrid inference: conv layers on the analog simulator, the rest digital.

Each convolutional layer of the trained network is mapped to its own
analog hardware instance (own path gains, own probes); the zero padding
the digital layer uses is applied to the input image before intensity
encoding, so the optical layer itself stays stride-1/pad-free.  Noise and
per-trial imbalance draws are derived from a single base seed, making any
report exactly reproducible.

``hybrid_forward`` walks each batch in blocks of ``INFER_BLOCK`` images,
conv stage by conv stage, so that no block's arrays outgrow the
allocator's reusable heap.  A noisy call draws its detection noise one
batch ahead on one helper thread, while the calling thread runs the GEMMs
and the digital layers.  The draws come from the same generator in the
serial order, so the logits and the generator's final state are those of
drawing each conv's whole-batch array inside ``forward_batch``; nothing
else may draw from that generator during the call, and after an exception
it may be up to one batch further on.
A noiseless call starts no thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .analog import (
    AnalogFaultModel,
    WeightProgramming,
    apply_calibration,
    calibrate,
    forward_batch,
    output_noise_std,
    program_weights,
    sample_imbalance,
)
from .conv_math import ConvLayerSpec
from .errors import DimensionError, InvalidSpecError
from .layers import Conv2D, Flatten, MaxPool2, pad_hw
from .network import INFER_BLOCK, NetworkModel, check_batch_size


@dataclass(frozen=True)
class InferenceReport:
    accuracy: float
    confusion: np.ndarray          # (10, 10): rows true class, cols predicted
    n_samples: int
    seed: int
    fault_config: dict


@dataclass(frozen=True)
class PhotonicLayerSetup:
    spec: ConvLayerSpec
    programming: WeightProgramming
    faults: AnalogFaultModel
    bias: np.ndarray
    pad: int


def build_photonic_setups(
    model: NetworkModel,
    neop_dbc: float = -np.inf,
    imbalance_db: float = 0.0,
    calibration: bool = False,
    seed: int = 0,
    probe_repeats: int = 1,
    image_width: int = 28,
) -> list[PhotonicLayerSetup]:
    """Program each conv layer onto faulted analog hardware.

    One walk over the layers: each pooling halves the image width, and each
    conv layer takes the next two children of ``seed`` (imbalance, probes).
    """
    ss = np.random.SeedSequence(seed)
    setups, width = [], image_width
    for layer in model.layers:
        if isinstance(layer, MaxPool2):
            width //= 2
        if not isinstance(layer, Conv2D):
            continue
        spec = ConvLayerSpec(c_in=layer.c_in, c_out=layer.c_out,
                             sigma=layer.kernel,
                             image_width=width + 2 * layer.pad)
        imbalance_seed, probe_seed = ss.spawn(2)
        gains = (
            sample_imbalance(spec, imbalance_db, imbalance_seed)
            if imbalance_db > 0 else None
        )
        faults = AnalogFaultModel(
            neop_dbc=neop_dbc, path_gains=gains, seed=seed
        )
        # kernel tensor wants [u][v][i][j]; digital conv stores [v][u][i][j]
        programming = program_weights(layer.w.transpose(1, 0, 2, 3), spec)
        if calibration:
            table = calibrate(spec, faults, repeats=probe_repeats,
                              rng=np.random.default_rng(probe_seed))
            programming = apply_calibration(programming, table)
        setups.append(PhotonicLayerSetup(
            spec=spec, programming=programming, faults=faults,
            bias=layer.b, pad=layer.pad,
        ))
    return setups


class _NoiseAhead:
    """Stands in for the noise generator of one ``hybrid_forward`` call.

    ``plan`` lists the call's batches in order, each as the list of the
    ``normal`` requests the serial route would make for it, one per noisy
    conv, as ``(loc, scale, (rows, cols))``.  A one-worker pool fills a
    whole batch's arrays while the caller works on the batch before it,
    drawing from ``rng`` in the order ``rng.normal`` would, so values and
    final generator state are the serial route's.  ``take`` hands one
    batch's arrays to the caller and submits the next batch, so exactly one
    batch is held ahead; ``normal`` serves consecutive row slices of them.
    The calling thread allocates each array; the worker only reuses one
    scratch chunk.
    """

    _CHUNK = 1 << 16  # draws per scratch fill

    def __init__(self, rng: np.random.Generator, plan: list[list[tuple]]):
        self._rng = rng
        self._plan = iter(plan)
        self._scratch = np.empty(max([self._CHUNK] + [
            cols for batch in plan for _, _, (_, cols) in batch]))
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="ipcnn-noise")
        self._taken = deque()
        self._ahead = self._submit()

    def _submit(self):
        batch = next(self._plan, None)
        if batch is None:
            return None
        bufs = [np.empty((cols, rows)) for _, _, (rows, cols) in batch]
        return batch, bufs, self._pool.submit(self._fill_batch, batch, bufs)

    def _fill_batch(self, batch: list[tuple], bufs: list[np.ndarray]) -> None:
        # rows of draws land as columns of each buf, so the caller's
        # transposed add reads it contiguously; loc + scale * z as
        # Generator.normal
        for (loc, scale, _), buf in zip(batch, bufs):
            cols, rows = buf.shape
            step = max(1, self._CHUNK // cols)
            for r0 in range(0, rows, step):
                m = min(step, rows - r0)
                z = self._scratch[:m * cols].reshape(m, cols)
                self._rng.standard_normal(out=z)
                dst = buf[:, r0:r0 + m]
                np.multiply(z.T, scale, out=dst)
                dst += loc

    def take(self) -> None:
        """Hand over the next batch's filled arrays; start the one after.

        Called as a batch starts, so the next batch's draws overlap all of
        this batch's work.  Raises if rows of the batch before are unused.
        """
        if self._taken:
            raise RuntimeError(
                f"noise request {self._taken[0][0]} is not fully used")
        batch, bufs, future = self._ahead
        future.result()
        self._taken.extend([request, buf.T, 0]
                           for request, buf in zip(batch, bufs))
        self._ahead = self._submit()

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        """The next ``size[0]`` rows of the taken batch's current array,
        which ``Generator.normal(loc, scale, size)`` would have drawn in
        the serial route; raises unless they continue the planned request.
        """
        if not self._taken:
            raise RuntimeError(
                f"noise request {(loc, scale, size)} is not the planned "
                "next one: no batch is taken")
        entry = self._taken[0]
        request, noise, used = entry
        planned_loc, planned_scale, (planned_rows, cols) = request
        rows = size[0]
        if ((loc, scale, size[1:]) != (planned_loc, planned_scale, (cols,))
                or used + rows > planned_rows):
            raise RuntimeError(
                f"noise request {(loc, scale, size)} is not the planned "
                f"next one: {used} rows used of {request}")
        entry[2] = used + rows
        if entry[2] == planned_rows:
            self._taken.popleft()
        return noise[used:used + rows]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Cancel the batch held ahead if it has not started; join."""
        self._pool.shutdown(wait=True, cancel_futures=True)


def hybrid_forward(
    model: NetworkModel,
    images: np.ndarray,
    setups: list[PhotonicLayerSetup],
    noise_rng: np.random.Generator,
    batch_size: int = 128,
) -> np.ndarray:
    """Logits of the hybrid network over a batch of (N, 28, 28) images.

    An empty batch gives an empty (0, n_classes) array.

    Each batch of ``batch_size`` images is walked stage by stage: a conv
    with its bias, ReLU and pooling runs over blocks of ``INFER_BLOCK``
    images, in order, before the next conv starts.  ``Flatten`` and the
    dense layers then run over the whole batch, so the logits keep the
    bits of a whole-batch pass.

    With noisy setups, the noise is drawn one batch ahead on one helper
    thread: as a batch starts, it takes every noisy conv's filled array for
    that batch, and the helper starts drawing the next batch's.  Each block
    uses the next rows of its conv's array.  The draws come from
    ``noise_rng`` in the serial order, so the logits and ``noise_rng``'s
    final state are those of a whole-batch walk that passes ``noise_rng``
    to every ``forward_batch``.  Nothing else may draw from ``noise_rng``
    during the call.  When the call raises, the helper has been joined, but
    ``noise_rng`` may be up to one batch further on than the serial route
    would have left it.
    """
    check_batch_size(batch_size)
    stds = [output_noise_std(setup.programming, setup.spec, setup.faults)
            for _, setup in zip(model.conv_layers, setups)]
    starts = range(0, len(images), batch_size)
    plan = [
        [(0.0, std, (min(batch_size, len(images) - start)
                     * setup.spec.valid_width ** 2, setup.spec.c_out))
         for setup, std in zip(setups, stds) if std > 0]
        for start in starts
    ] if any(std > 0 for std in stds) else []
    stages, head = _conv_stages(model)
    logits = []
    ahead = _NoiseAhead(noise_rng, plan) if plan else nullcontext(noise_rng)
    with ahead as rng:
        for start in starts:
            if plan:
                rng.take()
            x = images[start:start + batch_size][:, None, :, :]
            for setup, layers in zip(setups, stages):
                x = _blocked_stage(x, setup, layers, rng)
            for layer in head:
                x = layer.forward(x)
            logits.append(x)
    if not logits:
        return np.zeros((0, model.layers[-1].w.shape[1]))
    return np.concatenate(logits)


def _conv_stages(model: NetworkModel):
    """Per conv, the digital layers after it up to the next conv or
    ``Flatten``; and the layers from ``Flatten`` on."""
    stages, head = [], list(model.layers)
    while not isinstance(head[0], Flatten):
        layer = head.pop(0)
        if isinstance(layer, Conv2D):
            stages.append([])
        else:
            stages[-1].append(layer)
    return stages, head


def _blocked_stage(x, setup: PhotonicLayerSetup, layers, rng) -> np.ndarray:
    """One analog conv, its bias and ``layers`` over ``x`` in blocks of
    ``INFER_BLOCK`` images, gathered into one channel-major batch."""
    out = None
    for start in range(0, len(x), INFER_BLOCK):
        y = forward_batch(
            pad_hw(x[start:start + INFER_BLOCK], setup.pad),
            setup.programming, setup.spec, setup.faults, rng=rng,
        )
        y += setup.bias[None, :, None, None]
        for layer in layers:
            y = layer.forward(y)
        if out is None:
            _, c, h, w = y.shape
            out = np.empty((c, len(x), h, w)).transpose(1, 0, 2, 3)
        out[start:start + len(y)] = y
    return out


def _confusion(labels: np.ndarray, preds: np.ndarray) -> np.ndarray:
    conf = np.zeros((10, 10), dtype=np.int64)
    np.add.at(conf, (labels, preds), 1)
    return conf


def infer_hybrid(
    model: NetworkModel,
    images: np.ndarray,
    labels: np.ndarray,
    neop_dbc: float = -np.inf,
    imbalance_db: float = 0.0,
    calibration: bool = False,
    seed: int = 0,
    probe_repeats: int = 1,
    batch_size: int = 128,
) -> InferenceReport:
    """Run the hybrid network over a sample set and report accuracy."""
    if len(labels) != len(images):
        raise DimensionError(
            f"{len(labels)} labels for {len(images)} images")
    setups = build_photonic_setups(
        model, neop_dbc=neop_dbc, imbalance_db=imbalance_db,
        calibration=calibration, seed=seed, probe_repeats=probe_repeats,
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA0]))
    logits = hybrid_forward(model, images, setups, noise_rng,
                            batch_size=batch_size)
    preds = logits.argmax(axis=1)
    return InferenceReport(
        accuracy=float(np.mean(preds == labels)),
        confusion=_confusion(labels, preds),
        n_samples=len(labels),
        seed=seed,
        fault_config={
            "neop_dbc": neop_dbc,
            "imbalance_db": imbalance_db,
            "calibration": calibration,
            "probe_repeats": probe_repeats,
        },
    )


def sweep_noise(
    model: NetworkModel,
    images: np.ndarray,
    labels: np.ndarray,
    levels_dbc: list[float],
    seeds: list[int],
    batch_size: int = 128,
    threads: int = 1,
) -> list[dict]:
    """Accuracy per (noise level, seed); one InferenceReport each."""
    jobs = [(level, seed) for level in levels_dbc for seed in seeds]

    def run(job):
        level, seed = job
        report = infer_hybrid(model, images, labels, neop_dbc=level,
                              seed=seed, batch_size=batch_size)
        return {"neop_dbc": level, "seed": seed, "accuracy": report.accuracy}

    return _run_jobs(jobs, run, threads)


def sweep_imbalance(
    model: NetworkModel,
    images: np.ndarray,
    labels: np.ndarray,
    levels_db: list[float],
    trials: int = 100,
    calibration: bool = False,
    neop_dbc: float = -np.inf,
    base_seed: int = 0,
    probe_repeats: int = 1,
    batch_size: int = 128,
    threads: int = 1,
) -> list[dict]:
    """Box-plot statistics of accuracy over fresh imbalance draws per level."""
    if trials < 1:
        raise InvalidSpecError(f"trials must be >= 1, got {trials}")
    jobs = [(li, t) for li in range(len(levels_db)) for t in range(trials)]

    def run(job):
        li, trial = job
        trial_seed = int(np.random.SeedSequence(
            [base_seed, li, trial]).generate_state(1)[0])
        report = infer_hybrid(
            model, images, labels, neop_dbc=neop_dbc,
            imbalance_db=levels_db[li], calibration=calibration,
            seed=trial_seed, probe_repeats=probe_repeats,
            batch_size=batch_size,
        )
        return li, report.accuracy

    results = _run_jobs(jobs, run, threads)
    out = []
    for li, level in enumerate(levels_db):
        acc = np.array(sorted(a for i, a in results if i == li))
        q1, med, q3 = np.percentile(acc, [25, 50, 75])
        out.append({
            "imbalance_db": level,
            "trials": trials,
            "min": float(acc.min()),
            "q1": float(q1),
            "median": float(med),
            "q3": float(q3),
            "max": float(acc.max()),
            "accuracies": acc.tolist(),
        })
    return out


def _run_jobs(jobs, fn, threads: int):
    if threads <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))

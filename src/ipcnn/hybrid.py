"""Hybrid inference: conv layers on the analog simulator, the rest digital.

Each convolutional layer of the trained network is mapped to its own
analog hardware instance (own path gains, own probes); the zero padding
the digital layer uses is applied to the input image before intensity
encoding, so the optical layer itself stays stride-1/pad-free.  Noise and
per-trial imbalance draws are derived from a single base seed, making any
report exactly reproducible.

A noisy ``hybrid_forward`` draws its detection noise one request ahead on
one helper thread, while the calling thread runs the GEMMs and the digital
layers.  The draws come from the same generator in the serial order, so
the logits and the generator's final state are those of drawing each array
inside ``forward_batch``; nothing else may draw from that generator during
the call, and after an exception it may be up to two requests further on.
A noiseless call starts no thread.
"""

from __future__ import annotations

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
from .layers import Conv2D, MaxPool2, pad_hw
from .network import NetworkModel, check_batch_size


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

    ``plan`` lists the call's ``normal`` requests in order, each as
    ``(loc, scale, (rows, cols))``.  A one-worker pool fills the next
    request's array while the caller works, drawing from ``rng`` in the
    order ``rng.normal`` would, so values and final generator state are the
    serial route's.  ``take`` hands one filled array to the caller and
    submits the next request, so exactly one request is held ahead.  The
    calling thread allocates each array; the worker only reuses one scratch
    chunk.
    """

    _CHUNK = 1 << 16  # draws per scratch fill

    def __init__(self, rng: np.random.Generator, plan: list[tuple]):
        self._rng = rng
        self._plan = iter(plan)
        self._scratch = np.empty(max([self._CHUNK] + [
            cols for _, _, (_, cols) in plan]))
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="ipcnn-noise")
        self._taken = None
        self._ahead = self._submit()

    def _submit(self):
        request = next(self._plan, None)
        if request is None:
            return None
        loc, scale, (rows, cols) = request
        buf = np.empty((cols, rows))
        return request, self._pool.submit(self._fill, buf, loc, scale)

    def _fill(self, buf: np.ndarray, loc: float, scale: float) -> np.ndarray:
        # rows of draws land as columns of buf, so the caller's transposed
        # add reads buf contiguously; loc + scale * z as Generator.normal
        cols, rows = buf.shape
        step = max(1, self._CHUNK // cols)
        for r0 in range(0, rows, step):
            m = min(step, rows - r0)
            z = self._scratch[:m * cols].reshape(m, cols)
            self._rng.standard_normal(out=z)
            dst = buf[:, r0:r0 + m]
            np.multiply(z.T, scale, out=dst)
            dst += loc
        return buf.T

    def take(self) -> None:
        """Hand over the next filled array and start drawing the one after.

        Called as a noisy conv starts, so the next draw overlaps this
        conv's lowering and GEMM as well as what follows it.
        """
        request, future = self._ahead
        self._taken = request, future.result()
        self._ahead = self._submit()

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        """The taken array, which ``Generator.normal(loc, scale, size)``
        would have drawn; raises unless it is the planned request."""
        expected = self._taken[0] if self._taken else None
        if expected is None or (loc, scale, size) != expected:
            raise RuntimeError(
                f"noise request {(loc, scale, size)} is not the planned "
                f"next one, {expected}")
        noise = self._taken[1]
        self._taken = None
        return noise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Cancel the request held ahead if it has not started; join."""
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

    With noisy setups, the noise is drawn one request ahead on one helper
    thread: as a noisy conv starts, it takes its filled noise array and the
    helper starts drawing the next conv's.  The draws come from
    ``noise_rng`` in the serial order, so the logits and ``noise_rng``'s
    final state are those of passing ``noise_rng`` to every
    ``forward_batch``.  Nothing else may draw from ``noise_rng`` during the
    call.  When the call raises, the helper has been joined, but
    ``noise_rng`` may be up to two requests further on than the serial
    route would have left it: the failing conv's and the one drawn ahead.
    """
    check_batch_size(batch_size)
    stds = [output_noise_std(setup.programming, setup.spec, setup.faults)
            for _, setup in zip(model.conv_layers, setups)]
    plan = [
        (0.0, std, (min(batch_size, len(images) - start)
                    * setup.spec.valid_width ** 2, setup.spec.c_out))
        for start in range(0, len(images), batch_size)
        for setup, std in zip(setups, stds) if std > 0
    ]
    logits = []
    ahead = _NoiseAhead(noise_rng, plan) if plan else nullcontext(noise_rng)
    with ahead as rng:
        for start in range(0, len(images), batch_size):
            x = images[start:start + batch_size][:, None, :, :]
            conv_idx = 0
            for layer in model.layers:
                if isinstance(layer, Conv2D):
                    setup = setups[conv_idx]
                    if stds[conv_idx] > 0:
                        rng.take()
                    x = forward_batch(
                        pad_hw(x, setup.pad), setup.programming, setup.spec,
                        setup.faults, rng=rng,
                    )
                    x += setup.bias[None, :, None, None]
                    conv_idx += 1
                else:
                    x = layer.forward(x)
            logits.append(x)
    if not logits:
        return np.zeros((0, model.layers[-1].w.shape[1]))
    return np.concatenate(logits)


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

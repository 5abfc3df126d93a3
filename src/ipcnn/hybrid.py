"""Hybrid inference: conv layers on the analog simulator, the rest digital.

Each convolutional layer of the trained network is mapped to its own
analog hardware instance (own path gains, own probes); the zero padding
the digital layer uses is applied to the input image before intensity
encoding, so the optical layer itself stays stride-1/pad-free.  Every
noise, imbalance and probe draw comes from one seed tree, rooted at the
inference seed (see ``build_photonic_setups`` and ``infer_hybrid``), making
any report exactly reproducible.

``hybrid_forward`` is the model's own inference walk with the analog
convs standing in for its conv layers; its detection noise is a function
of (seed, conv, image), keyed by stream position (``analog.noise_stream``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analog import (
    AnalogFaultModel,
    WeightProgramming,
    apply_calibration,
    calibrate,
    forward_batch,
    noise_stream,
    output_noise_std,
    program_weights,
    sample_imbalance,
)
from .conv_math import ConvLayerSpec
from .errors import DimensionError, InvalidSpecError, check_count, check_seed
from .layers import Conv2D, MaxPool2, pad_hw
from .network import IMAGE_WIDTH, NetworkModel, check_labels, map_on_threads


@dataclass(frozen=True)
class InferenceReport:
    accuracy: float
    confusion: np.ndarray  # rows true class, cols predicted
    n_samples: int
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
) -> list[PhotonicLayerSetup]:
    """Program each conv layer onto faulted analog hardware.

    One walk over the layers: each pooling halves the image width, and each
    conv layer takes the next two children of ``seed`` (imbalance, probes).
    ``probe_repeats`` must be an integer >= 1, calibrated or not.
    """
    check_seed("seed", seed)
    check_count("probe_repeats", probe_repeats)
    ss = np.random.SeedSequence(seed)
    setups, width = [], IMAGE_WIDTH
    for layer in model.layers:
        if isinstance(layer, MaxPool2):
            width //= 2
        if not isinstance(layer, Conv2D):
            continue
        spec = ConvLayerSpec(c_in=layer.c_in, c_out=layer.c_out,
                             sigma=layer.kernel,
                             image_width=width + 2 * layer.pad)
        imbalance_seed, probe_seed = ss.spawn(2)
        # a level outside [0, MAX_IMBALANCE_DB] reaches sample_imbalance and
        # raises
        gains = (sample_imbalance(spec, imbalance_db, imbalance_seed)
                 if imbalance_db != 0 else None)
        faults = AnalogFaultModel(neop_dbc=neop_dbc, path_gains=gains)
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


def hybrid_forward(
    model: NetworkModel,
    images: np.ndarray,
    setups: list[PhotonicLayerSetup],
    noise_rng: np.random.Generator,
    batch_size: int = 128,
) -> np.ndarray:
    """Logits of the hybrid network over a batch of (N, 28, 28) images;
    raises DimensionError for any other shape.

    ``setups`` holds one setup per conv layer of ``model``.  An empty batch
    gives an empty (0, n_classes) array.  The images take the model's own
    walk (``NetworkModel.logits``) in batches of ``batch_size``, with each
    conv layer run as its setup's analog conv plus the layer's bias.

    Noise is a function of (seed, conv, image): one root integer is drawn
    from ``noise_rng``, and a block whose first image is image ``n`` of
    ``images`` passes its k-th conv ``noise_stream(root, k, spec, n)``;
    a noiseless conv gets no generator.  So an image's logits do not
    depend on ``batch_size`` (beyond the rounding of GEMMs of another
    size), on the images after it, or on the thread that ran its batch.
    Noisy or not, its threads are those of ``NetworkModel.logits``: one
    helper runs every other batch of a call of two or more batches, unless
    the call is a job of a sweep on two or more threads.
    """
    if images.shape[1:] != (IMAGE_WIDTH, IMAGE_WIDTH):
        raise DimensionError(f"images of shape {images.shape} != "
                             f"(N, {IMAGE_WIDTH}, {IMAGE_WIDTH})")
    if len(setups) != len(model.conv_layers):
        raise DimensionError(f"{len(setups)} setups for "
                             f"{len(model.conv_layers)} conv layers")
    root = int(noise_rng.integers(2 ** 63))
    noisy = [output_noise_std(s.programming, s.spec, s.faults) > 0
             for s in setups]

    def conv(k, x, first):
        s = setups[k]
        rng = noise_stream(root, k, s.spec, first) if noisy[k] else None
        # looked up at call time, so a patched ``hybrid.forward_batch`` runs
        y = forward_batch(pad_hw(x, s.pad), s.programming, s.spec, s.faults,
                          rng=rng)
        y += s.bias[None, :, None, None]
        return y

    return model.logits(images[:, None, :, :], batch_size, conv)


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
    """Run the hybrid network over a sample set and report accuracy, NaN
    for an empty set.

    Bad labels raise as in ``network.check_labels``.
    """
    labels = check_labels(labels, len(images), model.n_classes)
    setups = build_photonic_setups(
        model, neop_dbc=neop_dbc, imbalance_db=imbalance_db,
        calibration=calibration, seed=seed, probe_repeats=probe_repeats,
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA0]))
    logits = hybrid_forward(model, images, setups, noise_rng,
                            batch_size=batch_size)
    preds = logits.argmax(axis=1)
    accuracy = float(np.mean(preds == labels)) if len(preds) else float("nan")
    confusion = np.zeros((model.n_classes,) * 2, dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return InferenceReport(
        accuracy=accuracy,
        confusion=confusion,
        n_samples=len(labels),
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
    """Accuracy per (noise level, seed); one InferenceReport each.  Both
    lists must be non-empty, every seed an integer >= 0, and ``threads``,
    the threads the jobs run on, an integer >= 1."""
    _check_sweep(threads, levels_dbc=levels_dbc, seeds=seeds)
    for seed in seeds:
        check_seed("seed", seed)
    jobs = [(level, seed) for level in levels_dbc for seed in seeds]

    def run(job):
        level, seed = job
        report = infer_hybrid(model, images, labels, neop_dbc=level,
                              seed=seed, batch_size=batch_size)
        return {"neop_dbc": level, "seed": seed, "accuracy": report.accuracy}

    return map_on_threads(run, jobs, threads, "ipcnn-sweep")


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
    """Box-plot statistics of accuracy over fresh imbalance draws per level;
    ``levels_db`` must be non-empty, ``trials`` and ``threads`` integers
    >= 1 and ``base_seed`` one >= 0."""
    _check_sweep(threads, levels_db=levels_db)
    check_count("trials", trials)
    check_seed("base_seed", base_seed)
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

    results = map_on_threads(run, jobs, threads, "ipcnn-sweep")
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


def _check_sweep(threads: int, **lists) -> None:
    """Raise InvalidSpecError for a bad thread count or an empty list."""
    check_count("threads", threads)
    for name, values in lists.items():
        if len(values) == 0:
            raise InvalidSpecError(f"{name} must not be empty")

"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (scalar loops, direct formulas) and
never calls into the package's own computation paths, so agreement is
evidence and not tautology.
"""

import math

import numpy as np


def fd_grad(f, x, step=1e-5):
    """Central finite differences of scalar f over every entry of x."""
    g = np.zeros_like(np.asarray(x, dtype=np.float64))
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def max_rel_err(a, b):
    """Max per-entry error relative to max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def naive_softmax_rows(m):
    """Unshifted exp / sum(exp), scalar loops. Valid for moderate inputs."""
    m = np.asarray(m, dtype=np.float64)
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        exps = [math.exp(v) for v in m[i]]
        total = sum(exps)
        for j in range(m.shape[1]):
            out[i, j] = exps[j] / total
    return out


def naive_log_sum_exp(values, shift=0.0):
    """Direct log(sum(exp(v - shift))) + shift with Python floats."""
    return shift + math.log(sum(math.exp(v - shift) for v in values))


def naive_cross_entropy(logits, target_rows):
    """Mean soft-label CE via per-row direct normalization."""
    logits = np.asarray(logits, dtype=np.float64)
    target_rows = np.asarray(target_rows, dtype=np.float64)
    total = 0.0
    for i in range(logits.shape[0]):
        z = naive_log_sum_exp(logits[i], shift=float(np.max(logits[i])))
        for c in range(logits.shape[1]):
            total -= target_rows[i, c] * (logits[i, c] - z)
    return total / logits.shape[0]


def naive_hard_cross_entropy(logits, labels):
    """Mean hard-label CE, scalar loop."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for i, y in enumerate(labels):
        z = naive_log_sum_exp(logits[i], shift=float(np.max(logits[i])))
        total -= logits[i, int(y)] - z
    return total / logits.shape[0]


def naive_mixed_scores(r, w, y_tilde):
    """Per-pair r_i . (W y_j) with scalar loops over every index."""
    r = np.asarray(r, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    y_tilde = np.asarray(y_tilde, dtype=np.float64)
    b = r.shape[0]
    out = np.zeros((b, b))
    for i in range(b):
        for j in range(b):
            classifier = np.zeros(w.shape[0])
            for c in range(w.shape[1]):
                classifier += y_tilde[j, c] * w[:, c]
            out[i, j] = sum(r[i, k] * classifier[k] for k in range(w.shape[0]))
    return out


def naive_contrastive_loss(s_tilde, axis):
    """Mean diagonal-target CE along rows (cc) or columns (ci), direct sums."""
    s_tilde = np.asarray(s_tilde, dtype=np.float64)
    b = s_tilde.shape[0]
    total = 0.0
    for i in range(b):
        vec = s_tilde[i, :] if axis == "cc" else s_tilde[:, i]
        z = naive_log_sum_exp(vec, shift=float(np.max(vec)))
        total -= s_tilde[i, i] - z
    return total / b


def dense_contrastive_grad_s(s_tilde, mix_weights, axis):
    """Logit gradient of the cc or ci loss by the textbook dense formula.

    ((softmax - I) / B) @ M, with the max-shifted softmax taken along rows
    (cc) or, through a transposed view, down columns (ci), and an explicit
    identity matrix. Same numpy operations as a plain row softmax, so the
    result pins the package's arithmetic bit for bit.
    """
    m = s_tilde if axis == "cc" else s_tilde.T
    z = np.exp(m - np.max(m, axis=1, keepdims=True))
    p = z / np.sum(z, axis=1, keepdims=True)
    if axis == "ci":
        p = p.T
    b = s_tilde.shape[0]
    return ((p - np.eye(b)) / b) @ mix_weights


def two_pass_mixup_ce(s, y_tilde):
    """Soft-label mixup CE by separate log-sum-exp and softmax passes.

    The formula the one-exponential loss replaced: two max-shifted
    exponentials of the logits, one for the log normalizer and one for the
    softmax. Returns (value, grad_s, log_z) from plain numpy operations, so
    the result pins the package's arithmetic bit for bit.
    """
    b = s.shape[0]
    mx = np.max(s, axis=1, keepdims=True)
    log_z = mx[:, 0] + np.log(np.sum(np.exp(s - mx), axis=1))
    value = float(-np.sum(y_tilde * (s - log_z[:, None])) / b)
    z = np.exp(s - np.max(s, axis=1, keepdims=True))
    grad_s = (z / np.sum(z, axis=1, keepdims=True) - y_tilde) / b
    return value, grad_s, log_z


def naive_forward_logits(params, x):
    """Per-neuron scalar recomputation of the network forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for layer in params.hidden:
        z = np.zeros((h.shape[0], layer.w.shape[1]))
        for n in range(h.shape[0]):
            for j in range(layer.w.shape[1]):
                acc = layer.b[j]
                for k in range(layer.w.shape[0]):
                    acc += h[n, k] * layer.w[k, j]
                z[n, j] = max(acc, 0.0)
        h = z
    logits = np.zeros((h.shape[0], params.final_weights.shape[1]))
    for n in range(h.shape[0]):
        for j in range(params.final_weights.shape[1]):
            logits[n, j] = sum(h[n, k] * params.final_weights[k, j]
                               for k in range(params.final_weights.shape[0]))
    return logits


def sgd_step_per_tensor(tensors, grads, buffers, decays, lr, momentum):
    """Heavy-ball SGD applied one tensor at a time, in place.

    The per-tensor update the flat-vector optimizer replaced: for each
    tensor, buf = buf*momentum + (grad + decay*param), then
    param -= lr*buf, with decay 0.0 for biases.
    """
    for param, grad, buf, decay in zip(tensors, grads, buffers, decays):
        buf *= momentum
        buf += grad + decay * param
        param -= lr * buf


def backward_per_layer(params, cache, grad_logits):
    """Parameter gradients by the layer-by-layer chain rule, in checkpoint order.

    The chain also forms the gradient with respect to the inputs, as the
    backward pass once did, so it pins that skipping that product changes no
    parameter gradient. Returns [hidden0.w, hidden0.b, ..., final_weights].
    """
    g = grad_logits @ params.final_weights.T
    grads = [cache.features.T @ grad_logits]
    for k in range(len(params.hidden) - 1, -1, -1):
        dz = g * (cache.activations[k] > 0.0)
        prev = cache.activations[k - 1] if k > 0 else cache.inputs
        grads[:0] = [prev.T @ dz, dz.sum(axis=0)]
        g = dz @ params.hidden[k].w.T
    return grads


_CIFAR_FILES = {
    "cifar10": (1, 10, [f"data_batch_{i}.bin" for i in range(1, 6)], ["test_batch.bin"]),
    "cifar100": (2, 100, ["train.bin"], ["test.bin"]),
}


def float_dataset_pair(spec):
    """``build_dataset_pair`` for a CIFAR spec, by the all-float64 data path.

    Every record is read and turned into float64 / 255 before the package's
    subsamplers choose rows; the channels are then standardized out of place
    with training statistics. The row choice is the package's own; the pixel
    arithmetic is not. The output is written in row blocks, which keeps peak
    memory near two copies of the training split and changes no element.
    """
    from pathlib import Path

    from icmix.data import Dataset

    label_bytes, num_classes, train_files, test_files = _CIFAR_FILES[spec.kind]

    def read(names, split):
        raw = np.concatenate([np.fromfile(Path(spec.path) / n, dtype=np.uint8) for n in names])
        records = raw.reshape(-1, label_bytes + 3072)
        return Dataset(records[:, label_bytes:].astype(np.float64) / 255.0,
                       records[:, label_bytes - 1], num_classes, split, channels=3)

    train = _subsampled(read(train_files, "train"), spec)
    grouped = train.images.reshape(train.size, 3, 1024)
    mean = grouped.mean(axis=(0, 2))[None, :, None]
    std = grouped.std(axis=(0, 2))[None, :, None]
    del grouped

    def apply(ds):
        shaped = ds.images.reshape(ds.size, 3, 1024)
        out = np.empty_like(shaped)
        for start in range(0, ds.size, 4096):
            out[start:start + 4096] = (shaped[start:start + 4096] - mean) / std
        return Dataset(out.reshape(ds.size, 3072), ds.labels, num_classes, ds.split, channels=3)

    train = apply(train)
    return train, apply(read(test_files, "test"))


def float_blobs_pair(spec):
    """``build_dataset_pair`` for a blobs spec, by standardizing whole float64 splits.

    The package's ``synth_blobs`` draws the samples and its subsamplers choose
    the training rows; then numpy's ``mean`` and ``std`` over the whole
    training split give the statistics, and every row of both splits becomes
    ``(x - mean) / std``.
    """
    from icmix.data import Dataset, synth_blobs

    train, test = synth_blobs(spec.num_classes, spec.per_class, spec.dim, spec.spread, spec.seed)
    train = _subsampled(train, spec)
    mean, std = train.images.mean(), train.images.std()
    return tuple(Dataset((ds.images - mean) / std, ds.labels, ds.num_classes, ds.split) for ds in (train, test))


def _subsampled(train, spec):
    """The training split after the package's fractional and long-tail subsamplers."""
    from icmix.data import longtail_subsample, stratified_subsample
    from icmix.harness import _STREAM_FRACTION, _STREAM_LONGTAIL
    from icmix.numerics import RngState

    root = RngState(spec.seed)
    if spec.fraction < 1.0:
        train = stratified_subsample(train, spec.fraction, root.derive(_STREAM_FRACTION).seed)
    if spec.imbalance_ratio < 1.0:
        train = longtail_subsample(train, spec.imbalance_ratio, root.derive(_STREAM_LONGTAIL).seed)
    return train


def scalar_rng(seed):
    """An ``RngState`` whose bulk samplers draw one value at a time.

    ``uniforms``, ``normals`` and ``permutation`` are the package's scalar
    samplers before they drew in bulk: one ``random``, ``normal`` or
    ``randbelow`` call per value, through ``next_uint64``. Everything else,
    the scalar generator included, is the package's own.
    """
    from icmix.numerics import RngState

    class ScalarRng(RngState):
        def uniforms(self, n):
            return np.array([self.random() for _ in range(n)], dtype=np.float64)

        def normals(self, n):
            return np.array([self.normal() for _ in range(n)], dtype=np.float64)

        def permutation(self, n):
            idx = np.arange(n)
            for i in range(n - 1, 0, -1):
                j = self.randbelow(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            return idx

    return ScalarRng(seed)


def per_row_mix_batch(inputs, labels, config, counts, rng):
    """``mix_batch`` with the remix label rule applied one row at a time.

    The formula the one-row builder replaced: the remix ratio decided per
    row by scalar comparisons, and the weights formed as lam_y times one
    one-hot matrix plus (1 - lam_y) times another; method "none" is one-hot
    rows with lambda 1 and identity pairs. Draws one permutation, then one
    ``sample_beta`` per row, as the package does. Returns (inputs,
    mix_weights, lambdas, pair_indices).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b, c = inputs.shape[0], len(counts)

    def one_hot(ls):
        out = np.zeros((len(ls), c))
        for i, y in enumerate(ls):
            out[i, int(y)] = 1.0
        return out

    if config.method == "none":
        return inputs, one_hot(labels), np.ones(b), np.stack([np.arange(b), np.arange(b)], axis=1)
    perm = rng.permutation(b)
    lambdas = np.array([rng.sample_beta(config.alpha) for _ in range(b)], dtype=np.float64)
    lam_col = lambdas[:, None]
    mixed = lam_col * inputs + (1.0 - lam_col) * inputs[perm]
    lam_y = lambdas.copy()
    if config.method in ("remix", "ic_remix"):
        for i in range(b):
            ratio = int(counts[labels[i]]) / int(counts[labels[perm[i]]])
            lam = float(lambdas[i])
            if ratio >= config.kappa and lam < config.tau:
                lam_y[i] = 0.0
            elif ratio <= 1.0 / config.kappa and 1.0 - lam < config.tau:
                lam_y[i] = 1.0
    lam_y_col = lam_y[:, None]
    weights = lam_y_col * one_hot(labels) + (1.0 - lam_y_col) * one_hot(labels[perm])
    return mixed, weights, lambdas, np.stack([np.arange(b), perm], axis=1)


def per_row_regmixup_compose(clean_inputs, clean_labels, mixed, num_classes):
    """Clean one-hot rows (lambda 1, identity pairs) stacked on a mixed tuple
    as ``per_row_mix_batch`` returns it."""
    clean_inputs = np.asarray(clean_inputs, dtype=np.float64)
    b = clean_inputs.shape[0]
    clean_weights = np.zeros((b, num_classes))
    clean_weights[np.arange(b), clean_labels] = 1.0
    clean = (clean_inputs, clean_weights, np.ones(b), np.stack([np.arange(b), np.arange(b)], axis=1))
    return tuple(np.concatenate([x, y]) for x, y in zip(clean, mixed))


def scalar_epoch(rng, n, batch_bounds, alpha):
    """One training epoch's loop draws, one scalar call at a time.

    ``rng.permutation(n)``, then for each batch (start, stop) of size b,
    ``rng.permutation(b)`` and b calls of ``rng.sample_beta(alpha)``; with
    ``alpha`` None, the shuffle alone. Returns the order and, per batch,
    (partners, lambdas) or None.
    """
    order = rng.permutation(n)
    batches = []
    for start, stop in batch_bounds:
        if alpha is None:
            batches.append(None)
            continue
        partners = rng.permutation(stop - start)
        batches.append((partners, np.array([rng.sample_beta(alpha) for _ in range(stop - start)])))
    return order, batches

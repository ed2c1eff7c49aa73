"""Loss functions: task cross-entropy, global class alignment, local clustering.

The global term aligns per-domain soft confusion matrices (temperature-
softened class predictions of class-mean features) with a symmetrized KL
divergence, averaged over domain pairs (meta-train x meta-test, or every
pair when there is no split), from one feature forward over the stacked
rows of all its domains, which the local term may share. The local term is
metric learning over embeddings: contrastive pairs or triplets with online
semi-hard mining, which orders each distance-matrix row by distance, then
negatives first, then by column: one sort of packed int64 keys (distance
bits, column) per row, and an exact lexsort of the rows with a near-tie, a
-0.0, an inf or a NaN. A class member's slot in its anchor's row then counts
the negatives no farther than it, and its semi-hard negative is the first
negative after it; the triplets come in the row sort's order (by anchor,
then nearest positive first). Labels are whole numbers. The library has no
logger: a loss reports nothing but its value.

Both semantic terms are one pairwise quadratic form (``_pair_form``): of
the soft rows and their logs, and of the embeddings with themselves.

Triplet distances come from one Gram matrix G = E E^T of the embeddings:
d^2(a, b) = G[a, a] + G[b, b] - 2 G[a, b], in NumPy (``_sq_dists``). The
miner, the silhouette and the triplet hinge's choice of active triplets all
read that one rule; the hinge reads it at its triplets' cells only.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Expr
from .bench import as_labels
from .nets import ParamSet


def task_loss(logits: Expr, labels: np.ndarray) -> Expr:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    labels = as_labels(labels, logits.shape[1])
    lse = ad.log_sum_exp(logits)
    picked = ad.gather_rows(logits, labels)
    return ad.mean(ad.sub(lse, picked))


def class_means(z: Expr, labels: np.ndarray, num_classes: int) -> tuple[Expr, np.ndarray]:
    """Per-class mean feature rows [C, d] and a boolean presence mask.

    Rows of absent classes are zero and masked out; callers must exclude
    them downstream.
    """
    labels = as_labels(labels)
    counts = np.bincount(labels, minlength=num_classes)
    sel = np.arange(num_classes)[:, None] == labels
    sel = sel / np.maximum(counts, 1)[:, None]
    return ad.matmul(ad.const(sel), z), counts > 0


def soft_label_matrix(theta: ParamSet, means: Expr, tau: float) -> Expr:
    """Temperature-softened softmax of the task head applied to class means."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    logits = nets.task_forward(theta, means)
    return ad.softmax(ad.mul(logits, ad.const(1.0 / tau)))


def symm_kl(p: Expr, q: Expr) -> Expr:
    """0.5 * [KL(p||q) + KL(q||p)] for two distributions (epsilon-guarded logs)."""
    for dist in (p, q):
        v = dist.value
        if v.ndim != 1 or np.any(v < 0) or abs(v.sum() - 1.0) > 1e-6:
            raise ValueError("arguments must be probability distributions")
    diff = ad.sub(p, q)
    logdiff = ad.sub(ad.log(p), ad.log(q))
    return ad.mul(ad.const(0.5), ad.reduce_sum(ad.mul(diff, logdiff)))


def _pair_form(a: Expr, b: Expr, w: np.ndarray, scale: float) -> Expr:
    """sum_ij -w[i, j] / scale * (a_i - a_j).(b_i - b_j) over rows [N, k],
    as sum(a * (L @ b)): L * scale is w + w^T with its column sums (a column
    sum of w^T is a row sum of w) taken off the diagonal, exact in float64
    for integer ``w``. Only the constant L is [N, N]."""
    lap = w.astype(np.float64)
    lap += w.T  # casts one operand, chunk by chunk: the least peak memory
    lap.flat[::len(w) + 1] -= lap.sum(axis=0)
    lap /= scale
    return ad.reduce_sum(ad.mul(a, ad.matmul(ad.const(lap, copy=False), b)))


def global_alignment_loss(batches, pairs, psi: ParamSet, theta: ParamSet,
                          tau: float, num_classes: int, *,
                          z: Expr | None = None) -> Expr:
    """Mean over ``(i, j)`` pairs of domain ids of the row-wise symmetrized
    KL between the domains' soft matrices, averaged over shared classes.

    ``batches`` maps a domain id to its (features [N, d_in], labels [N])
    batch. The D domains the pairs name are stacked in sorted id order and
    give one [D*C, C] soft matrix S of (domain, class) cells, and the loss
    is the pair form of S and log S over cell pairs. ``z`` is F_psi of that
    stack, if the caller has it already (the meta step shares it with the
    local loss); otherwise the stack goes through the feature extractor here.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one domain pair")
    ids = sorted({k for pair in pairs for k in pair})
    labels = [as_labels(batches[k][1], num_classes) for k in ids]
    if z is None:
        z = nets.feature_forward(
            psi, ad.as_expr(np.concatenate([batches[k][0] for k in ids])))
    cells = np.concatenate([p * num_classes + l for p, l in enumerate(labels)])
    means, present = class_means(z, cells, len(ids) * num_classes)
    soft = soft_label_matrix(theta, means, tau)
    # a row's symmetrized KL is half of (S_r - S_s).(log S_r - log S_s), so
    # each pair puts -1/(shared classes) on its cells r, s of each shared
    # class; bincount adds in input order, so a repeated pair sums as -= does
    at = np.array([[ids.index(k) for k in pair] for pair in pairs])  # [pairs, 2]
    shared = present.reshape(len(ids), -1)[at].all(axis=1)  # [pairs, C]
    n_shared = shared.sum(axis=1)
    if not n_shared.all():
        raise ValueError("no shared class between a domain pair")
    n = len(present)
    pair, cls = np.nonzero(shared)
    r, s = at[pair].T * num_classes + cls  # each shared cell's row and column
    w = np.bincount(r * n + s, -1.0 / n_shared[pair], n * n).reshape(n, n)
    return _pair_form(soft, ad.log(soft), w, 2 * len(pairs))


def contrastive_loss(embeddings: Expr, labels: np.ndarray, margin: float,
                     rng: np.random.Generator) -> Expr:
    """O(N) contrastive loss: shuffle, then pair consecutive samples.

    Same-class pairs contribute d^2, different-class pairs (max(0, xi-d))^2.
    """
    labels = as_labels(labels)
    _check_local_batch(embeddings.shape, labels)
    n = embeddings.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for contrastive pairs")
    perm = rng.permutation(n)
    first, second = perm[0::2][: n // 2], perm[1::2]
    return contrastive_loss_on_pairs(embeddings, labels, first, second, margin)


def contrastive_loss_on_pairs(embeddings: Expr, labels: np.ndarray,
                              first: np.ndarray, second: np.ndarray,
                              margin: float) -> Expr:
    labels = as_labels(labels)
    a = ad.select_rows(embeddings, first)
    b = ad.select_rows(embeddings, second)
    d2 = ad.reduce_sum(ad.square(ad.sub(a, b)), axis=-1)
    d = ad.sqrt(d2)
    same = (labels[first] == labels[second]).astype(np.float64)[:, None]
    hinge = ad.square(ad.relu(ad.sub(ad.const(margin), d)))
    per_pair = ad.add(ad.mul(ad.const(same), d2),
                      ad.mul(ad.const(1.0 - same), hinge))
    return ad.mean(per_pair)


def _sq_dists(values: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """Squared Euclidean distances [N, N] between the rows of ``values``, or
    at the cells (``rows``, ``cols``) if given, unclamped (numpy).

    Gram form: d^2(a, b) = |a|^2 + |b|^2 - 2 a.b from one ``values @
    values.T``, with the squared norms read off its diagonal, so the diagonal
    is exactly 0, and coincident rows are 0 up to the rounding of their dot
    product. Rounding can push d^2 below 0. d^2 carries an absolute error of
    a few ulps of |a|^2, so a distance well below 1e-8 |a| is not resolved.
    """
    gram = values @ values.T
    sq = gram.diagonal().copy()  # a strided view would slow the broadcast
    if rows is not None:  # the same float expression, at those cells only
        return (sq[rows] + sq[cols]) - 2.0 * gram.take(rows * len(sq) + cols)
    d2 = sq[:, None] + sq
    gram *= 2.0  # in place: a third [N, N] buffer costs more than the math
    d2 -= gram
    return d2


def distance_matrix(values: np.ndarray) -> np.ndarray:
    """Euclidean distances [N, N] between the rows of ``values`` (numpy):
    the square root of ``_sq_dists``, clamped at 0."""
    d2 = _sq_dists(values)
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _check_local_batch(shape: tuple[int, ...], labels: np.ndarray) -> None:
    """Raise ValueError unless ``shape`` is [N, d] and ``labels`` holds N labels."""
    if len(shape) != 2:
        raise ValueError(f"embeddings must be 2-D [N, d], got shape {shape}")
    if labels.shape != shape[:1]:
        raise ValueError(f"{labels.size} labels for {shape[0]} embedding rows")


def mine_semihard_triplets(embedding_values: np.ndarray,
                           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-hard mining over a batch (pure numpy, no gradient flow).

    For every anchor-positive pair the negative is the closest one strictly
    farther from the anchor than the positive; if none qualifies, the
    farthest negative is used. Ties break toward the lowest sample index; a
    NaN distance counts as farther than any number, and a positive at a NaN
    distance always takes the fallback. Triplets come grouped by anchor, in
    row order, and within an anchor in the row sort's order: its positives
    nearest first, ties by column (NaN distances last).

    Every row of the distance matrix is put in one order: by distance (NaNs
    last, equal to each other), then negatives before positives, then by
    column. A row is one sort of int64 keys, the distance's bits above the
    low b = bit_length(N - 1) and the column in those b; a row where two
    adjacent keys share their high bits or differ in sign (a -0.0, a sign-bit
    NaN), or that holds an inf or a NaN, is sorted again by a stable lexsort.
    The c negatives before a class member's slot are those no farther than
    it, so its pick is the row's c-th negative (from 0), the first after it.
    When c is the row's negative count, the pick is the row's first negative
    at its farthest negative distance; on an untied row, its last negative.
    """
    labels = as_labels(labels)
    _check_local_batch(np.shape(embedding_values), labels)
    n = labels.size
    by_class = np.sort(labels)
    low = np.searchsorted(by_class, labels)  # a row's class in by_class
    m = np.searchsorted(by_class, labels, side="right") - low
    if not ((m > 1) & (m < n)).any():  # no positive with a negative
        return tuple(np.zeros((3, 0), np.int64))
    dist = distance_matrix(embedding_values)
    b = (n - 1).bit_length()
    keys = dist.view(np.int64) & -(1 << b)
    keys |= np.arange(n)
    # faster as float64, where a non-negative finite key sorts as its bits do
    keys.view(np.float64).sort(axis=1)
    # a near-tie: adjacent keys that share their high bits or differ in sign
    flat, near = keys.ravel(), np.empty_like(keys)
    np.bitwise_xor(flat[1:], flat[:-1], out=near.ravel()[:-1])
    tied = near[:, :-1].min(axis=1) < 1 << b  # the last column pairs two rows
    tied = np.flatnonzero(tied | ~(keys[:, -1].view(np.float64) < np.inf))
    order = np.bitwise_and(keys, (1 << b) - 1, out=keys)  # nearest first
    tied_d, tied_neg = dist[tied], labels[tied, None] != labels
    del dist, near  # fewer live [N, N] buffers
    order[tied] = np.lexsort((~tied_neg, tied_d))
    # each row's class members, then its negatives, nearest first, row by row
    cls = low.astype(np.min_scalar_type(n))  # a narrow class id per row
    member = cls.take(order) == cls[:, None]
    hits, negs = np.flatnonzero(member), np.flatnonzero(~member.ravel())
    rows, cols = hits // n, order.take(hits)
    last = np.cumsum(n - m) - 1  # each row's last negative in negs
    far = order.take(negs[last])
    far[tied] = np.where(tied_neg, tied_d, -np.inf).argmax(axis=1)
    k = hits - np.arange(hits.size)  # each member's next negative, in negs
    last = last[rows]
    pick = np.where(k > last, far[rows], order.take(negs[np.minimum(k, last)]))
    keep = cols != rows  # the anchor is no positive of its own
    return rows[keep], cols[keep], pick[keep]


def triplet_loss_semihard(embeddings: Expr, labels: np.ndarray,
                          margin: float) -> Expr:
    """Mean over mined triplets of max(0, d(a,p)^2 - d(a,n)^2 + xi).

    A triplet is active when its hinge, taken from the miner's d^2 rule
    (``_sq_dists``), is above 0; a hinge of exactly 0 is not. Each active
    triplet adds +1/T to W[a, p] and -1/T to W[a, n], so the mean of their
    d(a,p)^2 - d(a,n)^2 is sum_ab W[a, b] d^2(a, b), the pair form of E with
    itself with whole-count weights -T W, plus xi / T per active triplet.
    A batch with no triplet has loss 0; a training batch always has one.
    """
    anchors, positives, negatives = mine_semihard_triplets(
        embeddings.value, labels)
    if anchors.size == 0:
        return ad.const(0.0)
    n, t = embeddings.shape[0], anchors.size
    d2 = _sq_dists(embeddings.value, anchors, np.stack((positives, negatives)))
    active = (d2[0] - d2[1]) + margin > 0.0
    ap, an = anchors * n + positives, anchors * n + negatives
    w = np.bincount(an[active], minlength=n * n)
    w -= np.bincount(ap[active], minlength=n * n)
    quad = _pair_form(embeddings, embeddings, w.reshape(n, n), t)
    return ad.add(quad, ad.const(margin * np.count_nonzero(active) / t))

"""Loss functions: task cross-entropy, global class alignment, local clustering.

The global term aligns per-domain soft confusion matrices (temperature-
softened class predictions of class-mean features) with a symmetrized KL
divergence, averaged over domain pairs (meta-train x meta-test, or every
pair when there is no split), from one feature forward over the stacked
rows of all its domains and one weighted sum over all pairs. The local term
is metric learning over embeddings: contrastive pairs or triplets with
online semi-hard mining.

Triplet distances come from one Gram matrix G = E E^T of the embeddings:
d^2(a, b) = G[a, a] + G[b, b] - 2 G[a, b]. The miner and the silhouette
take them in NumPy (``distance_matrix``); the triplet hinge builds the same
[N, N] matrix as a graph and picks its (anchor, positive) and (anchor,
negative) entries.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Expr
from .nets import ParamSet

log = logging.getLogger(__name__)


def task_loss(logits: Expr, labels: np.ndarray) -> Expr:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    lse = ad.log_sum_exp(logits, axis=1)
    picked = ad.gather_rows(logits, labels)
    return ad.mean(ad.sub(lse, picked))


def class_means(z: Expr, labels: np.ndarray, num_classes: int) -> tuple[Expr, np.ndarray]:
    """Per-class mean feature rows [C, d] and a boolean presence mask.

    Rows of absent classes are zero and masked out; callers must exclude
    them downstream.
    """
    labels = np.asarray(labels, dtype=np.int64)
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


def global_alignment_loss(batches, pairs, psi: ParamSet, theta: ParamSet,
                          tau: float, num_classes: int) -> Expr:
    """Mean over ``(i, j)`` pairs of domain ids of the row-wise symmetrized
    KL between the domains' soft matrices, averaged over shared classes.

    ``batches`` maps a domain id to its (features [N, d_in], labels [N])
    batch. All D named domains go through the feature extractor as one stack
    and give one [D*C, C] soft matrix of (domain, class) cells; every pair's
    class blocks are gathered from it and summed with one weight vector.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one domain pair")
    ids = list(dict.fromkeys(k for pair in pairs for k in pair))
    labels = [np.asarray(batches[k][1], dtype=np.int64) for k in ids]
    if any(l.min() < 0 or l.max() >= num_classes for l in labels):
        raise ValueError("label out of range")
    z = nets.feature_forward(
        psi, ad.as_expr(np.concatenate([batches[k][0] for k in ids])))
    cells = np.concatenate([p * num_classes + l for p, l in enumerate(labels)])
    means, present = class_means(z, cells, len(ids) * num_classes)
    soft = soft_label_matrix(theta, means, tau)
    log_soft = ad.log(soft)

    # rows[p, s] holds the soft-matrix rows of side s (i or j) of pair p
    blocks = np.array([[ids.index(i), ids.index(j)] for i, j in pairs])
    rows = blocks[:, :, None] * num_classes + np.arange(num_classes)
    shared = present[rows[:, 0]] & present[rows[:, 1]]
    counts = shared.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("no shared class between a domain pair")
    i_rows, j_rows = rows[:, 0].ravel(), rows[:, 1].ravel()
    diff = ad.sub(ad.select_rows(soft, i_rows), ad.select_rows(soft, j_rows))
    logdiff = ad.sub(ad.select_rows(log_soft, i_rows),
                     ad.select_rows(log_soft, j_rows))
    weights = 0.5 * shared / (counts * len(pairs))
    return ad.reduce_sum(ad.mul(ad.reduce_sum(ad.mul(diff, logdiff), axis=1),
                                ad.const(weights.ravel())))


def _row_sq_dists(a: Expr, b: Expr) -> Expr:
    return ad.reduce_sum(ad.square(ad.sub(a, b)), axis=1)


def contrastive_loss(embeddings: Expr, labels: np.ndarray, margin: float,
                     rng: np.random.Generator) -> Expr:
    """O(N) contrastive loss: shuffle, then pair consecutive samples.

    Same-class pairs contribute d^2, different-class pairs (max(0, xi-d))^2.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = embeddings.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples for contrastive pairs")
    perm = rng.permutation(n)
    first, second = perm[0::2][: n // 2], perm[1::2]
    return contrastive_loss_on_pairs(embeddings, labels, first, second, margin)


def contrastive_loss_on_pairs(embeddings: Expr, labels: np.ndarray,
                              first: np.ndarray, second: np.ndarray,
                              margin: float) -> Expr:
    labels = np.asarray(labels, dtype=np.int64)
    a = ad.select_rows(embeddings, first)
    b = ad.select_rows(embeddings, second)
    d2 = _row_sq_dists(a, b)
    d = ad.sqrt(d2)
    same = (labels[first] == labels[second]).astype(np.float64)
    hinge = ad.square(ad.relu(ad.sub(ad.const(margin), d)))
    per_pair = ad.add(ad.mul(ad.const(same), d2),
                      ad.mul(ad.const(1.0 - same), hinge))
    return ad.mean(per_pair)


def distance_matrix(values: np.ndarray) -> np.ndarray:
    """Euclidean distances [N, N] between the rows of ``values`` (numpy).

    Gram form: d^2(a, b) = |a|^2 + |b|^2 - 2 a.b from one ``values @
    values.T``, with the squared norms read off its diagonal, so the diagonal
    and coincident rows are exactly 0. Rounding can push d^2 below 0; it is
    clamped there. d^2 carries an absolute error of a few ulps of |a|^2, so
    a distance well below 1e-8 |a| is not resolved.
    """
    gram = values @ values.T
    sq = gram.diagonal().copy()  # a strided view would slow the broadcast
    d2 = sq[:, None] + sq
    gram *= 2.0  # in place: a third [N, N] buffer costs more than the math
    d2 -= gram
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def mine_semihard_triplets(embedding_values: np.ndarray,
                           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-hard mining over a batch (pure numpy, no gradient flow).

    For every anchor-positive pair the negative is the closest one farther
    from the anchor than the positive; if none qualifies, the farthest
    negative is used. Ties break toward the lowest sample index. Triplets
    come ordered by anchor, then by positive.
    """
    labels = np.asarray(labels, dtype=np.int64)
    dist = distance_matrix(embedding_values)
    anchors, positives, negatives = [], [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        neg_idx = np.flatnonzero(labels != c)
        m, q = members.size, neg_idx.size
        if m < 2 or q == 0:
            continue
        # anchors of one class share their negatives; a stable sort keeps
        # equally distant negatives in index order, so the first one past a
        # positive's distance is also the lowest index at that distance
        d_neg = dist[np.ix_(members, neg_idx)]
        order = np.argsort(d_neg, axis=1, kind="stable")
        sorted_d = np.take_along_axis(d_neg, order, axis=1)
        pos_idx = np.broadcast_to(members, (m, m))[~np.eye(m, dtype=bool)]
        pos_idx = pos_idx.reshape(m, m - 1)
        d_pos = dist[members[:, None], pos_idx]
        k = np.stack([np.searchsorted(row, d, side="right")
                      for row, d in zip(sorted_d, d_pos)])
        pick = np.take_along_axis(neg_idx[order], np.minimum(k, q - 1), axis=1)
        farthest = neg_idx[np.argmax(d_neg, axis=1)]
        anchors.append(np.repeat(members, m - 1))
        positives.append(pos_idx.ravel())
        negatives.append(np.where(k == q, farthest[:, None], pick).ravel())
    if not anchors:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    a, p, n = (np.concatenate(parts) for parts in (anchors, positives, negatives))
    by_anchor = np.argsort(a, kind="stable")
    return a[by_anchor], p[by_anchor], n[by_anchor]


def triplet_loss_semihard(embeddings: Expr, labels: np.ndarray,
                          margin: float) -> Expr:
    """Mean over mined triplets of max(0, d(a,p)^2 - d(a,n)^2 + xi).

    The squared distances are entries of one [N, N] graph built by the rule
    of ``distance_matrix``, so the hinge sees the distances the miner saw.
    """
    anchors, positives, negatives = mine_semihard_triplets(
        embeddings.value, labels)
    if anchors.size == 0:
        log.warning("no valid triplet in batch; local loss is 0")
        return ad.const(0.0)
    n = embeddings.shape[0]
    gram = ad.matmul(embeddings, ad.transpose(embeddings))
    sq = ad.gather_rows(gram, np.arange(n))
    d2 = ad.sub(ad.add(ad.reshape(sq, (n, 1)), sq), ad.mul(ad.const(2.0), gram))
    d2 = ad.reshape(d2, (n * n,))
    hinge = ad.relu(ad.add(ad.sub(ad.select_rows(d2, anchors * n + positives),
                                  ad.select_rows(d2, anchors * n + negatives)),
                           ad.const(margin)))
    return ad.mean(hinge)

"""Loss functions: task cross-entropy, global class alignment, local clustering.

The global term aligns per-domain soft confusion matrices (temperature-
softened class predictions of class-mean features) with a symmetrized KL
divergence, averaged over domain pairs (meta-train x meta-test, or every
pair when there is no split). The local term is metric learning over
embeddings: contrastive pairs or triplets with online semi-hard mining.
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
    n = z.shape[0]
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    mask = counts > 0
    sel = np.zeros((num_classes, n))
    safe = np.where(mask, counts, 1.0)
    sel[labels, np.arange(n)] = 1.0
    sel /= safe[:, None]
    return ad.matmul(ad.const(sel), z), mask


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


def _pair_alignment(s_i: Expr, s_j: Expr, mask: np.ndarray) -> Expr:
    """Mean over mutually present classes of row-wise symmetrized KL."""
    diff = ad.sub(s_i, s_j)
    logdiff = ad.sub(ad.log(s_i), ad.log(s_j))
    per_class = ad.mul(ad.const(0.5), ad.reduce_sum(ad.mul(diff, logdiff), axis=1))
    weights = mask.astype(np.float64) / mask.sum()
    return ad.reduce_sum(ad.mul(per_class, ad.const(weights)))


def global_alignment_loss(batches, pairs, psi: ParamSet, theta: ParamSet,
                          tau: float, num_classes: int) -> Expr:
    """Average pair alignment over ``(i, j)`` pairs of domain ids.

    ``batches`` maps a domain id to its (features [N, d_in], labels [N])
    batch. Each domain's soft matrix is built once, however many pairs
    share it.
    """
    soft: dict = {}

    def soft_matrix(k):
        if k not in soft:
            x, labels = batches[k]
            z = nets.feature_forward(psi, ad.as_expr(x))
            means, mask = class_means(z, labels, num_classes)
            soft[k] = soft_label_matrix(theta, means, tau), mask
        return soft[k]

    terms = []
    for i, j in pairs:
        (s_i, m_i), (s_j, m_j) = soft_matrix(i), soft_matrix(j)
        shared = m_i & m_j
        if not shared.any():
            raise ValueError("no shared class between a domain pair")
        terms.append(_pair_alignment(s_i, s_j, shared))
    return ad.mean_of(terms)


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
    """Euclidean distances [N, N] between the rows of ``values`` (numpy)."""
    diff = values[:, None, :] - values[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


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
    """Mean over mined triplets of max(0, d(a,p)^2 - d(a,n)^2 + xi)."""
    anchors, positives, negatives = mine_semihard_triplets(
        embeddings.value, labels)
    if anchors.size == 0:
        log.warning("no valid triplet in batch; local loss is 0")
        return ad.const(0.0)
    e_a = ad.select_rows(embeddings, anchors)
    e_p = ad.select_rows(embeddings, positives)
    e_n = ad.select_rows(embeddings, negatives)
    hinge = ad.relu(ad.add(ad.sub(_row_sq_dists(e_a, e_p),
                                  _row_sq_dists(e_a, e_n)),
                           ad.const(margin)))
    return ad.mean(hinge)

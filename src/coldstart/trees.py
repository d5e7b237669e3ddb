"""From-scratch CART regression tree, bagged forest, and gradient boosting.

Split search maximizes weighted variance reduction
    delta = Var(y) - (n_L/n) Var(y_L) - (n_R/n) Var(y_R)
computed, for two groups, via the equivalent between-group form
    delta = (n_L * n_R / n^2) * (mean_L - mean_R)^2
which is nonnegative by construction and avoids the cancellation of the
sum-of-squares formulation. Candidate thresholds are midpoints of
consecutive distinct sorted feature values; rows with x <= threshold go
left. Ties in delta resolve to the lowest feature index, then the lowest
threshold.

A fitted tree is a ``Tree``: parallel arrays indexed by node id, as in
scikit-learn's ``Tree``. Node 0 is the root and nodes are numbered in
preorder (a node, its whole left subtree, then its right subtree), so
every child has a larger index than its parent and an internal node's left
child is the next node. ``feature`` is -1 at a leaf; an internal node i
sends rows with ``x[feature] <= threshold`` to node i + 1 and the rest to
its right child. ``value`` is the node's target mean, ``n_samples`` its row
count and ``impurity_decrease`` the delta of its split (0 at a leaf).

No tree stores its right children: a full binary tree in preorder is fixed
by its leaf flags (Jacobson 1989, FOCS). With +1 for an internal node and
-1 for a leaf, the sum before each node of a tree is at least 0 and the
sum after its last node is -1 (the shape rule); a right child is the next
node of its tree with its parent's sum before it (see _right_children).

A bundle stores each model's trees as one packed block: the node count of
each tree, and three arrays over the nodes in preorder, trees in model
order, each stored as fixed little-endian bytes, deflated by zlib at its
default level and base64-encoded. They hold only what prediction reads:
``feature`` for every node, in the narrowest of int8, int16 and int32 that
holds -1 and the model's last column (worked out from ``n_features``, never
stored); ``threshold`` for each internal node; and ``value`` for each leaf,
as 8 byte planes (byte 0 of every value, then byte 1, ...), which puts the
leaf values' shared sign and exponent bytes next to each other for deflate
(a byte-shuffle filter; Alted 2010, CiSE 12(2)). The decoder reads the node
count from ``sizes`` first and inflates ``feature`` to exactly that many
entries, then the other arrays to the internal-node and leaf counts that
``feature`` gives, before any wider copy of ``feature``; no inflate writes
more than one byte past the entries it expects, so a small stream that
claims to hold more cannot make a large array. Each array is then one
``np.frombuffer``, and the checks run on whole arrays. ``n_samples`` and
``impurity_decrease`` feed impurity importance only, which runs on the
fitted trees in memory; a decoded tree holds None for them.

Split search works on rank codes, not on the float values. Each fit codes
every column of X once, by ``rank_code``: a value's code is the number of
distinct smaller values in its column, so codes compare exactly as the
values do and equal values (0.0 and -0.0 among them) share a code. The
code is stored shifted left, as a packed key whose low bits are free.
Every tree of a forest and every boosting round reuses those keys. At a
node, ``best_split`` gathers the keys of the drawn columns for the node's
rows and ORs in each row's position in the node. The keys are then unique,
so one plain sort per column (numpy's AVX-512 quicksort for int32 and
int64; Bramas 2017, IJACSA 8(10)) puts them in the order of a stable
argsort of the codes: tied rows stay in row order, and the prefix sums add
in the same order as a stable sort of the floats would. The low bits of
the sorted keys are that order.
A boundary is a candidate where the code changes; its threshold is the
midpoint of the two float values read from X at the rows on either side,
and ``x <= threshold`` holds exactly for the rows whose code is at most the
left row's code. Inputs holding NaN or inf are rejected: NaN has no place
in that order.

The grower computes each node's target mean once; it is the node's value
and the centre of its split search. Boosting takes each round's training
predictions from the grower, which writes every leaf's value to the leaf's
rows: those rows reached the leaf by the same ``x <= threshold`` test that
prediction applies, so the floats are those of ``predict_tree``.

Prediction routes every row down at once (the vectorized predication of
Asadi, Lin & de Vries 2014), through one plan per run of consecutive trees
of a model: the trees in model order, cut into runs of at most
``PLAN_NODES`` nodes (a larger tree is a run of its own), so that a plan's
memory is bounded by the cap and not by the model. A plan is a slot table
over its run's nodes, trees in model order. Internal node j (counting
internal nodes only) owns slots ``2*j + b``, its branch b, with b = 1
where ``x <= threshold`` (left) and 0 otherwise (right), so a NaN cell
goes right; ``feature`` and
``threshold`` are repeated per slot and ``child`` holds the even slot of
each branch's child. The leaves come last: from slot ``first_leaf`` on,
each leaf owns a slot pair whose children point back at the leaf, so a row
has finished exactly when ``slot >= first_leaf``, and its value is
``value[slot - first_leaf]`` in a leaf-only array. A row holds its node's
even slot, and one level is the branch-free step ``slot =
child[slot + (x[feature[slot]] <= threshold[slot])]``: the same comparison
as a node-by-node walk, so every prediction is the same float. The cell
``x[f]`` of row i is ``X.ravel()[i * width + f]``, read from the row-major
X in place, so the plan rejects a split feature at or past X's width
instead of reading the next row's cell.

The trees are walked one after another, the rows of a tree all together.
A breadth-first pass over all trees of a run at once, made when its plan
is built, gives each tree's shallowest leaf depth: no row can finish before it, so
the walk takes that many steps before it looks for finished rows. The
first step compares the root's column, where every row still is. After
that, finished rows are dropped once they are half of the rows left. A
model's sum is ``base + sum_t w * prediction_t``, added in model order (see
ForestModel); a forest's base 0.0 and w 1.0 leave each float as a plain sum
of its trees would. Runs change where plans begin, not that order, so
every float is the same as with one plan per model.

Tree t of a forest fit with seed s draws its bootstrap rows and feature
subsets from ``default_rng(mix_seed(s, t))``, which ``_bootstrap`` builds
for both the fit and ``forest_oob``. So a forest's first T trees are the
T-tree forest bit for bit, and a row's out-of-bag trees can be found again
without storing the draws (Breiman 2001, "Random forests", Machine
Learning 45). The bootstrap rows are the generator's first draw. Under
"third" or "sqrt" the feature subsets follow, ``SUBSET_BLOCK`` nodes at a
time: the first splittable node draws a block of rows of uniforms, one row
per node, and each node in preorder takes the next row's argsort, cut to
its first m columns and sorted; a new block is drawn once one is used up.
So a block costs one generator call, where ``Generator.choice`` makes
several numpy calls for each node. Under "all" nothing is drawn.
"""

import base64
import itertools
import math
import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .util import finite_number, mix_seed, whole_number

MAX_FEATURES_MODES = ("all", "third", "sqrt")

# the most nodes one prediction plan holds: building a plan peaks near 184
# bytes a node, so ~12 MB at the cap
PLAN_NODES = 1 << 16

# feature subsets a tree draws at once, one row of uniforms each (see _subsets)
SUBSET_BLOCK = 64


@dataclass
class TreeParams:
    """A tree fit's parameters, taken as given: families.resolve_params checks them."""

    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: str = "all"
    seed: int = 0


@dataclass
class Tree:
    feature: np.ndarray  # int; -1 at a leaf
    threshold: np.ndarray
    value: np.ndarray
    # split statistics for impurity importance; None in a decoded tree
    n_samples: np.ndarray | None = None  # int
    impurity_decrease: np.ndarray | None = None


TREE_ARRAYS = tuple(f.name for f in fields(Tree))
INT_ARRAYS = ("feature", "n_samples")


@dataclass
class ForestModel:
    """A tree model, predicting ``base_prediction + sum_t w * tree_t(x)`` in
    model order. A forest (Breiman 2001, Machine Learning 45) has no
    ``learning_rate``, base 0 and w 1, and divides by its tree count; a
    decision tree is a forest of one. A boosted model (Friedman 2001, Annals
    of Statistics 29) has w its learning rate and no division."""

    trees: list
    n_features: int
    base_prediction: float = 0.0
    learning_rate: float | None = None


def _align(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError(f"misaligned shapes X={X.shape} y={y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("tree inputs must be finite: X or y holds NaN or inf")
    return X, y


def rank_code(X):
    """Packed rank keys of a finite n x p matrix X, as a p x n array.

    Entry (j, i) is the dense rank of X[i, j] within column j (the number of
    distinct smaller values) shifted left by ``_key_shift(n)`` bits, which
    leaves the low bits free for a row's position in a node. The dtype is
    int32 while both fields fit in 31 bits (n <= 32768), else int64."""
    n = X.shape[0]
    shift = _key_shift(n)
    keys = np.empty(X.shape[::-1], dtype=np.int32 if 2 * shift <= 31 else np.int64)
    for j, column in enumerate(X.T):
        keys[j] = np.unique(column, return_inverse=True)[1]
    keys <<= shift
    return keys


def _key_shift(n):
    """Bits that hold a position 0..n-1 in the low end of a rank key."""
    return max((n - 1).bit_length(), 1)


class RankedRows(NamedTuple):
    """One tree node's sample: the rows ``rows`` of a finite float matrix X,
    given as ``columns = X.T`` (C-contiguous) and ``keys = rank_code(X)``,
    with ``mean`` the mean of the node's targets; the grower makes ``positions`` (an
    arange over its root's rows, in the keys' dtype) and ``mask`` (a key's position bits) once."""

    columns: np.ndarray
    keys: np.ndarray
    rows: np.ndarray
    mean: float
    positions: np.ndarray
    mask: int


def best_split(X, y, feature_subset=None):
    """Best (feature_index, threshold, impurity_decrease) or None.

    Evaluates every midpoint between consecutive distinct sorted values of
    each candidate feature and returns the split with the largest variance
    reduction, or None when no split strictly reduces variance. ``X`` is a
    float matrix aligned with ``y``, or a ``RankedRows`` whose rows ``y``
    follows (the grower's form, which reuses the fit's rank keys).
    """
    node = X if isinstance(X, RankedRows) else None
    if node is None:
        X, y = _align(X, y)
    n = len(y)
    if n < 2 or np.maximum.reduce(y) == np.minimum.reduce(y):  # y.max() == y.min(), unwrapped
        return None
    if node is None:
        keys, mask = rank_code(X), (1 << _key_shift(n)) - 1
        node = RankedRows(np.ascontiguousarray(X.T), keys, np.arange(n), y.mean(), np.arange(n, dtype=keys.dtype), mask)
    if feature_subset is None:
        cols = np.arange(node.keys.shape[0])
    else:
        cols = np.array(feature_subset, dtype=int)
        cols.sort()
    if len(cols) == 0:
        return None

    # a row's key is its rank code over its position in the node: keys are
    # unique, so sorting them orders each column as a stable argsort of the
    # codes would, and the low bits hold that order
    keys = node.keys.take(cols, axis=0).take(node.rows, axis=1)
    keys |= node.positions[:n]
    keys.sort(axis=1)
    order = keys & node.mask
    yc = y - node.mean  # shift-invariant delta; centering tames the squares
    prefix = np.add.accumulate(yc.take(order), axis=1)  # np.cumsum's sums, without its wrapper

    # a boundary is a candidate only where the code changes; nonzero lists
    # them feature-major, so the first argmax is the lowest feature, then the
    # lowest threshold
    flat = ((keys[:, 1:] ^ keys[:, :-1]) > node.mask).ravel().nonzero()[0]
    if not flat.size:
        return None
    ci, pos = np.divmod(flat, n - 1)
    left = prefix.ravel().take(flat + ci)  # prefix[ci, pos] as one 1-D gather
    n_left = pos + 1.0
    n_right = n - n_left
    mean_left = left / n_left
    mean_right = (prefix[:, -1].take(ci) - left) / n_right
    delta = (n_left * n_right) / float(n * n) * (mean_left - mean_right) ** 2
    best = delta.argmax()
    best_delta = delta.item(best)
    if best_delta <= 0.0:
        return None
    ci, pos = ci.item(best), pos.item(best)
    feature = cols.item(ci)
    lo, hi = node.columns[feature].take(node.rows.take(order[ci, pos : pos + 2])).tolist()
    threshold = (lo + hi) / 2.0
    if not threshold < hi:  # adjacent floats: keep the right side non-empty
        threshold = lo
    return feature, threshold, best_delta


def _subsets(p, mode, rng):
    """One tree's per-node feature subsets, drawn from its generator ``rng``
    in the order its splittable nodes ask for them. Under "all" each node
    searches every column and nothing is drawn. Otherwise a subset is the
    first m columns (m = p // 3 for "third", int(sqrt(p)) for "sqrt", at
    least 1) of the argsort of a row of p uniforms, sorted: a uniform
    m-subset. Rows come ``SUBSET_BLOCK`` at a time, the first block when
    the first node asks, the next once that one is used up."""
    if mode == "all":
        yield from itertools.repeat(None)
    m = max(1, p // 3 if mode == "third" else int(math.sqrt(p)))
    while True:
        yield from np.sort(rng.random((SUBSET_BLOCK, p)).argsort(axis=1)[:, :m], axis=1)


def _grow(columns, keys, y, params, rng, rows, fitted=None):
    """Grow one tree on rows ``rows`` of X and y depth first, left subtree
    before right, so that nodes come out in preorder and the per-node
    feature-subset draws happen in that order. ``columns`` is X.T
    (C-contiguous) and ``keys`` is ``rank_code(X)``; ``rows`` holds at most
    as many rows as X. Each node's rows keep their relative order. When
    ``fitted`` is given, each leaf's value is written to ``fitted[rows]``
    for the leaf's rows: the tree's prediction on those training rows, as
    they go down by the same ``x <= threshold`` test that prediction uses."""
    arrays = feature, threshold, value, n_samples, decrease = tuple([] for _ in TREE_ARRAYS)
    mask = (1 << _key_shift(keys.shape[1])) - 1
    positions = np.arange(len(rows), dtype=keys.dtype)
    subsets = _subsets(columns.shape[0], params.max_features, rng)
    stack = [(rows, 0)]
    while stack:
        rows, depth = stack.pop()
        n = len(rows)
        yn = y.take(rows)
        mean = float(np.add.reduce(yn)) / n  # the same float as yn.mean()
        found = None
        if (params.max_depth is None or depth < params.max_depth) and n >= params.min_samples_split:
            found = best_split(RankedRows(columns, keys, rows, mean, positions, mask), yn, next(subsets))
        fi, split, gain = found or (-1, 0.0, 0.0)
        feature.append(fi)
        threshold.append(split)
        value.append(mean)
        n_samples.append(n)
        decrease.append(gain)
        if found is not None:
            goes_left = columns[fi].take(rows) <= split
            stack += [(rows[~goes_left], depth + 1), (rows[goes_left], depth + 1)]
        elif fitted is not None:
            fitted[rows] = mean
    return Tree(*(np.array(v, dtype=int if name in INT_ARRAYS else float) for name, v in zip(TREE_ARRAYS, arrays)))


def _fit_inputs(X, y):
    """A tree fit's inputs: y aligned with X, then ``X.T`` (C-contiguous) and
    ``rank_code(X)``, which every tree of the fit reuses; DataError for
    misaligned or non-finite inputs, or zero rows."""
    X, y = _align(X, y)
    if len(y) == 0:
        raise DataError("cannot fit a tree model on zero rows")
    return y, np.ascontiguousarray(X.T), rank_code(X)


def fit_decision_tree(X, y, params):
    """Greedy CART fit; stops at max_depth, min_samples_split,
    or when no split reduces variance."""
    y, columns, keys = _fit_inputs(X, y)
    rng = np.random.default_rng(params.seed)
    return _grow(columns, keys, y, params, rng, np.arange(len(y)))


def _bootstrap(seed, t, n):
    """Tree t's generator, seeded with mix_seed(seed, t), and its bootstrap
    rows: n draws with replacement from 0..n-1, the generator's first draw.
    The grower then draws the tree's per-node feature subsets from it, in
    blocks of ``SUBSET_BLOCK`` rows of uniforms (see _subsets)."""
    rng = np.random.default_rng(mix_seed(seed, t))
    return rng, rng.integers(0, n, size=n)


def fit_random_forest(X, y, params, n_estimators):
    """Bagged forest: each tree fits a bootstrap resample of size n.

    Per-tree randomness (bootstrap draw and per-node feature subsets) comes
    from ``_bootstrap(params.seed, t, n)``, so the forest is reproducible no
    matter how trees are scheduled, and its first T trees are the T-tree
    forest of the same params.
    """
    y, columns, keys = _fit_inputs(X, y)
    trees = [_grow(columns, keys, y, params, *_bootstrap(params.seed, t, len(y))) for t in range(n_estimators)]
    return ForestModel(trees=trees, n_features=columns.shape[0])


def forest_oob(model, X, seed, sizes):
    """For each T of the ascending ``sizes``, the forest of the model's first
    T trees, its out-of-bag predictions on the training matrix X that the
    model was fit on with ``seed``, and the mask of the rows they score.

    Row i's prediction is the sum, in model order, of the predictions of the
    trees whose bootstrap left row i out, divided by their count: the mean
    that predict_forest takes over all trees, over those trees alone. A row
    that every one of the T trees drew has no prediction (0, and False in
    the mask). The sums run once over the largest size's trees.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    total, count = np.zeros(n), np.zeros(n, dtype=int)
    out = []
    for t, pred in enumerate(_each_tree(model.trees[: sizes[-1]], X)):
        missed = np.ones(n, dtype=bool)
        missed[_bootstrap(seed, t, n)[1]] = False
        total[missed] += pred[missed]
        count += missed
        if t + 1 in sizes:
            scored = count > 0
            prediction = np.divide(total, count, out=np.zeros(n), where=scored)
            out.append((ForestModel(trees=model.trees[: t + 1], n_features=model.n_features), prediction, scored))
    return out


def fit_gbt(X, y, rounds, learning_rate, tree_params):
    """Squared-error gradient boosting: base mean plus shrunken residual trees.

    rounds=0 is valid and yields the base-only model. Each round's training
    predictions come from the grower's leaves, which hold the same floats as
    ``predict_tree(stage, X)``.
    """
    y, columns, keys = _fit_inputs(X, y)
    base = float(y.mean())
    preds = np.full(len(y), base)
    fitted = np.empty(len(y))
    stages = []
    for r in range(rounds):
        residual = y - preds
        rng = np.random.default_rng(mix_seed(tree_params.seed, r))
        stages.append(_grow(columns, keys, residual, tree_params, rng, np.arange(len(y)), fitted))
        preds = preds + learning_rate * fitted
    return ForestModel(trees=stages, n_features=columns.shape[0], base_prediction=base, learning_rate=learning_rate)


class _Plan(NamedTuple):
    """The slot table of a run of a model's trees; see the module docstring."""

    feature: np.ndarray  # per slot, 0 at a leaf's slots
    threshold: np.ndarray  # per slot, 0 at a leaf's slots
    child: np.ndarray  # per slot, the even slot of the branch's child
    value: np.ndarray  # per leaf slot: slot first_leaf + i holds value[i]
    first_leaf: int
    roots: list  # each tree's root slot, in model order
    shallowest: list  # each tree's shallowest leaf depth


def _right_children(feature):
    """Each internal node's right child, as an index into ``feature``: the
    leaf flags of trees laid end to end (a leaf's entry means nothing). A
    tree's running sum starts 1 below the last one's start and stays at or
    above its own before its last node, so a node's sum within its tree is
    the running sum less its least value so far. A right child is its
    parent's successor in a stable sort by that sum, which numpy
    radix-sorts once cast to 16 bits or fewer."""
    step = (feature >= 0).view(np.int8) * np.int8(2) - np.int8(1)  # narrow dtypes: every plan build pays these passes
    before = np.cumsum(step, dtype=np.int32)
    before -= step
    before -= np.minimum.accumulate(before)
    order = np.argsort(before.astype(np.min_scalar_type(before.max(initial=0))), kind="stable")
    right = np.zeros(feature.size, dtype=np.int64)
    right[order[:-1]] = order[1:]
    return right


def _plan(trees, width):
    """The prediction plan of ``trees`` for rows ``width`` cells wide."""
    feature = np.concatenate([np.empty(0, dtype=int)] + [t.feature for t in trees])
    max_fi = int(feature.max(initial=-1))
    if max_fi >= width:
        # a row-major gather past the width would read the next row's cell
        raise DataError(f"tree references feature {max_fi} but input has {width}")
    sizes = np.array([t.feature.size for t in trees], dtype=int)
    starts = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    right = _right_children(feature)
    threshold = np.concatenate([np.empty(0)] + [t.threshold for t in trees])
    value = np.concatenate([np.empty(0)] + [t.value for t in trees])
    # breadth first over all trees at once, each tree only down to its first leaf
    shallowest = np.full(sizes.size, -1)
    level, depth = starts, 0
    while level.size:
        owner = tree_of.take(level)
        shallowest[owner[feature.take(level) < 0]] = depth
        level = level[shallowest.take(owner) < 0]  # internal nodes of trees still without a leaf
        level = np.concatenate([level + 1, right.take(level)])
        depth += 1

    internal = np.flatnonzero(feature >= 0)
    leaves = np.flatnonzero(feature < 0)
    first_leaf = 2 * internal.size
    slot_of = np.empty(feature.size, dtype=int)  # each node's even slot
    slot_of[internal] = np.arange(0, first_leaf, 2)
    slot_of[leaves] = np.arange(first_leaf, first_leaf + 2 * leaves.size, 2)
    branches = np.stack([slot_of.take(right.take(internal)), slot_of.take(internal + 1)], axis=1).ravel()
    return _Plan(
        feature=np.concatenate([np.repeat(feature.take(internal), 2), np.zeros(2 * leaves.size, dtype=int)]),
        threshold=np.concatenate([np.repeat(threshold.take(internal), 2), np.zeros(2 * leaves.size)]),
        child=np.concatenate([branches, np.repeat(slot_of.take(leaves), 2)]),
        value=np.repeat(value.take(leaves), 2),
        first_leaf=first_leaf,
        roots=slot_of.take(starts).tolist(),
        shallowest=shallowest.tolist(),
    )


def _runs(trees):
    """The trees in model order, cut into runs of at most PLAN_NODES nodes; a
    larger tree is a run of its own."""
    run, nodes = [], 0
    for tree in trees:
        if run and nodes + tree.feature.size > PLAN_NODES:
            yield run
            run, nodes = [], 0
        run.append(tree)
        nodes += tree.feature.size
    if run:
        yield run


def _each_tree(trees, X):
    """Yield each tree's predictions for the rows of X, in model order,
    walked through one plan per run of consecutive trees (see _runs)."""
    X = np.asarray(X, dtype=float)
    for run in _runs(trees):
        yield from _walk(run, X)


def _walk(trees, X):
    """Yield each tree's predictions for the rows of the float matrix X, in
    order, all walked through one plan."""
    plan = _plan(trees, X.shape[1])
    feature, threshold, child, first_leaf = plan.feature, plan.threshold, plan.child, plan.first_leaf
    # X[i, f] as flat[i * width + f]: one 1-D gather, cheaper than X[rows, f]
    flat = X.ravel()
    all_rows = np.arange(X.shape[0])
    all_start = all_rows * X.shape[1]

    def step(slot, start):
        return child.take(slot + (flat.take(start + feature.take(slot)) <= threshold.take(slot)))

    for root, shallowest in zip(plan.roots, plan.shallowest):
        out = np.empty(X.shape[0])
        rows, start = all_rows, all_start
        if shallowest:  # every row takes the root's one test: a column compare
            slot = child.take(root + (X[:, feature.item(root)] <= threshold.item(root)))
        else:
            slot = np.full(X.shape[0], root)
        # no row reaches a leaf before the tree's shallowest one
        for _ in range(shallowest - 1):
            slot = step(slot, start)
        while True:
            done = slot >= first_leaf
            # drop finished rows only once they are half of those left: dropping
            # them at every level costs more than the steps it saves
            if 2 * np.count_nonzero(done) >= slot.size:
                # positions, then takes: a boolean mask gathers far slower
                finished, left = done.nonzero()[0], (~done).nonzero()[0]
                out[rows.take(finished)] = plan.value.take(slot.take(finished) - first_leaf)
                rows, start, slot = rows.take(left), start.take(left), slot.take(left)
                if not rows.size:
                    break
            slot = step(slot, start)
        yield out


def predict_tree(tree, X):
    """Route all rows down together, one predicated step per level."""
    (out,) = _each_tree([tree], X)
    return out


def predict_forest(model, X):
    """The tree model's prediction: its base plus each tree's prediction
    times the learning rate (1 for a forest), in model order, then divided
    by the tree count unless the model is boosted."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.n_features:
        raise DataError(f"tree model expects {model.n_features} features, got {X.shape[1]}")
    out = np.full(X.shape[0], model.base_prediction)
    for pred in _each_tree(model.trees, X):
        out += (model.learning_rate or 1.0) * pred
    return out if model.learning_rate else out / len(model.trees)


def predict_gbt(model, X):
    """predict_forest under the name the benchmark tracer times boosting by;
    the package itself calls predict_forest."""
    return predict_forest(model, X)


def impurity_by_feature(trees, n_features):
    """Sum n_samples * impurity_decrease per split feature over fitted
    ``trees``, adding in tree order, then node order."""
    feature = np.concatenate([np.empty(0, dtype=int)] + [t.feature for t in trees])
    gain = np.concatenate([np.empty(0)] + [t.n_samples * t.impurity_decrease for t in trees])
    internal = feature >= 0
    return np.bincount(feature[internal], weights=gain[internal], minlength=n_features)


# --- bundle codec: one packed block per model ---------------------------------

def _feature_dtype(n_features):
    """The narrowest little-endian integer that holds -1 and ``n_features - 1``."""
    return next((dtype for dtype in ("<i1", "<i2") if n_features - 1 <= np.iinfo(dtype).max), "<i4")


def _pack(a):
    return base64.b64encode(zlib.compress(np.asarray(a).tobytes())).decode("ascii")


def _unpack(text, name, dtype, count, held_by):
    """The ``count`` entries that base64 ``text`` holds as one zlib stream;
    DataError for anything else. The inflate stops one byte past the
    entries' bytes, so a stream that holds more is caught without being
    inflated (``held_by`` names the nodes the entries belong to)."""
    if not isinstance(text, str):
        raise DataError(f"tree block {name!r} must be a base64 string")
    try:
        packed = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise DataError(f"tree block {name!r} is not valid base64 ({exc})") from None
    size = count * np.dtype(dtype).itemsize
    inflater = zlib.decompressobj()
    try:
        # never a max_length of 0, which zlib reads as no limit
        raw = inflater.decompress(packed, size + 1)
    except zlib.error as exc:
        raise DataError(f"tree block {name!r} is not a zlib stream ({exc})") from None
    if len(raw) > size:
        raise DataError(f"tree block {name!r} inflates past the {size} bytes of its {count} {held_by}")
    if not inflater.eof:
        raise DataError(f"tree block {name!r} is a truncated zlib stream")
    if inflater.unused_data:
        raise DataError(f"tree block {name!r} has {len(inflater.unused_data)} bytes after its zlib stream")
    if len(raw) < size:
        raise DataError(f"tree block {name!r} inflates to {len(raw)} bytes, not the {size} of its {count} {held_by}")
    return np.frombuffer(raw, dtype=dtype)


def trees_to_block(trees, n_features):
    """The trees of a model with ``n_features`` columns as one packed block:
    ``sizes`` (each tree's node count) and three deflated base64 arrays of
    the nodes in preorder, trees in order, holding what prediction reads and
    the leaf flags cannot give: ``feature`` per node (-1 at a leaf) in
    ``_feature_dtype(n_features)``, ``threshold`` per internal node and
    ``value`` per leaf as 8 byte planes."""
    feature = np.concatenate([np.empty(0, dtype=int)] + [t.feature for t in trees])
    internal = feature >= 0
    threshold = np.concatenate([np.empty(0)] + [t.threshold for t in trees])[internal]
    value = np.ascontiguousarray(np.concatenate([np.empty(0)] + [t.value for t in trees])[~internal], dtype="<f8")
    return {
        "sizes": [int(t.feature.size) for t in trees],
        "feature": _pack(feature.astype(_feature_dtype(n_features))),
        "threshold": _pack(threshold.astype("<f8")),
        # row k of the transposed (leaves, 8) byte matrix is plane k
        "value": _pack(value.view(np.uint8).reshape(-1, 8).T),
    }


def trees_from_block(block, n_features):
    """Decode the packed block of a model with ``n_features`` columns into
    its trees, each a view into the block's arrays, rejecting what
    predict_tree could not walk to a leaf: arrays that do not inflate to the
    counts that ``sizes`` and ``feature`` give, non-finite numbers, a split
    feature that is not a column below ``n_features``, and leaf flags that
    break the shape rule, which prediction reads the right children from.
    Entries the block does not hold (``threshold`` at a leaf, ``value`` at an
    internal node) are 0; the split statistics are None."""
    sizes = block["sizes"]
    # sizes below 2**31 keep the inflate's byte counts (8 a node) within zlib's C ssize_t
    if not isinstance(sizes, list) or not all(type(s) is int and 1 <= s < 2**31 for s in sizes):
        raise DataError("tree block 'sizes' must be a list of positive integers below 2**31")
    n = sum(sizes)
    feature = _unpack(block["feature"], "feature", _feature_dtype(n_features), n, "nodes")
    # the other arrays inflate to counts taken from the packed feature array,
    # before any wider copy of it, so that a block whose sizes claim more
    # nodes than its streams hold costs no more than the inflate of feature
    n_internal = int(np.count_nonzero(feature >= 0))
    threshold = _unpack(block["threshold"], "threshold", "<f8", n_internal, "internal nodes")
    planes = _unpack(block["value"], "value", "<f8", n - n_internal, "leaves")
    # plane k is row k of an (8, leaves) byte matrix; its transpose holds the values
    value = np.ascontiguousarray(planes.view(np.uint8).reshape(8, -1).T).view("<f8").ravel()
    for name, a in (("threshold", threshold), ("value", value)):
        if not np.isfinite(a).all():
            raise DataError(f"tree block {name!r} must hold finite numbers")
    feature = feature.astype(np.int64)
    outside = (feature < -1) | (feature >= n_features)
    if outside.any():
        k = int(outside.argmax())
        raise DataError(
            f"tree block 'feature' holds {feature[k]} at node {k}, neither -1 (a leaf) nor a column below {n_features}"
        )
    internal = feature >= 0

    sizes = np.array(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # the shape rule: a tree's sum after a node first falls below 0 at its last node
    step = np.where(internal, 1, -1)
    after = np.cumsum(step)
    after -= np.repeat(after[starts] - step[starts], sizes)
    wrong = after < 0
    wrong[ends - 1] ^= True
    if wrong.any():
        k = int(wrong.argmax())
        t = int(np.searchsorted(ends, k, side="right"))
        shape = "leave it open at its last node" if k == ends[t] - 1 else f"close it at node {k - starts[t]}"
        raise DataError(f"tree {t} of {sizes[t]} nodes breaks the shape rule: its leaf flags {shape}")

    arrays = {"feature": feature, "threshold": np.zeros(n), "value": np.zeros(n)}
    arrays["threshold"][internal] = threshold
    arrays["value"][~internal] = value
    return [Tree(**{name: a[s:e] for name, a in arrays.items()}) for s, e in zip(starts.tolist(), ends.tolist())]


# a model dict holds fitted state alone: the parameters a model was fit with
# are stored once, in its bundle member's params, which give the tree count
# and a boosted model's learning rate
def forest_to_dict(model):
    """The tree model's fitted state; ``base_prediction`` for a boosted model only."""
    d = {"n_features": model.n_features, "trees": trees_to_block(model.trees, model.n_features)}
    if model.learning_rate is not None:
        d["base_prediction"] = model.base_prediction
    return d


def forest_from_dict(d, n_trees, learning_rate=None):
    """Decode a tree model whose block must hold ``n_trees`` trees: its
    member's n_estimators, rounds, or 1 for a decision tree. Given a
    ``learning_rate``, the model is boosted and reads its ``base_prediction``,
    made a float, as an int would make predict_forest's sum an int array."""
    n_features = whole_number(d["n_features"], "n_features", 0)
    decoded = trees_from_block(d["trees"], n_features)
    if len(decoded) != n_trees:
        raise DataError(f"tree block holds {len(decoded)} trees, but its params give {n_trees}")
    base = 0.0 if learning_rate is None else float(finite_number(d["base_prediction"], "base_prediction"))
    return ForestModel(decoded, n_features, base, learning_rate)

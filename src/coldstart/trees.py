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
``right``. ``value`` is the node's target mean, ``n_samples`` its row
count and ``impurity_decrease`` the delta of its split (0 at a leaf).

A bundle stores each model's trees as one packed block: the node count of
each tree, and four arrays over the nodes in preorder, trees in model
order, each stored as fixed little-endian bytes, deflated by zlib at its
default level and base64-encoded. They hold only what prediction reads:
``feature`` for every node, ``right`` and ``threshold`` for each internal
node, and ``value`` for each leaf. The decoder reads the node count from
``sizes`` first and inflates ``feature`` to exactly that many entries, then
the other arrays to the internal-node and leaf counts that ``feature``
gives, before any wider copy of ``feature``; no inflate writes more than
one byte past the entries it expects, so a small stream that claims to
hold more cannot make a large array. Each array is then one
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
Asadi, Lin & de Vries 2014), through one plan per call that holds all the
trees of a model. The plan is a slot table over the model's nodes, trees in
model order. Internal node j (counting internal nodes only) owns slots
``2*j + b``, its branch b, with b = 1 where ``x <= threshold`` (left) and
0 otherwise (right), so a NaN cell goes right; ``feature`` and
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
A breadth-first pass over all trees at once, made when the plan is built,
gives each tree's shallowest leaf depth: no row can finish before it, so
the walk takes that many steps before it looks for finished rows. The
first step compares the root's column, where every row still is. After
that, finished rows are dropped once they are half of the rows left. A
forest adds each tree into its sum in model order and then divides by the
tree count; boosting adds ``learning_rate * prediction`` in stage order.
"""

import base64
import math
import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import FeatureMatrix
from .errors import DataError
from .util import finite_number, mix_seed

MAX_FEATURES_MODES = ("all", "third", "sqrt")


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
    right: np.ndarray  # int id of the right child; the left child is the next node
    value: np.ndarray
    # split statistics for impurity importance; None in a decoded tree
    n_samples: np.ndarray | None = None  # int
    impurity_decrease: np.ndarray | None = None


TREE_ARRAYS = tuple(f.name for f in fields(Tree))
INT_ARRAYS = ("feature", "right", "n_samples")


@dataclass
class ForestModel:
    trees: list
    n_features: int


@dataclass
class GbtModel:
    base_prediction: float
    stages: list
    learning_rate: float
    n_features: int


def as_matrix(X):
    if isinstance(X, FeatureMatrix):
        return X.values
    return np.asarray(X, dtype=float)


def _align(X, y):
    X = as_matrix(X)
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


def _feature_subset(p, mode, rng):
    if mode == "all":
        return None
    m = max(1, p // 3 if mode == "third" else int(math.sqrt(p)))
    return rng.choice(p, size=m, replace=False)


def _grow(columns, keys, y, params, rng, rows, fitted=None):
    """Grow one tree on rows ``rows`` of X and y depth first, left subtree
    before right, so that nodes come out in preorder and the per-node
    feature-subset draws happen in that order. ``columns`` is X.T
    (C-contiguous) and ``keys`` is ``rank_code(X)``; ``rows`` holds at most
    as many rows as X. Each node's rows keep their relative order. When
    ``fitted`` is given, each leaf's value is written to ``fitted[rows]``
    for the leaf's rows: the tree's prediction on those training rows, as
    they go down by the same ``x <= threshold`` test that prediction uses."""
    arrays = feature, threshold, right, value, n_samples, decrease = tuple([] for _ in TREE_ARRAYS)
    mask = (1 << _key_shift(keys.shape[1])) - 1
    positions = np.arange(len(rows), dtype=keys.dtype)
    stack = [(rows, 0, -1)]  # rows, depth, parent of a right child
    while stack:
        rows, depth, parent = stack.pop()
        node = len(value)
        if parent >= 0:
            right[parent] = node
        n = len(rows)
        yn = y.take(rows)
        mean = float(np.add.reduce(yn)) / n  # the same float as yn.mean()
        found = None
        if (params.max_depth is None or depth < params.max_depth) and n >= params.min_samples_split:
            subset = _feature_subset(columns.shape[0], params.max_features, rng)
            found = best_split(RankedRows(columns, keys, rows, mean, positions, mask), yn, subset)
        fi, split, gain = found or (-1, 0.0, 0.0)
        feature.append(fi)
        threshold.append(split)
        right.append(-1)
        value.append(mean)
        n_samples.append(n)
        decrease.append(gain)
        if found is not None:
            goes_left = columns[fi].take(rows) <= split
            stack += [(rows[~goes_left], depth + 1, node), (rows[goes_left], depth + 1, -1)]
        elif fitted is not None:
            fitted[rows] = mean
    return Tree(*(np.array(v, dtype=int if name in INT_ARRAYS else float) for name, v in zip(TREE_ARRAYS, arrays)))


def fit_decision_tree(X, y, params):
    """Greedy CART fit; stops at max_depth, min_samples_split,
    or when no split reduces variance."""
    X, y = _align(X, y)
    if len(y) == 0:
        raise DataError("cannot fit a tree on zero rows")
    rng = np.random.default_rng(params.seed)
    return _grow(np.ascontiguousarray(X.T), rank_code(X), y, params, rng, np.arange(len(y)))


def fit_random_forest(X, y, params, n_estimators, bootstrap=True):
    """Bagged forest: each tree fits a bootstrap resample of size n.

    Per-tree randomness (bootstrap draw and per-node feature subsets) comes
    from a generator seeded with mix_seed(params.seed, tree_index), so the
    forest is reproducible no matter how trees are scheduled.
    ``bootstrap=False`` fits every tree on the identity sample (test hook).
    """
    X, y = _align(X, y)
    n = len(y)
    columns, keys = np.ascontiguousarray(X.T), rank_code(X)
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng(mix_seed(params.seed, t))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow(columns, keys, y, params, rng, rows))
    return ForestModel(trees=trees, n_features=X.shape[1])


def fit_gbt(X, y, rounds, learning_rate, tree_params):
    """Squared-error gradient boosting: base mean plus shrunken residual trees.

    rounds=0 is valid and yields the base-only model. Each round's training
    predictions come from the grower's leaves, which hold the same floats as
    ``predict_tree(stage, X)``.
    """
    X, y = _align(X, y)
    if len(y) == 0:
        raise DataError("cannot fit on zero rows")
    base = float(y.mean())
    preds = np.full(len(y), base)
    columns, keys = np.ascontiguousarray(X.T), rank_code(X)
    fitted = np.empty(len(y))
    stages = []
    for r in range(rounds):
        residual = y - preds
        rng = np.random.default_rng(mix_seed(tree_params.seed, r))
        stages.append(_grow(columns, keys, residual, tree_params, rng, np.arange(len(y)), fitted))
        preds = preds + learning_rate * fitted
    return GbtModel(
        base_prediction=base,
        stages=stages,
        learning_rate=learning_rate,
        n_features=X.shape[1],
    )


def _check_width(X, n_features, what):
    if X.shape[1] != n_features:
        raise DataError(f"{what} expects {n_features} features, got {X.shape[1]}")


class _Plan(NamedTuple):
    """The slot table of all the trees of a model; see the module docstring."""

    feature: np.ndarray  # per slot, 0 at a leaf's slots
    threshold: np.ndarray  # per slot, 0 at a leaf's slots
    child: np.ndarray  # per slot, the even slot of the branch's child
    value: np.ndarray  # per leaf slot: slot first_leaf + i holds value[i]
    first_leaf: int
    roots: list  # each tree's root slot, in model order
    shallowest: list  # each tree's shallowest leaf depth


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
    right = np.concatenate([np.empty(0, dtype=int)] + [t.right for t in trees]) + starts.take(tree_of)
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


def _each_tree(trees, X):
    """Yield each tree's predictions for the rows of X, in model order, all
    walked through one plan."""
    X = as_matrix(X)
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
    X = as_matrix(X)
    _check_width(X, model.n_features, "forest")
    acc = np.zeros(X.shape[0])
    for pred in _each_tree(model.trees, X):
        acc += pred
    return acc / len(model.trees)


def predict_gbt(model, X):
    X = as_matrix(X)
    _check_width(X, model.n_features, "gbt")
    out = np.full(X.shape[0], model.base_prediction)
    for pred in _each_tree(model.stages, X):
        out += model.learning_rate * pred
    return out


def impurity_by_feature(trees, n_features):
    """Sum n_samples * impurity_decrease per split feature over fitted
    ``trees``, adding in tree order, then node order."""
    feature = np.concatenate([np.empty(0, dtype=int)] + [t.feature for t in trees])
    gain = np.concatenate([np.empty(0)] + [t.n_samples * t.impurity_decrease for t in trees])
    internal = feature >= 0
    return np.bincount(feature[internal], weights=gain[internal], minlength=n_features)


# --- bundle codec: one packed block per model ---------------------------------

# a block's arrays: its key, the little-endian dtype it is packed as, and the
# nodes it holds an entry for (internal nodes or leaves; None for every node)
BLOCK_ARRAYS = (
    ("feature", "<i4", None),
    ("right", "<i4", True),
    ("threshold", "<f8", True),
    ("value", "<f8", False),
)


def _pack(a, dtype):
    return base64.b64encode(zlib.compress(np.ascontiguousarray(a, dtype=dtype).tobytes())).decode("ascii")


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


def trees_to_block(trees):
    """The trees as one packed block: ``sizes`` (each tree's node count) and
    four deflated base64 arrays of the nodes in preorder, trees in order,
    holding what prediction reads: ``feature`` per node (-1 at a leaf),
    ``right`` (tree-local id) and ``threshold`` per internal node, ``value``
    per leaf."""
    internal = np.concatenate([np.empty(0, dtype=bool)] + [t.feature >= 0 for t in trees])
    block = {"sizes": [int(t.feature.size) for t in trees]}
    for name, dtype, at_internal in BLOCK_ARRAYS:
        nodes = np.concatenate([np.empty(0, dtype=dtype)] + [getattr(t, name) for t in trees])
        block[name] = _pack(nodes if at_internal is None else nodes[internal == at_internal], dtype)
    return block


def trees_from_block(block):
    """Decode a packed block into its trees, each a view into the block's
    arrays, rejecting what predict_tree could not walk to a leaf: arrays
    that do not inflate to the counts that ``sizes`` and ``feature`` give,
    an internal last node, a right child that does not come after its left
    sibling, a node that is not the child of exactly one node, and
    non-finite numbers. Entries the block does not hold (``right`` and
    ``threshold`` at a leaf, ``value`` at an internal node) are 0; the
    split statistics are None."""
    sizes = block["sizes"]
    # a tree-local right id is an <i4, so no tree holds 2**31 nodes
    if not isinstance(sizes, list) or not all(type(s) is int and 1 <= s < 2**31 for s in sizes):
        raise DataError("tree block 'sizes' must be a list of positive integers below 2**31")
    n = sum(sizes)
    feature = _unpack(block["feature"], "feature", "<i4", n, "nodes")
    # the other arrays inflate to counts taken from the <i4 array, before any
    # wider copy of it, so that a block whose sizes claim more nodes than its
    # streams hold costs no more than the inflate of feature
    n_internal = int(np.count_nonzero(feature >= 0))
    counts = {True: (n_internal, "internal nodes"), False: (n - n_internal, "leaves")}
    packed = {name: _unpack(block[name], name, dtype, *counts[at]) for name, dtype, at in BLOCK_ARRAYS[1:]}
    for name in ("threshold", "value"):
        if not np.isfinite(packed[name]).all():
            raise DataError(f"tree block {name!r} must hold finite numbers")
    feature = feature.astype(np.int64)
    internal = feature >= 0
    parent = np.flatnonzero(internal)

    sizes = np.array(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    tree_of = np.searchsorted(ends, parent, side="right")  # each internal node's tree
    end = ends[tree_of]
    last = parent + 1 >= end
    if last.any():
        t = int(tree_of[last.argmax()])
        raise DataError(f"tree {t} node {sizes[t] - 1} is internal but has no next node for its left child")
    right = packed["right"].astype(np.int64)
    child = right + starts[tree_of]
    outside = (child <= parent + 1) | (child >= end)
    if outside.any():
        t = int(tree_of[outside.argmax()])
        raise DataError(f"tree {t} has a right child outside (left child, {sizes[t]})")
    # children lie after their parent in its tree, so a tree's first node is
    # no node's child; every other node must be the child of exactly one
    # node, or it is shared by two paths or on none
    parents = np.bincount(np.concatenate([parent + 1, child]), minlength=n)
    parents[starts] = 1
    wrong = np.flatnonzero(parents != 1)
    if wrong.size:
        k = int(wrong[0])
        t = int(np.searchsorted(ends, k, side="right"))
        raise DataError(f"tree {t} node {k - starts[t]} is the child of {parents[k]} nodes, not of one")

    arrays = {"feature": feature, "right": np.zeros(n, dtype=np.int64), "threshold": np.zeros(n), "value": np.zeros(n)}
    arrays["right"][parent] = right
    arrays["threshold"][parent] = packed["threshold"]
    arrays["value"][~internal] = packed["value"]
    return [Tree(**{name: a[s:e] for name, a in arrays.items()}) for s, e in zip(starts.tolist(), ends.tolist())]


# a model dict holds fitted state alone: the parameters a model was fit with
# are stored once, in its bundle member's params
def forest_to_dict(model):
    return {"n_features": model.n_features, "trees": trees_to_block(model.trees)}


def forest_from_dict(d):
    forest = trees_from_block(d["trees"])
    if not forest:
        raise DataError("a forest needs at least one tree")
    return ForestModel(trees=forest, n_features=d["n_features"])


def gbt_to_dict(model):
    return {
        "base_prediction": model.base_prediction,
        "n_features": model.n_features,
        "trees": trees_to_block(model.stages),
    }


def gbt_from_dict(d, learning_rate):
    """Decode a gbt model; ``learning_rate`` comes from its member's params."""
    return GbtModel(
        base_prediction=finite_number(d["base_prediction"], "gbt base_prediction"),
        stages=trees_from_block(d["trees"]),
        learning_rate=learning_rate,
        n_features=d["n_features"],
    )


def decision_tree_to_dict(tree):
    return {"trees": trees_to_block([tree])}


def decision_tree_from_dict(d):
    decoded = trees_from_block(d["trees"])
    if len(decoded) != 1:
        raise DataError(f"a decision tree block must hold one tree, not {len(decoded)}")
    return decoded[0]

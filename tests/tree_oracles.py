"""A reference reading of tree shapes and of the packed block's byte
layout, shared by the tests."""

import numpy as np


def stack_right(feature):
    """Each internal node's right child, as a node id into ``feature``: the
    leaf flags (-1 at a leaf) of full binary trees laid end to end, each in
    preorder. A stack parse, independent of the sort in trees._right_children: a node after a
    leaf is the right child of the latest internal node still waiting for
    one, and a node after an internal node is that node's left child. A
    leaf's entry is -1."""
    right = np.full(len(feature), -1)
    waiting = []
    flags = np.asarray(feature).tolist()
    for k, f in enumerate(flags):
        if k and flags[k - 1] < 0 and waiting:  # a tree's root follows a leaf, with none waiting
            right[waiting.pop()] = k
        if f >= 0:
            waiting.append(k)
    return right


def feature_dtype(n_features):
    """The feature stream's dtype for a model ``n_features`` columns wide:
    int8 up to 128 columns, int16 up to 32 768, else int32."""
    return "<i1" if n_features <= 128 else "<i2" if n_features <= 32_768 else "<i4"


def planes(values):
    """The <f8 ``values`` as a block stores leaf values: byte 0 of every value, then byte 1, ..."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return b"".join(raw[k::8] for k in range(8))


def unplaned(raw):
    """The <f8 values whose byte planes ``raw`` holds."""
    n = len(raw) // 8
    return np.frombuffer(bytes(raw[k * n + i] for i in range(n) for k in range(8)), dtype="<f8")

"""A reference reading of tree shapes, shared by the tests."""

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

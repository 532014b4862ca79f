"""Primitives the library no longer needs, kept as test oracles."""

import numpy as np

from logotree.autodiff import Tensor, record


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice ``[start, start+length)`` along one axis, its
    backward pass one zero array of ``a``'s shape per call."""
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return record(Tensor(a.data[index].copy()), (a,), backward)

"""Primitives the library no longer needs, kept as test oracles."""

from dataclasses import dataclass

import numpy as np

from logotree.autodiff import Tensor, record
from logotree.errors import ParseError, StructureError
from logotree.ids import ALL_IDCS, TERNARY_IDCS, GlyphTree, Leaf, Op, _join


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


@dataclass(frozen=True)
class Nary:
    """Inner node as parsed, before ternary rewriting (arity 2 or 3)."""

    idc: str
    children: tuple


def _parse_raw(expr) -> Leaf | Nary:
    """Prefix-notation parse keeping ternary nodes; consumes every token."""
    tokens = list(expr)
    if not tokens:
        raise ParseError("empty expression")
    pos = 0

    def parse_one():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"dangling operator: operand missing at token {pos}")
        tok = tokens[pos]
        pos += 1
        if tok in ALL_IDCS:
            arity = 3 if tok in TERNARY_IDCS else 2
            children = tuple(parse_one() for _ in range(arity))
            return Nary(tok, children)
        return Leaf(tok)

    tree = parse_one()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens from index {pos}: {tokens[pos:]}")
    return tree


def binarize(node) -> GlyphTree:
    """Rewrite ternary nodes into two nested binary nodes.

    ⿲ a b c becomes ⿰(a, ⿰(b, c)) and ⿳ a b c becomes ⿱(a, ⿱(b, c)),
    preserving left-to-right leaf order. Already-binary input is returned
    structurally unchanged.
    """
    if isinstance(node, Leaf):
        return node
    if isinstance(node, Op):
        return Op(node.idc, binarize(node.left), binarize(node.right))
    if isinstance(node, Nary):
        return _join(node.idc, [binarize(c) for c in node.children])
    raise StructureError(f"unsupported node type {type(node).__name__}")


def parse_ids(expr) -> GlyphTree:
    """Parse a prefix expression into a strictly binary tree by way of a
    full parse tree: the reference that ``ids.decompose``, which builds
    none, is checked against."""
    return binarize(_parse_raw(expr))

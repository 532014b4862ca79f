"""Primitives the library no longer needs, kept as test oracles, and the
digest that pins a trained model's bits."""

import hashlib
from dataclasses import dataclass

import numpy as np

from logotree import encoders as enc
from logotree.autodiff import Tensor, record, rows
from logotree.errors import ParseError, StructureError
from logotree.ids import ALL_IDCS, TERNARY_IDCS, GlyphTree, Leaf, Op, _join


def params_digest(model) -> str:
    """The sha256 of a model's parameters, by name, names sorted."""
    digest = hashlib.sha256()
    for name, t in sorted(model.params().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(t.data).tobytes())
    return digest.hexdigest()


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


def all_slot_forest(trees, embeds, p) -> np.ndarray:
    """Untaped root hidden states of ``trees``, row k that of ``trees[k]``,
    by the level walk the tree kernel's slices replaced: over a shared
    schedule, one product per term and gate of each whole level, with (h, c)
    kept for every slot and the input rows it reads kept to the end, as for
    a tape entry. The yardstick of the kernel's rows and memory."""
    schedule = enc.build_level_schedule(trees, share=True)
    tok = embeds.token_ids(schedule.label)
    bias = "b" if p.use_bias else None
    h = np.empty((schedule.total_slots, p.hidden), dtype=embeds.table.data.dtype)
    c = np.empty_like(h)
    read = []
    for lvl, span in enumerate(schedule.levels):
        level = slice(span.start, span.stop)
        xs = [rows(embeds.table, tok[level]).data]
        if lvl == 0:
            kids, gates, terms = (), ("i", "o", "c"), [("V", xs[0])]
        else:
            kids = (schedule.left[level], schedule.right[level])
            xs += [rows(embeds.table, tok[kid]).data for kid in kids]
            gates = enc.GATES
            terms = enc._tree_terms(p, h[kids[0]], h[kids[1]], xs)
        read.append(xs if lvl == 0 or p.operator_inputs else ())
        act = enc._cell_gates(p.packed, enc.GATES, terms, bias, gates)
        # tanh(c) is kept, as were the gates, until the next level's replace it
        _, tc = enc._cell_state(act, zip(("fl", "fr"), (c[kid] for kid in kids)),
                                h[level], c[level])
    return Tensor(h[schedule.roots]).data

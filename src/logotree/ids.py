"""Recursive decomposition of Han logographs into binary trees.

Rules come from Ideographic Description Sequence (IDS) databases in the
CHISE text layout: one ``U+XXXX<TAB>char<TAB>expression`` line per
logograph, the expression in prefix notation over the description operators
U+2FF0..U+2FFB. Ternary operators are rewritten into nested binary ones, so
every tree handed to the encoders is strictly binary.

Each ``RuleTable`` expands into one ``Forest``: every distinct expanded
subtree is one node id, built once and shared by every tree that holds it.
"""

from __future__ import annotations

import logging
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .atomic import read_text
from .errors import CycleError, ExpansionError, ParseError, StructureError

log = logging.getLogger(__name__)

#: Binary description operators (the only ones that survive binarization).
BINARY_IDCS = frozenset("⿰⿱⿴⿵⿶⿷⿸⿹⿺⿻")
#: Ternary operators: ⿲ (three across) and ⿳ (three down).
IDC_ACROSS3 = "⿲"
IDC_DOWN3 = "⿳"
TERNARY_IDCS = frozenset((IDC_ACROSS3, IDC_DOWN3))
ALL_IDCS = BINARY_IDCS | TERNARY_IDCS
#: Operand count of every description operator.
_ARITY = dict.fromkeys(BINARY_IDCS, 2) | dict.fromkeys(TERNARY_IDCS, 3)
#: A 4-bit code per binary operator, for the forest's node keys.
_IDC_CODE = {idc: k for k, idc in enumerate(sorted(BINARY_IDCS))}
#: Serializes node creation, so threads expanding one table never give two
#: nodes one id or one subtree two ids.
_INTERN_LOCK = threading.Lock()

IDC_ACROSS = "⿰"  # ⿰
IDC_DOWN = "⿱"    # ⿱

#: Leaf used for characters absent from the rule table entirely.
UNK_TOKEN = "<UNK>"

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True, slots=True)
class Leaf:
    token: str

    def __repr__(self):
        return f"Leaf({self.token})"


@dataclass(frozen=True, slots=True)
class Op:
    """Strictly binary inner node labeled with a description operator."""

    idc: str
    left: "GlyphTree"
    right: "GlyphTree"

    def __repr__(self):
        return f"Op({self.idc}, {self.left!r}, {self.right!r})"


GlyphTree = Leaf | Op


class LinearOrder(Enum):
    PRE = "pre"
    POST = "post"
    IN = "in"


@dataclass(frozen=True, slots=True)
class Ids:
    """One decomposition rule: a logograph and its prefix expression."""

    codepoint: int | None
    expr: tuple[str, ...]


class Forest:
    """Interned binary nodes, one id per distinct subtree.

    Node ids index parallel arrays: ``label`` (a leaf's token or an inner
    node's operator), ``left`` and ``right`` (child ids, -1 for a leaf),
    ``height`` (0 for a leaf) and ``node`` (the node's one ``Leaf``/``Op``,
    built when the id is). A leaf is interned by its token and an inner node
    by ``(idc, left, right)``, packed into one int, so children always have
    smaller ids than their parent and equal subtrees are one object.
    """

    __slots__ = ("label", "left", "right", "height", "node", "_ids")

    def __init__(self):
        self.label: list[str] = []
        self.left = array("i")
        self.right = array("i")
        self.height = array("i")
        self.node: list[GlyphTree] = []
        self._ids: dict[str | int, int] = {}

    def __len__(self) -> int:
        return len(self.node)

    def leaf(self, token: str) -> int:
        nid = self._ids.get(token)
        if nid is None:
            with _INTERN_LOCK:
                nid = self._ids.get(token)
                if nid is None:
                    nid = self._add(token, token, -1, -1, 0, Leaf(token))
        return nid

    def join(self, idc: str, kids: list[int]) -> int:
        """The binary node of operator ``idc`` over two or three child ids,
        rewritten as ``_join`` rewrites tree nodes."""
        return _join(idc, kids, self._op)

    def _op(self, idc: str, left: int, right: int) -> int:
        # an int key, unlike a tuple, is neither a container for the cyclic
        # garbage collector nor twice the memory
        key = (left << 32 | right) << 4 | _IDC_CODE[idc]
        nid = self._ids.get(key)
        if nid is None:
            with _INTERN_LOCK:
                nid = self._ids.get(key)
                if nid is None:
                    height, node = self.height, self.node
                    nid = self._add(key, idc, left, right,
                                    1 + max(height[left], height[right]),
                                    Op(idc, node[left], node[right]))
        return nid

    def _add(self, key, label, left, right, height, node) -> int:
        nid = len(self.node)
        self.label.append(label)
        self.left.append(left)
        self.right.append(right)
        self.height.append(height)
        self.node.append(node)
        self._ids[key] = nid  # published once every array holds the node
        return nid


@dataclass
class RuleTable:
    """Immutable-after-load rule set; safe for concurrent reads."""

    rules: dict[str, Ids] = field(default_factory=dict)
    leaf_set: set[str] = field(default_factory=set)
    skipped_lines: int = 0
    duplicate_lines: int = 0
    atomic_entries: int = 0
    # filled by ``decompose``: every expanded node, and for each expanded
    # token its node id and the length of its longest rule chain
    forest: Forest = field(default_factory=Forest, compare=False, repr=False)
    expansions: dict[str, tuple[int, int]] = field(
        default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# tokenizing and parsing
# ---------------------------------------------------------------------------

def tokenize_ids(text: str) -> list[str]:
    """Split an IDS string into tokens.

    Bracketed annotations like ``[GT]`` are metadata, not structure, and are
    stripped. ``&name;`` entity references (components with no codepoint)
    are kept as single tokens.
    """
    if "[" not in text and "&" not in text:  # every non-space char is a token
        return list("".join(text.split()))
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise ParseError(f"unterminated annotation at index {i}")
            i = end + 1
        elif ch == "&":
            end = text.find(";", i)
            if end < 0:
                raise ParseError(f"unterminated entity at index {i}")
            tokens.append(text[i:end + 1])
            i = end + 1
        elif ch.isspace():
            i += 1
        else:
            tokens.append(ch)
            i += 1
    return tokens


def _check_syntax(tokens) -> None:
    """Raise the ``ParseError`` that a full prefix-notation parse would raise
    on ``tokens``, building nothing: a prefix expression is whole when its
    count of missing operands first reaches zero at its last token."""
    if not tokens:
        raise ParseError("empty expression")
    missing = 1
    for pos, tok in enumerate(tokens):
        if not missing:
            raise ParseError(f"trailing tokens from index {pos}: {list(tokens[pos:])}")
        missing += _ARITY.get(tok, 0) - 1
    if missing:
        raise ParseError(f"dangling operator: operand missing at token {len(tokens)}")


def _join(idc: str, kids: list, make=Op):
    """The binary node of operator ``idc`` over already-binary children,
    built by ``make(idc, left, right)``: ⿲ a b c becomes ⿰(a, ⿰(b, c))
    and ⿳ a b c becomes ⿱(a, ⿱(b, c))."""
    if len(kids) == 2:
        return make(idc, kids[0], kids[1])
    if len(kids) == 3:
        inner = IDC_ACROSS if idc == IDC_ACROSS3 else IDC_DOWN
        return make(inner, kids[0], make(inner, kids[1], kids[2]))
    raise StructureError(f"node arity {len(kids)} not in {{0,2,3}}")


# ---------------------------------------------------------------------------
# rule table loading
# ---------------------------------------------------------------------------

def load_rule_table(path) -> RuleTable:
    """Load a CHISE-layout IDS file.

    Skips comment lines (``;`` or ``#``) and counts malformed lines.
    Duplicate rules for one logograph keep the first occurrence. A rule
    mapping a character to itself marks it atomic (a terminal). Cyclic rule
    sets are rejected.
    """
    table = RuleTable()
    lines = read_text(path, "rule file").splitlines()

    explicit_terminals: set[str] = set()
    # one str per distinct token: a component named in thousands of rules is
    # stored, and hashed, once
    shared: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line[0] in ";#":
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            table.skipped_lines += 1
            log.warning("%s:%d: expected 3 tab-separated fields", path, lineno)
            continue
        cp_field, head, ids_text = parts[0], parts[1], parts[2]
        if not head:
            table.skipped_lines += 1
            log.warning("%s:%d: empty character field", path, lineno)
            continue
        try:
            codepoint = int(cp_field.removeprefix("U+"), 16)
        except ValueError:
            codepoint = ord(head) if len(head) == 1 else None
        try:
            tokens = tokenize_ids(ids_text)
            _check_syntax(tokens)
        except ParseError as exc:
            table.skipped_lines += 1
            log.warning("%s:%d: unparseable expression: %s", path, lineno, exc)
            continue
        if head in table.rules or head in explicit_terminals:
            table.duplicate_lines += 1
            log.warning("%s:%d: duplicate rule for %r kept first", path, lineno, head)
            continue
        if tokens == [head]:
            # identity rule: the database's way of marking an atomic glyph
            explicit_terminals.add(head)
            table.atomic_entries += 1
            continue
        expr = tuple([shared.setdefault(t, t) for t in tokens])
        table.rules[shared.setdefault(head, head)] = Ids(codepoint, expr)

    _check_acyclic(table.rules)

    for rule in table.rules.values():
        for tok in rule.expr:
            if tok not in ALL_IDCS and tok not in table.rules:
                table.leaf_set.add(tok)
    table.leaf_set |= explicit_terminals - set(table.rules)
    return table


def _check_acyclic(rules: dict[str, Ids]) -> None:
    """Depth-first search over rule references; a reference back into the
    current path is a cycle, raised with that path."""
    done: set[str] = set()
    for start in rules:
        if start in done:
            continue
        path, on_path = [start], {start}
        stack = [iter(rules[start].expr)]
        while stack:
            for tok in stack[-1]:
                if tok in rules and tok not in done:
                    if tok in on_path:
                        raise CycleError(path[path.index(tok):] + [tok])
                    path.append(tok)
                    on_path.add(tok)
                    stack.append(iter(rules[tok].expr))
                    break
            else:  # every reference of the path's end is done
                tok = path.pop()
                on_path.remove(tok)
                done.add(tok)
                stack.pop()


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def decompose(ch: str, rules: RuleTable,
              max_depth: int = DEFAULT_MAX_DEPTH) -> GlyphTree:
    """Expand a logograph until every leaf is a terminal.

    A character with no rule that is a known terminal stays itself; a
    character absent from the table entirely becomes the UNK leaf. The
    result is the shared node of ``rules.forest``, so equal subtrees of
    any two results are one object.
    """
    return rules.forest.node[_expand(ch, rules, max_depth)]


def _expand(ch: str, rules: RuleTable, max_depth: int) -> int:
    """Forest id of ``ch``'s expansion.

    Each rule is parsed once per table, on its token's first expansion,
    straight into node ids: a component is substituted by its id, and no
    subtree is copied. The token's id is kept in ``rules.expansions`` with
    the length of its longest rule chain and reused wherever that chain fits
    the remaining depth. A chain too long for the depth expands afresh, so
    the error names the token a fresh expansion would reach at ``max_depth``.
    """
    if max_depth < 1:
        raise ExpansionError("max_depth must be positive")
    forest = rules.forest
    if ch not in rules.rules and ch not in rules.leaf_set:
        return forest.leaf(UNK_TOKEN)
    table, memo = rules.rules, rules.expansions

    def expand(token: str, depth: int) -> tuple[int, int]:
        rule = table.get(token)
        if rule is None:
            return forest.leaf(token), 0
        if depth >= max_depth:
            raise ExpansionError(
                f"expansion of {ch!r} exceeded depth {max_depth} at {token!r}"
                " (cyclic rules suspected)")
        hit = memo.get(token)
        if hit is not None and depth + hit[1] <= max_depth:
            return hit
        expr = rule.expr
        chain = 0
        open_ops: list[tuple[str, int, list[int]]] = []  # (idc, arity, kids)
        for pos, tok in enumerate(expr):
            if pos and not open_ops:  # trailing tokens: raise the parse error
                _check_syntax(expr)
            arity = _ARITY.get(tok)
            if arity:
                open_ops.append((tok, arity, []))
                continue
            nid, length = expand(tok, depth + 1)
            chain = max(chain, length)
            while open_ops:
                idc, arity, kids = open_ops[-1]
                kids.append(nid)
                if len(kids) < arity:
                    break
                open_ops.pop()
                nid = forest.join(idc, kids)
        if open_ops or not expr:
            _check_syntax(expr)
        memo[token] = entry = (nid, chain + 1)
        return entry

    return expand(ch, 0)[0]


# ---------------------------------------------------------------------------
# linearization and tree utilities
# ---------------------------------------------------------------------------

def linearize(tree: GlyphTree, order: LinearOrder) -> list[str]:
    out: list[str] = []

    def walk(node):
        if isinstance(node, Leaf):
            out.append(node.token)
            return
        if order is LinearOrder.PRE:
            out.append(node.idc)
            walk(node.left)
            walk(node.right)
        elif order is LinearOrder.POST:
            walk(node.left)
            walk(node.right)
            out.append(node.idc)
        else:
            walk(node.left)
            out.append(node.idc)
            walk(node.right)

    walk(tree)
    return out


def strip_operators(seq) -> list[str]:
    """Drop description-operator tokens, keeping leaf order."""
    return [t for t in seq if t not in ALL_IDCS]


def leaves(tree: GlyphTree) -> list[str]:
    if isinstance(tree, Leaf):
        return [tree.token]
    return leaves(tree.left) + leaves(tree.right)


def node_count(tree: GlyphTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return 1 + node_count(tree.left) + node_count(tree.right)


def to_bracketed(tree: GlyphTree) -> str:
    if isinstance(tree, Leaf):
        return tree.token
    return f"{tree.idc}({to_bracketed(tree.left)},{to_bracketed(tree.right)})"


def format_tree(tree: GlyphTree, indent: str = "") -> str:
    if isinstance(tree, Leaf):
        return f"{indent}{tree.token}"
    return "\n".join([
        f"{indent}{tree.idc}",
        format_tree(tree.left, indent + "  "),
        format_tree(tree.right, indent + "  "),
    ])


def depth_histogram(rules: RuleTable, max_depth: int = DEFAULT_MAX_DEPTH) -> Counter:
    """Depth of the full expansion of every rule head, read from the forest."""
    height = rules.forest.height
    return Counter(height[_expand(head, rules, max_depth)] for head in rules.rules)

import random
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logotree import ids
from logotree.errors import (CycleError, ExpansionError, LogotreeError,
                             ParseError, StructureError)
from logotree.ids import (Leaf, LinearOrder, Op, decompose, leaves, linearize,
                          load_rule_table, node_count, strip_operators)
from oracles import Nary, _parse_raw, binarize, parse_ids

FIG_RULES = """\
U+4ED5\t仕\t⿰亻士
U+4EBB\t亻\t人
U+58EB\t士\t⿱十一
U+5341\t十\t⿻一丨
"""


@pytest.fixture
def fig_table(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_RULES, encoding="utf-8")
    return load_rule_table(path)


# ---------------------------------------------------------------------------
# load_rule_table
# ---------------------------------------------------------------------------

def test_load_fig_rules(fig_table):
    assert len(fig_table.rules) == 4
    assert {"人", "丨", "一"} <= fig_table.leaf_set


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    table = load_rule_table(path)
    assert table.rules == {}
    assert table.leaf_set == set()


def test_load_self_cycle(tmp_path):
    path = tmp_path / "cyc.txt"
    path.write_text("U+0058\tX\t⿰X一\n", encoding="utf-8")
    with pytest.raises(CycleError) as exc:
        load_rule_table(path)
    assert "X" in exc.value.cycle


def test_load_mutual_cycle(tmp_path):
    path = tmp_path / "cyc2.txt"
    path.write_text("U+0041\tA\t⿰B一\nU+0042\tB\t⿰A一\n", encoding="utf-8")
    with pytest.raises(CycleError) as exc:
        load_rule_table(path)
    assert {"A", "B"} <= set(exc.value.cycle)


def test_load_skips_malformed_and_comments(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_text(
        "; comment\n"
        "# another\n"
        "U+4ED5\t仕\t⿰亻士\n"
        "not a rule line\n"
        "U+0041\tA\t⿰B\n",  # dangling operator
        encoding="utf-8")
    table = load_rule_table(path)
    assert len(table.rules) == 1
    assert table.skipped_lines == 2


def test_load_duplicate_keeps_first(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("U+4ED5\t仕\t⿰亻士\nU+4ED5\t仕\t⿱亻士\n", encoding="utf-8")
    table = load_rule_table(path)
    assert table.rules["仕"].expr == ("⿰", "亻", "士")
    assert table.duplicate_lines == 1


def test_load_strips_bracket_annotations(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("U+4ED5\t仕\t⿰亻士[GT]\n", encoding="utf-8")
    table = load_rule_table(path)
    assert table.rules["仕"].expr == ("⿰", "亻", "士")


def test_load_identity_rule_is_atomic(tmp_path):
    path = tmp_path / "atom.txt"
    path.write_text("U+4EBA\t人\t人\nU+4ED5\t仕\t⿰人士\n", encoding="utf-8")
    table = load_rule_table(path)
    assert "人" not in table.rules
    assert "人" in table.leaf_set
    assert table.atomic_entries == 1


# ---------------------------------------------------------------------------
# parse_ids / binarize
# ---------------------------------------------------------------------------

def test_parse_binary():
    assert parse_ids("⿰亻士") == Op("⿰", Leaf("亻"), Leaf("士"))


def test_parse_single_leaf():
    assert parse_ids("一") == Leaf("一")


def test_parse_ternary_right_nests():
    # one ternary node becomes two binary nodes
    tree = parse_ids(["⿲", "A", "B", "C"])
    assert tree == Op("⿰", Leaf("A"), Op("⿰", Leaf("B"), Leaf("C")))
    assert node_count(tree) == 5


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_ids(["⿰", "亻"])  # dangling operator
    with pytest.raises(ParseError):
        parse_ids(["一", "士"])  # trailing token
    with pytest.raises(ParseError):
        parse_ids([])


def test_binarize_identity_on_binary():
    tree = Op("⿰", Leaf("a"), Op("⿱", Leaf("b"), Leaf("c")))
    assert binarize(tree) == tree


def test_binarize_down3():
    raw = Nary("⿳", (Leaf("A"), Leaf("B"), Leaf("C")))
    out = binarize(raw)
    assert out == Op("⿱", Leaf("A"), Op("⿱", Leaf("B"), Leaf("C")))
    assert leaves(out) == ["A", "B", "C"]


def test_binarize_bad_arity():
    with pytest.raises(StructureError):
        binarize(Nary("⿰", (Leaf("A"),)))


def _random_raw_tree(rng, depth, ternary_left):
    """Random tree with arities in {0,2,3}; counts ternary nodes used."""
    if depth == 0 or rng.random() < 0.3:
        return Leaf(chr(ord("a") + rng.randrange(26))), ternary_left
    if ternary_left > 0 and rng.random() < 0.5:
        idc = rng.choice(["⿲", "⿳"])
        kids = []
        remaining = ternary_left - 1
        for _ in range(3):
            kid, remaining = _random_raw_tree(rng, depth - 1, remaining)
            kids.append(kid)
        return Nary(idc, tuple(kids)), remaining
    idc = rng.choice(sorted(ids.BINARY_IDCS))
    left, remaining = _random_raw_tree(rng, depth - 1, ternary_left)
    right, remaining = _random_raw_tree(rng, depth - 1, remaining)
    return Nary(idc, (left, right)), remaining


def _raw_leaves(node):
    if isinstance(node, Leaf):
        return [node.token]
    out = []
    for child in node.children:
        out.extend(_raw_leaves(child))
    return out


def test_binarize_preserves_leaf_order_random():
    rng = random.Random(20240601)
    for _ in range(1000):
        raw, _ = _random_raw_tree(rng, depth=4, ternary_left=3)
        out = binarize(raw)
        assert leaves(out) == _raw_leaves(raw)
        assert node_count(out) == 2 * len(_raw_leaves(raw)) - 1


def test_binarize_two_ternary_node_count():
    raw = Nary("⿲", (Leaf("a"), Nary("⿳", (Leaf("b"), Leaf("c"), Leaf("d"))),
                     Leaf("e")))
    out = binarize(raw)
    n_leaves = len(leaves(out))
    assert n_leaves == 5
    assert node_count(out) - n_leaves == n_leaves - 1  # inner = leaves - 1


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_fig_case(fig_table):
    tree = decompose("仕", fig_table)
    lv = leaves(tree)
    assert len(lv) == 4
    assert set(lv) == {"人", "丨", "一"}


def test_decompose_terminal(fig_table):
    assert decompose("一", fig_table) == Leaf("一")


def test_decompose_unknown_char_is_unk(fig_table):
    assert decompose("蒸", fig_table) == Leaf(ids.UNK_TOKEN)


def test_decompose_fig1_positions(rule_table):
    tree = decompose("蒸", rule_table)
    # root(1): ⿱(艹(2), 烝(3)); 烝: ⿱(丞(4), 火(5)); 丞: ⿱(氶(6), 一(7))
    assert tree.right.right == Leaf("火")
    assert tree.right.left.left == Leaf("氶")


def test_decompose_depth_guard():
    table = ids.RuleTable(rules={"A": ids.Ids(65, ("⿰", "B", "一"))},
                          leaf_set={"一", "B"})
    table.rules["B"] = ids.Ids(66, ("⿰", "A", "一"))
    with pytest.raises(ExpansionError):
        decompose("A", table, max_depth=16)


def _fresh_decompose(ch, table, max_depth):
    """Independent expansion with no memo: substitute every rule token into
    the parsed tree, then binarize once; the error names the token found at
    depth ``max_depth``."""
    def expand(token, depth):
        rule = table.rules.get(token)
        if rule is None:
            return Leaf(token)
        if depth >= max_depth:
            raise ExpansionError(
                f"expansion of {ch!r} exceeded depth {max_depth} at {token!r}"
                " (cyclic rules suspected)")

        def subst(node):
            if isinstance(node, Leaf):
                return expand(node.token, depth + 1)
            return Nary(node.idc, tuple(subst(c) for c in node.children))

        return subst(_parse_raw(rule.expr))

    if ch not in table.rules and ch not in table.leaf_set:
        return Leaf(ids.UNK_TOKEN)
    return binarize(expand(ch, 0))


def _outcome(f):
    try:
        return f()
    except ExpansionError as exc:
        return ("ExpansionError", str(exc))


def _chain_length(token, table):
    rule = table.rules.get(token)
    if rule is None:
        return 0
    return 1 + max(_chain_length(t, table) for t in rule.expr)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_memoized_decompose_equals_fresh_expansion(order):
    # one table for every call, so the memo filled at one depth bound is
    # read under the others
    table = load_rule_table(Path(__file__).parent / "data" / "mini_ids.txt")
    deepest = max(_chain_length(h, table) for h in table.rules)
    assert deepest >= 3
    depths = range(1, deepest + 2)
    heads = sorted(table.rules) + ["一", "蒸", "\U000f0000"]
    raised = 0
    for max_depth in (depths if order == "ascending" else reversed(depths)):
        for head in heads:
            want = _outcome(lambda: _fresh_decompose(head, table, max_depth))
            got = _outcome(lambda: decompose(head, table, max_depth))
            assert got == want, (head, max_depth)
            raised += isinstance(want, tuple)
    assert raised > 0
    assert table.expansions  # filled, yet not part of equality or repr
    assert table == load_rule_table(Path(__file__).parent / "data" / "mini_ids.txt")
    assert "expansions" not in repr(table)


def test_memoized_decompose_keeps_cycle_guard():
    table = ids.RuleTable(rules={"A": ids.Ids(65, ("⿰", "B", "一")),
                                 "B": ids.Ids(66, ("⿰", "A", "一"))},
                          leaf_set={"一"})
    for _ in range(2):
        with pytest.raises(ExpansionError, match="at 'A'"):
            decompose("A", table, max_depth=16)
    assert not table.expansions  # nothing stored from a failed expansion


def _depth(tree):
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(_depth(tree.left), _depth(tree.right))


_HEADS = "ABCDE"
_TERMINALS = "xy一"


@st.composite
def _prefix_exprs(draw, operands, budget=2):
    """A prefix expression over binary and ternary operators."""
    if budget == 0 or draw(st.integers(0, 2)) == 0:
        return [draw(st.sampled_from(operands))]
    idc = draw(st.sampled_from(["⿰", "⿱", "⿻", "⿲", "⿳"]))
    out = [idc]
    for _ in range(ids._ARITY[idc]):
        out += draw(_prefix_exprs(operands, budget - 1))
    return out


@st.composite
def _rule_tables(draw):
    """Small hand-built tables: a head may use terminals and earlier heads
    (shared components, rule chains up to five long); with ``cyclic`` any
    head, itself included."""
    n = draw(st.integers(1, len(_HEADS)))
    cyclic = draw(st.integers(0, 2)) == 0
    rules = {}
    for i, head in enumerate(_HEADS[:n]):
        # the previous head weighs three, so long chains are common
        operands = (list(_TERMINALS) + list(_HEADS[:n] if cyclic else _HEADS[:i])
                    + list(_HEADS[i - 1:i] * 2))
        rules[head] = ids.Ids(None, tuple(draw(_prefix_exprs(operands))))
    used = {t for rule in rules.values() for t in rule.expr}
    return ids.RuleTable(rules=rules, leaf_set=used - ids.ALL_IDCS - set(rules))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_rule_tables(),
       st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 64]), min_size=1, max_size=4))
def test_forest_decompose_and_histogram_equal_fresh_expansion(table, depths):
    """One table for every bound, so forest nodes and memo entries made under
    one bound are read under the next."""
    for max_depth in depths:
        for head in list(_HEADS) + list(_TERMINALS) + ["?"]:
            want = _outcome(lambda: _fresh_decompose(head, table, max_depth))
            got = _outcome(lambda: decompose(head, table, max_depth))
            assert got == want, (head, max_depth)
        want = _outcome(lambda: Counter(
            _depth(_fresh_decompose(h, table, max_depth)) for h in table.rules))
        assert _outcome(lambda: ids.depth_histogram(table, max_depth)) == want
    forest = table.forest
    assert len({(forest.label[i], forest.left[i], forest.right[i])
                for i in range(len(forest))}) == len(forest)  # interned once
    for nid, node in enumerate(forest.node):
        assert forest.height[nid] == _depth(node)
        assert max(forest.left[nid], forest.right[nid]) < nid
    for token, (nid, chain) in table.expansions.items():
        # only finished expansions are stored, with their true chain length
        assert chain == _chain_length(token, table)
        assert forest.node[nid] == _fresh_decompose(token, table, chain)


def test_forest_shares_equal_subtrees():
    table = load_rule_table(Path(__file__).parent / "data" / "mini_ids.txt")
    trees = [decompose(head, table) for head in table.rules]
    seen = {}

    def walk(node):
        assert seen.setdefault(ids.to_bracketed(node), node) is node
        if isinstance(node, Op):
            walk(node.left)
            walk(node.right)

    for tree in trees:
        walk(tree)
    assert len(seen) == len(table.forest)  # the forest holds nothing else


def test_forest_path_builds_no_parse_tree():
    # the tree-building parser lives with the test oracles only
    for name in ("_parse_raw", "Nary", "binarize", "parse_ids"):
        assert not hasattr(ids, name)
    table = load_rule_table(Path(__file__).parent / "data" / "mini_ids.txt")
    assert any(t in ids.TERNARY_IDCS for r in table.rules.values() for t in r.expr)
    hist = ids.depth_histogram(table)
    assert sum(hist.values()) == len(table.rules)
    for head in table.rules:
        decompose(head, table)


def test_forest_threads_expanding_one_table():
    """Four threads expand one table at once: every subtree still gets one
    id, and every tree equals a single-threaded expansion."""
    rng = random.Random(3)
    heads = [chr(0x20000 + i) for i in range(3000)]
    rules = {}
    for i, head in enumerate(heads):
        # six layers of 500 heads, each over the layer below: shared
        # components, and trees of at most 2**6 leaves
        below = heads[max(0, i // 500 - 1) * 500:i // 500 * 500]
        pool = below + ["一", "丨", "口"]
        rules[head] = ids.Ids(None, (rng.choice("⿰⿱⿻"), rng.choice(pool),
                                     rng.choice(pool)))
    table = ids.RuleTable(rules=rules, leaf_set={"一", "丨", "口"})
    want = ids.RuleTable(rules=rules, leaf_set=table.leaf_set)
    errors = []

    def work(k):
        try:
            for head in heads[k::2] + heads[::-1]:
                decompose(head, table)
        except Exception as exc:  # reported below, with the other threads'
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k % 2,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    forest = table.forest
    assert len({(forest.label[i], forest.left[i], forest.right[i])
                for i in range(len(forest))}) == len(forest)
    for head in heads[::7]:
        assert decompose(head, table) == decompose(head, want)


def test_malformed_hand_built_rule_raises_parse_error():
    for expr, message in [((), "empty expression"),
                          (("⿰", "x"), "dangling operator"),
                          (("x", "y"), "trailing tokens from index 1")]:
        table = ids.RuleTable(rules={"A": ids.Ids(None, expr)}, leaf_set={"x", "y"})
        with pytest.raises(ParseError, match=message):
            decompose("A", table)
        assert not table.expansions


def test_decompose_deterministic(rule_table):
    a = decompose("曉", rule_table)
    b = decompose("曉", rule_table)
    assert a == b


def test_corpus_wide_termination(rule_table):
    # every rule head expands without cycle or depth errors
    for head in rule_table.rules:
        tree = decompose(head, rule_table)
        assert node_count(tree) >= 1
        for leaf in leaves(tree):
            assert leaf in rule_table.leaf_set


def test_corpus_trees_use_only_binary_operators(rule_table):
    # ternary operators are always rewritten away
    for head in rule_table.rules:
        for tok in linearize(decompose(head, rule_table), LinearOrder.PRE):
            assert tok not in ids.TERNARY_IDCS


# ---------------------------------------------------------------------------
# linearize / strip / round trip
# ---------------------------------------------------------------------------

def test_linearize_single_leaf():
    for order in LinearOrder:
        assert linearize(Leaf("一"), order) == ["一"]


def test_linearize_preorder_definition():
    tree = Op("⿰", Leaf("人"), Leaf("士"))
    assert linearize(tree, LinearOrder.PRE) == ["⿰", "人", "士"]
    assert linearize(tree, LinearOrder.POST) == ["人", "士", "⿰"]
    assert linearize(tree, LinearOrder.IN) == ["人", "⿰", "士"]


def test_linearize_fig1_tree(rule_table):
    tree = decompose("蒸", rule_table)
    seq = linearize(tree, LinearOrder.PRE)
    assert len(seq) == 7
    assert seq[0] in ids.BINARY_IDCS


def test_strip_operators():
    assert strip_operators(["⿰", "人", "士"]) == ["人", "士"]
    assert strip_operators(["人", "士"]) == ["人", "士"]


@st.composite
def glyph_trees(draw, max_depth=5):
    if max_depth == 0 or draw(st.booleans()):
        return Leaf(draw(st.sampled_from("abcdefg人一丨")))
    idc = draw(st.sampled_from(sorted(ids.BINARY_IDCS)))
    left = draw(glyph_trees(max_depth=max_depth - 1))
    right = draw(glyph_trees(max_depth=max_depth - 1))
    return Op(idc, left, right)


@given(glyph_trees())
def test_preorder_roundtrip(tree):
    assert parse_ids(linearize(tree, LinearOrder.PRE)) == tree


@given(glyph_trees())
def test_linearize_length_and_leaf_conservation(tree):
    n_leaves = len(leaves(tree))
    for order in LinearOrder:
        seq = linearize(tree, order)
        assert len(seq) == node_count(tree) == 2 * n_leaves - 1
        assert strip_operators(seq) == leaves(tree)


@settings(max_examples=50)
@given(glyph_trees())
def test_node_count_identity(tree):
    assert node_count(tree) - len(leaves(tree)) == len(leaves(tree)) - 1


def test_parse_ids_reads_a_ternary_operator_with_three_operands():
    # a ternary operator takes three operands, so it never labels a
    # two-child Op
    with pytest.raises(ParseError):
        parse_ids(["⿲", "a", "b"])
    tree = parse_ids(["⿲", "a", "b", "c"])
    assert parse_ids(linearize(tree, LinearOrder.PRE)) == tree


def test_roundtrip_corpus(rule_table):
    for head in rule_table.rules:
        tree = decompose(head, rule_table)
        assert parse_ids(linearize(tree, LinearOrder.PRE)) == tree


@given(st.lists(st.sampled_from(sorted(ids.ALL_IDCS) + list("ab人一")),
                max_size=12))
def test_parse_fuzz_total(tokens):
    """Arbitrary token soup either parses or raises a parse error."""
    try:
        tree = parse_ids(tokens)
    except ParseError:
        return
    assert node_count(tree) == len(tokens) + sum(
        1 for t in tokens if t in ids.TERNARY_IDCS)


def _parse_raw_view(text):
    """The skipped line count, and the first valid expression of each head,
    judged by the tree-building parser."""
    skipped, exprs = 0, {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in ";#":
            continue
        parts = line.split("\t")
        if len(parts) < 3 or not parts[1]:
            skipped += 1
            continue
        try:
            tokens = ids.tokenize_ids(parts[2])
            _parse_raw(tokens)
        except ParseError:
            skipped += 1
            continue
        exprs.setdefault(parts[1], tokens)
    return skipped, exprs


_FIELD = st.text(alphabet="⿰⿱⿲⿳[]&;AB人一 U+4E0", max_size=7)
_EXPR = st.lists(st.sampled_from(["⿰", "⿱", "⿲", "⿳", "A", "B", "C", "人", "一",
                                  "[G]", "&CDP-1;", " "]), max_size=7).map("".join)
_LINES = st.lists(st.one_of(
    st.lists(_FIELD, min_size=1, max_size=4).map("\t".join),
    st.tuples(st.sampled_from(["U+4E00", "U+", "zz", ""]),
              st.sampled_from(["A", "B", "C", "人", "一", ""]), st.one_of(_EXPR, _FIELD))
    .map("\t".join),
    st.sampled_from(["", "; note", "#", "\t\t", "U+0041\tA\tA"]),
    # rules over A, B and C: chains, and cycles when all three meet
    st.sampled_from(["U+0041\tA\t⿰B一", "U+0042\tB\t⿱C人", "U+0043\tC\t⿰A一",
                     "U+0043\tC\t⿲人一人", "U+0042\tB\t⿳A[G]&CDP-1;一"])),
    max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_LINES)
def test_load_rule_table_fuzz(lines):
    """Arbitrary lines give a table or a typed error; the syntax check
    skips exactly the lines the parser rejects."""
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.txt"
        path.write_text(text, encoding="utf-8")
        try:
            table = load_rule_table(path)
        except CycleError as exc:
            cycle, exprs = exc.cycle, _parse_raw_view(text)[1]
            assert cycle[0] == cycle[-1]  # each head's rule names the next
            assert all(b in exprs[a] for a, b in zip(cycle, cycle[1:]))
            return
        except LogotreeError:
            return
    assert table.skipped_lines == _parse_raw_view(text)[0]
    for head in table.rules:
        assert decompose(head, table) == _fresh_decompose(head, table, 64)


@given(st.text(alphabet="⿰⿱⿲⿳[]&;azA 人一", max_size=16))
def test_tokenize_fuzz_total(text):
    try:
        tokens = ids.tokenize_ids(text)
    except ParseError:
        return
    assert all(tok for tok in tokens)

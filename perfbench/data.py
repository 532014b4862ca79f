"""Seeded synthetic inputs for the benchmark workloads.

Everything here is derived from the shipped mini fixtures plus a seed:

* a rule table that composes new characters (CJK Extension B codepoints)
  from the mini table's components, where ``REUSE_SHARE`` is the chance
  that an operand is an earlier synthetic character, so whole subtrees are
  shared between characters, and no expanded tree has more than
  ``MAX_NODES`` nodes;
* kCantonese readings drawn from the shipped readings that segment; a
  character inherits the reading of its last (phonetic) operand with
  probability ``PHONETIC_SHARE``, as phono-semantic compounds do, so the
  pronunciation task is learnable;
* Zipf-frequency language-model lines over the synthetic characters.

``generate`` validates what it wrote: the table loads with no skipped line
and no cycle, and every reading segments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from logotree import ids, phono

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "data"
FIRST_CODEPOINT = 0x20000  # CJK Unified Ideographs Extension B
LAST_CODEPOINT = 0x2A6DF

# operator weights roughly follow real IDS usage: left-right and top-bottom
# dominate; ternary operators exercise binarization
_OPERATORS = (("⿰", 50), ("⿱", 25), ("⿸", 4), ("⿺", 4), ("⿵", 3),
              ("⿴", 2), ("⿹", 2), ("⿶", 1), ("⿷", 1), ("⿻", 2),
              ("⿲", 3), ("⿳", 3))


REUSE_SHARE = 0.3
PHONETIC_SHARE = 0.7
MAX_NODES = 15            # expanded tree size cap (depth stays <= ~6)
LM_LINE_LEN = (12, 28)    # characters per LM line, uniform
ZIPF_S = 1.1              # exponent of the LM character frequencies


@dataclass(frozen=True)
class DataSpec:
    n_chars: int
    lm_lines: int = 0     # training lines; 0 writes no corpus
    lm_heldout: int = 0   # held-out lines scored after training

    def record(self) -> dict:
        """The generator's parameters, printed with every run."""
        return {"n_chars": self.n_chars, "reuse_share": REUSE_SHARE,
                "max_nodes": MAX_NODES, "phonetic_share": PHONETIC_SHARE,
                "lm_lines": self.lm_lines, "lm_heldout": self.lm_heldout}


@dataclass
class Dataset:
    spec: DataSpec
    seed: int
    rules_path: Path
    readings_path: Path
    lm_train: Path | None
    lm_heldout: Path | None
    chars: list[str]


def _mini_components(table: ids.RuleTable) -> tuple[list[str], dict[str, int]]:
    """Tokens usable as operands, with their expanded node counts."""
    sizes = {}
    for head in table.rules:
        sizes[head] = ids.node_count(ids.decompose(head, table))
    for leaf in table.leaf_set:
        if len(leaf) == 1:  # entity references like &CDP-8B7C; stay out
            sizes[leaf] = 1
    return sorted(sizes), sizes


def _segmentable(readings: dict[str, list[str]]) -> list[str]:
    out = set()
    for values in readings.values():
        for value in values:
            try:
                phono.segment_jyutping(value)
            except phono.SegmentationError:
                continue
            out.add(value)
    return sorted(out)


def generate(spec: DataSpec, seed: int, out_dir: Path) -> Dataset:
    """Write the rule table, readings and LM corpus for one seed."""
    if spec.n_chars > LAST_CODEPOINT - FIRST_CODEPOINT + 1:
        raise ValueError(f"n_chars={spec.n_chars} exceeds the codepoint block")
    rng = random.Random(seed)
    mini_text = (FIXTURES / "mini_ids.txt").read_text(encoding="utf-8")
    mini = ids.load_rule_table(FIXTURES / "mini_ids.txt")
    mini_readings = phono.parse_unihan_readings(FIXTURES / "mini_readings.txt")
    pool = _segmentable(mini_readings)
    components, sizes = _mini_components(mini)
    reading_of = {}
    for comp in components:
        own = [r for r in mini_readings.get(comp, []) if r in pool]
        reading_of[comp] = own[0] if own else rng.choice(pool)

    operators, weights = zip(*_OPERATORS)
    synthetic: list[str] = []
    reusable: list[str] = []  # synthetic characters small enough to nest
    lines = []
    for i in range(spec.n_chars):
        ch = chr(FIRST_CODEPOINT + i)
        while True:
            op = rng.choices(operators, weights=weights)[0]
            arity = 3 if op in ids.TERNARY_IDCS else 2
            operands = [rng.choice(reusable)
                        if reusable and rng.random() < REUSE_SHARE
                        else rng.choice(components) for _ in range(arity)]
            nodes = arity - 1 + sum(sizes[o] for o in operands)
            if nodes <= MAX_NODES:
                break
        sizes[ch] = nodes
        if nodes <= MAX_NODES // 2:
            reusable.append(ch)
        phonetic = operands[-1]
        reading_of[ch] = (reading_of[phonetic]
                          if rng.random() < PHONETIC_SHARE
                          else rng.choice(pool))
        synthetic.append(ch)
        lines.append(f"U+{ord(ch):05X}\t{ch}\t{op}{''.join(operands)}")

    out_dir.mkdir(parents=True, exist_ok=True)
    rules_path = out_dir / f"rules-{seed}.txt"
    rules_path.write_text(mini_text + "\n".join(lines) + "\n", encoding="utf-8")
    readings_path = out_dir / f"readings-{seed}.txt"
    readings_path.write_text(
        "".join(f"U+{ord(ch):05X}\tkCantonese\t{reading_of[ch]}\n"
                for ch in synthetic), encoding="utf-8")

    lm_paths = [None, None]
    if spec.lm_lines:
        ranked = synthetic[:]
        rng.shuffle(ranked)
        weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
        lo, hi = LM_LINE_LEN
        for k, (part, n) in enumerate((("train", spec.lm_lines),
                                       ("heldout", spec.lm_heldout))):
            corpus = ["".join(rng.choices(ranked, weights=weights,
                                          k=rng.randint(lo, hi)))
                      for _ in range(n)]
            lm_paths[k] = out_dir / f"lm-{part}-{seed}.txt"
            lm_paths[k].write_text("\n".join(corpus) + "\n", encoding="utf-8")

    dataset = Dataset(spec, seed, rules_path, readings_path, *lm_paths, synthetic)
    validate(dataset)
    return dataset


def validate(dataset: Dataset) -> None:
    """Reject generated data that a workload could trip over."""
    table = ids.load_rule_table(dataset.rules_path)  # raises on a cycle
    if table.skipped_lines or table.duplicate_lines:
        raise ValueError(f"{dataset.rules_path}: {table.skipped_lines} skipped, "
                         f"{table.duplicate_lines} duplicate lines")
    missing = [ch for ch in dataset.chars if ch not in table.rules]
    if missing:
        raise ValueError(f"{len(missing)} synthetic characters have no rule")
    readings = phono.parse_unihan_readings(dataset.readings_path)
    corpus, dropped = phono.build_corpus(readings)
    if dropped or len(corpus) != len(dataset.chars):
        raise ValueError(f"{dropped} readings do not segment")


def tree_stats(trees) -> dict[str, float]:
    """Mean node count and the share of nodes that root a distinct subtree.

    Subtrees are interned bottom-up, so equal subtrees anywhere in the
    input map to one id; the share is distinct ids over all nodes.
    """
    interned: dict[tuple, int] = {}
    total = 0

    def intern(node) -> int:
        nonlocal total
        total += 1
        if isinstance(node, ids.Leaf):
            key = (node.token,)
        else:
            key = (node.idc, intern(node.left), intern(node.right))
        return interned.setdefault(key, len(interned))

    trees = list(trees)
    for tree in trees:
        intern(tree)
    return {"ids.nodes_per_char": total / len(trees),
            "ids.unique_subtree_share": len(interned) / total}

"""Command-line entry point.

Subcommands cover the whole workflow: rule-table inspection (``decompose``,
``validate-rules``), dataset preparation (``prepare-data``), pronunciation
training and evaluation (``train-pron``, ``eval-pron``, ``grid-search``,
``run-matrix``), language modeling (``train-lm``, ``eval-lm``), and
diagnostics (``gate-bias``, ``probe``, ``neighbors``). Every training or
evaluation run writes a manifest beside its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import diagnostics, ids, lm, phono, pron
from .atomic import write_csv, write_json
from .config import LmConfig, RunConfig, config_to_dict, load_config
from .errors import CycleError, LogotreeError
from .manifest import finish_manifest, start_manifest

log = logging.getLogger(__name__)


class _SubParser(argparse.ArgumentParser):
    """Subcommand parser that also accepts the global flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _add_globals(self, suppress=True)


def _add_globals(parser, suppress: bool) -> None:
    # registered on the root parser and again on every subparser (with
    # SUPPRESS defaults) so the flags work in either position
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(None),
                        help="override the config seed")
    parser.add_argument("--config", default=default(None),
                        help="JSON config file")
    parser.add_argument("--out-dir", default=default("runs"),
                        help="output directory")
    parser.add_argument("--threads", type=int, default=default(1),
                        help="parallel workers for independent grid cells")


def _sizes(text: str) -> tuple[int, int, int]:
    """``--sizes``: three non-negative ints, train,validation,test."""
    parts = text.split(",")
    if len(parts) != 3 or not all(p.strip().isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected three non-negative integers a,b,c, got {text!r}")
    return tuple(int(p) for p in parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logotree",
        description="Hierarchical logograph embeddings: decomposition "
                    "parsing, pronunciation prediction, language modeling.")
    _add_globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command",
                                parser_class=_SubParser)

    p = sub.add_parser("decompose", help="print a logograph's tree")
    p.add_argument("char")
    p.add_argument("--rules", required=True)
    p.add_argument("--max-depth", type=int, default=ids.DEFAULT_MAX_DEPTH)

    p = sub.add_parser("validate-rules", help="check a rule table")
    p.add_argument("path")

    p = sub.add_parser("prepare-data", help="build a scenario split CSV")
    p.add_argument("--readings", required=True)
    p.add_argument("--variants")
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--sizes", type=_sizes, help="train,validation,test counts")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-pron", help="train a pronunciation model")
    p.add_argument("--split", help="split CSV (overrides config)")
    p.add_argument("--rules", help="rule table (overrides config)")

    p = sub.add_parser("eval-pron", help="evaluate a pronunciation model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--partition", default="test",
                   choices=["train", "validation", "test"])

    p = sub.add_parser("grid-search", help="hyperparameter grid search")
    p.add_argument("--split")
    p.add_argument("--rules")

    p = sub.add_parser("run-matrix", help="experiment matrix to CSV")

    p = sub.add_parser("train-lm", help="train a character language model")
    p.add_argument("--corpus", help="training corpus (overrides config)")
    p.add_argument("--valid", help="validation corpus")
    p.add_argument("--rules")

    p = sub.add_parser("eval-lm", help="BPC/PPL of a language model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules")

    p = sub.add_parser("gate-bias", help="root forget-gate asymmetry")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--partition", default="test",
                   choices=["train", "validation", "test"])

    p = sub.add_parser("probe", help="per-node prediction trace")
    p.add_argument("char")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules", required=True)

    p = sub.add_parser("neighbors", help="cosine nearest neighbors")
    p.add_argument("char")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules")
    p.add_argument("--split", help="candidate pool for pronunciation models")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    table = ids.load_rule_table(args.rules)
    tree = ids.decompose(args.char, table, max_depth=args.max_depth)
    print(ids.format_tree(tree))
    print("bracketed:", ids.to_bracketed(tree))
    for order in ids.LinearOrder:
        seq = ids.linearize(tree, order)
        print(f"{order.value}-order:", " ".join(seq))
    unk = sum(1 for t in ids.leaves(tree) if t == ids.UNK_TOKEN)
    if unk:
        print(f"unknown leaves: {unk}")
    return 0


def _cmd_validate_rules(args) -> int:
    try:
        table = ids.load_rule_table(args.path)
    except CycleError as exc:
        print(f"cycle detected: {' -> '.join(exc.cycle)}")
        return 1
    print(f"rules: {len(table.rules)}")
    print(f"terminals: {len(table.leaf_set)}")
    print(f"atomic entries: {table.atomic_entries}")
    print(f"skipped lines: {table.skipped_lines}")
    print(f"duplicate lines: {table.duplicate_lines}")
    print("cycles: none")
    hist = ids.depth_histogram(table)
    print("expansion depth histogram:")
    for depth in sorted(hist):
        print(f"  depth {depth}: {hist[depth]}")
    return 0


def _cmd_prepare_data(args, seed: int, out_dir: Path) -> int:
    readings = phono.parse_unihan_readings(args.readings)
    corpus, dropped = phono.build_corpus(readings, seed=seed)
    print(f"characters: {len(corpus)} (dropped {dropped} unsegmentable)")
    variants = phono.parse_unihan_variants(args.variants) if args.variants else None
    manifest = start_manifest("prepare-data", {"scenario": args.scenario,
                                               "sizes": args.sizes},
                              {"readings": args.readings}, seed)
    split = phono.build_scenario(corpus, args.scenario, seed=seed,
                                 sizes=args.sizes, variants=variants)
    phono.write_split_csv(split, args.out)
    finish_manifest(manifest, out_dir, [args.out])
    print(f"split written to {args.out} "
          f"({len(split.train)}/{len(split.validation)}/{len(split.test)})")
    return 0


def _load_run_inputs(args, loaded):
    split_path = args.split or loaded.data.get("split")
    rules_path = args.rules or loaded.data.get("rules")
    if not split_path or not rules_path:
        raise LogotreeError("need --split and --rules (or config data keys)")
    return split_path, rules_path


def _cmd_train_pron(args, loaded, out_dir: Path) -> int:
    split_path, rules_path = _load_run_inputs(args, loaded)
    config: RunConfig = loaded.run
    split = phono.read_split_csv(split_path)
    rules = ids.load_rule_table(rules_path)
    manifest = start_manifest("train-pron", config_to_dict(config),
                              {"split": split_path, "rules": rules_path},
                              config.seed)
    model, history = pron.train(config, split, rules)
    ckpt = out_dir / "pron.ckpt"
    pron.save_model(ckpt, model)
    hist_path = out_dir / "history.csv"
    write_csv(hist_path, ["epoch", "train_loss", "val_TER"],
              ([h.epoch, f"{h.train_loss:.6f}", f"{h.val_ter:.4f}"]
               for h in history))
    report = pron.evaluate(model, split.test, rules) if split.test else None
    if report:
        print(f"test SER {report.ser:.2f} TER {report.ter:.2f}")
    finish_manifest(manifest, out_dir, [ckpt, hist_path])
    print(f"checkpoint: {ckpt}")
    return 0


def _cmd_eval_pron(args, out_dir: Path) -> int:
    model = pron.load_model(args.checkpoint)
    split = phono.read_split_csv(args.split)
    rules = ids.load_rule_table(args.rules)
    entries = dict(split.partitions())[args.partition]
    manifest = start_manifest("eval-pron", config_to_dict(model.config),
                              {"split": args.split, "rules": args.rules},
                              model.config.seed)
    report = pron.evaluate(model, entries, rules)
    row = report.row()
    print(f"n={report.n} SER {row['SER']} TER {row['TER']} "
          f"onset {row['onset']} nucleus {row['nucleus']} coda {row['coda']}")
    out = out_dir / "eval.csv"
    pron.write_matrix_csv([{"model": model.model_name(),
                            "scenario": model.config.scenario,
                            "order": model.config.output_order,
                            "ablation": "full" if model.config.operators
                                        else "no-operators", **row}], out)
    finish_manifest(manifest, out_dir, [out])
    return 0


def _cmd_grid_search(args, loaded, out_dir: Path) -> int:
    split_path, rules_path = _load_run_inputs(args, loaded)
    config: RunConfig = loaded.run
    split = phono.read_split_csv(split_path)
    rules = ids.load_rule_table(rules_path)
    grid = loaded.data.get("grid", {})
    lrs = tuple(grid.get("learning_rates", pron.DEFAULT_LR_GRID))
    drops = tuple(grid.get("dropouts", pron.DEFAULT_DROPOUT_GRID))
    manifest = start_manifest("grid-search", config_to_dict(config),
                              {"split": split_path, "rules": rules_path},
                              config.seed)
    best, table = pron.grid_search(config, split, rules, lrs, drops,
                                   n_jobs=args.threads)
    table_path = out_dir / "grid.csv"
    write_csv(table_path, ["learning_rate", "dropout", "dev_TER"], table)
    best_path = out_dir / "best_config.json"
    write_json(best_path, {"run": config_to_dict(best)})
    finish_manifest(manifest, out_dir, [table_path, best_path])
    print(f"best: lr={best.learning_rate} dropout={best.dropout}")
    return 0


def _cmd_run_matrix(args, loaded, out_dir: Path) -> int:
    rules_path = loaded.data.get("rules")
    splits_map = loaded.data.get("splits")
    if not rules_path or not splits_map:
        raise LogotreeError("run-matrix config needs 'rules' and 'splits'")
    config: RunConfig = loaded.run
    rules = ids.load_rule_table(rules_path)
    splits = {int(k): phono.read_split_csv(v) for k, v in splits_map.items()}
    matrix = loaded.data.get("matrix", {})
    encoders = tuple(tuple(e) if isinstance(e, list) else (e, 1)
                     for e in matrix.get("encoders", [["treelstm", 1]]))
    scenarios = tuple(matrix.get("scenarios", [1]))
    orders = tuple(matrix.get("orders", ["cd_nu_on"]))
    ablations = tuple(matrix.get("ablations", [False]))
    manifest = start_manifest("run-matrix", config_to_dict(config),
                              {"rules": rules_path,
                               **{f"split{k}": v for k, v in splits_map.items()}},
                              config.seed)
    rows = pron.run_matrix(config, splits, rules, encoders=encoders,
                           scenarios=scenarios, orders=orders,
                           ablations=ablations)
    out = out_dir / "matrix.csv"
    pron.write_matrix_csv(rows, out)
    finish_manifest(manifest, out_dir, [out])
    print(f"{len(rows)} rows written to {out}")
    return 0


def _cmd_train_lm(args, loaded, out_dir: Path) -> int:
    config: LmConfig = loaded.run
    corpus_path = args.corpus or loaded.data.get("corpus_train")
    if not corpus_path:
        raise LogotreeError("need --corpus (or config corpus_train)")
    valid_path = args.valid or loaded.data.get("corpus_valid")
    rules_path = args.rules or loaded.data.get("rules")
    rules = ids.load_rule_table(rules_path) if rules_path else None
    train_lines = lm.read_corpus(corpus_path)
    valid_lines = lm.read_corpus(valid_path) if valid_path else None
    data_paths = {k: v for k, v in (("corpus_train", corpus_path),
                                    ("corpus_valid", valid_path),
                                    ("rules", rules_path)) if v}
    manifest = start_manifest("train-lm", config_to_dict(config), data_paths,
                              config.seed)
    model, history = lm.train_lm(config, train_lines, valid_lines, rules)
    ckpt = out_dir / "lm.ckpt"
    lm.save_lm(ckpt, model)
    hist_path = out_dir / "lm_history.csv"
    write_csv(hist_path,
              ["epoch", "train_bpc"] + (["valid_bpc"] if valid_lines else []),
              ({k: (f"{v:.6f}" if isinstance(v, float) else v)
                for k, v in h.items()} for h in history))
    finish_manifest(manifest, out_dir, [ckpt, hist_path])
    print(f"final train BPC {history[-1]['train_bpc']:.4f}; checkpoint: {ckpt}")
    return 0


def _cmd_eval_lm(args, out_dir: Path) -> int:
    rules = ids.load_rule_table(args.rules) if args.rules else None
    model = lm.load_lm(args.checkpoint, rules=rules)
    lines = lm.read_corpus(args.corpus)
    cache = lm.build_cache(model) if model.hierarchical else None
    manifest = start_manifest("eval-lm", config_to_dict(model.config),
                              {"corpus": args.corpus}, model.config.seed)
    bpc, ppl = lm.eval_lm(model, lines, cache=cache)
    print(f"BPC {bpc:.4f} PPL {ppl:.4f}")
    stats = lm.oov_stats(model, lines, rules)
    print(f"out-of-vocabulary: {stats['n_oov']} of {stats['n_chars']} "
          f"characters ({stats['n_oov_composable']} composable)")
    out = out_dir / "lm_eval.json"
    write_json(out, {"BPC": bpc, "PPL": ppl, **stats})
    finish_manifest(manifest, out_dir, [out])
    return 0


def _cmd_gate_bias(args, out_dir: Path) -> int:
    model = pron.load_model(args.checkpoint)
    split = phono.read_split_csv(args.split)
    rules = ids.load_rule_table(args.rules)
    entries = dict(split.partitions())[args.partition]
    trees = [ids.decompose(e.ch, rules) for e in entries]
    manifest = start_manifest("gate-bias", config_to_dict(model.config),
                              {"checkpoint": args.checkpoint,
                               "split": args.split, "rules": args.rules},
                              model.config.seed)
    report = diagnostics.gate_bias(model, trees)
    pct = report.percentage
    print(f"left-right roots: {report.total}")
    print(f"prefer right: {report.prefer_right} "
          f"({'n/a' if pct is None else f'{pct:.1f}%'})")
    out = out_dir / "gate_bias.json"
    write_json(out, {"total": report.total,
                     "prefer_right": report.prefer_right, "percentage": pct})
    finish_manifest(manifest, out_dir, [out])
    return 0


def _cmd_probe(args, out_dir: Path) -> int:
    model = pron.load_model(args.checkpoint)
    rules = ids.load_rule_table(args.rules)
    manifest = start_manifest("probe", config_to_dict(model.config),
                              {"checkpoint": args.checkpoint,
                               "rules": args.rules}, model.config.seed)
    trace = diagnostics.probe(model, args.char, rules)
    for row in trace.rows:
        print(f"{row.node_id:3d} {row.token}  ->  {row.onset} {row.nucleus} "
              f"{row.coda}")
    out = out_dir / f"probe_{ord(args.char[0]):05X}.csv"
    diagnostics.probe_to_csv(trace, out)
    finish_manifest(manifest, out_dir, [out], name=out.stem)
    print(f"trace written to {out}")
    return 0


def _cmd_neighbors(args) -> int:
    from .checkpoint import load_checkpoint
    _, manifest = load_checkpoint(args.checkpoint)
    kind = manifest.get("kind")
    if kind == "language-model":
        rules = ids.load_rule_table(args.rules) if args.rules else None
        model = lm.load_lm(args.checkpoint, rules=rules)
        table = diagnostics.lm_embedding_table(model)
    elif kind == "pronunciation":
        if not args.rules or not args.split:
            raise LogotreeError("pronunciation neighbors need --rules and "
                                "--split for the candidate pool")
        model = pron.load_model(args.checkpoint)
        rules = ids.load_rule_table(args.rules)
        split = phono.read_split_csv(args.split)
        chars = sorted({e.ch for _, part in split.partitions() for e in part}
                       | {args.char})
        inputs = pron.encode_inputs(model, chars, rules)
        h = pron.forward_batch(model, inputs)
        table = {ch: h.data[k].copy() for k, ch in enumerate(chars)}
    else:
        raise LogotreeError(f"unsupported checkpoint kind {kind!r}")
    for ch, sim in diagnostics.nearest_neighbors(table, args.char, args.k):
        print(f"{ch}\t{sim:.4f}")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

#: Subcommands that read ``--config``, and the kind of config each reads.
_CONFIG_KINDS = {"train-pron": "run", "grid-search": "run",
                 "run-matrix": "run", "train-lm": "lm"}


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        if args.command in _CONFIG_KINDS:
            if not args.config:
                raise LogotreeError(f"{args.command} needs --config")
            loaded = load_config(args.config, _CONFIG_KINDS[args.command])
            if args.seed is not None:
                loaded.run = dataclasses.replace(loaded.run, seed=args.seed)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "validate-rules":
            return _cmd_validate_rules(args)
        if args.command == "prepare-data":
            return _cmd_prepare_data(args, args.seed or 0, out_dir)
        if args.command == "train-pron":
            return _cmd_train_pron(args, loaded, out_dir)
        if args.command == "eval-pron":
            return _cmd_eval_pron(args, out_dir)
        if args.command == "grid-search":
            return _cmd_grid_search(args, loaded, out_dir)
        if args.command == "run-matrix":
            return _cmd_run_matrix(args, loaded, out_dir)
        if args.command == "train-lm":
            return _cmd_train_lm(args, loaded, out_dir)
        if args.command == "eval-lm":
            return _cmd_eval_lm(args, out_dir)
        if args.command == "gate-bias":
            return _cmd_gate_bias(args, out_dir)
        if args.command == "probe":
            return _cmd_probe(args, out_dir)
        if args.command == "neighbors":
            return _cmd_neighbors(args)
        parser.print_usage(sys.stderr)
        return 2
    except LogotreeError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

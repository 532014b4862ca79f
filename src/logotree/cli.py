"""Command-line entry point.

Subcommands cover the whole workflow: rule-table inspection (``decompose``,
``validate-rules``), dataset preparation (``prepare-data``), pronunciation
training and evaluation (``train-pron``, ``eval-pron``, ``grid-search``,
``run-matrix``), language modeling (``train-lm``, ``eval-lm``), and
diagnostics (``gate-bias``, ``probe``, ``neighbors``). Every command that
writes files writes a manifest beside them: ``dispatch`` hashes into it
every input file the command was given.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import diagnostics, ids, lm, phono, pron
from .atomic import write_csv, write_json
from .config import config_to_dict, load_config
from .errors import CycleError, LogotreeError
from .manifest import now, write_manifest

#: Argument names that name an input file. On a command that reads a
#: config, each overrides the config data key of the same name.
_FILE_ARGS = ("checkpoint", "readings", "variants", "split", "rules",
              "corpus", "corpus_train", "corpus_valid")


class Wrote(NamedTuple):
    """What a command that wrote files hands ``dispatch`` for its manifest."""

    config: dict
    seed: int
    outputs: list
    name: str | None = None  # manifest-<name>.json; the command by default


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


def _char(text: str) -> str:
    """A positional logograph: exactly one character."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(
            f"expected one character, got {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logotree",
        description="Hierarchical logograph embeddings: decomposition "
                    "parsing, pronunciation prediction, language modeling.")
    _add_globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", parser_class=_SubParser)

    def command(name, handler, help, config_kind=None, data_keys=()):
        # config_kind: the kind of --config the command reads; data_keys:
        # the config keys that name its input files
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, config_kind=config_kind,
                       data_keys=data_keys)
        return p

    p = command("decompose", _cmd_decompose, "print a logograph's tree")
    p.add_argument("char", type=_char)
    p.add_argument("--rules", required=True)
    p.add_argument("--max-depth", type=int, default=ids.DEFAULT_MAX_DEPTH)

    p = command("validate-rules", _cmd_validate_rules, "check a rule table")
    p.add_argument("path")

    p = command("prepare-data", _cmd_prepare_data, "build a scenario split CSV")
    p.add_argument("--readings", required=True)
    p.add_argument("--variants")
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--sizes", type=_sizes, help="train,validation,test counts")
    p.add_argument("--out", required=True)

    p = command("train-pron", _cmd_train_pron, "train a pronunciation model",
                "run", ("split", "rules"))
    p.add_argument("--split", help="split CSV (overrides config)")
    p.add_argument("--rules", help="rule table (overrides config)")

    p = command("eval-pron", _cmd_eval_pron, "evaluate a pronunciation model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--partition", default="test",
                   choices=["train", "validation", "test"])

    p = command("grid-search", _cmd_grid_search, "hyperparameter grid search",
                "run", ("split", "rules"))
    p.add_argument("--split")
    p.add_argument("--rules")

    command("run-matrix", _cmd_run_matrix, "experiment matrix to CSV",
            "run", ("rules", "splits"))

    p = command("train-lm", _cmd_train_lm, "train a character language model",
                "lm", ("corpus_train", "corpus_valid", "rules"))
    p.add_argument("--corpus", dest="corpus_train", metavar="CORPUS",
                   help="training corpus (overrides config)")
    p.add_argument("--valid", dest="corpus_valid", metavar="VALID",
                   help="validation corpus")
    p.add_argument("--rules")

    p = command("eval-lm", _cmd_eval_lm, "BPC/PPL of a language model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--rules")

    p = command("gate-bias", _cmd_gate_bias, "root forget-gate asymmetry")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--partition", default="test",
                   choices=["train", "validation", "test"])

    p = command("probe", _cmd_probe, "per-node prediction trace")
    p.add_argument("char", type=_char)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules", required=True)

    p = command("neighbors", _cmd_neighbors, "cosine nearest neighbors")
    p.add_argument("char", type=_char)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules")
    p.add_argument("--split", help="candidate pool for pronunciation models")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the parsed arguments, the loaded
# config (None for a command without one) and its input paths by manifest
# key, and returns an exit code or, having written files, a ``Wrote``
# ---------------------------------------------------------------------------

def _cmd_decompose(args, loaded, paths) -> int:
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


def _cmd_validate_rules(args, loaded, paths) -> int:
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


def _cmd_prepare_data(args, loaded, paths) -> Wrote:
    seed = args.seed or 0
    readings = phono.parse_unihan_readings(args.readings)
    corpus, dropped = phono.build_corpus(readings, seed=seed)
    print(f"characters: {len(corpus)} (dropped {dropped} unsegmentable)")
    variants = phono.parse_unihan_variants(args.variants) if args.variants else None
    split = phono.build_scenario(corpus, args.scenario, seed=seed,
                                 sizes=args.sizes, variants=variants)
    phono.write_split_csv(split, args.out)
    print(f"split written to {args.out} "
          f"({len(split.train)}/{len(split.validation)}/{len(split.test)})")
    return Wrote({"scenario": args.scenario, "sizes": args.sizes}, seed,
                 [args.out])


def _need(paths, *keys) -> list[str]:
    if missing := [k for k in keys if k not in paths]:
        raise LogotreeError(f"no path for {', '.join(missing)}: give the "
                            "flag or the config data key")
    return [paths[k] for k in keys]


def _cmd_train_pron(args, loaded, paths) -> Wrote:
    split_path, rules_path = _need(paths, "split", "rules")
    config = loaded.run
    split = phono.read_split_csv(split_path)
    rules = ids.load_rule_table(rules_path)
    model, history = pron.train(config, split, rules)
    ckpt = args.out_dir / "pron.ckpt"
    pron.save_model(ckpt, model)
    hist_path = args.out_dir / "history.csv"
    write_csv(hist_path, ["epoch", "train_loss", "val_TER"],
              ([h.epoch, f"{h.train_loss:.6f}", f"{h.val_ter:.4f}"]
               for h in history))
    report = pron.evaluate(model, split.test, rules) if split.test else None
    if report:
        print(f"test SER {report.ser:.2f} TER {report.ter:.2f}")
    print(f"checkpoint: {ckpt}")
    return Wrote(config_to_dict(config), config.seed, [ckpt, hist_path])


def _cmd_eval_pron(args, loaded, paths) -> Wrote:
    model = pron.load_model(args.checkpoint)
    split = phono.read_split_csv(args.split)
    rules = ids.load_rule_table(args.rules)
    entries = dict(split.partitions())[args.partition]
    report = pron.evaluate(model, entries, rules)
    row = report.row()
    print(f"n={report.n} SER {row['SER']} TER {row['TER']} "
          f"onset {row['onset']} nucleus {row['nucleus']} coda {row['coda']}")
    out = args.out_dir / "eval.csv"
    pron.write_matrix_csv([{"model": model.model_name(),
                            "scenario": model.config.scenario,
                            "order": model.config.output_order,
                            "ablation": "full" if model.config.operators
                                        else "no-operators", **row}], out)
    return Wrote(config_to_dict(model.config), model.config.seed, [out])


def _cmd_grid_search(args, loaded, paths) -> Wrote:
    split_path, rules_path = _need(paths, "split", "rules")
    config = loaded.run
    split = phono.read_split_csv(split_path)
    rules = ids.load_rule_table(rules_path)
    grid = loaded.data.get("grid", {})
    lrs = tuple(grid.get("learning_rates", pron.DEFAULT_LR_GRID))
    drops = tuple(grid.get("dropouts", pron.DEFAULT_DROPOUT_GRID))
    best, table = pron.grid_search(config, split, rules, lrs, drops,
                                   n_jobs=args.threads)
    table_path = args.out_dir / "grid.csv"
    write_csv(table_path, ["learning_rate", "dropout", "dev_TER"], table)
    best_path = args.out_dir / "best_config.json"
    write_json(best_path, {"run": config_to_dict(best)})
    print(f"best: lr={best.learning_rate} dropout={best.dropout}")
    return Wrote(config_to_dict(config), config.seed, [table_path, best_path])


def _cmd_run_matrix(args, loaded, paths) -> Wrote:
    splits_map = loaded.data.get("splits")
    if "rules" not in paths or not splits_map:
        raise LogotreeError("run-matrix config needs 'rules' and 'splits'")
    config = loaded.run
    rules = ids.load_rule_table(paths["rules"])
    splits = {int(k): phono.read_split_csv(v) for k, v in splits_map.items()}
    matrix = loaded.data.get("matrix", {})
    encoders = tuple(tuple(e) if isinstance(e, list) else (e, 1)
                     for e in matrix.get("encoders", [["treelstm", 1]]))
    scenarios = tuple(matrix.get("scenarios", [1]))
    orders = tuple(matrix.get("orders", ["cd_nu_on"]))
    ablations = tuple(matrix.get("ablations", [False]))
    rows = pron.run_matrix(config, splits, rules, encoders=encoders,
                           scenarios=scenarios, orders=orders,
                           ablations=ablations)
    out = args.out_dir / "matrix.csv"
    pron.write_matrix_csv(rows, out)
    print(f"{len(rows)} rows written to {out}")
    return Wrote(config_to_dict(config), config.seed, [out])


def _cmd_train_lm(args, loaded, paths) -> Wrote:
    corpus_path, = _need(paths, "corpus_train")
    config = loaded.run
    rules = ids.load_rule_table(paths["rules"]) if "rules" in paths else None
    train_lines = lm.read_corpus(corpus_path)
    valid_lines = (lm.read_corpus(paths["corpus_valid"])
                   if "corpus_valid" in paths else None)
    model, history = lm.train_lm(config, train_lines, valid_lines, rules)
    ckpt = args.out_dir / "lm.ckpt"
    lm.save_lm(ckpt, model)
    hist_path = args.out_dir / "lm_history.csv"
    write_csv(hist_path,
              ["epoch", "train_bpc"] + (["valid_bpc"] if valid_lines else []),
              ({k: (f"{v:.6f}" if isinstance(v, float) else v)
                for k, v in h.items()} for h in history))
    print(f"final train BPC {history[-1]['train_bpc']:.4f}; checkpoint: {ckpt}")
    return Wrote(config_to_dict(config), config.seed, [ckpt, hist_path])


def _cmd_eval_lm(args, loaded, paths) -> Wrote:
    rules = ids.load_rule_table(args.rules) if args.rules else None
    model = lm.load_lm(args.checkpoint, rules=rules)
    lines = lm.read_corpus(args.corpus)
    cache = lm.build_cache(model) if model.hierarchical else None
    bpc, ppl = lm.eval_lm(model, lines, cache=cache)
    print(f"BPC {bpc:.4f} PPL {ppl:.4f}")
    stats = lm.oov_stats(model, lines, rules)
    print(f"out-of-vocabulary: {stats['n_oov']} of {stats['n_chars']} "
          f"characters ({stats['n_oov_composable']} composable)")
    out = args.out_dir / "lm_eval.json"
    # strict JSON has no Infinity: a perplexity past the float range is null
    write_json(out, {"BPC": bpc, "PPL": ppl if math.isfinite(ppl) else None,
                     **stats})
    return Wrote(config_to_dict(model.config), model.config.seed, [out])


def _cmd_gate_bias(args, loaded, paths) -> Wrote:
    model = pron.load_model(args.checkpoint)
    split = phono.read_split_csv(args.split)
    rules = ids.load_rule_table(args.rules)
    entries = dict(split.partitions())[args.partition]
    trees = [ids.decompose(e.ch, rules) for e in entries]
    report = diagnostics.gate_bias(model, trees)
    pct = report.percentage
    print(f"left-right roots: {report.total}")
    print(f"prefer right: {report.prefer_right} "
          f"({'n/a' if pct is None else f'{pct:.1f}%'})")
    out = args.out_dir / "gate_bias.json"
    write_json(out, {"total": report.total,
                     "prefer_right": report.prefer_right, "percentage": pct})
    return Wrote(config_to_dict(model.config), model.config.seed, [out])


def _cmd_probe(args, loaded, paths) -> Wrote:
    model = pron.load_model(args.checkpoint)
    rules = ids.load_rule_table(args.rules)
    trace = diagnostics.probe(model, args.char, rules)
    for row in trace.rows:
        print(f"{row.node_id:3d} {row.token}  ->  {row.onset} {row.nucleus} "
              f"{row.coda}")
    out = args.out_dir / f"probe_{ord(args.char):05X}.csv"
    diagnostics.probe_to_csv(trace, out)
    print(f"trace written to {out}")
    return Wrote(config_to_dict(model.config), model.config.seed, [out],
                 name=out.stem)


def _cmd_neighbors(args, loaded, paths) -> int:
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

def _input_paths(args, data: dict) -> dict[str, str]:
    """Every input file the command was given, by manifest key: the config
    paths it reads by data key (``splits`` as ``split<k>``), then each file
    argument by its name, over the data key of the same name."""
    paths = {k: data[k] for k in args.data_keys
             if k != "splits" and data.get(k)}
    if "splits" in args.data_keys:
        paths.update({f"split{k}": v for k, v in data.get("splits", {}).items()})
    paths.update({k: getattr(args, k) for k in _FILE_ARGS
                  if getattr(args, k, None)})
    return paths


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    args.out_dir = Path(args.out_dir)
    try:
        try:
            return _run(args)
        finally:
            # a reader that stopped early shows here, not at interpreter exit
            sys.stdout.flush()
    except BrokenPipeError:
        return _reader_stopped()
    except LogotreeError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    loaded = None
    if args.config_kind:
        if not args.config:
            raise LogotreeError(f"{args.command} needs --config")
        loaded = load_config(args.config, args.config_kind)
        if args.seed is not None:
            loaded.run = dataclasses.replace(loaded.run, seed=args.seed)
    paths = _input_paths(args, loaded.data if loaded else {})
    started_at = now()
    result = args.handler(args, loaded, paths)
    if not isinstance(result, Wrote):
        return result
    # hashed only now, so that a missing or malformed input has already ended
    # in its loader's typed error
    write_manifest(args.out_dir, args.command, result.config, paths,
                   result.seed, started_at, result.outputs, result.name)
    return 0


def _reader_stopped() -> int:
    """Exit status 141 (a writer ended by SIGPIPE) for a closed stdout.

    Stdout then points at the null device, so the output still buffered
    is dropped there at interpreter exit instead of failing again.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        sys.stdout = open(os.devnull, "w")
    finally:
        os.close(devnull)
    return 141


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

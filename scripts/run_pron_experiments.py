#!/usr/bin/env python3
"""End-to-end pronunciation experiment driver.

Builds the three scenario splits from a data directory (see
scripts/fetch_data.py), runs the hyperparameter grid for the chosen
encoder, then fills the full experiment matrix (all encoders x scenarios,
plus the linearization, ablation, and output-order comparisons) and writes
the report CSVs. Expect hours of CPU at full scale; pass --toy to smoke
the pipeline on the shipped mini fixtures in about a minute.
"""

import argparse
import sys
from pathlib import Path

from logotree import ids, phono, pron
from logotree.atomic import write_csv, write_json
from logotree.cli import dispatch
from logotree.config import RunConfig, config_to_dict
from logotree.manifest import now, write_manifest

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default=None,
                        help="directory with Unihan_Readings.txt, "
                             "Unihan_Variants.txt, ids.txt")
    parser.add_argument("--out-dir", default="runs/pron")
    parser.add_argument("--toy", action="store_true",
                        help="use the shipped mini fixtures and tiny models")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    if args.toy:
        readings = REPO / "tests" / "data" / "mini_readings.txt"
        variants = REPO / "tests" / "data" / "mini_variants.txt"
        rules = REPO / "tests" / "data" / "mini_ids.txt"
        sizes = {1: "120,30,40", 2: "100,20,30", 3: "40,5,50"}
        run = {"hidden": 16, "d_in": 8, "batch_size": 32, "epochs": 10,
               "learning_rate": 3e-3, "dropout": 0.1, "seed": args.seed}
        grid = {"learning_rates": [3e-3, 1e-3], "dropouts": [0.0, 0.2]}
    else:
        if not args.data_dir:
            parser.error("--data-dir is required without --toy")
        data = Path(args.data_dir)
        readings = data / "Unihan_Readings.txt"
        variants = data / "Unihan_Variants.txt"
        rules = data / "ids.txt"
        sizes = {1: "16000,2400,2400", 2: "16000,2400,2400", 3: "2302,200,2400"}
        run = {"epochs": 200, "seed": args.seed}
        grid = {}  # full default grid: 6 learning rates x 6 dropout rates

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    splits = {}
    for scenario in (1, 2, 3):
        split_path = out_dir / f"split{scenario}.csv"
        rc = dispatch(["--out-dir", str(out_dir), "--seed", str(args.seed),
                       "prepare-data", "--readings", str(readings),
                       "--variants", str(variants),
                       "--scenario", str(scenario),
                       "--sizes", sizes[scenario],
                       "--out", str(split_path)])
        if rc != 0:
            return rc
        splits[str(scenario)] = str(split_path)

    config = {
        "run": {"encoder": "treelstm", **run},
        "split": splits["1"],
        "splits": splits,
        "rules": str(rules),
        "grid": grid,
        "matrix": {
            "encoders": [["treelstm", 1], ["lstm", 1], ["lstm", 2],
                         ["bilstm", 1], ["bilstm", 2], ["cnn", 1]],
            "scenarios": [1, 2, 3],
            "orders": ["cd_nu_on", "on_nu_cd"],
            "ablations": [False, True],
        },
    }
    config_path = out_dir / "experiment.json"
    write_json(config_path, config)

    rc = dispatch(["--config", str(config_path), "--out-dir", str(out_dir),
                   "--threads", str(args.threads), "grid-search"])
    if rc != 0:
        return rc
    rc = dispatch(["--config", str(config_path), "--out-dir", str(out_dir),
                   "run-matrix"])
    if rc != 0:
        return rc

    # linearization study: tuned best dev TER per sequence encoder and
    # pre/post/in-order input, on the scenario-1 development set; a toy run
    # studies two encoders over the toy grid
    started_at = now()
    inputs = {"split": splits["1"], "rules": str(rules)}
    split1 = phono.read_split_csv(inputs["split"])
    table = ids.load_rule_table(inputs["rules"])
    base = RunConfig(**config["run"])
    study = {"encoders": [["lstm", 1], ["cnn", 1]], **grid} if args.toy else {}
    rows = pron.linearization_study(base, split1, table, n_jobs=args.threads,
                                    **study)
    study_path = out_dir / "linearization_study.csv"
    write_csv(study_path, ["model", "linearization", "dev_TER"], rows)
    write_manifest(out_dir, "linearization-study",
                   {"run": config_to_dict(base), **study}, inputs, args.seed,
                   started_at, [study_path])
    print(f"linearization study written to {study_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

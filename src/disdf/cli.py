"""Command-line interface: train, predict, and bench subcommands.

Training flags and ``--config`` file lines give TrainConfig fields as text,
flags winning; ``TrainConfig.from_text`` parses both, so ``none`` unsets
``--pair-budget`` or ``--max-depth`` and a bad value exits 3 from either.

Exit codes: 0 ok, 1 internal error, 2 I/O or data-file error, 3 validation
error; a stdout closed by its reader after the output file is written is no
error.  A ``train --out`` path that is a directory or whose directory does not
exist, a ``bench --out-dir`` that is a file or lies under one, a ``bench
--name`` that is not one plain file name, and a bench CSV path that is a
directory exit 2 before any training.  The DISDF_THREADS environment variable
sets the default worker count; --threads overrides it.  A worker count, ``bench --reps`` or
an entry of ``bench --N-list``/``--T-list`` that is not an integer of at
least 1 exits 3, and so does a list with no entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .cascade import predict_batch, train_cascade
from .config import TrainConfig
from .data import load_csv, load_features
from .errors import (
    ConfigError,
    DataError,
    DegeneratePairsError,
    DimensionError,
    DisdfError,
    ModelFormatError,
)
from .evaluation import run_grid
from .serialize import load_model, save_model

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
# the longest --config file read; a config names a dozen fields, so a longer
# file is not one, and it is refused without being read whole
CONFIG_BYTES = 1 << 16


def _parse_label_col(text: str):
    stripped = text.strip()
    if stripped.lstrip("-").isdigit():
        return int(stripped)
    return stripped


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    values = tuple(_positive_int(tok, f"{what} entry") for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError(f"{what} needs at least one integer, got {text!r}")
    return values


def _read_config_file(path) -> tuple[dict, dict]:
    """A config file's ``key=value`` texts, and the ``file:line`` of each key.

    At most ``CONFIG_BYTES`` bytes are read; a longer file is refused with
    :class:`DataError`.
    """
    text, origin = {}, {}
    try:
        with open(path, "rb") as fh:
            raw = fh.read(CONFIG_BYTES + 1)
        if len(raw) > CONFIG_BYTES:
            raise DataError(f"config file {path} is longer than {CONFIG_BYTES} bytes")
        lines = raw.decode("utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{line_no}: expected '<field>=<value>', got {line!r}")
        key = key.strip()
        text[key], origin[key] = value, f"{path}:{line_no}"
    return text, origin


def _build_config(args) -> TrainConfig:
    text, origin = _read_config_file(args.config) if args.config else ({}, {})
    for f in dataclasses.fields(TrainConfig):
        flag_text = getattr(args, f.name, None)
        if flag_text is not None:
            text[f.name] = flag_text
            origin.pop(f.name, None)
    return TrainConfig.from_text(text, origin)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # each flag stores its text under the TrainConfig field it sets
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--mode", dest="mode", metavar="{disdf,baseline}")
    p.add_argument("--trees", dest="trees_per_forest", help="trees per forest")
    p.add_argument("--forests", dest="forests_per_level", help="forests per level")
    p.add_argument("--max-levels", dest="max_levels")
    p.add_argument("--patience", dest="patience")
    p.add_argument("--folds", dest="folds")
    p.add_argument("--tau", dest="tau", help="contrastive margin")
    p.add_argument("--lambda", dest="lam", help="regularization strength")
    p.add_argument("--fw-iterations", dest="fw_iterations",
                   help="iteration cap of each forest's weight solve")
    p.add_argument("--pair-budget", dest="pair_budget", help="pairs per forest, or none")
    p.add_argument("--seed", dest="seed")
    p.add_argument("--min-leaf", dest="min_leaf",
                   help="smallest node that may split; a pure node never splits, "
                   "so 1 and 2 grow the same trees")
    p.add_argument("--max-depth", dest="max_depth", help="tree depth cap, or none")
    p.add_argument("--stratify", dest="stratify", action="store_const", const="true")


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"{what} must be at least 1, got {value}")
    return value


def _threads(args) -> int:
    if args.threads is not None:
        return _positive_int(args.threads, "--threads")
    env = os.environ.get("DISDF_THREADS")
    return _positive_int(env, "DISDF_THREADS") if env else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disdf",
        description="Cascade forest classifier with metric-learned tree weights.",
    )
    parser.add_argument("--threads", help="worker process cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write it to disk")
    p_train.add_argument("--data", required=True, help="labeled CSV file")
    p_train.add_argument("--label-col", required=True, type=_parse_label_col)
    p_train.add_argument("--out", required=True, help="output model path")
    _add_config_flags(p_train)
    p_train.set_defaults(run=cmd_train)

    p_pred = sub.add_parser("predict", help="predict class indices for a feature CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="feature CSV")
    p_pred.add_argument(
        "--label-col",
        type=_parse_label_col,
        default=None,
        help="if given, drop this column, whatever its values, before predicting",
    )
    p_pred.add_argument("--out", required=True, help="output CSV of class indices")
    p_pred.set_defaults(run=cmd_predict)

    p_bench = sub.add_parser("bench", help="run the N-by-T comparison grid")
    p_bench.add_argument("--data", required=True)
    p_bench.add_argument("--label-col", required=True, type=_parse_label_col)
    p_bench.add_argument("--N-list", dest="n_list", required=True)
    p_bench.add_argument("--T-list", dest="t_list", required=True)
    p_bench.add_argument("--reps", default="100")
    p_bench.add_argument("--out-dir", dest="out_dir", default="bench-results")
    p_bench.add_argument("--name", default=None, help="dataset name for reports")
    _add_config_flags(p_bench)
    p_bench.set_defaults(run=cmd_bench)

    return parser


def _report(*lines: str) -> None:
    """Print a finished command's summary; a reader that closed stdout is no error."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit: send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_train(args) -> int:
    cfg = _build_config(args)
    workers = _threads(args)
    # checked before training, which would otherwise be lost at save_model
    out = Path(args.out)
    if not out.parent.is_dir():
        raise DataError(f"cannot write {out}: {out.parent} is not a directory")
    if out.is_dir():
        raise DataError(f"cannot write {out}: it is a directory")
    ds = load_csv(args.data, args.label_col)
    model = train_cascade(ds, cfg, workers=workers)
    save_model(model, args.out)
    scores = ", ".join(f"{s:.4f}" for s in model.level_scores)
    _report(
        f"trained {model.n_levels} level(s) on {ds.n} rows "
        f"({ds.feature_dim} features, {ds.num_classes} classes)",
        f"level scores: [{scores}]; model written to {args.out}",
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    X = load_features(args.data, args.label_col)
    if X.shape[0] == 0:
        Path(args.out).write_text("")
        _report(f"0 predictions written to {args.out}")
        return EXIT_OK
    preds = predict_batch(model, X)
    Path(args.out).write_text("".join(f"{p}\n" for p in preds))
    _report(f"{len(preds)} predictions written to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    workers = _threads(args)
    reps = _positive_int(args.reps, "--reps")
    train_sizes = _parse_int_list(args.n_list, "--N-list")
    tree_counts = _parse_int_list(args.t_list, "--T-list")
    out_dir = Path(args.out_dir)
    # checked before the grid, whose results a failing mkdir would lose: the
    # nearest existing one of out_dir and its parents must be a directory
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"cannot make {out_dir}: {existing} is not a directory")
    # the name must keep both CSVs in out_dir, and neither may be a directory
    name = args.name or Path(args.data).stem
    if name in (".", "..") or Path(name).name != name:
        raise DataError(f"--name {name!r} is not a plain file name")
    per_rep = out_dir / f"{name}_accuracies.csv"
    summary = out_dir / f"{name}_summary.csv"
    for path in (per_rep, summary):
        if path.is_dir():
            raise DataError(f"cannot write {path}: it is a directory")
    ds = load_csv(args.data, args.label_col)
    result = run_grid(
        ds, train_sizes, tree_counts, reps, cfg, workers=workers, dataset_name=name
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_csv(per_rep)
    result.write_summary_csv(summary)
    _report(result.format_table(), f"per-rep results: {per_rep}", f"summary: {summary}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, DimensionError, DegeneratePairsError) as exc:
        print(f"disdf: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DataError, ModelFormatError, OSError) as exc:
        print(f"disdf: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DisdfError as exc:
        print(f"disdf: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

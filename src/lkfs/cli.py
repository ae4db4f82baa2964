"""Command-line interface.

Subcommands: synth, preprocess, select, cluster, evaluate, run, inspect.
All but synth and inspect build one RunConfig: the --config file's or the
defaults, with each flag given a value overriding the field its dest names.
Exit codes: 0 success, 1 usage/config error (a config file that is not
UTF-8 JSON is one), 2 data validation error (an empty or whitespace-only
feature name, sample id or label is one, and so is a file that cannot be
read as UTF-8 text or cannot be written: one line that names the file) or out
of memory (also a run refused before any work because its lkfs selection
source alone would exceed physical memory), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import clustering, dataio, evaluation, pipeline
from .errors import ConfigError, DataValidationError, NumericalError
from .pipeline import RunConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise _UsageError(message)


def _int_at_least(lowest: int):
    """An argparse type for integers >= ``lowest``, so that the error names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lowest:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lowest}, got {text!r}")
        return value

    return parse


def _int_list(lowest: int):
    """An argparse type for comma lists of integers >= ``lowest``, so that the
    error names the flag. A blank list stays "", unset as in ``_names``."""
    one = _int_at_least(lowest)
    return lambda text: tuple(one(v) for v in text.split(",") if v.strip()) or ""


def _names(text: str):  # "" stays "", so an empty --methods is unset as an empty --input is
    return text and tuple(m.strip() for m in text.split(",") if m.strip())


_seed = _int_at_least(0)  # numpy seeds its generators only from integers >= 0


def _progress_printer(log_json: bool):
    def emit(event: dict) -> None:
        if log_json:
            print(json.dumps(event, sort_keys=True), file=sys.stderr, flush=True)
        else:
            fields = " ".join(f"{k}={v}" for k, v in event.items())
            print(fields, file=sys.stderr, flush=True)

    return emit


def build_parser() -> _Parser:
    parser = _Parser(prog="lkfs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic labeled fixture")
    synth.add_argument("--n", type=_int_at_least(2), default=200)
    synth.add_argument("--d", type=_int_at_least(1), default=100)
    synth.add_argument("--informative", type=_int_at_least(0), default=10)
    synth.add_argument("--separation", type=float, default=4.0)
    synth.add_argument("--seed", type=_seed, default=0)
    synth.add_argument("--out", required=True, help="output directory")

    # a setting's flag has its RunConfig field (or "preprocess.<field>") as dest and no
    # default of its own (see _load_config); k-means needs k >= 2 and RED needs p >= 2
    k_grid = {"type": _int_list(2), "dest": "k_grid", "metavar": "K"}
    restarts = {"type": _int_at_least(1), "dest": "kmeans_restarts", "metavar": "RESTARTS"}

    pre = sub.add_parser("preprocess", help="min-max scale then variance-filter a matrix")
    pre.add_argument("--input", required=True)
    pre.add_argument("--orientation", choices=dataio.ORIENTATIONS)
    pre.add_argument(
        "--keep-fraction", type=float, dest="preprocess.variance_keep_fraction",
        metavar="KEEP_FRACTION",
    )
    pre.add_argument("--out", required=True, help="output matrix file")

    sel = sub.add_parser("select", help="run one selection method on a preprocessed matrix")
    sel.add_argument("--input", required=True)
    sel.add_argument(
        "--orientation", choices=dataio.ORIENTATIONS,
        help="overrides the config file's orientation (default rows)",
    )
    sel.add_argument("--method", choices=pipeline.METHODS, default="lkfs")
    sel.add_argument("--p", type=int, required=True)
    sel.add_argument("--seed", type=_seed, help="overrides the config file's seed (default 0)")
    sel.add_argument("--config", help="JSON run configuration")
    sel.add_argument("--out", required=True, help="solution JSON path")

    clus = sub.add_parser("cluster", help="k-means a matrix and dump assignments")
    clus.add_argument("--input", required=True)
    clus.add_argument("--orientation", choices=dataio.ORIENTATIONS)
    clus.add_argument("--k", type=_int_at_least(2), required=True)
    clus.add_argument("--restarts", **restarts)
    clus.add_argument("--seed", type=_seed)
    clus.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="score a feature selection against a matrix")
    ev.add_argument("--input", required=True)
    ev.add_argument("--orientation", choices=dataio.ORIENTATIONS)
    ev.add_argument("--labels")
    ev.add_argument("--selection", required=True, help="solution JSON or one feature name per line")
    ev.add_argument("--k", **k_grid)
    ev.add_argument("--restarts", **restarts)
    ev.add_argument("--seed", type=_seed)
    ev.add_argument("--out", help="metrics JSON path (default stdout)")

    run = sub.add_parser("run", help="full repeated-resample experiment")
    run.add_argument("--config", help="JSON run configuration")
    run.add_argument("--input")
    run.add_argument("--labels")
    run.add_argument("--orientation", choices=dataio.ORIENTATIONS)
    run.add_argument("--methods", type=_names, help="comma list from {lkfs,skm,spec}")
    run.add_argument(
        "--p", type=_int_list(2), dest="p_grid", metavar="P", help="comma list of p values"
    )
    run.add_argument("--k", **k_grid, help="comma list of k values")
    run.add_argument("--reps", type=_int_at_least(1), dest="preprocess.repetitions", metavar="REPS")
    run.add_argument("--seed", type=_seed)
    run.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    run.add_argument("--force", action="store_true")
    run.add_argument("--log-json", action="store_true")
    run.add_argument("--print-config", action="store_true", help="dump effective config and exit")

    insp = sub.add_parser("inspect", help="pretty-print a solution or report JSON")
    insp.add_argument("--path", required=True)

    return parser


def _load_config(args) -> RunConfig:
    """The config file's settings (RunConfig's defaults without one), with each
    flag given a value set on the field its dest names. A flag left out, or
    given an empty string, keeps the file's or the default value."""
    doc = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:  # text that is not UTF-8 and text that is not JSON are both ValueErrors
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    config = RunConfig.from_dict(doc)

    fields, overrides, preprocess = {f.name for f in dataclasses.fields(config)}, {}, {}
    for dest, value in vars(args).items():
        if value is None or value == "":
            continue
        if dest.startswith("preprocess."):
            preprocess[dest.removeprefix("preprocess.")] = value
        elif dest in fields:
            overrides[dest] = value
    overrides["preprocess"] = dataclasses.replace(config.preprocess, **preprocess)
    return dataclasses.replace(config, **overrides)


def _config_and_input(args) -> tuple[RunConfig, dataio.ExpressionMatrix]:
    """The settings of a stepwise command and the matrix they name. An --out
    whose directory is missing, or is a file, fails here, before any work,
    as a write there would."""
    config = _load_config(args)
    if config.input is None:  # an empty --input
        raise ConfigError(f"{args.command} needs an input matrix")
    parent = Path(args.out).parent if args.out else None
    if parent is not None and not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        # OSError takes the subclass of the code: NotADirectoryError, FileNotFoundError
        raise OSError(code, os.strerror(code), args.out)
    return config, dataio.load_matrix(config.input, config.orientation)


def _cmd_synth(args) -> int:
    X, labels = dataio.generate_synthetic(
        n=args.n, d=args.d, informative=args.informative, separation=args.separation, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_matrix(X, out / "matrix.tsv")
    dataio.save_labels(labels, out / "labels.tsv")
    print(f"wrote {out / 'matrix.tsv'} ({X.n} x {X.d}) and {out / 'labels.tsv'}")
    return 0


def _cmd_preprocess(args) -> int:
    config, X = _config_and_input(args)
    Xp = pipeline.preprocess_matrix(X, config.preprocess)
    dataio.save_matrix(Xp, args.out)
    print(f"wrote {args.out} ({Xp.n} x {Xp.d})")
    return 0


def _solution_doc(method: str, selected, result, names) -> dict:
    """The `select` document: ``mu`` maps each selected feature to its lkfs
    weight, SKM weight or SPEC score; ``trajectory`` holds the lkfs alignments,
    the SKM objectives, or nothing. Only lkfs has a target alignment."""
    target, stop_reason = None, "reached_p"
    if method == "lkfs":
        values, trajectory = result.mu, result.alignment_trajectory
        target, stop_reason = float(result.target_alignment), result.stop_reason
    elif method == "skm":
        values, trajectory = result.weights, result.objective_history
    else:
        values, trajectory = result.scores, ()
    return {
        "method": method,
        "selected": [names[j] for j in selected],
        "mu": {names[j]: float(values[j]) for j in selected},
        "trajectory": [float(a) for a in trajectory],
        "target_alignment": target,
        "stop_reason": stop_reason,
    }


def _cmd_select(args) -> int:
    config, X = _config_and_input(args)
    # skm's sparsity bound s = sqrt(p) must exceed 1
    lowest = 2 if args.method == "skm" else 1
    if not lowest <= args.p <= X.d:
        raise ConfigError(
            f"--p must be between {lowest} and the matrix width {X.d} for {args.method}, "
            f"got {args.p}"
        )
    config = dataclasses.replace(config, p_grid=(args.p,))
    [(_, selected, result)] = pipeline.select_features(args.method, X, config, rep=0)
    doc = _solution_doc(args.method, selected, result, X.feature_names)
    Path(args.out).write_text(pipeline._json_text(doc), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    config, X = _config_and_input(args)
    assignment = clustering.kmeans(X.values, args.k, config.kmeans_restarts, config.seed)
    lines = [f"{sid}\t{c}" for sid, c in zip(X.sample_ids, assignment.labels)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} (k={args.k}, inertia={assignment.inertia:.6g})")
    return 0


def _read_text(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise DataValidationError(f"{what} not found: {path}")
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _read_selection(path: str, feature_names: tuple[str, ...]) -> list[int]:
    """Column indices of a `select` document's `selected` list, or of a text
    file's feature names, one per line."""
    text = _read_text(path, "selection file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        names = doc.get("selected")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DataValidationError(
                f"{path}: 'selected' must be a list of feature names, got {names!r:.80}"
            )
    else:
        names = [ln.strip() for ln in text.splitlines() if ln.strip()]
    index = {name: j for j, name in enumerate(feature_names)}
    missing = [n for n in names if n not in index]
    if missing:
        raise DataValidationError(f"selection names not in matrix: {missing[:5]}")
    repeated = sorted(n for n, count in Counter(names).items() if count > 1)
    if repeated:
        raise DataValidationError(f"selection repeats features: {repeated[:5]}")
    if len(names) < 2:
        raise DataValidationError(f"selection needs at least 2 features to score RED, got {names}")
    return [index[n] for n in names]


def _cmd_evaluate(args) -> int:
    config, X = _config_and_input(args)
    selected = _read_selection(args.selection, X.feature_names)
    labels = dataio.load_labels(config.labels) if config.labels is not None else None
    red, metrics = pipeline.score_selection(X, selected, labels, config, rep=0, p=len(selected))
    text = pipeline._json_text({"red": red, "clusterings": evaluation.report_fields(metrics)})
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    if args.print_config:
        print(pipeline._json_text(dataclasses.asdict(config)), end="")
        return 0
    if config.input is None:
        raise ConfigError("run needs an input matrix (--input or config file)")
    pipeline.check_output_dir(config.output_dir, force=args.force)
    progress = _progress_printer(args.log_json)
    result = pipeline.run_experiment(config, progress=progress)
    written = pipeline.emit_outputs(result, config.output_dir, force=args.force)
    print(f"wrote {len(written)} files to {config.output_dir}")
    return 0


def _report_lines(doc: dict) -> list[str]:
    lines = [
        f"report: method={doc.get('method')} dataset={doc.get('dataset_id')}",
        f"repetition records: {len(doc.get('repetitions', []))}",
        f"{'p':>4} {'k':>3} {'RED':>8} {'Rand':>8} {'ARI':>8} {'inertia':>10}",
    ]
    for cell in doc["aggregates"]:
        # Rand and ARI are null in the report of a run without labels
        rand, ari = (
            "None" if v is None else format(v, ".4f")
            for v in (cell.get("rand_index_mean"), cell.get("adjusted_rand_index_mean"))
        )
        lines.append(
            f"{cell['p']:>4} {cell['k']:>3} {cell['red_mean']:>8.4f} {rand:>8} {ari:>8} "
            f"{cell['inertia_mean']:>10.4g}"
        )
    return lines


def _solution_lines(doc: dict) -> list[str]:
    lines = [
        f"solution: method={doc.get('method')} stop={doc.get('stop_reason')}",
        f"selected ({len(doc['selected'])}): {', '.join(doc['selected'])}",
    ]
    if doc.get("target_alignment") is not None:
        lines.append(f"target alignment: {doc['target_alignment']:.6f}")
    if doc.get("trajectory"):
        lines.append("trajectory: " + ", ".join(f"{a:.6f}" for a in doc["trajectory"]))
    return lines


def _cmd_inspect(args) -> int:
    try:
        doc = json.loads(_read_text(args.path, "file"))
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{args.path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "aggregates" in doc:
        what, describe = "report", _report_lines
    elif isinstance(doc, dict) and "selected" in doc:
        what, describe = "solution", _solution_lines
    elif isinstance(doc, (dict, list)):
        print(pipeline._json_text(doc), end="")
        return 0
    else:
        raise DataValidationError(f"{args.path} holds neither a JSON object nor a list")
    try:
        lines = describe(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(
            f"{args.path} is not a well-formed {what} ({type(exc).__name__}: {exc})"
        ) from None
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "select": _cmd_select,
    "cluster": _cmd_cluster,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"data error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written; the message names it
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

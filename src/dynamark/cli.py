"""Command-line interface: extract, train, eval, annotate, rerun.

Each command's options are its sub-parser's flags.  Option precedence is
CLI flags > config file > built-in defaults.  Config files are flat
``key = value`` lines of options (``#`` comments allowed).  A file value,
and each value that ``dynamark rerun <manifest>`` replays from the
RunManifest JSON that every command writes next to its outputs, is read
with the type and choices of its flag.  ``train`` and ``annotate`` take
the feature kind that their input files record.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .audio import FEATURE_BINS, FPS, load_features, save_features, total_loudness, wav_features
from .dataset import _read_rows, load_annotation, load_corpus, make_folds, read_text, write_segment_manifest
from .errors import CheckpointError, ConfigError, DynamarkError, SchemaError
from .metrics import mean_std, score_recording
from .network import ModelConfig
from .postprocess import EventReport, check_times, snap_to_nearest
from .trainer import (
    TASK_F1_KEYS,
    TrainConfig,
    annotate_features,
    fold_table,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train_fold,
)

# Each command's option defaults.
DEFAULTS = {"extract": {"feature": "bssl"},
            "train": {**asdict(ModelConfig()), **asdict(TrainConfig()), "k_folds": 5},
            "eval": {}, "annotate": {}}


def parse_config_file(path) -> dict:
    """Flat key=value config; returns {key: string} with '-' -> '_'."""
    values = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


SWITCH_WORDS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _from_text(text: str, flag: argparse.Action, source) -> object:
    """``text`` read as ``flag`` reads its argument, with its type and choices (a
    switch takes one of ``SWITCH_WORDS``); a bad value is a ConfigError naming ``source``."""
    try:
        if flag.nargs == 0:
            return SWITCH_WORDS[text.lower()]
        value = flag.type(text) if flag.type else text
    except (KeyError, ValueError):
        expected = "true or false" if flag.nargs == 0 else f"a value of type {flag.type.__name__}"
        raise ConfigError(f"{source}: {flag.dest} must be {expected}, got {text!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise ConfigError(f"{source}: {flag.dest} must be one of {', '.join(flag.choices)}, got {text!r}")
    return value


def _from_json(value, flag: argparse.Action, command: str, source) -> object:
    """A manifest's recorded ``value`` converted as the same text in a config
    file would be; null is kept only for an optional flag whose default is null."""
    if value is None:
        if flag.required or DEFAULTS[command].get(flag.dest) is not None:
            raise ConfigError(f"{source}: {flag.dest} must not be null")
        return None
    return _from_text(value if isinstance(value, str) else json.dumps(value), flag, source)


def resolve_options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Merge defaults <- config file <- explicit flags for the options of
    ``args.command``.  A config-file value is read as its flag reads it; a
    config key that no command has is an error."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        known = {key for command in COMMANDS for key in _flags(parser, command)}
        if unknown := [key for key in file_values if key not in known]:
            raise ConfigError(f"{args.config}: unknown option {', '.join(unknown)}")
    resolved = {}
    for key, flag in _flags(parser, args.command).items():
        value = DEFAULTS[args.command].get(key)
        if key in file_values:
            value = _from_text(file_values[key], flag, args.config)
        if getattr(args, key) is not None:
            value = getattr(args, key)
        resolved[key] = value
    return resolved


def build_configs(resolved: dict, input_bins: int) -> tuple[ModelConfig, TrainConfig]:
    model_kwargs = {f.name: resolved[f.name] for f in fields(ModelConfig) if f.name in resolved}
    train_kwargs = {f.name: resolved[f.name] for f in fields(TrainConfig) if f.name in resolved}
    return ModelConfig(**model_kwargs, input_bins=input_bins), TrainConfig(**train_kwargs)


def write_manifest(path, command: str, resolved: dict, inputs, outputs,
                   wall_clock_s: float) -> None:
    """Atomic write (tmp + rename) next to the outputs."""
    manifest = {
        "command": command,
        "resolved_options": {k: v for k, v in sorted(resolved.items())},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": resolved.get("seed"),
        "tool_version": __version__,
        "wall_clock_s": round(wall_clock_s, 3),
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, path)


def _write_json(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


# --------------------------------------------------------------------------
# extract
# --------------------------------------------------------------------------

def _extract_one(wav_path: str, out_path: str, kind: str) -> dict:
    """Pure per-file unit of work; safe to run on worker threads."""
    try:
        values = wav_features(wav_path, [kind])[kind]
        save_features(out_path, values, kind)
    except DynamarkError as exc:
        return {"input": wav_path, "status": "failed", "error": str(exc)}
    return {"input": wav_path, "output": out_path, "status": "written",
            "shape": list(values.shape)}


def _holds_kind(path: Path, kind: str) -> bool:
    """Whether ``path`` reads as a DYNF file of feature kind ``kind``."""
    try:
        return load_features(path)[1] == kind
    except DynamarkError:
        return False


def cmd_extract(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    workers = 1 if opts["workers"] is None else opts["workers"]
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    audio_dir = Path(opts["audio_dir"])
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = opts["feature"]
    wavs = sorted(audio_dir.glob("*.wav"))
    results, outputs, failures = [], [], 0
    if not wavs:
        print(f"warning: no .wav files in {audio_dir}", file=sys.stderr)
    todo = []
    for wav_path in wavs:
        out_path = out_dir / f"{wav_path.stem}.dynf"
        if out_path.exists() and not opts.get("force") and _holds_kind(out_path, kind):
            results.append({"input": str(wav_path), "output": str(out_path), "status": "skipped"})
            outputs.append(out_path)
        else:
            todo.append((str(wav_path), str(out_path)))
    # Each recording's spans run on its thread's share of the CPUs.
    done = parallel.map_in_order(lambda job: _extract_one(*job, kind), todo, threads=workers)
    for entry in done:
        results.append(entry)
        if entry["status"] == "failed":
            failures += 1
            print(f"error: {entry['input']}: {entry['error']}", file=sys.stderr)
        else:
            outputs.append(Path(entry["output"]))
    report = {"feature": kind, "files": results, "n_failed": failures}
    write_manifest(out_dir / "extract_manifest.json", "extract", opts,
                   [audio_dir], outputs, wall_clock_s=time.monotonic() - start)
    return (1 if failures else 0), report


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def cmd_train(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recordings = load_corpus(opts["features_dir"], opts["annotations_dir"])
    model_cfg, train_cfg = build_configs(opts, input_bins=recordings[0].features.shape[0])
    pieces = sorted({rec.piece_id for rec in recordings})
    if len(pieces) < 2:
        raise ConfigError(f"--k-folds {opts['k_folds']} asked for, but the corpus holds {len(pieces)} piece; "
                          f"cross-validation needs at least 2")
    k = min(opts["k_folds"], len(pieces))
    fold_of_piece = make_folds(pieces, k=k, seed=train_cfg.seed)
    write_segment_manifest(out_dir / "segments.json", recordings, fold_of_piece,
                           window_s=train_cfg.segment_s, mode=train_cfg.tiling)
    folds = [opts["fold"]] if opts["fold"] is not None else list(range(k))

    outputs = [out_dir / "segments.json"]
    per_fold = []
    for fold in folds:
        best, history = train_fold(recordings, fold_of_piece, fold, model_cfg, train_cfg,
                                   log=lambda msg: print(msg, file=sys.stderr))
        cp_path = out_dir / f"fold{fold}.dync"
        save_checkpoint(best, cp_path)
        fold_report = {"fold": fold, "epoch": best.epoch,
                       "val": best.val_summary,
                       "final_epoch_loss": history["epoch_losses"][-1]}
        fold_path = out_dir / f"fold{fold}_report.json"
        _write_json(fold_path, fold_report)
        outputs += [cp_path, fold_path]
        per_fold.append(fold_report)
    report = {"folds": folds,
              "per_fold": per_fold,
              **fold_table([f["val"] for f in per_fold]),
              "model_config": asdict(model_cfg),
              "train_config": asdict(train_cfg)}
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, report)
    outputs.append(summary_path)
    write_manifest(out_dir / "train_manifest.json", "train", opts,
                   [opts["features_dir"], opts["annotations_dir"]], outputs,
                   wall_clock_s=time.monotonic() - start)
    return 0, report


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

@dataclass
class _Reference:
    beat_times: np.ndarray
    downbeat_times: np.ndarray
    markings: list[str]
    change_point_beats: list[int]


def _load_reference(path: Path) -> _Reference:
    if path.suffix == ".json":
        report = EventReport.from_json(path)
        beats = np.asarray(report.beats)
        cp = snap_to_nearest(report.change_points, beats).tolist()
        return _Reference(beat_times=beats, downbeat_times=np.asarray(report.downbeats),
                          markings=list(report.markings), change_point_beats=cp)
    ann = load_annotation(path, Path(str(path).replace("_beats.csv", "_markings.csv")))
    return _Reference(beat_times=ann.beat_times,
                      downbeat_times=ann.beat_times[ann.downbeat_flags],
                      markings=ann.markings,
                      change_point_beats=ann.change_point_beats())


def _labels_at_reference_beats(pred: EventReport, ref_beats: np.ndarray) -> list[str]:
    """Marking of the predicted beat nearest each reference beat."""
    if not pred.beats:
        return ["blank"] * len(ref_beats)
    return [pred.markings[i] for i in snap_to_nearest(ref_beats, pred.beats)]


def _pair_eval_files(pred_path: Path, ref_path: Path) -> list[tuple[str, Path, Path]]:
    if pred_path.is_file():
        return [(pred_path.stem.removesuffix(".events"), pred_path, ref_path)]
    pairs = []
    for pred_file in sorted(pred_path.glob("*.json")):
        if pred_file.stem.endswith((".manifest", "_manifest")):
            continue  # run manifests that annotate and eval write next to reports
        stem = pred_file.stem.removesuffix(".events")
        candidates = [ref_path / f"{stem}_beats.csv", ref_path / f"{stem}.json"]
        ref_file = next((c for c in candidates if c.exists()), None)
        if ref_file is None:
            raise SchemaError(f"no reference found for {stem} in {ref_path}")
        pairs.append((stem, pred_file, ref_file))
    if not pairs:
        raise SchemaError(f"no prediction files in {pred_path}")
    return pairs


def cmd_eval(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    pairs = _pair_eval_files(Path(opts["predictions"]), Path(opts["references"]))
    per_recording = {}
    for stem, pred_file, ref_file in pairs:
        pred = EventReport.from_json(pred_file)
        ref = _load_reference(ref_file)
        per_recording[stem] = score_recording(
            pred, ref.beat_times, ref.downbeat_times, ref.change_point_beats,
            _labels_at_reference_beats(pred, ref.beat_times), ref.markings)
    report = {"per_recording": per_recording}
    for key in TASK_F1_KEYS:
        report[key] = mean_std([r[key] for r in per_recording.values()])
    out_path = Path(opts["out"]) if opts.get("out") else None
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(out_path, report)
        manifest_dir = out_path.parent
    else:
        pred = Path(opts["predictions"])
        manifest_dir = pred if pred.is_dir() else pred.parent
    write_manifest(manifest_dir / "eval_manifest.json", "eval", opts,
                   [opts["predictions"], opts["references"]],
                   [out_path] if out_path else [], wall_clock_s=time.monotonic() - start)
    return 0, report


# --------------------------------------------------------------------------
# annotate
# --------------------------------------------------------------------------

def _read_beats_from(path: Path) -> list[float]:
    """Beat times from a beats CSV or a plain one-time-per-line file."""
    lines = read_text(path).strip().splitlines()
    try:
        if lines and lines[0].replace(" ", "").startswith("beat_index,"):
            times = [float(row[1]) for _, row in _read_rows(path, ["beat_index", "time_s", "is_downbeat"])]
        else:
            times = [float(line) for line in lines if line.strip()]
    except ValueError as exc:
        raise SchemaError(f"{path}: expected one beat time per line or a beats CSV: {exc}") from exc
    check_times(times, path)
    return times


def cmd_annotate(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    audio_path = Path(opts["audio"])
    cp = load_checkpoint(opts["checkpoint"])
    try:
        model = model_from_checkpoint(cp)
    except CheckpointError as exc:
        raise CheckpointError(f"{opts['checkpoint']}: {exc}") from exc
    bins = cp.model_config.input_bins
    kind = next((k for k, n in FEATURE_BINS.items() if n == bins), None)
    if kind is None:
        raise ConfigError(f"{opts['checkpoint']}: checkpoint expects {bins} feature bins, "
                          f"which no feature kind has")
    # one pass over the audio gives the model's features and the loudness curve
    computed = wav_features(audio_path, [kind, "bssl"] if opts.get("loudness_csv") else [kind])
    features = computed[kind]
    beats_override = None
    if opts.get("beats_from"):
        beats_override = _read_beats_from(Path(opts["beats_from"]))
    report = annotate_features(model, features, beat_times_override=beats_override,
                               window_s=cp.train_config.segment_s)
    prefix = Path(opts["out_prefix"]) if opts.get("out_prefix") else audio_path.with_suffix("")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    json_path = Path(f"{prefix}.events.json")
    csv_path = Path(f"{prefix}.events.csv")
    report.write_json(json_path)
    report.write_csv(csv_path)
    outputs = [json_path, csv_path]
    if opts.get("loudness_csv"):
        curve = total_loudness(computed["bssl"])
        loud_path = Path(f"{prefix}.loudness.csv")
        with open(loud_path, "w") as fh:
            fh.write("time_s,total_loudness_sone\n")
            for i, value in enumerate(curve):
                fh.write(f"{i / FPS:.3f},{value:.5f}\n")
        outputs.append(loud_path)
    write_manifest(Path(f"{prefix}.manifest.json"), "annotate", opts,
                   [audio_path, opts["checkpoint"]], outputs, wall_clock_s=time.monotonic() - start)
    return 0, report.to_json_dict()


# --------------------------------------------------------------------------
# argument parsing / dispatch
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here that code means an internal
    error, so a usage error exits 1 like any other bad input.  A flag is
    never abbreviated, so ``train --feature`` cannot read as ``--features-dir``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynamark",
                     description="Piano dynamics, change points, beats and downbeats from audio.")
    parser.add_argument("--version", action="version", version=f"dynamark {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract DYNF feature files from WAVs")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feature", choices=FEATURE_BINS)
    p.add_argument("--force", action="store_true", default=None)
    p.add_argument("--workers", type=int, help="recordings extracted at once, one thread each (default 1)")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("train", help="train folds on extracted features")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--annotations-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--fold", type=int)
    p.add_argument("--k-folds", type=int, dest="k_folds")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--segment-s", type=int, dest="segment_s")
    p.add_argument("--channels", type=int)
    p.add_argument("--blocks-per-branch", type=int, dest="blocks_per_branch")
    p.add_argument("--attention-dim", type=int, dest="attention_dim")
    p.add_argument("--scaling-factor", type=int, dest="scaling_factor")
    p.add_argument("--no-mmoe", action="store_false", dest="use_mmoe", default=None)
    p.add_argument("--no-augment", action="store_false", dest="augment_overlap", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eval", help="score prediction reports against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("annotate", help="attach dynamics/beat events to one audio file")
    p.add_argument("audio")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--beats-from", dest="beats_from")
    p.add_argument("--loudness-csv", action="store_true", default=None, dest="loudness_csv")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")
    return parser


COMMANDS = {"extract": cmd_extract, "train": cmd_train, "eval": cmd_eval,
            "annotate": cmd_annotate}


def _flags(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The options of ``command``: its sub-parser's flags less help, --config
    and --json, keyed by option name."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag.dest: flag for flag in sub.choices[command]._actions
            if flag.dest not in ("help", "config", "json")}


def _read_rerun_manifest(path: Path, parser: argparse.ArgumentParser) -> tuple[str, dict]:
    """The command and options of a run manifest, each read with its flag's type."""
    try:
        manifest = json.loads(path.read_text())
        command, recorded = manifest["command"], manifest["resolved_options"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: not a run manifest: {exc!r}") from exc
    if not isinstance(command, str) or command not in COMMANDS:
        raise SchemaError(f"{path}: unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    if not isinstance(recorded, dict):
        raise SchemaError(f"{path}: resolved_options must be a JSON object")
    # retired options, each with the one recorded value that today's command reproduces
    for key, replayable in {"ablation": None, "align_downbeats": True}.items():
        if key in recorded and recorded[key] is not replayable:
            raise SchemaError(f"{path}: records {key} {recorded[key]!r}, which {command} no longer has; "
                              f"only {replayable!r} replays as the run it was")
    flags = _flags(parser, command)
    missing = [key for key in flags if key not in recorded]
    if missing:
        raise SchemaError(f"{path}: resolved_options lacks {', '.join(missing)}")
    return command, {key: _from_json(recorded[key], flag, command, path) for key, flag in flags.items()}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            command, opts = _read_rerun_manifest(Path(args.manifest), parser)
        else:
            command, opts = args.command, resolve_options(args, parser)
        code, report = COMMANDS[command](opts)
        if getattr(args, "json", False):
            print(json.dumps(report, indent=2))
        return code
    except (DynamarkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - defensive
        import traceback
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

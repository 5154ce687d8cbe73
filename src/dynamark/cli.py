"""Command-line interface: extract, train, eval, annotate, rerun.

Option precedence is CLI flags > config file > DYNAMARK_SEED (seed
only) > built-in defaults.  Config files are flat ``key = value`` text
(``#`` comments allowed).  Every command writes a RunManifest JSON
next to its outputs; ``dynamark rerun <manifest>`` replays a run from
the resolved options recorded there.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audio import (FPS, bssl, decode_and_prepare, extract_features, log_mel, save_features, stft_power,
                    total_loudness)
from .dataset import _read_rows, load_annotation, load_corpus, make_folds, read_text, write_segment_manifest
from .errors import ConfigError, DynamarkError, SchemaError
from .metrics import mean_std, score_recording
from .network import ModelConfig
from .postprocess import EventReport, check_times, snap_to_nearest
from .trainer import (
    ABLATIONS,
    TASK_F1_KEYS,
    TrainConfig,
    annotate_features,
    load_checkpoint,
    model_from_checkpoint,
    run_ablation,
    save_checkpoint,
    train_fold,
)

SEED_ENV_VAR = "DYNAMARK_SEED"

MODEL_KEYS = ("scaling_factor", "channels", "blocks_per_branch", "attention_dim", "use_mmoe")
TRAIN_KEYS = ("lr", "batch_size", "epochs", "seed", "weight_decay", "segment_s",
              "augment_overlap")


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


def _coerce(value):
    if isinstance(value, str):
        low = value.lower()
        if low in ("true", "yes", "on"):
            return True
        if low in ("false", "no", "off"):
            return False
        try:
            return int(value)
        except ValueError:
            pass
        try:
            return float(value)
        except ValueError:
            pass
    return value


def resolve_options(args: argparse.Namespace, keys) -> dict:
    """Merge defaults <- config file <- env seed <- explicit flags."""
    resolved = {}
    file_values = {}
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
    defaults = {**ModelConfig().as_dict(), **TrainConfig().as_dict(),
                "feature": "bssl", "k_folds": 5}
    for key in keys:
        value = defaults.get(key)
        if key in file_values:
            value = _coerce(file_values[key])
        if key == "seed" and os.environ.get(SEED_ENV_VAR):
            value = int(os.environ[SEED_ENV_VAR])
        flag = getattr(args, key, None)
        if flag is not None:
            value = flag
        resolved[key] = value
    return resolved


def build_configs(resolved: dict) -> tuple[ModelConfig, TrainConfig]:
    feature = resolved.get("feature", "bssl")
    model_kwargs = {k: resolved[k] for k in MODEL_KEYS if k in resolved}
    model_kwargs["input_bins"] = 22 if feature == "bssl" else 128
    train_kwargs = {k: resolved[k] for k in TRAIN_KEYS if k in resolved}
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def write_manifest(path, command: str, resolved: dict, inputs, outputs,
                   seed, wall_clock_s: float) -> None:
    """Atomic write (tmp + rename) next to the outputs."""
    manifest = {
        "command": command,
        "resolved_options": {k: v for k, v in sorted(resolved.items())},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "tool_version": __version__,
        "wall_clock_s": round(wall_clock_s, 3),
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, path)


def _emit(report: dict, as_json: bool, out_path=None) -> None:
    text = json.dumps(report, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    if as_json:
        print(text)


# --------------------------------------------------------------------------
# extract
# --------------------------------------------------------------------------

def _extract_one(wav_path: str, out_path: str, kind: str) -> dict:
    """Pure per-file unit of work; safe to run in worker processes."""
    try:
        wav = decode_and_prepare(wav_path)
        values = extract_features(wav, kind)
        save_features(out_path, values, kind)
    except DynamarkError as exc:
        return {"input": wav_path, "status": "failed", "error": str(exc)}
    return {"input": wav_path, "output": out_path, "status": "written",
            "shape": list(values.shape)}


def cmd_extract(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    audio_dir = Path(opts["audio_dir"])
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = opts["feature"]
    workers = int(opts.get("workers") or 1)
    wavs = sorted(audio_dir.glob("*.wav"))
    results, outputs, failures = [], [], 0
    if not wavs:
        print(f"warning: no .wav files in {audio_dir}", file=sys.stderr)
    todo = []
    for wav_path in wavs:
        out_path = out_dir / f"{wav_path.stem}.dynf"
        if out_path.exists() and not opts.get("force"):
            results.append({"input": str(wav_path), "output": str(out_path), "status": "skipped"})
            outputs.append(out_path)
        else:
            todo.append((str(wav_path), str(out_path)))
    if workers > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_extract_one, [w for w, _ in todo],
                                 [o for _, o in todo], [kind] * len(todo)))
    else:
        done = [_extract_one(w, o, kind) for w, o in todo]
    for entry in done:
        results.append(entry)
        if entry["status"] == "failed":
            failures += 1
            print(f"error: {entry['input']}: {entry['error']}", file=sys.stderr)
        else:
            outputs.append(Path(entry["output"]))
    report = {"feature": kind, "files": results, "n_failed": failures}
    write_manifest(out_dir / "extract_manifest.json", "extract", opts,
                   [audio_dir], outputs, seed=None, wall_clock_s=time.monotonic() - start)
    return (1 if failures else 0), report


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def cmd_train(opts: dict) -> tuple[int, dict]:
    start = time.monotonic()
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model_cfg, train_cfg = build_configs(opts)
    recordings = load_corpus(opts["features_dir"], opts["annotations_dir"])
    pieces = sorted({rec.piece_id for rec in recordings})
    k = min(int(opts["k_folds"]), len(pieces))
    fold_of_piece = make_folds(pieces, k=k, seed=train_cfg.seed)
    write_segment_manifest(out_dir / "segments.json", recordings, fold_of_piece,
                           window_s=train_cfg.segment_s)
    folds = [int(opts["fold"])] if opts.get("fold") is not None else list(range(k))

    outputs = [out_dir / "segments.json"]
    if opts.get("ablation"):
        report = run_ablation(opts["ablation"], recordings, fold_of_piece,
                              model_cfg, train_cfg, folds=folds,
                              log=lambda msg: print(msg, file=sys.stderr))
        report_path = out_dir / f"ablation_{opts['ablation']}.json"
        _emit(report, False, report_path)
        outputs.append(report_path)
    else:
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
            _emit(fold_report, False, fold_path)
            outputs += [cp_path, fold_path]
            per_fold.append(fold_report)
        report = {"folds": folds,
                  "per_fold": per_fold,
                  "f1": {key: mean_std([f["val"].get(key) for f in per_fold])
                         for key in TASK_F1_KEYS},
                  "model_config": model_cfg.as_dict(),
                  "train_config": train_cfg.as_dict()}
        summary_path = out_dir / "summary.json"
        _emit(report, False, summary_path)
        outputs.append(summary_path)
    write_manifest(out_dir / "train_manifest.json", "train", opts,
                   [opts["features_dir"], opts["annotations_dir"]], outputs,
                   seed=train_cfg.seed, wall_clock_s=time.monotonic() - start)
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
        return [(pred_path.stem, pred_path, ref_path)]
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
        _emit(report, False, out_path)
        manifest_dir = out_path.parent
    else:
        pred = Path(opts["predictions"])
        manifest_dir = pred if pred.is_dir() else pred.parent
    write_manifest(manifest_dir / "eval_manifest.json", "eval", opts,
                   [opts["predictions"], opts["references"]],
                   [out_path] if out_path else [], seed=None,
                   wall_clock_s=time.monotonic() - start)
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
    model = model_from_checkpoint(cp)
    kind = "bssl" if cp.model_config.input_bins == 22 else "logmel"
    if opts.get("feature") and opts["feature"] != kind:
        raise ConfigError(f"checkpoint expects {kind} features ({cp.model_config.input_bins} bins), "
                          f"but --feature {opts['feature']} was requested")
    spec = stft_power(decode_and_prepare(audio_path))
    loudness = bssl(spec) if kind == "bssl" or opts.get("loudness_csv") else None
    features = loudness.sone if kind == "bssl" else log_mel(spec).values
    beats_override = None
    if opts.get("beats_from"):
        beats_override = _read_beats_from(Path(opts["beats_from"]))
    report = annotate_features(model, features, beat_times_override=beats_override,
                               align_downbeats=bool(opts.get("align_downbeats")),
                               window_s=cp.train_config.segment_s)
    prefix = Path(opts["out_prefix"]) if opts.get("out_prefix") else audio_path.with_suffix("")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    json_path = Path(f"{prefix}.events.json")
    csv_path = Path(f"{prefix}.events.csv")
    report.write_json(json_path)
    report.write_csv(csv_path)
    outputs = [json_path, csv_path]
    if opts.get("loudness_csv"):
        curve = total_loudness(loudness)
        loud_path = Path(f"{prefix}.loudness.csv")
        with open(loud_path, "w") as fh:
            fh.write("time_s,total_loudness_sone\n")
            for i, value in enumerate(curve):
                fh.write(f"{i / FPS:.3f},{value:.5f}\n")
        outputs.append(loud_path)
    write_manifest(Path(f"{prefix}.manifest.json"), "annotate", opts,
                   [audio_path, opts["checkpoint"]], outputs, seed=None,
                   wall_clock_s=time.monotonic() - start)
    return 0, report.to_json_dict()


# --------------------------------------------------------------------------
# argument parsing / dispatch
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynamark",
                                     description="Piano dynamics, change points, beats and downbeats from audio.")
    parser.add_argument("--version", action="version", version=f"dynamark {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract DYNF feature files from WAVs")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feature", choices=("bssl", "logmel"))
    p.add_argument("--force", action="store_true", default=None)
    p.add_argument("--workers", type=int, help="parallel extraction processes (default 1)")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("train", help="train folds (or one ablation) on extracted features")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--annotations-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--fold", type=int)
    p.add_argument("--all-folds", action="store_true")
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument("--feature", choices=("bssl", "logmel"))
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
    p.add_argument("--align-downbeats", action="store_true", default=None)
    p.add_argument("--loudness-csv", action="store_true", default=None, dest="loudness_csv")
    p.add_argument("--feature", choices=("bssl", "logmel"))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")
    return parser


OPTION_KEYS = {
    "extract": ("audio_dir", "out_dir", "feature", "force", "workers"),
    "train": ("features_dir", "annotations_dir", "out_dir", "fold", "all_folds",
              "ablation", "feature", "k_folds") + TRAIN_KEYS
             + ("channels", "blocks_per_branch", "attention_dim", "scaling_factor",
                "use_mmoe"),
    "eval": ("predictions", "references", "out"),
    "annotate": ("audio", "checkpoint", "out_prefix", "beats_from",
                 "align_downbeats", "loudness_csv", "feature"),
}

COMMANDS = {"extract": cmd_extract, "train": cmd_train, "eval": cmd_eval,
            "annotate": cmd_annotate}


def _read_rerun_manifest(path: Path) -> tuple[str, dict]:
    """The command and resolved options recorded in a run manifest."""
    try:
        manifest = json.loads(path.read_text())
        command, opts = manifest["command"], manifest["resolved_options"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: not a run manifest: {exc!r}") from exc
    if not isinstance(command, str) or command not in COMMANDS:
        raise SchemaError(f"{path}: unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    if not isinstance(opts, dict):
        raise SchemaError(f"{path}: resolved_options must be a JSON object")
    missing = [key for key in OPTION_KEYS[command] if key not in opts]
    if missing:
        raise SchemaError(f"{path}: resolved_options lacks {', '.join(missing)}")
    return command, opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            command, opts = _read_rerun_manifest(Path(args.manifest))
            code, report = COMMANDS[command](opts)
        else:
            opts = resolve_options(args, OPTION_KEYS[args.command])
            code, report = COMMANDS[args.command](opts)
        if getattr(args, "json", False):
            print(json.dumps(report, indent=2))
        return code
    except (DynamarkError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - defensive
        import traceback
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

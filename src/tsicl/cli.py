"""Stage-based pipeline CLI: synth -> ingest -> build -> train -> eval -> report.

Stages communicate through files only, so each one is independently runnable
and every artifact embeds the resolved configuration but its file paths
(``PATH_KEYS``), and the seed. Configuration comes from a flat ``key = value``
file; ``--set key=value`` flags override file values, which override defaults.
``SCHEMA`` takes the model and training keys, with their kinds and defaults,
from ``ModelConfig``'s and ``TrainConfig``'s fields. ``experiment`` reads the
resolved dict into the library's objects and runs the same pipeline in memory
(``run_seed``).

Exit codes: 0 success, 2 configuration error, 3 missing/invalid input,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .context import read_header, read_jsonl, write_jsonl
from .errors import ConfigError, DataError, GeometryError, NumericalError
from .evalharness import EvalReport, improvement_ratio, run_unseen_eval
from .experiment import build_datasets, eval_protocol, model_config, synth_spec, train_config
from .model import ModelConfig, init_params, param_shapes
from .series import SplitStore, build_store, load_csv, load_store, save_store
from .synthetic import generate, write_csv
from .trainer import TrainConfig, train

KINDS = ("int", "float", "bool", "ints", "strs", "str")  # what _coerce parses; a float must be finite


def _field_entries(cls) -> dict[str, tuple[str, object]]:
    """SCHEMA entries for a config dataclass: each field's annotation and default, ``seed`` aside."""
    entries = {}
    for f in fields(cls):
        if f.type not in KINDS:  # every package module postpones annotations, so they are strings
            raise TypeError(f"{cls.__name__}.{f.name}: cannot parse a {f.type} from a config value")
        if f.name != "seed":
            entries[f.name] = (f.type, f.default)
    return entries


SCHEMA: dict[str, tuple[str, object]] = {
    # shared
    "out_dir": ("str", "out"),
    "seed": ("int", 0),
    "dataset_name": ("str", "synth"),
    # synth
    "synth_family": ("str", "sinusoid_mixture"),
    "synth_count": ("int", 32),
    "synth_length": ("int", 2048),
    # ingest
    "csv": ("str", ""),
    "channels": ("strs", []),
    "store": ("str", ""),
    # window (lookback = 2 * horizon) + build
    "horizon": ("int", 12),
    "tasks": ("strs", ["forecast", "impute"]),
    "demo_counts": ("ints", [0, 2, 4]),
    "stride": ("int", 0),  # 0 = horizon, for train and valid queries alike
    "cross_channel_demos": ("bool", False),
    # model
    **_field_entries(ModelConfig),
    # train
    **_field_entries(TrainConfig),
    "checkpoint": ("str", ""),
    "train_record": ("str", ""),
    # eval + report
    "eval_task": ("str", "backtrace"),
    "demo_count": ("int", 4),
    "eval_stride": ("int", 0),
    "report": ("str", ""),
    "reports": ("strs", []),
    "summary": ("str", ""),
}
# what ``build`` reads (position k of demo_counts sets the k-th build seed): a context file must match them
BUILD_KEYS = ("seed", "horizon", "tasks", "demo_counts", "stride", "cross_channel_demos")
# where files go: left out of what artifacts embed, so their bytes do not depend on the paths
PATH_KEYS = ("out_dir", "csv", "store", "checkpoint", "train_record", "report", "reports", "summary")


def _coerce(key: str, raw: str):
    kind, _ = SCHEMA[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
            if not np.isfinite(value):  # every comparison with nan is False: a nan bound would check nothing
                raise ValueError("not finite")
            return value
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError("not one of 1/0, true/false, yes/no, on/off")
        if kind == "ints":
            return [int(x) for x in raw.split(",") if x.strip() != ""]
        if kind == "strs":
            return [x.strip() for x in raw.split(",") if x.strip() != ""]
        return raw.strip()  # "str"
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {kind}: {exc}") from None


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:  # a directory, an unreadable file or bytes that are not text
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    raw: dict[str, str] = {}
    if config_path:
        raw.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    resolved = {key: default for key, (_, default) in SCHEMA.items()}
    for key, value in raw.items():
        resolved[key] = _coerce(key, value)
    if resolved["seed"] < 0:  # numpy's SeedSequence takes no negative entropy
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    name = resolved["dataset_name"]
    if "," in name or name.splitlines() not in ([], [name]):  # a field of every eval_report.csv row
        raise ConfigError(f"dataset_name must hold no comma or line break, got {name!r}")
    if len(set(resolved["channels"])) < len(resolved["channels"]):
        raise ConfigError(f"channels must not repeat a name, got {resolved['channels']}")
    return resolved


def _path(cfg: dict, key: str, default_name: str, write: bool = False) -> Path:
    """``cfg[key]``, else ``default_name`` in out_dir; only a stage about to write makes out_dir."""
    out_dir = Path(cfg["out_dir"])
    if write:
        out_dir.mkdir(parents=True, exist_ok=True)
    return Path(cfg[key]) if cfg[key] else out_dir / default_name


def _embedded(cfg: dict) -> dict:
    return {key: value for key, value in cfg.items() if key not in PATH_KEYS}


def _append_config(path: Path, cfg: dict) -> None:
    """End a CSV artifact with the line that embeds the resolved configuration."""
    with path.open("a") as fh:
        fh.write(f"# config,{json.dumps(_embedded(cfg), separators=(',', ':'))}\n")


def cmd_synth(cfg: dict) -> None:
    data = generate(synth_spec(cfg))
    out = _path(cfg, "csv", "synth.csv", write=True)
    write_csv(data, out)
    print(f"synth: wrote {len(data.channels)} channels x {len(data.values)} steps to {out}")


def cmd_ingest(cfg: dict) -> None:
    csv_path = _path(cfg, "csv", "synth.csv")
    if not csv_path.exists():
        raise DataError(f"missing input csv: {csv_path}")
    raw = load_csv(csv_path, channels=cfg["channels"] or None, name=cfg["dataset_name"])
    store = build_store(raw, meta={"config": _embedded(cfg), "seed": cfg["seed"]})
    out = _path(cfg, "store", "store.json", write=True)
    save_store(store, out)
    print(f"ingest: {len(store.channels)} channels split and normalized -> {out}")


def cmd_build(cfg: dict) -> None:
    store_path = _path(cfg, "store", "store.json")
    store = load_store(store_path)
    digest = hashlib.sha256(store_path.read_bytes()).hexdigest()
    out_dir, total = Path(cfg["out_dir"]), 0
    for m, *parts in build_datasets(store, cfg):
        out_dir.mkdir(parents=True, exist_ok=True)
        for part, dataset in zip(("train", "valid"), parts):
            write_jsonl(dataset, out_dir / f"ctx_{part}_m{m}.jsonl", meta={"config": _embedded(cfg), "store_sha256": digest})
            total += len(dataset)
    print(f"build: wrote {total} samples across demo counts {cfg['demo_counts']} -> {cfg['out_dir']}")


def _read_context_files(cfg: dict, store: SplitStore):
    """The train and valid context files, one dataset per demo count, replayed once every header names this
    store and build."""
    paths = [Path(cfg["out_dir"]) / f"ctx_{part}_m{m}.jsonl" for part in ("train", "valid") for m in cfg["demo_counts"]]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise DataError(f"missing context data: {missing} (run `build` first)")
    store_path = _path(cfg, "store", "store.json")
    digest = hashlib.sha256(store_path.read_bytes()).hexdigest()
    headers = [read_header(p) for p in paths]
    stale = [str(p) for p, header in zip(paths, headers) if header.get("store_sha256") != digest]
    if stale:
        raise DataError(f"{stale} not built from {store_path} (run `build` again)")
    for path, header in zip(paths, headers):
        built = header.get("config")
        changed = [key for key in BUILD_KEYS if not isinstance(built, dict) or built.get(key) != cfg[key]]
        if changed:
            raise DataError(f"{path} was not built with {changed[0]} = {cfg[changed[0]]!r} (run `build` again)")
    datasets, k = [read_jsonl(p, store) for p in paths], len(cfg["demo_counts"])
    for path, m, dataset in zip(paths, cfg["demo_counts"] * 2, datasets):
        if len(dataset) and dataset.rows.shape[1] != m + 1:
            raise DataError(f"malformed dataset {path}: its samples hold {dataset.rows.shape[1] - 1} demos, not {m}")
    return datasets[:k], datasets[k:]


def cmd_train(cfg: dict) -> None:
    model_cfg, train_cfg = model_config(cfg), train_config(cfg)  # a configuration error reads no file
    store = load_store(_path(cfg, "store", "store.json"))
    train_ds, valid_ds = _read_context_files(cfg, store)
    params = init_params(model_cfg, seed=cfg["seed"])
    params, record = train(params, train_ds, valid_ds, model_cfg, train_cfg)
    ckpt = _path(cfg, "checkpoint", "checkpoint.json", write=True)
    ad.save_params(
        params,
        ckpt,
        meta={"config": _embedded(cfg), "model": asdict(model_cfg), "seed": cfg["seed"], "best_epoch": record.best_epoch},
    )
    record_path = _path(cfg, "train_record", "train_record.csv")
    record.write_csv(record_path)
    _append_config(record_path, cfg)
    print(
        f"train: {len(record.train_losses)} epochs, best epoch {record.best_epoch} "
        f"(valid {record.best_valid_loss:.6f}) -> {ckpt}"
    )


def cmd_eval(cfg: dict) -> None:
    model_cfg, protocol = model_config(cfg), eval_protocol(cfg)  # a configuration error reads no file
    ckpt = _path(cfg, "checkpoint", "checkpoint.json")
    if not ckpt.exists():
        raise DataError(f"missing checkpoint: {ckpt} (run `train` first)")
    params, meta = ad.load_params(ckpt)
    if meta.get("model"):
        try:
            trained_cfg = ModelConfig(**meta["model"])
        except (TypeError, ConfigError) as exc:
            raise DataError(f"malformed checkpoint {ckpt}: meta model {meta['model']!r}: {exc}") from None
        if trained_cfg != model_cfg:
            raise ConfigError(f"checkpoint model {meta['model']} does not match configured model")
    pretrained = meta.get("config") or {}  # eval_task is held out from cfg["tasks"]: they must be these
    if isinstance(pretrained, dict) and pretrained.get("tasks", cfg["tasks"]) != cfg["tasks"]:
        raise ConfigError(f"checkpoint pre-trained on tasks {pretrained['tasks']}, configured {cfg['tasks']}")
    want = param_shapes(model_cfg)
    got = {name: p.data.shape for name, p in params.items()}
    bad = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    if bad:
        raise DataError(f"checkpoint {ckpt} does not fit the configured model: parameter {bad[0]} "
                        f"has shape {got.get(bad[0], 'missing')}, expected {want.get(bad[0], 'none')}")
    store = load_store(_path(cfg, "store", "store.json"))
    report = run_unseen_eval(protocol, model_cfg, params, store, cfg["seed"], cfg["eval_stride"] or None)
    out = _path(cfg, "report", "eval_report.csv", write=True)
    report.write_csv(out)
    _append_config(out, cfg)
    ratio = improvement_ratio(report)
    print(f"eval: {len(report.rows)} rows on {report.workers} worker(s), improvement ratio {ratio:.4f} -> {out}")


def cmd_report(cfg: dict) -> None:
    paths = [Path(p) for p in cfg["reports"]] or [_path(cfg, "report", "eval_report.csv")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise DataError(f"missing evaluation reports: {missing}")
    merged = EvalReport()
    for p in paths:
        merged.rows.extend(EvalReport.read_csv(p).rows)
    if not merged.rows:
        raise DataError("no rows in the given reports")
    ratio = improvement_ratio(merged)  # refuses a row given twice, which would count as a second seed

    cells: dict[tuple, dict[str, list]] = {}
    for r in merged.rows:
        cells.setdefault((r.backbone, r.task, r.dataset, r.horizon), {}).setdefault(r.method, []).append(r)
    lines = ["backbone,task,dataset,horizon,method,seeds,mean_mse,mean_mae"]
    for key in sorted(cells):
        for method, rows in sorted(cells[key].items()):
            mean_mse = float(np.mean([r.mse for r in rows]))
            mean_mae = float(np.mean([r.mae for r in rows]))
            lines.append(f"{key[0]},{key[1]},{key[2]},{key[3]},{method},{len(rows)},{mean_mse!r},{mean_mae!r}")
    lines.append(f"# improvement_ratio,{ratio!r}")
    print("\n".join(lines))
    out = _path(cfg, "summary", "summary.csv", write=True)
    out.write_text("\n".join(lines) + "\n")
    _append_config(out, cfg)


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tsicl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (flag > config file > default)",
        )
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.overrides)
        COMMANDS[args.command](cfg)
    except (ConfigError, GeometryError) as exc:
        print(f"error: 2: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"error: 3: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: 4: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

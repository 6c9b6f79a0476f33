"""Dataset preparation: taxonomy, track split, clip manifests."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import WavFile
from .config import RunConfig
from .labeling import (
    DEFAULT_THRESHOLD, build_taxonomy, clip_label, collapse_labels,
    load_category_map, parse_activation_csv, read_text, stratified_split, write_split_file,
    write_taxonomy,
)

MANIFEST_HEADER = "# instrument clip manifest v2"


@dataclass
class ManifestRow:
    track_id: str
    clip_index: int
    source_path: str
    labels: np.ndarray


def write_manifest(path, rows, classes) -> None:
    """Tab-separated clip records with the class list pinned in the header,
    in UTF-8, as :func:`read_manifest` reads them."""
    lines = [
        MANIFEST_HEADER,
        "# classes: " + ",".join(classes),
        "# columns: track_id\tclip_index\tsource_path\t" +
        "\t".join(f"label:{c}" for c in classes),
    ]
    for row in rows:
        bits = "\t".join(str(int(b)) for b in row.labels)
        lines.append(f"{row.track_id}\t{row.clip_index}\t{row.source_path}\t{bits}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path):
    """:returns: ``(rows, classes)``"""
    lines = read_text(path).splitlines()
    if lines[:1] != [MANIFEST_HEADER]:
        raise ValueError(f"{path}: not a '{MANIFEST_HEADER}' file; re-run prepare-dataset")
    classes = None
    rows = []
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            if line.startswith("# classes:"):
                classes = [c for c in line.split(":", 1)[1].strip().split(",") if c]
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if classes is None:
            raise ValueError(f"{path}: data row before '# classes:' header")
        if len(parts) != 3 + len(classes):
            raise ValueError(
                f"{path}:{lineno}: expected {3 + len(classes)} columns, got {len(parts)}"
            )
        bad = [b for b in parts[3:] if b not in ("0", "1")]
        if bad:
            raise ValueError(f"{path}:{lineno}: label bits must be 0/1, got {bad[0]!r}")
        labels = np.array([b == "1" for b in parts[3:]], dtype=np.uint8)
        try:
            clip_index = int(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: clip index {parts[1]!r} is not an integer") from None
        if clip_index < 0:
            raise ValueError(f"{path}:{lineno}: negative clip index {clip_index}")
        rows.append(ManifestRow(parts[0], clip_index, parts[2], labels))
    if classes is None:
        raise ValueError(f"{path}: missing '# classes:' header")
    return rows, classes


def find_activation_file(activation_dir, track_id: str):
    """``<track_id>_ACTIVATION_CONF.lab`` in ``activation_dir``, or None."""
    candidate = Path(activation_dir) / f"{track_id}_ACTIVATION_CONF.lab"
    return candidate if candidate.exists() else None


def track_instrument_presence(table) -> set:
    """Raw instruments whose smoothed confidence ever reaches ``DEFAULT_THRESHOLD``."""
    peaks = table.smoothed.max(axis=0)
    return {name for name, peak in zip(table.columns, peaks) if peak >= DEFAULT_THRESHOLD}


def prepare_dataset(config: RunConfig, log=print):
    """Build taxonomy, split tracks, slice and label clips, write manifests.

    Clip counts come from the WAV headers; no audio is decoded here. An
    instrument is active in a clip, and present in a track, when its
    confidence's ``DEFAULT_WINDOW_SECONDS`` moving average reaches
    ``DEFAULT_THRESHOLD`` there. Tracks without a
    ``<track>_ACTIVATION_CONF.lab`` file are reported and skipped. Clips not
    covered by the annotation range are skipped likewise. Returns the
    ``(train_manifest, test_manifest)`` paths.
    """
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    wavs = sorted(Path(config.audio_dir).glob("*.wav"))
    if not wavs:
        raise FileNotFoundError(f"no .wav files in {config.audio_dir}")

    raw_map = load_category_map(config.taxonomy_file)
    tables = {}
    track_paths = {}
    for wav in wavs:
        track_id = wav.stem
        act = find_activation_file(config.activation_dir, track_id)
        if act is None:
            log(f"skip track={track_id} reason=missing-activation-file")
            continue
        tables[track_id] = parse_activation_csv(read_text(act), track_id)
        track_paths[track_id] = wav
    if not tables:
        raise FileNotFoundError(f"no track has an activation file in {config.activation_dir}")

    presence = {tid: track_instrument_presence(t) for tid, t in tables.items()}
    taxonomy = build_taxonomy(presence, raw_map, config.min_songs)
    write_taxonomy(out / "taxonomy_resolved.tsv", taxonomy)
    log(f"taxonomy classes={len(taxonomy.classes)}")

    track_classes = {tid: taxonomy.class_matrix(sorted(raws)).any(axis=0)
                     for tid, raws in presence.items()}
    split = stratified_split(track_classes, config.test_fraction, config.split_seed)
    write_split_file(out / "split_train.txt", split.train_ids)
    write_split_file(out / "split_test.txt", split.test_ids)
    log(f"split train_tracks={len(split.train_ids)} test_tracks={len(split.test_ids)}")

    def rows_for(track_ids):
        rows = []
        for tid in track_ids:
            wav = track_paths[tid]
            with WavFile(wav) as track:
                n_clips = track.clips
            table = tables[tid]
            class_matrix = taxonomy.class_matrix(table.columns)
            for i in range(n_clips):
                try:
                    raw_bits = clip_label(table, float(i), float(i + 1))
                except ValueError:
                    log(f"skip clip track={tid} clip={i} reason=outside-annotation-range")
                    continue
                rows.append(ManifestRow(tid, i, str(wav), collapse_labels(raw_bits, class_matrix)))
        return rows

    train_rows = rows_for(split.train_ids)
    test_rows = rows_for(split.test_ids)
    write_manifest(config.train_manifest(), train_rows, taxonomy.classes)
    write_manifest(config.test_manifest(), test_rows, taxonomy.classes)
    log(f"manifests train_clips={len(train_rows)} test_clips={len(test_rows)}")
    return config.train_manifest(), config.test_manifest()

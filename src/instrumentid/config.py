"""Run configuration: a flat key=value file mapped onto one dataclass."""

from dataclasses import dataclass, fields
from pathlib import Path

from .features import MfccConfig
from .labeling import DEFAULT_MIN_SONGS, read_text
from .nn.model import SgdConfig, dropout

DEFAULT_TAXONOMY = Path(__file__).parent / "data" / "medleydb_categories.tsv"
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


@dataclass
class RunConfig:
    audio_dir: Path = Path("audio")
    activation_dir: Path = Path("activations")
    taxonomy_file: Path = DEFAULT_TAXONOMY
    output_dir: Path = Path("out")

    test_fraction: float = 0.2
    split_seed: int = 0
    min_songs: int = DEFAULT_MIN_SONGS

    learning_rate: float = SgdConfig.learning_rate
    batch_size: int = SgdConfig.batch_size
    epochs: int = SgdConfig.epochs
    train_seed: int = SgdConfig.seed
    drop_rate: float = dropout.drop_rate
    reduced: bool = False
    eval_threshold: float = 0.5
    eval_each_epoch: bool = True

    def sgd(self) -> SgdConfig:
        return SgdConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                         epochs=self.epochs, seed=self.train_seed)

    def mfcc(self) -> MfccConfig:
        return MfccConfig()

    def train_manifest(self) -> Path:
        return self.output_dir / "train_manifest.tsv"

    def test_manifest(self) -> Path:
        return self.output_dir / "test_manifest.tsv"

    def checkpoint_dir(self) -> Path:
        return self.output_dir / "checkpoints"

    def validate(self, require_inputs: bool = True) -> None:
        """Check value ranges and, when ``require_inputs``, path existence.

        Each range test is written so that a NaN fails it."""
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.split_seed < 0:
            raise ValueError(f"split_seed must be >= 0, got {self.split_seed}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 <= self.eval_threshold <= 1.0:
            raise ValueError(f"eval_threshold must be in [0, 1], got {self.eval_threshold}")
        if self.min_songs < 1:
            raise ValueError(f"min_songs must be >= 1, got {self.min_songs}")
        self.sgd()
        if require_inputs:
            for name in ("audio_dir", "activation_dir", "taxonomy_file"):
                path = getattr(self, name)
                if not Path(path).exists():
                    raise FileNotFoundError(f"{name} does not exist: {path}")


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(value)


def load_config(path) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment, unknown keys are errors.

    Each value is parsed by the type of its ``RunConfig`` field; relative
    paths are resolved against the config file's directory. A value that does
    not parse, and a key given twice, name ``path:line`` and the key.
    """
    path = Path(path)
    base = path.parent
    field_types = {f.name: f.type for f in fields(RunConfig)}
    cfg = RunConfig()
    seen = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        kind = field_types.get(key)
        if kind is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r} already set at {path}:{seen[key]}")
        seen[key] = lineno
        if kind is Path:
            p = Path(value)
            setattr(cfg, key, p if p.is_absolute() else base / p)
            continue
        try:
            setattr(cfg, key, _parse_bool(value) if kind is bool else kind(value))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r}: expected {_EXPECTED[kind]}, got {value!r}"
            ) from None
    return cfg

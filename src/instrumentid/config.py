"""Run configuration: a flat key=value file mapped onto one dataclass."""

from dataclasses import dataclass
from pathlib import Path

from .features import MfccConfig
from .labeling import DEFAULT_MIN_SONGS, DEFAULT_THRESHOLD, DEFAULT_WINDOW_SECONDS
from .nn.model import SgdConfig

DEFAULT_TAXONOMY = Path(__file__).parent / "data" / "medleydb_categories.tsv"


@dataclass
class RunConfig:
    audio_dir: Path = Path("audio")
    activation_dir: Path = Path("activations")
    taxonomy_file: Path = DEFAULT_TAXONOMY
    output_dir: Path = Path("out")

    test_fraction: float = 0.2
    split_seed: int = 0
    min_songs: int = DEFAULT_MIN_SONGS
    activation_window: float = DEFAULT_WINDOW_SECONDS
    activation_threshold: float = DEFAULT_THRESHOLD

    learning_rate: float = SgdConfig.learning_rate
    batch_size: int = SgdConfig.batch_size
    epochs: int = SgdConfig.epochs
    train_seed: int = SgdConfig.seed
    drop_rate: float = 0.5
    reduced: bool = False
    eval_threshold: float = 0.5
    eval_each_epoch: bool = True

    mfcc_frame_size: int = MfccConfig.frame_size
    mfcc_hop: int = MfccConfig.hop
    mfcc_mel_bands: int = MfccConfig.mel_bands
    mfcc_num_coeffs: int = MfccConfig.num_coeffs

    def sgd(self) -> SgdConfig:
        return SgdConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                         epochs=self.epochs, seed=self.train_seed)

    def mfcc(self) -> MfccConfig:
        return MfccConfig(frame_size=self.mfcc_frame_size, hop=self.mfcc_hop,
                          mel_bands=self.mfcc_mel_bands, num_coeffs=self.mfcc_num_coeffs)

    def train_manifest(self) -> Path:
        return self.output_dir / "train_manifest.tsv"

    def test_manifest(self) -> Path:
        return self.output_dir / "test_manifest.tsv"

    def checkpoint_dir(self) -> Path:
        return self.output_dir / "checkpoints"

    def validate(self, require_inputs: bool = True) -> None:
        """Check value ranges and, when ``require_inputs``, path existence."""
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if not 0.0 <= self.eval_threshold <= 1.0:
            raise ValueError(f"eval_threshold must be in [0, 1], got {self.eval_threshold}")
        if self.min_songs < 1:
            raise ValueError(f"min_songs must be >= 1, got {self.min_songs}")
        self.sgd()
        self.mfcc()
        if require_inputs:
            for name in ("audio_dir", "activation_dir", "taxonomy_file"):
                path = getattr(self, name)
                if not Path(path).exists():
                    raise FileNotFoundError(f"{name} does not exist: {path}")


_PATH_KEYS = {"audio_dir", "activation_dir", "taxonomy_file", "output_dir"}
_BOOL_KEYS = {"reduced", "eval_each_epoch"}
_INT_KEYS = {"split_seed", "min_songs", "batch_size", "epochs", "train_seed",
             "mfcc_frame_size", "mfcc_hop", "mfcc_mel_bands", "mfcc_num_coeffs"}
_FLOAT_KEYS = {"test_fraction", "activation_window", "activation_threshold",
               "learning_rate", "drop_rate", "eval_threshold"}


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"config key {key}: expected a boolean, got {value!r}")


def load_config(path) -> RunConfig:
    """Parse "key = value" lines; '#' starts a comment, unknown keys are errors.

    Relative paths are resolved against the config file's directory.
    """
    path = Path(path)
    base = path.parent
    cfg = RunConfig()
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _PATH_KEYS:
            p = Path(value)
            setattr(cfg, key, p if p.is_absolute() else base / p)
        elif key in _BOOL_KEYS:
            setattr(cfg, key, _parse_bool(value, key))
        elif key in _INT_KEYS:
            setattr(cfg, key, int(value))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, float(value))
        else:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
    return cfg

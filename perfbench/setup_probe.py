"""One cold start, timed from outside by the benchmark for ``setup_s``.

Imports spinboson (numpy and scipy with it), loads the config given as the
only argument, builds the model and makes the first BLAS and LAPACK calls,
whose one-time initialisation would otherwise land in the first verb timed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spinboson.config import load_config  # noqa: E402


def main(config_path: str) -> None:
    model = load_config(config_path).model()
    h = np.eye(2 * len(model.modes) + 2, dtype=complex)
    np.linalg.eigh(h @ h)


if __name__ == "__main__":
    main(sys.argv[1])

"""Put the benchmark's modules and ``src`` on the path, kernels loaded."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(REPO / "src"))

from extension import build_extension, load_extension  # noqa: E402

load_extension(build_extension(REPO, HERE / ".build")[0])

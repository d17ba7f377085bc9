import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if not run.use_checkout_sources():
    raise RuntimeError("the benchmark tests need the package sources in src/")

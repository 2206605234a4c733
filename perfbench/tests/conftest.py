import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.common import enter_checkout  # noqa: E402

enter_checkout()

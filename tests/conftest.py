import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

settings.register_profile("deterministic", derandomize=True, max_examples=25)
settings.load_profile("deterministic")

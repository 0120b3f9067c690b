"""Import lbhx from this checkout's `src/`, and from nowhere else."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_src() -> None:
    """Put `<checkout>/src` first on the path; exit 2 if lbhx is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lbhx
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lbhx from {src}: {exc}")
    origin = Path(lbhx.__file__).resolve().parent.parent
    if origin != src.resolve():
        sys.exit(f"perfbench: lbhx imported from {origin}, not {src}")

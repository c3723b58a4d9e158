"""Rewrite the golden texts: every case of tests/golden_cases.py is run in
this process, in a fresh temporary directory, and its text is written to
tests/golden/<name>.txt; a text there that no case names is removed.  It
prints one line per text it changed, added or removed.

It takes no options.  Commit its output only with a change that declares
a byte reset of the reports, so that the change's diff shows every moved
field.  Run from anywhere:

    python3 tools/golden.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_cases  # noqa: E402


def main() -> int:
    kept = set()
    for name, case in golden_cases.CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            result = golden_cases.run_case(case, Path(workdir))
        path = golden_cases.GOLDEN / f"{name}.txt"
        text = golden_cases.golden_text(case, *result).encode("utf-8")
        if not path.exists() or path.read_bytes() != text:
            print(f"{'changed' if path.exists() else 'added'} {path.relative_to(ROOT)}")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text)
        kept.add(path)
    for path in sorted(golden_cases.GOLDEN.rglob("*.txt")):
        if path not in kept:
            print(f"removed {path.relative_to(ROOT)}")
            path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())

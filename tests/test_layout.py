"""The file boundary: only ``corpus.read_lines`` and ``corpus.write_lines``
open, create or write files; every other module calls them."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "popbias"
FILE_ACCESS = re.compile(r"open\(|\.read_text\(|\.write_text\(|\.mkdir\(")
BOUNDARY = ("read_lines", "write_lines")


def boundary_lines() -> set[int]:
    """Line numbers of the two boundary functions in ``corpus.py``."""
    tree = ast.parse((SRC / "corpus.py").read_text(encoding="utf-8"))
    found = {node.name: range(node.lineno, node.end_lineno + 1)
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in BOUNDARY}
    assert sorted(found) == sorted(BOUNDARY), f"corpus.py defines only {sorted(found)}"
    return {lineno for lines in found.values() for lineno in lines}


def test_files_are_touched_only_through_the_corpus_boundary():
    allowed = boundary_lines()
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if FILE_ACCESS.search(line) and not (
                path == SRC / "corpus.py" and lineno in allowed
            ):
                hits.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not hits, "file access outside corpus.read_lines/write_lines:\n" + "\n".join(hits)
